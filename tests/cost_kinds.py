"""Tie-heavy cost matrices for the assignment solver: its property test and the parity tool share them.

`tie_heavy_cost` builds one matrix of a given kind and shape from a numpy
generator. Every kind is built to have many equal-cost optima: grid values
with some all-1.0 (fully gated) rows and columns; duplicated rows and
columns; `build_cost_matrix` on repeated boxes; dense continuous costs in
the trackers' range [0, 1.3]; `crowded_boxes_cost`, a crowded keyframe
whose detections are jittered, missed and duplicated copies of its ground
truth; negated integer hit counts shaped like IDF1's identity pairing; and
a permutation, one full assignment of entries well below a common top with
every other entry at that top, whose optimum is unique.
"""

from __future__ import annotations

import numpy as np

from asadeval.matching import build_cost_matrix
from asadeval.model import BoundingBox

KINDS = ("grid", "duplicates", "boxes", "dense", "crowded", "counts", "permutation")
COST_GRID = np.array([0.0, 0.25, 0.5, 1.0])


def random_boxes(rng: np.random.Generator, count: int) -> list[BoundingBox]:
    boxes = []
    for _ in range(count):
        x1, y1 = rng.uniform(0.0, 0.7, size=2)
        w, h = rng.uniform(0.05, 0.3, size=2)
        boxes.append(BoundingBox(x1, y1, min(x1 + w, 1.0), min(y1 + h, 1.0)))
    return boxes


def tie_heavy_cost(rng: np.random.Generator, kind: str, n_rows: int, n_cols: int) -> np.ndarray:
    """One ``(n_rows, n_cols)`` cost matrix of ``kind``, one of `KINDS`."""
    if kind == "grid":
        cost = rng.choice(COST_GRID, size=(n_rows, n_cols))
        cost[rng.random(n_rows) < 0.2] = 1.0
        cost[:, rng.random(n_cols) < 0.2] = 1.0
        return cost
    if kind == "duplicates":
        base = rng.random((3, 3))
        return base[np.ix_(rng.integers(0, 3, n_rows), rng.integers(0, 3, n_cols))]
    if kind == "boxes":
        palette = random_boxes(rng, 3)
        return build_cost_matrix(
            [palette[i] for i in rng.integers(0, 3, n_rows)],
            [palette[i] for i in rng.integers(0, 3, n_cols)],
        )
    if kind == "dense":
        return rng.uniform(0.0, 1.3, size=(n_rows, n_cols))
    if kind == "crowded":
        return crowded_boxes_cost(rng, n_rows, n_cols)
    if kind == "counts":
        # `identity.id_counts` pairs GT (rows) and predicted identities on their
        # negated gated-hit counts: each actor's many hits fall on one
        # identity, two actors may share one, and stray hits are few.
        counts = rng.choice([0, 0, 0, 1, 2, 3], size=(n_rows, n_cols))
        counts[np.arange(n_rows), rng.integers(0, n_cols, n_rows)] += rng.choice([10, 20, 30], n_rows)
        return -counts.astype(float)
    if kind == "permutation":
        # One entry per row and column at least 0.01 below a common top: a gated
        # keyframe where each actor passes only with its own box (top 1, costs
        # 1 - IoU), or the negated counts of a clean tracking (top 0).
        k = min(n_rows, n_cols)
        rows, cols = rng.permutation(n_rows)[:k], rng.permutation(n_cols)[:k]
        if rng.random() < 0.5:
            top, below = 1.0, rng.uniform(0.0, 0.5, k)
        else:
            top, below = 0.0, -rng.integers(1, 31, k).astype(float)
        cost = np.full((n_rows, n_cols), top)
        cost[rows, cols] = below
        return cost
    raise ValueError(f"unknown cost kind {kind!r}")


def crowded_boxes_cost(rng: np.random.Generator, n_rows: int, n_cols: int) -> np.ndarray:
    """`build_cost_matrix` of ``n_rows`` ground-truth boxes against ``n_cols`` detections.

    Each ground-truth box is missed with probability 0.15, else detected as
    a jittered copy, which is duplicated exactly with probability 0.2.
    Detections past ``n_cols`` are dropped, random false positives fill up
    to it, and the columns are shuffled. Most pairs are gated (cost exactly
    1.0), and a row's surviving pair often ties a duplicate's.
    """
    gt = random_boxes(rng, n_rows)
    detections = []
    for box in gt:
        if rng.random() < 0.15:
            continue
        corners = np.clip(np.array([box.x1, box.y1, box.x2, box.y2]) + rng.normal(0.0, 0.01, 4), 0.0, 1.0)
        copies = 2 if rng.random() < 0.2 else 1
        detections += [BoundingBox(*corners)] * copies
    detections = detections[:n_cols]
    detections += random_boxes(rng, n_cols - len(detections))
    return build_cost_matrix(gt, [detections[k] for k in rng.permutation(n_cols)])
