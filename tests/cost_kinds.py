"""Tie-heavy cost matrices for the assignment solver: its property test and the parity tool share them.

`tie_heavy_cost` builds one matrix of a given kind and shape from a numpy
generator. Every kind is built to have many equal-cost optima: grid values
with some all-1.0 (fully gated) rows and columns; duplicated rows and
columns; `build_cost_matrix` on repeated boxes; and dense continuous costs in
the trackers' range [0, 1.3].
"""

from __future__ import annotations

import numpy as np

from asadeval.matching import build_cost_matrix
from asadeval.model import BoundingBox

KINDS = ("grid", "duplicates", "boxes", "dense")
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
        ).cost
    if kind == "dense":
        return rng.uniform(0.0, 1.3, size=(n_rows, n_cols))
    raise ValueError(f"unknown cost kind {kind!r}")
