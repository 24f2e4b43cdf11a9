"""Baseline data association: online motion-reliant vs offline appearance-driven.

Both strategies turn a stream of anonymous per-keyframe detections (box,
score, appearance embedding) into a record with unique actor identities and
empty action sets. The online tracker walks keyframes in order and links
each detection to an active track at cost 1 - affinity, where the affinity
blends box overlap with the track's last box and cosine similarity to the
track's mean embedding, so it leans on motion continuity. The offline tracker
sees the whole stream and greedily agglomerates detections by the same
affinity with its overlap weight decayed over the keyframe gap, subject to the
constraint that a cluster never holds two detections from the same keyframe.
Both read the stream's row arrays, grouped by ascending keyframe
(`DetectionStream`), build that affinity as arrays (`_affinity`), the online
tracker one per keyframe against the live tracks and the offline tracker one
per keyframe against the following ``max_gap`` keyframes, and return the
stream's rows with one identity each as a record (`_tracked`), whose
observations are built only when read.

Each tracker takes its own keywords, and a value out of range is a ValueError.
``iou_weight`` in [0, 1] blends box overlap against appearance: 1 is
motion-only, 0 appearance-only. ``max_gap`` >= 1 bounds online track
retirement and the offline linking horizon, in keyframes. Online
``match_threshold`` in (0, 1] is a cost ceiling, offline ``merge_threshold``
in (0, 1] an affinity floor.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .matching import iou_matrix, solve_assignment
from .model import BoundingBox, VideoRecord, _table_of

ONLINE_IOU_WEIGHT = 0.7
OFFLINE_IOU_WEIGHT = 0.3
DEFAULT_MATCH_THRESHOLD = 0.6
DEFAULT_MERGE_THRESHOLD = 0.5
DEFAULT_MAX_GAP = 10


@dataclass(frozen=True)
class Detection:
    """An anonymous detection: box, confidence, appearance embedding."""

    box: BoundingBox
    score: float
    appearance: np.ndarray


@dataclass(frozen=True, eq=False)
class DetectionStream:
    """One video's detections as read-only row arrays; no identities attached.

    Row i lies at keyframe ``row_keyframes[i]`` with corners ``boxes[i]``, score
    ``scores[i]`` and embedding ``embeddings[i]``. Construction checks the shapes
    and sorts the rows by keyframe, stably, as Python ints (int64 stops at 2**63).
    """

    video_id: str
    dim: int
    row_keyframes: tuple[int, ...]
    boxes: np.ndarray
    scores: np.ndarray
    embeddings: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.row_keyframes)
        order = sorted(range(n), key=self.row_keyframes.__getitem__)
        for name, shape in (("boxes", (n, 4)), ("scores", (n,)), ("embeddings", (n, self.dim))):
            column = np.asarray(getattr(self, name), dtype=float)
            if column.shape != shape:
                raise ValueError(
                    f"{name} of shape {column.shape}, expected {shape} at dimensionality {self.dim}"
                )
            column = column[order]
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        object.__setattr__(self, "row_keyframes", tuple(self.row_keyframes[i] for i in order))

    @classmethod
    def from_rows(cls, video_id: str, dim: int, rows: Sequence[tuple]) -> "DetectionStream":
        """A stream of ``(keyframe, (x1, y1, x2, y2), score, embedding)`` rows, in any order."""
        empty = ((), np.empty((0, 4)), (), np.empty((0, dim)))
        return cls(video_id, dim, *(zip(*rows) if rows else empty))

    @cached_property
    def keyframes(self) -> tuple[int, ...]:
        """The distinct keyframes, ascending."""
        return tuple(dict.fromkeys(self.row_keyframes))

    @cached_property
    def bounds(self) -> list[int]:
        """Keyframe ``keyframes[p]`` holds rows ``bounds[p]:bounds[p + 1]``."""
        starts = [bisect.bisect_left(self.row_keyframes, kf) for kf in self.keyframes]
        return starts + [len(self.row_keyframes)]

    @cached_property
    def frames(self) -> dict[int, tuple[Detection, ...]]:
        """Each keyframe's detections in row order, built from the arrays on first read."""
        rows = zip(self.boxes.tolist(), self.scores.tolist(), self.embeddings)
        detections = [Detection(BoundingBox(*box), score, row) for box, score, row in rows]
        return {
            kf: tuple(detections[start:stop])
            for kf, start, stop in zip(self.keyframes, self.bounds, self.bounds[1:])
        }


def _check_parameters(iou_weight: float, name: str, threshold: float, max_gap: int) -> None:
    """Raise ValueError naming the first tracker parameter out of its range."""
    if not (0.0 <= iou_weight <= 1.0):
        raise ValueError("iou_weight must lie in [0, 1]")
    if not (0.0 < threshold <= 1.0):
        raise ValueError(f"{name} must lie in (0, 1]")
    if max_gap < 1:
        raise ValueError("max_gap must be >= 1")


def _unit_rows(vectors: np.ndarray) -> np.ndarray:
    """Rows scaled to unit length; a zero row stays the zero vector."""
    norms = np.linalg.norm(vectors, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return vectors / norms


def _affinity(
    boxes_a: np.ndarray, unit_a: np.ndarray, boxes_b: np.ndarray, unit_b: np.ndarray,
    w: float | np.ndarray,
) -> np.ndarray:
    """(1 - w) * clipped cosine similarity + w * IoU between every row of a and of b.

    Boxes are (n, 4) corner arrays and embeddings `_unit_rows`, so a zero
    embedding has similarity 0 to everything. ``w`` is one weight or one per
    row of b (shape (m,)), broadcast over the columns. The dot products use
    einsum, not a BLAS matrix product: BLAS kernels sum a row differently
    depending on its position, so two identical tracks could differ in the
    last bit and no longer tie exactly in the assignment.
    """
    similarity = np.clip(np.einsum("ik,jk->ij", unit_a, unit_b), 0.0, 1.0)
    return (1.0 - w) * similarity + w * iou_matrix(boxes_a, boxes_b)


def _tracked(stream: DetectionStream, identities: list[int]) -> VideoRecord:
    """The stream's rows with one identity each, as a record: rows sorted stably by (keyframe, identity).

    The record is made from its column table (`VideoRecord._from_table`):
    the stream's columns in that order, the identities and empty label sets.
    """
    frame_codes = np.repeat(np.arange(len(stream.keyframes)), np.diff(stream.bounds))
    ids = np.array(identities, np.int64)
    order = np.lexsort((ids, frame_codes))
    actors = ids[order].tolist()
    actor_ids = tuple(sorted(set(actors)))
    # The order moves rows only within a keyframe, so the keyframes stay the stream's.
    table = _table_of(
        stream.row_keyframes, actors, actor_ids, stream.boxes[order], stream.scores[order],
        [frozenset()] * len(actors),
    )
    return VideoRecord._from_table(stream.video_id, table, actor_ids)


def track_online(
    stream: DetectionStream, iou_weight: float = ONLINE_IOU_WEIGHT,
    match_threshold: float = DEFAULT_MATCH_THRESHOLD, max_gap: int = DEFAULT_MAX_GAP,
) -> VideoRecord:
    """Sequential association: each keyframe matched only against live tracks.

    Cost between a track and a detection is 1 - the offline affinity without
    decay (`_affinity` at w = ``iou_weight``, 1 being motion-only) of the
    track's last box and mean embedding with the detection's; a zero embedding
    costs 1 on the appearance term. Per keyframe the optimal assignment is
    taken and pairs costing more than ``match_threshold`` are rejected.
    Unmatched detections open new identities in first-appearance order; tracks
    unmatched for more than ``max_gap`` keyframes retire. Output actions are empty.
    The record holds the rows' column table and ``actor_ids`` (`_tracked`);
    its ``observations`` and ``frames`` are built from the table on first read.

    The output depends on the stream's rows only through each keyframe's own
    row order: within a keyframe, row order breaks assignment ties and sets
    the order new identities are numbered in.
    """
    _check_parameters(iou_weight, "match_threshold", match_threshold, max_gap)
    boxes, embeddings = stream.boxes, stream.embeddings
    unit = _unit_rows(embeddings)

    # Track t (identity t + 1) keeps its last box, embedding sum and count in
    # row t; a stream opens at most one track per detection. `live` holds the
    # unretired tracks in opening order: keyframes ascend, so none returns.
    last_box = np.empty_like(boxes)
    sums = np.empty_like(embeddings)
    counts = np.zeros(len(boxes))
    last_seen: list[int] = []
    live: list[int] = []
    identities: list[int] = []
    for keyframe, start, stop in zip(stream.keyframes, stream.bounds, stream.bounds[1:]):
        live = [t for t in live if keyframe - last_seen[t] <= max_gap]
        assigned: dict[int, int] = {}
        if live and start < stop:
            cost = 1.0 - _affinity(
                last_box[live], _unit_rows(sums[live] / counts[live, None]),
                boxes[start:stop], unit[start:stop], iou_weight,
            )
            solution = solve_assignment(cost, drop_gated=False)
            assigned = {
                start + j: live[i] for i, j in solution.pairs if cost[i, j] <= match_threshold
            }

        for row in range(start, stop):
            t = assigned.get(row)
            if t is None:
                t = len(last_seen)
                last_seen.append(keyframe)
                sums[t] = embeddings[row]
                counts[t] = 1
                live.append(t)
            else:
                last_seen[t] = keyframe
                sums[t] += embeddings[row]
                counts[t] += 1
            last_box[t] = boxes[row]
            identities.append(t + 1)
    return _tracked(stream, identities)


class _UnionFind:
    """Union-find over detections, tracking each cluster's occupied keyframes."""

    def __init__(self, keyframes: list[int]):
        self.parent = list(range(len(keyframes)))
        self.keyframe_sets: list[set[int]] = [{kf} for kf in keyframes]

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        """Merge the clusters of ``a`` and ``b`` unless they are one or share a keyframe; whether it merged."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb or not self.keyframe_sets[ra].isdisjoint(self.keyframe_sets[rb]):
            return False
        if len(self.keyframe_sets[ra]) < len(self.keyframe_sets[rb]):
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.keyframe_sets[ra] |= self.keyframe_sets[rb]
        return True


def track_offline(
    stream: DetectionStream, iou_weight: float = OFFLINE_IOU_WEIGHT,
    merge_threshold: float = DEFAULT_MERGE_THRESHOLD, max_gap: int = DEFAULT_MAX_GAP,
) -> VideoRecord:
    """Global association: agglomerate detections by decayed overlap + appearance.

    The affinity between detections at keyframes t1 < t2 with t2 - t1 <= max_gap is
    (1 - w) * appearance similarity + w * IoU, where w = iou_weight * decay
    (``iou_weight`` 1 being motion-only) and decay falls linearly from 1 at gap 1
    to 0 at gap max_gap, so motion evidence vanishes across long gaps while
    appearance keeps its say. Detection pairs are merged greedily from the
    highest affinity down, skipping merges below ``merge_threshold`` and merges
    that would put two same-keyframe detections in one cluster. Clusters
    become identities ordered by their earliest keyframe. The record holds the
    rows' column table and ``actor_ids`` (`_tracked`); its ``observations`` and
    ``frames`` are built from the table on first read.

    The output depends on the stream's rows only through each keyframe's own
    row order: within a keyframe, row order breaks ties between equal
    affinities and orders clusters that start at the same keyframe.
    """
    _check_parameters(iou_weight, "merge_threshold", merge_threshold, max_gap)
    frames, bounds, boxes = stream.keyframes, stream.bounds, stream.boxes
    unit = _unit_rows(stream.embeddings)
    sizes = np.diff(bounds)

    # Every detection at most max_gap keyframes after frame p lies in the one
    # slice of rows bounds[p + 1]:bounds[q].
    edges: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    for p, kf_a in enumerate(frames):
        q = bisect.bisect_right(frames, kf_a + max_gap, p + 1)
        start, stop, end = bounds[p], bounds[p + 1], bounds[q]
        if start == stop or stop == end:
            continue
        decay = [
            1.0 if max_gap == 1 else (max_gap - (kf_b - kf_a)) / (max_gap - 1)
            for kf_b in frames[p + 1 : q]
        ]
        affinity = _affinity(
            boxes[start:stop], unit[start:stop], boxes[stop:end], unit[stop:end],
            iou_weight * np.repeat(decay, sizes[p + 1 : q]),
        )
        i, j = np.nonzero(affinity >= merge_threshold)
        edges.append((affinity[i, j], i + start, j + stop))

    clusters = _UnionFind(stream.row_keyframes)
    if edges:
        value, a, b = (np.concatenate(column) for column in zip(*edges))
        # Highest affinity first, ties by (a, b): every (a, b) pair occurs once.
        order = np.lexsort((b, a, -value))
        for x, y in zip(a[order].tolist(), b[order].tolist()):
            clusters.union(x, y)

    # Clusters are numbered in the order of their first row.
    first_row: dict[int, int] = {}
    identities = [
        first_row.setdefault(clusters.find(row), len(first_row) + 1) for row in range(bounds[-1])
    ]
    return _tracked(stream, identities)
