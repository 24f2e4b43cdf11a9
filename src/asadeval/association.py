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
Both read the stream as one stack of rows (`_stacked`), build that affinity as
arrays (`_affinity`), the online tracker one per keyframe against the live
tracks and the offline tracker one per keyframe against the following
``max_gap`` keyframes, and label the rows with one builder (`_labelled`).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

import numpy as np

from .matching import AssignmentProblem, boxes_to_array, iou_matrix, solve_assignment
from .model import ActorObservation, BoundingBox, VideoRecord

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


@dataclass(frozen=True)
class DetectionStream:
    """Per-keyframe detections for one video; no identities attached."""

    video_id: str
    dim: int
    frames: dict[int, tuple[Detection, ...]] = field(default_factory=dict)

    @property
    def keyframes(self) -> tuple[int, ...]:
        return tuple(sorted(self.frames))

    def n_detections(self) -> int:
        return sum(len(dets) for dets in self.frames.values())


@dataclass(frozen=True)
class AssociationConfig:
    """Knobs shared by both association strategies.

    ``iou_weight`` blends box overlap against cosine appearance similarity:
    1 is motion-only, 0 is appearance-only. ``match_threshold`` rejects
    online track/detection pairs costing more; ``merge_threshold`` is the
    minimum affinity for an offline cluster merge; ``max_gap`` bounds both
    online track retirement and the offline linking horizon, in keyframes.
    """

    mode: str
    iou_weight: float
    match_threshold: float = DEFAULT_MATCH_THRESHOLD
    merge_threshold: float = DEFAULT_MERGE_THRESHOLD
    max_gap: int = DEFAULT_MAX_GAP

    def __post_init__(self) -> None:
        if self.mode not in ("online", "offline"):
            raise ValueError(f"mode must be 'online' or 'offline', got {self.mode!r}")
        if not (0.0 <= self.iou_weight <= 1.0):
            raise ValueError("iou_weight must lie in [0, 1]")
        for name in ("match_threshold", "merge_threshold"):
            value = getattr(self, name)
            if not (0.0 < value <= 1.0):
                raise ValueError(f"{name} must lie in (0, 1]")
        if self.max_gap < 1:
            raise ValueError("max_gap must be >= 1")

    @classmethod
    def online(cls, **overrides) -> "AssociationConfig":
        params = {"mode": "online", "iou_weight": ONLINE_IOU_WEIGHT}
        params.update(overrides)
        return cls(**params)

    @classmethod
    def offline(cls, **overrides) -> "AssociationConfig":
        params = {"mode": "offline", "iou_weight": OFFLINE_IOU_WEIGHT}
        params.update(overrides)
        return cls(**params)


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


def _check_dims(stream: DetectionStream) -> None:
    for dets in stream.frames.values():
        for det in dets:
            if det.appearance.ndim != 1 or det.appearance.shape[0] != stream.dim:
                raise ValueError(
                    f"appearance dimensionality {det.appearance.shape} does not "
                    f"match stream dim {stream.dim}"
                )


def _stacked(stream: DetectionStream) -> tuple[tuple[int, ...], list[int], np.ndarray, np.ndarray]:
    """The stream as rows: (keyframes, bounds, boxes, embeddings).

    Rows are grouped by ascending keyframe, in file order within a keyframe:
    keyframe p's detections are rows bounds[p]:bounds[p + 1] of the (n, 4)
    box array and the (n, dim) float embedding array. Keyframes stay Python
    ints, which numpy's int64 cannot hold from 2**63 on.
    """
    _check_dims(stream)
    keyframes = stream.keyframes
    rows = [det for kf in keyframes for det in stream.frames[kf]]
    bounds = np.cumsum([0] + [len(stream.frames[kf]) for kf in keyframes]).tolist()
    embeddings = np.array([d.appearance for d in rows], dtype=float).reshape(len(rows), stream.dim)
    return keyframes, bounds, boxes_to_array([d.box for d in rows]), embeddings


def _labelled(stream: DetectionStream, identities: list[int]) -> VideoRecord:
    """The stream's detections, in `_stacked` row order, with one identity per row."""
    rows = ((kf, det) for kf in stream.keyframes for det in stream.frames[kf])
    observations = (
        ActorObservation(stream.video_id, keyframe, det.box, actor_id, frozenset(), det.score)
        for (keyframe, det), actor_id in zip(rows, identities, strict=True)
    )
    return VideoRecord(video_id=stream.video_id, observations=tuple(observations))


def track_online(stream: DetectionStream, cfg: AssociationConfig) -> VideoRecord:
    """Sequential association: each keyframe matched only against live tracks.

    Cost between a track and a detection is 1 - the offline affinity without
    decay (`_affinity` at w = iou_weight) of the track's last box and mean
    embedding with the detection's; a zero embedding costs 1 on the
    appearance term. Per keyframe the optimal assignment is taken and pairs
    costing more than ``match_threshold`` are rejected. Unmatched detections
    open new identities in first-appearance order; tracks unmatched for more
    than ``max_gap`` keyframes retire. Output actions are empty.

    The output depends on the stream's rows only through each keyframe's own
    row order: within a keyframe, row order breaks assignment ties and sets
    the order new identities are numbered in.
    """
    if cfg.mode != "online":
        raise ValueError("track_online requires cfg.mode == 'online'")
    keyframes, bounds, boxes, embeddings = _stacked(stream)
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
    for keyframe, start, stop in zip(keyframes, bounds, bounds[1:]):
        live = [t for t in live if keyframe - last_seen[t] <= cfg.max_gap]
        assigned: dict[int, int] = {}
        if live and start < stop:
            cost = 1.0 - _affinity(
                last_box[live], _unit_rows(sums[live] / counts[live, None]),
                boxes[start:stop], unit[start:stop], cfg.iou_weight,
            )
            solution = solve_assignment(AssignmentProblem(cost=cost), drop_gated=False)
            assigned = {
                start + j: live[i] for i, j in solution.pairs if cost[i, j] <= cfg.match_threshold
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
    return _labelled(stream, identities)


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

    def can_merge(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        return not (self.keyframe_sets[ra] & self.keyframe_sets[rb])

    def merge(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if len(self.keyframe_sets[ra]) < len(self.keyframe_sets[rb]):
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.keyframe_sets[ra] |= self.keyframe_sets[rb]


def track_offline(stream: DetectionStream, cfg: AssociationConfig) -> VideoRecord:
    """Global association: agglomerate detections by decayed overlap + appearance.

    The affinity between detections at keyframes t1 < t2 with t2 - t1 <= max_gap is
    (1 - w) * appearance similarity + w * IoU, where w = iou_weight * decay
    and decay falls linearly from 1 at gap 1 to 0 at gap max_gap, so motion
    evidence vanishes across long gaps while appearance keeps its say.
    Detection pairs are merged greedily from the highest affinity down,
    skipping merges below ``merge_threshold`` and merges that would put two
    same-keyframe detections in one cluster. Clusters become identities
    ordered by their earliest keyframe.

    The output depends on the stream's rows only through each keyframe's own
    row order: within a keyframe, row order breaks ties between equal
    affinities and orders clusters that start at the same keyframe.
    """
    if cfg.mode != "offline":
        raise ValueError("track_offline requires cfg.mode == 'offline'")
    frames, bounds, boxes, embeddings = _stacked(stream)
    unit = _unit_rows(embeddings)
    sizes = np.diff(bounds)

    # Every detection at most max_gap keyframes after frame p lies in the one
    # slice of rows bounds[p + 1]:bounds[q].
    edges: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    for p, kf_a in enumerate(frames):
        q = bisect.bisect_right(frames, kf_a + cfg.max_gap, p + 1)
        start, stop, end = bounds[p], bounds[p + 1], bounds[q]
        if start == stop or stop == end:
            continue
        decay = [
            1.0 if cfg.max_gap == 1 else (cfg.max_gap - (kf_b - kf_a)) / (cfg.max_gap - 1)
            for kf_b in frames[p + 1 : q]
        ]
        affinity = _affinity(
            boxes[start:stop], unit[start:stop], boxes[stop:end], unit[stop:end],
            cfg.iou_weight * np.repeat(decay, sizes[p + 1 : q]),
        )
        i, j = np.nonzero(affinity >= cfg.merge_threshold)
        edges.append((affinity[i, j], i + start, j + stop))

    clusters = _UnionFind([kf for kf, size in zip(frames, sizes) for _ in range(size)])
    if edges:
        value, a, b = (np.concatenate(column) for column in zip(*edges))
        # Highest affinity first, ties by (a, b): every (a, b) pair occurs once.
        order = np.lexsort((b, a, -value))
        for x, y in zip(a[order].tolist(), b[order].tolist()):
            if clusters.can_merge(x, y):
                clusters.merge(x, y)

    # Clusters are numbered in the order of their first row.
    first_row: dict[int, int] = {}
    identities = [
        first_row.setdefault(clusters.find(row), len(first_row) + 1) for row in range(bounds[-1])
    ]
    return _labelled(stream, identities)
