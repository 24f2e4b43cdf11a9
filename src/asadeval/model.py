"""Shared domain model: boxes, observations, tracklets, and video records.

All box coordinates are normalized fractions of the frame size, so every
valid box lives inside the unit square. A keyframe is an integer index into
the annotated-frame sequence.

Action labels are integer category ids in ``[1, n_labels]`` held as plain
``frozenset`` instances. Ground-truth observations must carry at least one
label; predictions may carry none. All types are immutable after
construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence

DEFAULT_N_LABELS = 80


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned box with normalized corners; valid when x1 < x2, y1 < y2."""

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self) -> None:
        # Coerce numpy scalars so equality, hashing, and serialization stay exact.
        if type(self.x1) is type(self.y1) is type(self.x2) is type(self.y2) is float:
            return
        for name in ("x1", "y1", "x2", "y2"):
            object.__setattr__(self, name, float(getattr(self, name)))

    @property
    def width(self) -> float:
        return self.x2 - self.x1

    @property
    def height(self) -> float:
        return self.y2 - self.y1

    def area(self) -> float:
        return max(0.0, self.x2 - self.x1) * max(0.0, self.y2 - self.y1)

    def is_degenerate(self) -> bool:
        return not (self.x1 < self.x2 and self.y1 < self.y2)

    def in_unit_square(self) -> bool:
        return (
            0.0 <= self.x1 <= 1.0
            and 0.0 <= self.y1 <= 1.0
            and 0.0 <= self.x2 <= 1.0
            and 0.0 <= self.y2 <= 1.0
        )


@dataclass(frozen=True)
class ActorObservation:
    """One actor at one keyframe: box, identity, action labels, score.

    ``score`` is the detection confidence for predictions and is fixed at
    1.0 for ground truth, so the same type serves both roles.
    """

    video_id: str
    keyframe: int
    box: BoundingBox
    actor_id: int
    actions: frozenset[int] = frozenset()
    score: float = 1.0

    def __post_init__(self) -> None:
        if (
            type(self.keyframe) is type(self.actor_id) is int
            and type(self.score) is float
            and isinstance(self.actions, frozenset)
        ):
            return
        object.__setattr__(self, "keyframe", int(self.keyframe))
        object.__setattr__(self, "actor_id", int(self.actor_id))
        object.__setattr__(self, "score", float(self.score))
        if not isinstance(self.actions, frozenset):
            object.__setattr__(self, "actions", frozenset(self.actions))


@dataclass(frozen=True)
class Tracklet:
    """Keyframe-ordered observations of a single actor within one video."""

    actor_id: int
    observations: tuple[ActorObservation, ...]

    def __len__(self) -> int:
        return len(self.observations)

    @property
    def keyframes(self) -> tuple[int, ...]:
        return tuple(o.keyframe for o in self.observations)


@dataclass(frozen=True)
class VideoRecord:
    """All observations of one video, canonically ordered.

    Observations are sorted by (keyframe, actor_id) at construction time so
    that two records holding the same observations always compare equal and
    serialize identically.
    """

    video_id: str
    observations: tuple[ActorObservation, ...] = ()

    def __post_init__(self) -> None:
        ordered = tuple(
            sorted(self.observations, key=lambda o: (o.keyframe, o.actor_id))
        )
        object.__setattr__(self, "observations", ordered)

    @cached_property
    def frames(self) -> dict[int, tuple[ActorObservation, ...]]:
        """Observations grouped by keyframe, keyframes ascending."""
        grouped: dict[int, list[ActorObservation]] = {}
        for obs in self.observations:
            grouped.setdefault(obs.keyframe, []).append(obs)
        return {kf: tuple(obs_list) for kf, obs_list in grouped.items()}

    @cached_property
    def actor_ids(self) -> tuple[int, ...]:
        return tuple(sorted({o.actor_id for o in self.observations}))

    @property
    def keyframes(self) -> tuple[int, ...]:
        return tuple(self.frames.keys())

    def __len__(self) -> int:
        return len(self.observations)


def aligned_records(
    gt_records: Sequence[VideoRecord], pred_records: Sequence[VideoRecord]
) -> list[tuple[VideoRecord, VideoRecord]]:
    """One ``(gt, pred)`` pair per video_id on either side, in video_id order.

    A side without a record for a video gets an empty `VideoRecord`. A
    video_id repeated on either side is a ValueError.
    """
    sides = []
    for records, role in ((gt_records, "ground-truth"), (pred_records, "prediction")):
        by_video = {record.video_id: record for record in records}
        if len(by_video) != len(records):
            raise ValueError(f"duplicate video_id among {role} records")
        sides.append(by_video)
    return [
        tuple(side.get(video_id, VideoRecord(video_id)) for side in sides)
        for video_id in sorted(sides[0].keys() | sides[1].keys())
    ]


@dataclass(frozen=True)
class Violation:
    """A single invariant breach found by `validate_record`."""

    rule: str
    message: str
    keyframe: Optional[int] = None
    actor_id: Optional[int] = None

    def __str__(self) -> str:
        where = []
        if self.keyframe is not None:
            where.append(f"keyframe={self.keyframe}")
        if self.actor_id is not None:
            where.append(f"actor_id={self.actor_id}")
        suffix = f" ({', '.join(where)})" if where else ""
        return f"{self.rule}: {self.message}{suffix}"


def validate_record(
    record: VideoRecord,
    role: str = "pred",
    n_labels: int = DEFAULT_N_LABELS,
) -> list[Violation]:
    """Check every type invariant of a record; violations are data, not errors.

    Args:
        record: the record to check.
        role: "gt" requires non-empty label sets and score 1.0 on every
            observation; "pred" allows empty label sets and any score in [0, 1].
        n_labels: size of the action-label universe.

    Returns:
        Empty list iff all invariants hold. Deterministic and independent of
        the order observations were supplied in (records canonicalize their
        observation order at construction).
    """
    if role not in ("gt", "pred"):
        raise ValueError(f"role must be 'gt' or 'pred', got {role!r}")
    violations: list[Violation] = []

    seen: dict[tuple[int, int], int] = {}
    for obs in record.observations:
        key = (obs.keyframe, obs.actor_id)
        seen[key] = seen.get(key, 0) + 1
    for (kf, actor_id), count in seen.items():
        if count > 1:
            violations.append(
                Violation(
                    rule="duplicate_identity",
                    message=f"{count} observations share one identity at a keyframe",
                    keyframe=kf,
                    actor_id=actor_id,
                )
            )

    for obs in record.observations:
        kf, actor_id = obs.keyframe, obs.actor_id
        if obs.video_id != record.video_id:
            violations.append(
                Violation(
                    rule="video_id_mismatch",
                    message=f"observation video_id {obs.video_id!r} != record {record.video_id!r}",
                    keyframe=kf,
                    actor_id=actor_id,
                )
            )
        if kf < 0:
            violations.append(
                Violation("bad_keyframe", "keyframe must be >= 0", kf, actor_id)
            )
        if actor_id < 0:
            violations.append(
                Violation("bad_actor_id", "actor_id must be >= 0", kf, actor_id)
            )
        if obs.box.is_degenerate():
            violations.append(
                Violation("degenerate_box", "box has non-positive extent", kf, actor_id)
            )
        if not obs.box.in_unit_square():
            violations.append(
                Violation("box_out_of_range", "coordinates outside [0, 1]", kf, actor_id)
            )
        if not (0.0 <= obs.score <= 1.0):
            violations.append(
                Violation("bad_score", f"score {obs.score} outside [0, 1]", kf, actor_id)
            )
        if role == "gt":
            if not obs.actions:
                violations.append(
                    Violation("empty_actions", "ground truth requires a non-empty label set", kf, actor_id)
                )
            if obs.score != 1.0:
                violations.append(
                    Violation("gt_score", "ground-truth score must be 1.0", kf, actor_id)
                )
        for label in obs.actions:
            if not (1 <= label <= n_labels):
                violations.append(
                    Violation("bad_label", f"action label {label} outside [1, {n_labels}]", kf, actor_id)
                )
    return violations


def build_tracklets(record: VideoRecord) -> list[Tracklet]:
    """Partition a record's observations into per-actor tracklets.

    One tracklet per distinct actor_id, observations keyframe-sorted with
    gaps permitted. Rejects records containing duplicate (keyframe, actor_id)
    pairs, which would make tracklet order ill-defined.
    """
    seen: set[tuple[int, int]] = set()
    per_actor: dict[int, list[ActorObservation]] = {}
    for obs in record.observations:
        key = (obs.keyframe, obs.actor_id)
        if key in seen:
            raise ValueError(
                f"duplicate (keyframe={obs.keyframe}, actor_id={obs.actor_id}) "
                f"in video {record.video_id!r}; validate the record first"
            )
        seen.add(key)
        per_actor.setdefault(obs.actor_id, []).append(obs)
    return [
        Tracklet(actor_id=actor_id, observations=tuple(per_actor[actor_id]))
        for actor_id in sorted(per_actor)
    ]
