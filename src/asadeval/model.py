"""Shared domain model: boxes, observations, and video records.

All box coordinates are normalized fractions of the frame size, so every
valid box lives inside the unit square. A keyframe is an integer index into
the annotated-frame sequence.

Action labels are integer category ids in ``[1, n_labels]`` held as plain
``frozenset`` instances. Ground-truth observations must carry at least one
label; predictions may carry none. All types are immutable after
construction. Construction does not check these rules:
`io_formats.parse_annotations` enforces them on every file it reads, as
array checks on the cells of all rows and then on the rows of each
observation, and the tests hold a whole-record oracle (`tests/support.py`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

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


def build_tracklets(record: VideoRecord) -> dict[int, tuple[ActorObservation, ...]]:
    """Each actor's keyframe-ordered observations, by ascending actor_id.

    Gaps are permitted. Rejects records containing duplicate (keyframe,
    actor_id) pairs, which would make tracklet order ill-defined.
    """
    seen: set[tuple[int, int]] = set()
    per_actor: dict[int, list[ActorObservation]] = {}
    for obs in record.observations:
        key = (obs.keyframe, obs.actor_id)
        if key in seen:
            raise ValueError(
                f"duplicate (keyframe={obs.keyframe}, actor_id={obs.actor_id}) "
                f"in video {record.video_id!r}"
            )
        seen.add(key)
        per_actor.setdefault(obs.actor_id, []).append(obs)
    return {actor_id: tuple(per_actor[actor_id]) for actor_id in sorted(per_actor)}
