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

Each record also holds its observations as a private column table
(`_Table`, the record's ``_table``), which the metric readers read instead
of the observation objects. One function, `_table_of`, builds every table
from a record's rows in canonical order: an API record's from its
observations on first read, a parsed or tracked record's from the parser's
sorted columns or the tracker's rows (`VideoRecord._from_table`). Such a
record holds no observation objects until ``observations`` or ``frames`` is
read: then `_observations_of` builds them from the table, one
`ActorObservation` and one `BoundingBox` per row, holding the table's own
label sets. ``actor_ids`` stays a property of its own, which the parser and
the trackers seed too, so that reading it never builds a table.
`_check_no_repeat` is the one duplicate rule, which
`identity.track_coverage` and `io_formats.write_annotations` apply; a
record's tracklets are read as the table's actor codes, with no tracklet
objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from typing import NamedTuple, Sequence

import numpy as np

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


class _Table(NamedTuple):
    """A record's observations as read-only columns, one row per observation in its order.

    ``keyframes`` holds the distinct keyframes, ascending, and ``bounds`` the
    row where each one starts, then the row count. Each row's keyframe is
    its position in ``keyframes`` (``frame_codes``) and its actor its
    position in the record's ``actor_ids`` (``actors``): order-preserving
    codes, so a keyframe or actor id past int64 needs no int64 column.
    ``labels`` holds each row's label set, the frozenset its observation
    holds, so that its iteration order, and so its repr, is the same.
    """

    keyframes: tuple[int, ...]
    bounds: np.ndarray  # (len(keyframes) + 1,) int64
    frame_codes: np.ndarray  # (n,) int64
    actors: np.ndarray  # (n,) int64
    boxes: np.ndarray  # (n, 4) float: x1, y1, x2, y2
    scores: np.ndarray  # (n,) float
    labels: tuple[frozenset[int], ...]


def _table_of(
    keyframes: Sequence[int], actors: Sequence[int], actor_ids: tuple[int, ...], boxes, scores,
    labels: Sequence[frozenset[int]],
) -> _Table:
    """The one builder of a record's table, from its rows sorted by (keyframe, actor_id).

    ``keyframes`` and ``actors`` hold each row's keyframe and actor id as
    Python ints, ``actor_ids`` the record's, and ``boxes``, ``scores`` and
    ``labels`` each row's corners, score and label set.
    """
    distinct = tuple(dict.fromkeys(keyframes))
    frame_of = {keyframe: code for code, keyframe in enumerate(distinct)}
    frame_codes = np.fromiter(map(frame_of.__getitem__, keyframes), np.int64, len(keyframes))
    actor_of = {actor: code for code, actor in enumerate(actor_ids)}
    table = _Table(
        distinct,
        np.searchsorted(frame_codes, np.arange(len(distinct) + 1)),
        frame_codes,
        np.fromiter(map(actor_of.__getitem__, actors), np.int64, len(actors)),
        np.asarray(boxes, float).reshape(-1, 4),
        np.asarray(scores, float),
        tuple(labels),
    )
    for column in table[1:-1]:
        column.setflags(write=False)
    return table


def _observations_of(video_id: str, table: _Table, actor_ids: tuple[int, ...]) -> tuple[ActorObservation, ...]:
    """A table's rows as observations of ``video_id``, in its order."""
    return tuple(map(
        ActorObservation,
        repeat(video_id),
        map(table.keyframes.__getitem__, table.frame_codes.tolist()),
        map(BoundingBox, *table.boxes.T.tolist()),
        map(actor_ids.__getitem__, table.actors.tolist()),
        table.labels,
        table.scores.tolist(),
    ))


@dataclass(frozen=True)
class VideoRecord:
    """All observations of one video, canonically ordered.

    Observations are sorted by (keyframe, actor_id) at construction time so
    that two records holding the same observations always compare equal and
    serialize identically.

    A record the parser or a tracker makes (`_from_table`) holds its column
    table and ``actor_ids`` only. Its ``observations`` are built from the
    table on first read (`_observations_of`), and its ``frames`` slice them
    at the table's keyframe bounds, as any record's do; equality, hashing
    and repr read the observations, so such a record compares, hashes and
    repr's as the record built from the same observations does.
    """

    video_id: str
    observations: tuple[ActorObservation, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        ordered = tuple(
            sorted(self.observations, key=lambda o: (o.keyframe, o.actor_id))
        )
        object.__setattr__(self, "observations", ordered)

    def __getattr__(self, name: str):
        # Reached only for a name the instance does not hold (``observations``
        # has a default factory, so no class attribute): a record made by
        # `_from_table` builds its observations here, on first read.
        if name != "observations" or "_table" not in self.__dict__:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        observations = _observations_of(self.video_id, self._table, self.actor_ids)
        self.__dict__["observations"] = observations
        return observations

    @cached_property
    def frames(self) -> dict[int, tuple[ActorObservation, ...]]:
        """Observations grouped by keyframe, keyframes ascending: ``observations`` cut at the table's ``bounds``."""
        observations, bounds = self.observations, self._table.bounds.tolist()
        return {kf: observations[start:stop] for kf, start, stop in zip(self._table.keyframes, bounds, bounds[1:])}

    @cached_property
    def actor_ids(self) -> tuple[int, ...]:
        return tuple(sorted({o.actor_id for o in self.observations}))

    @cached_property
    def _table(self) -> _Table:
        """The observations' column table, built from them on first read unless a parser seeded it."""
        observations = self.observations
        return _table_of(
            [o.keyframe for o in observations],
            [o.actor_id for o in observations],
            self.actor_ids,
            [(o.box.x1, o.box.y1, o.box.x2, o.box.y2) for o in observations],
            [o.score for o in observations],
            [o.actions for o in observations],
        )

    @classmethod
    def _from_table(cls, video_id: str, table: _Table, actor_ids: tuple[int, ...]) -> VideoRecord:
        """A record of a table's rows, in canonical order, and its actor ids; observations are built on first read."""
        record = cls.__new__(cls)
        record.__dict__.update(video_id=video_id, _table=table, actor_ids=actor_ids)
        return record

    def __len__(self) -> int:
        return len(self._table.scores)


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


def _check_no_repeat(record: VideoRecord) -> None:
    """ValueError naming the first (keyframe, actor_id) the record holds twice.

    Each must be one observation: one tracklet's at one keyframe, and one
    observation of the annotation file the record is written to.
    """
    table = record._table
    repeated = (table.frame_codes[1:] == table.frame_codes[:-1]) & (table.actors[1:] == table.actors[:-1])
    if repeated.any():
        row = int(repeated.argmax()) + 1
        keyframe, actor_id = table.keyframes[table.frame_codes[row]], record.actor_ids[table.actors[row]]
        raise ValueError(f"duplicate (keyframe={keyframe}, actor_id={actor_id}) in video {record.video_id!r}")
