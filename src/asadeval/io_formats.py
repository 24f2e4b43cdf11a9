"""Bit-exact parsing and serialization of the interchange CSV/JSON formats.

Four CSV schemas are defined (all UTF-8, LF or CRLF, header required):

* annotations: ``video_id,keyframe,x1,y1,x2,y2,action_id,actor_id`` with a
  trailing ``score`` column for predictions only. One row per
  (observation, action) pair; multi-label observations span several rows
  that must agree exactly on geometry and score. ``action_id`` 0 marks a
  prediction row with no action labels and must be the observation's only
  row.
* detection streams: ``video_id,keyframe,x1,y1,x2,y2,score,e0..e{D-1}``
  with the embedding width D fixed by the header; one video per file, rows
  in any keyframe order. Parsed, they are grouped by ascending keyframe,
  in file order within one, and written back in that order.
* bench tables: ``seed,mode,ap50,hl50,idf1,mt_pct,ml_pct,id_switches``.
* PR curves: ``rank,score,tp,fp,recall,precision,p_interp``, one row per
  ranked prediction.

Every CSV is written through one cell rule: a float (a numpy float
included) is written as the ``repr`` of the Python float, so parsing
reproduces it bit-exactly; None is an empty cell. Reports serialize to JSON
(exact round trip) or a flattened CSV table. Parsing is locale independent
(decimal point only).

The two input parsers read a well-formed file in one array pass
(`_read_arrays`): numpy's text reader converts every cell after the video
id, in chunks of lines, and every parser rule is an array test. numpy
converts floats with the routine ``float`` uses, so the values are the
same bits. Any other file goes to the row parser (``csv.reader`` and one
``int`` or ``float`` call per cell), which writes the line-numbered errors.
A file takes the row parser when any row breaks a rule; when numpy
refuses a cell (an integer beyond int64, ``1_0``, a float in an integer
column) or warns while reading it; when it holds a quote,
a non-ASCII byte, a control byte other than tab, CR and LF, or a CR that
does not end a line; when a line has another comma count than the header
or is longer than ``csv.field_size_limit()``; and when it is no regular
file (a pipe cannot be read twice).
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
import warnings
from contextlib import contextmanager
from dataclasses import asdict, fields
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .association import DetectionStream
from .detection import APResult
from .evaluation import AGGREGATE_KEY, SUMMED_TALLIES, EvalReport, MetricBlock
from .model import DEFAULT_N_LABELS, ActorObservation, BoundingBox, VideoRecord
from .synthetic import GENERATOR_ALGORITHM, ScenarioSpec
from .version import __version__

REPORT_SCHEMA = "asadeval-report-v1"
MANIFEST_SCHEMA = "asadeval-scenario-v1"
GT_COLUMNS = ["video_id", "keyframe", "x1", "y1", "x2", "y2", "action_id", "actor_id"]
PRED_COLUMNS = GT_COLUMNS + ["score"]
STREAM_FIXED_COLUMNS = ["video_id", "keyframe", "x1", "y1", "x2", "y2", "score"]
BENCH_COLUMNS = ["seed", "mode", "ap50", "hl50", "idf1", "mt_pct", "ml_pct", "id_switches"]
PR_CURVE_COLUMNS = ["rank", "score", "tp", "fp", "recall", "precision", "p_interp"]
NO_ACTION_MARKER = 0
_MAX_REPORTED_ERRORS = 50
# The array pass reads this many bytes of whole lines at a time.
_CHUNK_BYTES = 1 << 16
# The bytes a file may hold and still take the array pass. Any other sends it
# to the row parser: a quote (csv syntax), a non-ASCII byte (Unicode digits
# and spaces, which ``int`` and ``float`` read but numpy does not, or bad
# UTF-8), or a control byte other than tab, CR and LF (numpy skips \x1c-\x1f
# as space, ``int`` and ``float`` refuse them, csv refuses NUL).
_PLAIN_BYTES = b"\t\n\r" + bytes(byte for byte in range(0x20, 0x7F) if byte != ord('"'))
_LONE_CR = re.compile(rb"\r(?!\n)")  # csv ends a row there, numpy may not
_LOCATED_BOX_FIELDS = [("video_id", "S0"), ("keyframe", "i8"), ("box", "f8", (4,))]
_ANNOTATION_FIELDS = _LOCATED_BOX_FIELDS + [("action_id", "i8"), ("actor_id", "i8")]
_ANNOTATION_DTYPES = {
    "gt": np.dtype(_ANNOTATION_FIELDS),
    "pred": np.dtype(_ANNOTATION_FIELDS + [("score", "f8")]),
}


class FormatError(ValueError):
    """A file violated its declared schema; carries one message per problem."""

    def __init__(self, errors: Sequence[str]):
        self.errors = list(errors)[:_MAX_REPORTED_ERRORS]
        super().__init__("\n".join(self.errors))


@contextmanager
def _csv_reader(path: str) -> Iterator:
    """A csv.reader over a UTF-8 file; bad bytes or csv syntax raise a line-numbered FormatError."""
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            yield reader
        except csv.Error as exc:
            raise FormatError([f"{path}:{reader.line_num}: {exc}"]) from None
        except UnicodeDecodeError:
            # The text layer decodes ahead of the csv reader, so find the line afresh.
            for line_no, line in enumerate(Path(path).read_bytes().split(b"\n"), start=1):
                try:
                    line.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise FormatError([f"{path}:{line_no}: invalid UTF-8: {exc}"]) from None
            raise


def _parse_int(text: str, minimum: Optional[int] = None) -> int:
    value = int(text)
    if minimum is not None and value < minimum:
        raise ValueError(f"must be >= {minimum}")
    return value


def _parse_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("must be finite")
    return value


def _parse_fraction(text: str) -> float:
    value = _parse_float(text)
    if not (0.0 <= value <= 1.0):
        raise ValueError("must lie in [0, 1]")
    return value


def _parse_located_box(row: Sequence[str]) -> tuple[int, tuple[float, float, float, float]]:
    """Cells 1-5, shared by both schemas: the keyframe and the box corners."""
    keyframe = _parse_int(row[1], minimum=0)
    x1, y1 = _parse_fraction(row[2]), _parse_fraction(row[3])
    x2, y2 = _parse_fraction(row[4]), _parse_fraction(row[5])
    if not (x1 < x2 and y1 < y2):
        raise ValueError("degenerate box: requires x1 < x2 and y1 < y2")
    return keyframe, (x1, y1, x2, y2)


def _columns(role: str) -> list[str]:
    if role not in ("gt", "pred"):
        raise ValueError(f"role must be 'gt' or 'pred', got {role!r}")
    return PRED_COLUMNS if role == "pred" else GT_COLUMNS


def _header(reader, path: str, expected: str) -> list[str]:
    """The first row; an empty file is an error naming the ``expected`` header."""
    header = next(reader, None)
    if header is None:
        raise FormatError([f"{path}:1: empty file, expected {expected}"])
    return header


def _data_rows(reader, path: str, width: int, errors: list[str], note: str = "") -> Iterator:
    """``(line number, row)`` for each data row; blank rows are skipped, other widths are errors.

    A row is numbered by the line it ends on. A wrong-width record that spans
    lines is reported at the line it starts on, with its span: a stray ``"``
    opens a quoted field that swallows the lines after it.
    """
    first = reader.line_num + 1
    for row in reader:
        last = reader.line_num
        if len(row) == width:
            yield last, row
        elif row and first == last:
            errors.append(f"{path}:{last}: expected {width} columns, got {len(row)}{note}")
        elif row:
            errors.append(
                f"{path}:{first}: expected {width} columns, got {len(row)} "
                f"(record runs from line {first} to line {last}; unbalanced quote?)"
            )
        first = last + 1


def _read_arrays(
    path: str, dtype_of: Callable[[list[str]], Optional[np.dtype]]
) -> Optional[tuple[list[bytes], np.ndarray]]:
    """The video ids and the other cells of a well-formed CSV file, or None for the row parser.

    ``dtype_of`` maps the header's cells to the structured dtype of a row,
    one field per column, or to None when the header is not the one
    expected. The dtype holds the video id as ``S0``, which keeps nothing:
    the ids come apart, as ASCII bytes, one per row. The file is read in
    chunks of whole lines, and each chunk is checked and converted before
    the next is read. Returns None on an empty file and on every input the
    module docstring sends to the row parser, before the rules are applied.
    """
    if not os.path.isfile(path):  # a pipe, say, which the row parser could not read again
        return None
    limit = csv.field_size_limit()
    with open(path, "rb") as handle:
        header = handle.readline()
        if not header or len(header) > limit or not _plain(header):
            return None
        dtype = dtype_of(header.decode("ascii").rstrip("\r\n").split(","))
        if dtype is None:
            return None
        video_ids: list[bytes] = []
        chunks = []
        while lines := handle.readlines(_CHUNK_BYTES):
            block = b"".join(lines)
            if max(map(len, lines)) > limit or not _plain(block):
                return None
            if not block.strip(b"\r\n"):
                continue  # only blank lines, which csv skips and numpy warns of
            try:
                # numpy refuses a line whose column count is not the dtype's. numpy
                # before 2.0 reads a float such as 0.5 in an integer column, truncated,
                # with only a DeprecationWarning: as an error, it declines the file.
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    chunk = np.loadtxt(lines, dtype, comments=None, delimiter=",", ndmin=1, encoding="ascii")
            except (ValueError, Warning):
                return None
            if len(chunk) != len(lines):  # numpy skips a blank line, and so does csv
                lines = [line for line in lines if line.rstrip(b"\r\n")]
                if len(chunk) != len(lines):
                    return None
            chunks.append(chunk)
            video_ids += [line.partition(b",")[0] for line in lines]
    return video_ids, np.concatenate(chunks) if chunks else np.empty(0, dtype)


def _plain(block: bytes) -> bool:
    """True when ``block`` holds only `_PLAIN_BYTES` and every CR in it ends a line (as csv reads one)."""
    return not block.translate(None, _PLAIN_BYTES) and not (b"\r" in block and _LONE_CR.search(block))


def _located_box_violations(bad_keyframes: np.ndarray, boxes: np.ndarray) -> list[np.ndarray]:
    """`_parse_located_box`'s rules as arrays: per row, is the keyframe, x1, y1, x2 or y2 bad."""
    in_unit = (boxes >= 0.0) & (boxes <= 1.0)  # false for nan and inf
    return [
        bad_keyframes,
        ~in_unit[:, 0],
        ~in_unit[:, 1],
        ~in_unit[:, 2] | ~(boxes[:, 0] < boxes[:, 2]),
        ~in_unit[:, 3] | ~(boxes[:, 1] < boxes[:, 3]),
    ]


def _outside_unit(values: np.ndarray) -> np.ndarray:
    return ~((values >= 0.0) & (values <= 1.0))


def _stream_violations(
    bad_keyframes: np.ndarray, boxes: np.ndarray, scores: np.ndarray, embeddings: np.ndarray
) -> np.ndarray:
    """The stream parser's rules as one array: True where a row's cell breaks one.

    A row per stream row and a column per cell after the video id, in file
    order: the keyframe (``bad_keyframes`` is the caller's test of it), x1,
    y1, x2, y2, the score, then e0..e{D-1}.
    """
    return np.column_stack([
        *_located_box_violations(bad_keyframes, boxes),
        _outside_unit(scores),
        ~np.isfinite(embeddings),
    ])


def _annotations_from_arrays(path: str, role: str, n_labels: int) -> Optional[list[VideoRecord]]:
    """`parse_annotations`' records by the array pass, or None when the row parser must read the file."""
    expected = _columns(role)
    dtype = _ANNOTATION_DTYPES[role]
    read = _read_arrays(path, lambda header: dtype if [c.strip() for c in header] == expected else None)
    if read is None:
        return None
    video_ids, rows = read
    if not len(rows):
        return []
    distinct = sorted(set(video_ids))  # bytes sort as their ASCII text does
    if not distinct[0]:  # an empty video_id
        return None
    keyframes, boxes, actions, actors = (rows[name] for name in ("keyframe", "box", "action_id", "actor_id"))
    scores = rows["score"] if role == "pred" else np.ones(len(rows))
    lowest_action = NO_ACTION_MARKER if role == "pred" else 1
    bad = np.logical_or.reduce([
        *_located_box_violations(keyframes < 0, boxes),
        (actions < lowest_action) | (actions > n_labels),
        actors < 0,
        _outside_unit(scores),
    ])
    if bad.any():
        return None

    # Group the rows of one (video, keyframe, actor), in file order within one:
    # the sort is stable. The action checks read each group sorted by action id.
    code_of = {video_id: code for code, video_id in enumerate(distinct)}
    videos = np.fromiter(map(code_of.__getitem__, video_ids), np.int64, len(video_ids))
    names = [video_id.decode("ascii") for video_id in distinct]
    order = np.lexsort((actors, keyframes, videos))
    key = np.column_stack((videos, keyframes, actors))[order]
    grouped = (key[1:] == key[:-1]).all(axis=1)  # row i + 1 joins row i's observation
    group = np.concatenate(([0], np.cumsum(~grouped)))
    actions = actions[order]
    by_action = actions[np.lexsort((actions, group))]
    if (grouped & (
        (boxes[order][1:] != boxes[order][:-1]).any(axis=1)
        | (scores[order][1:] != scores[order][:-1])
        | (by_action[:-1] == NO_ACTION_MARKER)  # the least action id, so first in its group
        | (by_action[1:] == by_action[:-1])
    )).any():
        return None

    starts = np.flatnonzero(np.concatenate(([True], ~grouped)))
    first = order[starts]  # each observation's first row in the file
    first_videos = videos[first]
    bounds = starts.tolist() + [len(order)]
    action_ids = actions.tolist()
    labels = [tuple(action_ids[start:stop]) for start, stop in zip(bounds, bounds[1:])]
    # Each set is built as the row parser builds it, so that it iterates in the same order.
    label_sets = {ids: frozenset(set(ids) - {NO_ACTION_MARKER}) for ids in set(labels)}
    observations = list(map(
        ActorObservation,
        map(names.__getitem__, first_videos.tolist()),
        keyframes[first].tolist(),
        map(BoundingBox, *boxes[first].T.tolist()),
        actors[first].tolist(),
        map(label_sets.__getitem__, labels),
        scores[first].tolist(),
    ))
    # The observations run in (video, keyframe, actor) order: cut them at each new video.
    cuts = np.flatnonzero(np.diff(first_videos)) + 1
    return [
        VideoRecord(video_id=name, observations=tuple(observations[start:stop]))
        for name, start, stop in zip(names, [0, *cuts.tolist()], [*cuts.tolist(), len(observations)])
    ]


def _stream_from_arrays(path: str) -> Optional[DetectionStream]:
    """`parse_detection_stream`'s stream by the array pass, or None when the row parser must read it."""

    def dtype_of(header: list[str]) -> Optional[np.dtype]:
        names = [cell.strip() for cell in header]
        dim = len(names) - len(STREAM_FIXED_COLUMNS)
        if dim < 1 or names != STREAM_FIXED_COLUMNS + [f"e{i}" for i in range(dim)]:
            return None
        return np.dtype(_LOCATED_BOX_FIELDS + [("score", "f8"), ("embedding", "f8", (dim,))])

    read = _read_arrays(path, dtype_of)
    if read is None:
        return None
    video_ids, rows = read
    distinct = set(video_ids)
    if len(distinct) > 1 or b"" in distinct:
        return None
    if _stream_violations(rows["keyframe"] < 0, rows["box"], rows["score"], rows["embedding"]).any():
        return None
    dim = rows.dtype["embedding"].shape[0]
    return DetectionStream(
        distinct.pop().decode("ascii") if distinct else "", dim, tuple(rows["keyframe"].tolist()),
        rows["box"], rows["score"], rows["embedding"],
    )


def parse_annotations(
    path: str,
    role: str,
    n_labels: int = DEFAULT_N_LABELS,
) -> list[VideoRecord]:
    """Parse an annotation CSV into validated records, one per video.

    Rows sharing (video_id, keyframe, actor_id) merge into one multi-label
    observation and must agree exactly on geometry (and score). The row
    checks enforce every rule of the domain model (see `model`): ids and
    keyframes >= 0, boxes with x1 < x2 and y1 < y2 inside the unit square,
    scores in [0, 1], labels in [1, n_labels], and a non-empty label set on
    ground truth. Every problem is reported with its line number; any
    problem aborts the parse. A well-formed file is read by the array pass,
    any other by the row parser (see the module docstring).
    """
    records = _annotations_from_arrays(path, role, n_labels)
    return _annotations_from_rows(path, role, n_labels) if records is None else records


def _annotations_from_rows(path: str, role: str, n_labels: int) -> list[VideoRecord]:
    """`parse_annotations` by the row parser: one csv row and one check at a time."""
    expected = _columns(role)
    errors: list[str] = []
    groups: dict[tuple[str, int, int], dict] = {}

    with _csv_reader(path) as reader:
        header = _header(reader, path, f"header {','.join(expected)}")
        if [cell.strip() for cell in header] != expected:
            raise FormatError(
                [
                    f"{path}:1: bad header for role={role}: expected "
                    f"{','.join(expected)}, got {','.join(header)}"
                ]
            )
        for line_no, row in _data_rows(reader, path, len(expected), errors):
            try:
                video_id = row[0]
                if not video_id:
                    raise ValueError("video_id: must be non-empty")
                keyframe, box = _parse_located_box(row)
                action_id = _parse_int(row[6], minimum=0)
                if action_id == NO_ACTION_MARKER:
                    if role == "gt":
                        raise ValueError(
                            "action_id 0 (no labels) is not allowed in ground truth"
                        )
                elif not (1 <= action_id <= n_labels):
                    raise ValueError(f"action_id {action_id} outside [1, {n_labels}]")
                actor_id = _parse_int(row[7], minimum=0)
                score = _parse_fraction(row[8]) if role == "pred" else 1.0
                key = (video_id, keyframe, actor_id)
                group = groups.get(key)
                if group is None:
                    groups[key] = {"box": box, "score": score, "actions": {action_id}, "line": line_no}
                elif group["box"] != box:
                    raise ValueError(
                        f"geometry conflicts with line {group['line']} "
                        f"for (video_id={video_id}, keyframe={keyframe}, actor_id={actor_id})"
                    )
                elif group["score"] != score:
                    raise ValueError(f"score conflicts with line {group['line']}")
                elif action_id == NO_ACTION_MARKER or NO_ACTION_MARKER in group["actions"]:
                    raise ValueError("action_id 0 must be the observation's only row")
                elif action_id in group["actions"]:
                    raise ValueError(f"duplicate action_id {action_id}")
                else:
                    group["actions"].add(action_id)
            except ValueError as exc:
                errors.append(f"{path}:{line_no}: {exc}")

    if errors:
        raise FormatError(errors)

    by_video: dict[str, list[ActorObservation]] = {}
    for (video_id, keyframe, actor_id), group in groups.items():
        by_video.setdefault(video_id, []).append(
            ActorObservation(
                video_id=video_id,
                keyframe=keyframe,
                box=BoundingBox(*group["box"]),
                actor_id=actor_id,
                actions=frozenset(group["actions"] - {NO_ACTION_MARKER}),
                score=group["score"],
            )
        )

    return [
        VideoRecord(video_id=video_id, observations=tuple(observations))
        for video_id, observations in sorted(by_video.items())
    ]


def _cell(value):
    """The one cell rule: a float, numpy's included, is its repr; None is empty."""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return "" if value is None else value


# csv.writer itself writes these types by `_cell`'s rule (a float as its repr,
# None empty), so a row holding nothing else skips the per-cell call.
_CSV_NATIVE = frozenset((str, int, float, type(None)))


def _write_table(path: str, columns: Sequence[str], rows: Iterable[Sequence]) -> None:
    """The one CSV writer: the header, then every row's cells under `_cell`."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(columns)
        for row in rows:
            writer.writerow(row if _CSV_NATIVE.issuperset(map(type, row)) else map(_cell, row))


def write_annotations(records: Sequence[VideoRecord], path: str, role: str) -> None:
    """Serialize records in canonical row order (video, keyframe, actor, action).

    Raises ValueError, before the file is opened, on a ground-truth
    observation without labels.
    """
    records = sorted(records, key=lambda r: r.video_id)
    if role == "gt":
        for record in records:
            for obs in record.observations:
                if not obs.actions:
                    raise ValueError(
                        f"ground-truth observation without labels at video "
                        f"{record.video_id!r} keyframe {obs.keyframe}"
                    )

    def rows():
        for record in records:
            for obs in record.observations:
                box = obs.box
                location = (record.video_id, obs.keyframe, box.x1, box.y1, box.x2, box.y2)
                score = (obs.score,) if role == "pred" else ()
                for action_id in sorted(obs.actions) if obs.actions else [NO_ACTION_MARKER]:
                    yield (*location, action_id, obs.actor_id, *score)

    _write_table(path, _columns(role), rows())


def parse_detection_stream(path: str) -> DetectionStream:
    """Parse a detection-stream CSV; one video per file, fixed embedding width.

    A well-formed file is read by the array pass, any other by the row
    parser, which reports every problem with its line number (see the
    module docstring).
    """
    stream = _stream_from_arrays(path)
    return _stream_from_rows(path) if stream is None else stream


def _stream_from_rows(path: str) -> DetectionStream:
    """`parse_detection_stream` by the row parser: one csv row and one check at a time."""
    errors: list[str] = []
    with _csv_reader(path) as reader:
        header = [cell.strip() for cell in _header(reader, path, "a stream header")]
        if header[: len(STREAM_FIXED_COLUMNS)] != STREAM_FIXED_COLUMNS:
            raise FormatError(
                [
                    f"{path}:1: bad header: expected it to start with "
                    f"{','.join(STREAM_FIXED_COLUMNS)}"
                ]
            )
        embedding_names = header[len(STREAM_FIXED_COLUMNS) :]
        dim = len(embedding_names)
        if dim == 0 or embedding_names != [f"e{i}" for i in range(dim)]:
            raise FormatError(
                [f"{path}:1: embedding columns must be e0..e{{D-1}}, got {embedding_names}"]
            )

        video_id: Optional[str] = None
        rows: list[tuple] = []
        for line_no, row in _data_rows(reader, path, len(header), errors, " (ragged embedding width)"):
            try:
                if not row[0]:
                    raise ValueError("video_id: must be non-empty")
                if video_id is None:
                    video_id = row[0]
                elif row[0] != video_id:
                    raise ValueError(
                        f"multiple videos in one stream file ({video_id!r} and {row[0]!r})"
                    )
                keyframe, box = _parse_located_box(row)
                score = _parse_fraction(row[6])
                rows.append((keyframe, box, score, [_parse_float(cell) for cell in row[7:]]))
            except ValueError as exc:
                errors.append(f"{path}:{line_no}: {exc}")

    if errors:
        raise FormatError(errors)
    return DetectionStream.from_rows(video_id or "", dim, rows)


def write_detection_stream(stream: DetectionStream, path: str) -> None:
    """The stream's rows in its order: ascending keyframe, given order within one.

    Raises ValueError, before the file is opened, on a stream that
    `parse_detection_stream` would not read back (see `_check_parsable`).
    """
    _check_parsable(stream)
    header = STREAM_FIXED_COLUMNS + [f"e{i}" for i in range(stream.dim)]
    columns = zip(stream.boxes.tolist(), stream.scores.tolist(), stream.embeddings.tolist())
    _write_table(path, header, (
        (stream.video_id, keyframe, *box, score, *embedding)
        for keyframe, (box, score, embedding) in zip(stream.row_keyframes, columns)
    ))


def _check_parsable(stream: DetectionStream) -> None:
    """Raise ValueError unless `parse_detection_stream` accepts every row the stream writes.

    The parser's rules: a non-empty video_id and at least one embedding
    column, then integer keyframes >= 0 and the cell rules the array pass
    applies (`_stream_violations`): every value finite, corners in [0, 1]
    with x1 < x2 and y1 < y2, and the score in [0, 1]. The error names
    the first bad row's keyframe and its first bad column in file order.
    """
    if stream.dim < 1:
        raise ValueError(f"a stream needs at least one embedding column, got dim {stream.dim}")
    if not stream.row_keyframes:
        return
    if not stream.video_id:
        raise ValueError("video_id: must be non-empty")
    boxes, scores = stream.boxes, stream.scores
    keyframe_rules = [_keyframe_rule(keyframe) for keyframe in stream.row_keyframes]
    bad_keyframes = np.array([rule is not None for rule in keyframe_rules])
    bad = _stream_violations(bad_keyframes, boxes, scores, stream.embeddings)
    if not bad.any():
        return
    row = int(bad.any(axis=1).argmax())
    column = int(bad[row].argmax())
    names = STREAM_FIXED_COLUMNS[1:] + [f"e{i}" for i in range(stream.dim)]
    rules = [keyframe_rules[row], "must lie in [0, 1]", "must lie in [0, 1]",
             "must lie in [0, 1] above x1", "must lie in [0, 1] above y1",
             "must lie in [0, 1]"] + ["must be finite"] * stream.dim
    keyframe = stream.row_keyframes[row]
    values = [keyframe, *boxes[row].tolist(), scores[row].item(), *stream.embeddings[row].tolist()]
    raise ValueError(
        f"{stream.video_id}: row at keyframe {keyframe} would not parse back: "
        f"{names[column]} = {values[column]!r} {rules[column]}"
    )


def _keyframe_rule(keyframe) -> Optional[str]:
    """The rule a keyframe breaks, or None; a float or bool is written as ``3.0`` or ``True``."""
    if isinstance(keyframe, bool) or not isinstance(keyframe, (int, np.integer)):
        return "must be an integer"
    return "must be >= 0" if keyframe < 0 else None


def _block_to_dict(block: MetricBlock) -> dict:
    data = asdict(block)
    data["flags"] = list(block.flags)
    return data


# A report value's JSON type, by the annotation of the field it fills: its name
# and the Python types `json.load` gives for it. No field takes a bool.
_JSON_TYPES = {
    "str": ("a string", str),
    "int": ("an integer", int),
    "float": ("a number", (int, float)),
    "Optional[float]": ("a number or null", (int, float, type(None))),
    "Optional[str]": ("a string or null", (str, type(None))),
    "tuple[str, ...]": ("a list of strings", list),
}


def _check_type(value, annotation: str, where: str) -> None:
    """FormatError at ``where`` unless ``value`` has the JSON type of ``annotation``."""
    expected, types = _JSON_TYPES[annotation]
    items = value if isinstance(value, list) else []
    if isinstance(value, bool) or not isinstance(value, types) or not all(isinstance(x, str) for x in items):
        raise FormatError([f"{where}: expected {expected}, got {json.dumps(value)}"])


def _block_from_dict(data: dict, where: str) -> MetricBlock:
    """The block of a report's JSON; FormatError naming the key of a missing or mistyped value."""
    kwargs = _required(data, [f.name for f in fields(MetricBlock)], where)
    for f in fields(MetricBlock):
        _check_type(kwargs[f.name], f.type, f"{where}: key {f.name!r}")
    kwargs["flags"] = tuple(kwargs["flags"])
    return MetricBlock(**kwargs)


def _required(data, keys: Sequence[str], where: str) -> dict:
    """``data``'s values of ``keys``; FormatError unless it is a dict that holds them all."""
    if not isinstance(data, dict):
        raise FormatError([f"{where}: expected a dict, got {type(data).__name__}"])
    missing = [key for key in keys if key not in data]
    if missing:
        raise FormatError([f"{where}: missing key {', '.join(map(repr, missing))}"])
    return {key: data[key] for key in keys}


def report_to_dict(report: EvalReport) -> dict:
    return {
        "schema": REPORT_SCHEMA,
        "config": dict(report.config),
        "aggregate": _block_to_dict(report.aggregate),
        "videos": [
            {"video_id": video_id, **_block_to_dict(block)}
            for video_id, block in sorted(report.per_video.items())
        ],
    }


def report_from_dict(data: dict) -> EvalReport:
    """The report of a `report_to_dict` dict.

    FormatError on another schema, a missing key, a value of the wrong
    JSON type, a repeated video_id, or an aggregate tally (`SUMMED_TALLIES`)
    that is not the sum of the videos'.
    """
    _required(data, [], "report")
    if data.get("schema") != REPORT_SCHEMA:
        raise FormatError([f"unexpected report schema {data.get('schema')!r}"])
    config, aggregate, videos = _required(data, ["config", "aggregate", "videos"], "report").values()
    _required(config, [], "config")
    if not isinstance(videos, list):
        raise FormatError([f"videos: expected a list, got {type(videos).__name__}"])
    per_video = {}
    index_of: dict[str, int] = {}
    for i, entry in enumerate(videos):
        video_id = _required(entry, ["video_id"], f"videos[{i}]")["video_id"]
        _check_type(video_id, "str", f"videos[{i}]: key 'video_id'")
        if video_id in index_of:
            raise FormatError([f"videos[{i}]: video_id {video_id!r} repeats videos[{index_of[video_id]}]"])
        index_of[video_id] = i
        per_video[video_id] = _block_from_dict(entry, f"videos[{i}]")
    aggregate = _block_from_dict(aggregate, "aggregate")
    for key in SUMMED_TALLIES:
        total = sum(getattr(block, key) for block in per_video.values())
        if getattr(aggregate, key) != total:
            raise FormatError(
                [f"aggregate: key {key!r} is {getattr(aggregate, key)}, but the videos' sum to {total}"]
            )
    return EvalReport(config=dict(config), aggregate=aggregate, per_video=per_video)


def write_report(report: EvalReport, path: str, fmt: str = "json") -> None:
    """Write a report as stable JSON or as a flattened CSV table.

    The JSON form round-trips exactly through `read_report`. A null metric
    (e.g. HL with no matched pairs) stays null and carries its reason; it is
    never collapsed to 0.
    """
    if fmt == "json":
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(report_to_dict(report), handle, indent=2, sort_keys=True)
            handle.write("\n")
    elif fmt == "csv":
        names = [f.name for f in fields(MetricBlock)]
        rows = []
        for video_id, block in [(AGGREGATE_KEY, report.aggregate)] + sorted(report.per_video.items()):
            data = {**asdict(block), "flags": ";".join(block.flags)}
            rows.append([video_id] + [data[name] for name in names])
        _write_table(path, ["video_id"] + names, rows)
    else:
        raise ValueError(f"unknown report format {fmt!r}")


def read_report(path: str) -> EvalReport:
    with open(path, encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except (ValueError, RecursionError) as exc:  # malformed, too deeply nested or not UTF-8
            raise FormatError([f"{path}: invalid JSON: {exc}"]) from exc
    return report_from_dict(data)


def write_scenario_manifest(spec: ScenarioSpec, path: str) -> None:
    manifest = {
        "schema": MANIFEST_SCHEMA,
        "tool": "asadeval",
        "version": __version__,
        "generator": GENERATOR_ALGORITHM,
        "spec": asdict(spec),
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")


def sidecar_n_labels(annotation_path: str) -> Optional[int]:
    """n_labels from a manifest.json beside the annotation file, if present.

    Only an int of at least 1 (not a bool) counts; the top-level key wins
    over the recorded spec's, and anything else is ignored like an
    unreadable manifest.
    """
    manifest_path = Path(annotation_path).parent / "manifest.json"
    if not manifest_path.is_file():
        return None
    try:
        with open(manifest_path, encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, ValueError, RecursionError):  # malformed, too deeply nested or not UTF-8
        return None
    if not isinstance(data, dict):
        return None
    spec = data.get("spec")
    for value in (data.get("n_labels"), spec.get("n_labels") if isinstance(spec, dict) else None):
        if isinstance(value, int) and not isinstance(value, bool) and value >= 1:
            return value
    return None


def write_bench_table(rows: Sequence[dict], path: str) -> None:
    """Two-row-per-seed online/offline comparison table."""
    _write_table(path, BENCH_COLUMNS, ([row[name] for name in BENCH_COLUMNS] for row in rows))


def write_pr_curve(result: APResult, path: str) -> None:
    """The ranked PR curve, one row per prediction, for offline inspection.

    The recall, precision and p_interp columns are the curve's ``columns``,
    the ones its AP was summed from; a curve without ground truth has no rows.
    """
    columns = [column.tolist() for column in result.curve.columns]
    _write_table(path, PR_CURVE_COLUMNS, (
        (rank, score, int(is_tp), int(not is_tp), *values)
        for rank, ((score, is_tp), *values) in enumerate(zip(result.curve.ranked, *columns), start=1)
    ))
