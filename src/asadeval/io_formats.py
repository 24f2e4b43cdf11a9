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

Every CSV is written by one writer, `_write_rows`, which formats each
row with one string, under one cell rule: a float (a numpy float included)
is written as the ``repr`` of the Python float, so parsing reproduces it
bit-exactly; None is an empty cell; a str is quoted as the csv module
quotes it (`_quoted`), so the bytes are the ones its writer would write.
Reports serialize to JSON (exact round trip) or a flattened CSV table; both
forms take a block's values from one field map (`_block_to_dict`, flags as
a list, which the CSV joins with ``;``). Every JSON value read is checked
against one type table (`_JSON_TYPES`) by one predicate (`_has_json_type`:
a bool is only ``true or false``, an int is also a number): a report's
values, a config file's (`cli._check_config_value`) and a manifest's
``n_labels`` (`sidecar_n_labels`). Parsing is locale independent (decimal
point only).

An input file is read by one of two readers, which return the same
`_Cells`: each row's video id, its other cells as typed columns, and its
line number. One function, `_read_cells`, chooses the reader for every
schema. Then one checker per schema (`_records`, `_stream_errors`)
applies every rule as an array test and raises the line-numbered
`FormatError`, or builds the records or the stream. Each record it builds
is made from its column table, which `model._table_of` builds from the
checked columns, and builds its observation objects only when they are read.
The writers run the same checks before they open a file. numpy's reader
(`_read_arrays`) converts the cells in chunks of lines, with the routine
``float`` uses, so the values are the same bits. It declines a file it cannot
read as the csv reader (`_read_csv`: ``csv.reader`` and one ``int`` or
``float`` call per cell) would: when numpy refuses a cell (an integer beyond
int64, ``1_0``, a float in an integer column) or warns while reading it;
when the file holds a quote, a non-ASCII byte, a control byte other than
tab, CR and LF, or a CR that does not end a line; when a line has another
comma count than the header or is longer than ``csv.field_size_limit()``;
when the header is not the schema's; and when the path is no regular file (a
pipe cannot be read twice). The csv reader reads every declined file.
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
from functools import partial
from itertools import compress
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .association import DetectionStream
from .detection import APResult
from .evaluation import AGGREGATE_KEY, SUMMED_TALLIES, EvalReport, MetricBlock, _metric_block
from .model import DEFAULT_N_LABELS, VideoRecord, _check_no_repeat, _table_of
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
# numpy's reader reads this many bytes of whole lines at a time.
_CHUNK_BYTES = 1 << 16
# The bytes a file may hold and still be read by numpy. Any other leaves it to
# the csv reader: a quote (csv syntax), a non-ASCII byte (Unicode digits and
# spaces, which ``int`` and ``float`` read but numpy does not, or bad UTF-8),
# or a control byte other than tab, CR and LF (numpy skips \x1c-\x1f as
# space, ``int`` and ``float`` refuse them, csv refuses NUL).
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


class _Cells(NamedTuple):
    """A CSV file's data rows as a reader returns them, in file order.

    ``names`` holds the distinct video ids, sorted, and ``videos`` each row's
    index among them. ``columns`` holds the other cells, one array per field
    of the schema's dtype. ``failed`` maps a row to the column and message of
    its first cell that did not convert, whose value is then 0; a record of
    the wrong width fails at column 0. numpy's reader fails no cell.
    """

    names: list[str]
    videos: np.ndarray
    columns: dict[str, np.ndarray]
    lines: Sequence[int]
    failed: dict[int, tuple[int, str]]

    @property
    def no_id(self) -> np.ndarray:
        """The rows whose video id is empty."""
        return self.videos == (0 if self.names[:1] == [""] else -1)


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


def _columns(role: str) -> list[str]:
    if role not in ("gt", "pred"):
        raise ValueError(f"role must be 'gt' or 'pred', got {role!r}")
    return PRED_COLUMNS if role == "pred" else GT_COLUMNS


def _annotation_dtype(path: str, role: str, header: list[str]) -> np.dtype:
    """The row dtype of an annotation header for ``role``; FormatError on another header."""
    expected = _columns(role)
    if [cell.strip() for cell in header] != expected:
        got = ','.join(header)
        raise FormatError([f"{path}:1: bad header for role={role}: expected {','.join(expected)}, got {got}"])
    return _ANNOTATION_DTYPES[role]


def _stream_dtype(path: str, header: list[str]) -> np.dtype:
    """The row dtype of a stream header, whose e0..e{D-1} fix D; FormatError on another header."""
    names = [cell.strip() for cell in header]
    if names[: len(STREAM_FIXED_COLUMNS)] != STREAM_FIXED_COLUMNS:
        raise FormatError([f"{path}:1: bad header: expected it to start with {','.join(STREAM_FIXED_COLUMNS)}"])
    embedding_names = names[len(STREAM_FIXED_COLUMNS) :]
    dim = len(embedding_names)
    if dim == 0 or embedding_names != [f"e{i}" for i in range(dim)]:
        raise FormatError([f"{path}:1: embedding columns must be e0..e{{D-1}}, got {embedding_names}"])
    return np.dtype(_LOCATED_BOX_FIELDS + [("score", "f8"), ("embedding", "f8", (dim,))])


def _converted(convert: Callable, text: str, row: int, column: int, failed: dict) -> object:
    """``convert(text)``, or 0 with the row's first failure recorded in ``failed``."""
    try:
        return convert(text)
    except ValueError as exc:
        failed.setdefault(row, (column, str(exc)))
        return 0


def _read_cells(path: str, dtype_of: Callable[[list[str]], np.dtype], expected: str, note: str = "") -> _Cells:
    """The `_Cells` of a CSV file, by numpy's reader or, where it declines, by the csv reader.

    The one choice of reader, for every schema: `_read_arrays`, else
    `_read_csv`, to which ``expected`` and ``note`` go.
    """
    cells = _read_arrays(path, dtype_of)
    return _read_csv(path, dtype_of, expected, note) if cells is None else cells


def _read_csv(path: str, dtype_of: Callable[[list[str]], np.dtype], expected: str, note: str = "") -> _Cells:
    """The `_Cells` of any CSV file, by csv.reader and one ``int`` or ``float`` call per cell.

    ``dtype_of`` maps the header to the schema's row dtype (see
    `_read_arrays`), which fixes each column's type; an integer column holds
    Python ints, which may pass int64. ``expected`` names the header in the
    error on an empty file, and ``note`` ends the message on a one-line row of
    the wrong width. Blank rows are skipped. A row is numbered by the line it
    ends on, a wrong-width record by the line it starts on, with its span: a
    stray ``"`` opens a quoted field that swallows the lines after it.
    """
    video_ids, lines, values, failed = [], [], [], {}
    with _csv_reader(path) as reader:
        header = next(reader, None)
        if header is None:
            raise FormatError([f"{path}:1: empty file, expected {expected}"])
        dtype = dtype_of(header)
        schema = [(name, dtype[name]) for name in dtype.names[1:]]
        converters = [
            int if kind.base.kind == "i" else float for _, kind in schema for _ in range(math.prod(kind.shape))
        ]
        first = reader.line_num + 1
        for row in reader:
            last = reader.line_num
            if len(row) == len(header):
                values.append([
                    _converted(convert, cell, len(lines), column, failed)
                    for column, (convert, cell) in enumerate(zip(converters, row[1:]), start=1)
                ])
                video_ids.append(row[0])
                lines.append(last)
            elif row:
                span = f" (record runs from line {first} to line {last}; unbalanced quote?)"
                span = note if first == last else span
                failed[len(lines)] = (0, f"expected {len(header)} columns, got {len(row)}{span}")
                values.append([0] * len(converters))
                video_ids.append("")
                lines.append(first)
            first = last + 1
    by_cell = list(zip(*values)) or [()] * len(converters)
    columns, start = {}, 0
    for name, kind in schema:
        width = math.prod(kind.shape)
        cells = by_cell[start : start + width]
        if kind.base.kind == "i":
            columns[name] = np.array(cells[0], object)
        else:
            columns[name] = np.array(cells, float).T.reshape(-1, *kind.shape)
        start += width
    return _Cells(*_factorized(video_ids), columns, lines, failed)


def _read_arrays(path: str, dtype_of: Callable[[list[str]], np.dtype]) -> Optional[_Cells]:
    """The `_Cells` of a file numpy's reader can read as the csv reader would, or None.

    ``dtype_of`` maps the header's cells to the structured dtype of a row,
    one field per column, or raises FormatError on another header. The dtype
    holds the video id as ``S0``, which keeps nothing: the ids come apart,
    one per row. The file is read in chunks of whole lines, and each chunk is
    checked and converted before the next is read. Returns None on an empty
    file and on every input the module docstring leaves to the csv reader.
    """
    if not os.path.isfile(path):  # a pipe, say, which the csv reader could not read again
        return None
    limit = csv.field_size_limit()
    with open(path, "rb") as handle:
        header = handle.readline()
        if not header or len(header) > limit or not _plain(header):
            return None
        try:
            dtype = dtype_of(header.decode("ascii").rstrip("\r\n").split(","))
        except FormatError:
            return None
        ids: list[bytes] = []
        chunks = [np.empty(0, dtype)]
        numbers = [np.empty(0, np.int64)]
        last = 1  # the header's line
        while lines := handle.readlines(_CHUNK_BYTES):
            line_numbers = np.arange(last + 1, last + 1 + len(lines))
            last += len(lines)
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
                kept = [bool(line.rstrip(b"\r\n")) for line in lines]
                lines, line_numbers = list(compress(lines, kept)), line_numbers[kept]
                if len(chunk) != len(lines):
                    return None
            chunks.append(chunk)
            numbers.append(line_numbers)
            ids += [line.partition(b",")[0] for line in lines]
    rows = np.concatenate(chunks)
    columns = {name: rows[name] for name in dtype.names[1:]}
    names, videos = _factorized(ids)  # bytes sort as their ASCII text does
    return _Cells([name.decode("ascii") for name in names], videos, columns, np.concatenate(numbers), {})


def _plain(block: bytes) -> bool:
    """True when ``block`` holds only `_PLAIN_BYTES` and every CR in it ends a line (as csv reads one)."""
    return not block.translate(None, _PLAIN_BYTES) and not (b"\r" in block and _LONE_CR.search(block))


def _factorized(values: Sequence) -> tuple[list, np.ndarray]:
    """The distinct values, sorted, and each value's index among them."""
    distinct = sorted(set(values))
    code_of = {value: code for code, value in enumerate(distinct)}
    return distinct, np.fromiter(map(code_of.__getitem__, values), np.int64, len(values))


def _fraction_checks(column: int, values: np.ndarray) -> list[tuple]:
    return [
        (column, ~np.isfinite(values), "must be finite"),
        (column, ~((values >= 0.0) & (values <= 1.0)), "must lie in [0, 1]"),
    ]


def _located_box_checks(keyframes: np.ndarray, boxes: np.ndarray) -> list[tuple]:
    """The checks of cells 1-5, which both schemas share; the degenerate box is y2's last."""
    corners = [check for corner in range(4) for check in _fraction_checks(2 + corner, boxes[:, corner])]
    degenerate = ~((boxes[:, 0] < boxes[:, 2]) & (boxes[:, 1] < boxes[:, 3]))
    return [
        (1, keyframes < 0, "must be >= 0"),
        *corners,
        (5, degenerate, "degenerate box: requires x1 < x2 and y1 < y2"),
    ]


def _row_errors(lines: Sequence[int], checks: list, failed: dict) -> tuple[np.ndarray, list[tuple[int, str]]]:
    """Each row's first broken check as ``(line, message)``, and the mask of rows that broke none.

    A check is ``(column, mask, message)``, in the order a row is checked,
    which is column order. ``mask`` is True where a row breaks it: an (n,)
    array for one cell, or an (n, w) block for the w cells from ``column``
    on. ``message`` is a string or a function of the row. A cell in
    ``failed`` (see `_Cells`) breaks at its column before that column's checks.
    """
    broken = np.logical_or.reduce([mask if mask.ndim == 1 else mask.any(axis=1) for _, mask, _ in checks])
    slots = [
        (column + offset, message)
        for column, mask, message in checks
        for offset in range(mask.shape[1] if mask.ndim == 2 else 1)
    ]
    rows = sorted({*np.flatnonzero(broken).tolist(), *failed})
    errors = []
    for row, bad in zip(rows, np.column_stack([mask[rows] for _, mask, _ in checks])):
        found = [failed[row]] if row in failed else []
        if broken[row]:
            found.append(slots[bad.argmax()])
        _, message = min(found, key=itemgetter(0))  # the failed cell first at its own column
        errors.append((lines[row], message if isinstance(message, str) else message(row)))
    clean = ~broken
    clean[list(failed)] = False
    return clean, errors


def _raise_errors(path: str, errors: list[tuple[int, str]]) -> None:
    """FormatError with the ``(line, message)`` errors in line order, if there are any."""
    if errors:
        raise FormatError([f"{path}:{line}: {message}" for line, message in sorted(errors, key=itemgetter(0))])


def _annotation_errors(
    cells: _Cells, role: str, n_labels: Optional[int], labelled: Optional[np.ndarray] = None
) -> tuple[list[tuple[int, str]], tuple[np.ndarray, np.ndarray]]:
    """Each row's first broken rule as ``(line, message)``, and the rows sorted into observations.

    The observations are ``(order, starts)``: the clean rows by (video,
    keyframe, actor), file order within one, and the position in ``order``
    of each observation's first row.

    Each row's cells are checked in column order (`_row_errors`); without
    ``n_labels``, no action id is too large. The rows whose cells all pass
    are then grouped into observations by (video, keyframe, actor), in file
    order within one. The first row of an observation fixes its geometry
    and score. Each later row must agree with them, must not hold action 0
    nor join a first row that does, and must not repeat the action id of a
    row the observation took before it. ``labelled`` marks the rows a
    writer writes for a label, where action 0, which reads back as no
    label, is refused too.
    """
    columns = cells.columns
    keyframes, boxes, actions, actors = (columns[name] for name in ("keyframe", "box", "action_id", "actor_id"))
    scores = columns["score"] if role == "pred" else np.ones(len(boxes))
    names, videos = cells.names, cells.videos
    checks = [
        (0, cells.no_id, "video_id: must be non-empty"),
        *_located_box_checks(keyframes, boxes),
        (6, actions < 0, "must be >= 0"),
        (6, (actions == NO_ACTION_MARKER) & (role == "gt"),
         "action_id 0 (no labels) is not allowed in ground truth"),
    ]
    if n_labels is not None:
        checks.append((6, (actions > n_labels) & (actions != NO_ACTION_MARKER),
                       lambda row: f"action_id {actions[row]} outside [1, {n_labels}]"))
    if labelled is not None:
        checks.append((6, labelled & (actions == NO_ACTION_MARKER), "action_id 0 reads back as no label"))
    checks += [
        (7, actors < 0, "must be >= 0"),
        *_fraction_checks(8, scores),  # a ground-truth score is 1.0, which passes
    ]
    clean, errors = _row_errors(cells.lines, checks, cells.failed)

    # Sort the clean rows by observation, stably: `head` is the first row of
    # each one's observation, and a later row is one that is not its head.
    rows = np.flatnonzero(clean)
    keys = [column[rows] for column in (videos, keyframes, actors)]
    sort = np.lexsort(keys[::-1])
    order = rows[sort]
    key = np.column_stack(keys)[sort]
    new = np.ones(len(order), bool)
    new[1:] = (key[1:] != key[:-1]).any(axis=1)
    group = np.cumsum(new) - 1
    starts = np.flatnonzero(new)
    head = order[starts][group]
    later = ~new
    sorted_actions = actions[order]
    geometry = later & (boxes[order] != boxes[head]).any(axis=1)
    score = later & (scores[order] != scores[head])
    no_action = later & ((sorted_actions == NO_ACTION_MARKER) | (actions[head] == NO_ACTION_MARKER))
    taken = np.flatnonzero(~(geometry | score | no_action))
    by_action = taken[np.lexsort((sorted_actions[taken], group[taken]))]
    duplicate = np.zeros(len(order), bool)
    duplicate[by_action[1:]] = (group[by_action[1:]] == group[by_action[:-1]]) & (
        sorted_actions[by_action[1:]] == sorted_actions[by_action[:-1]]
    )
    # The observation rules, by position in `order`, at a column past every cell's.
    lines = np.asarray(cells.lines)
    _, group_errors = _row_errors(lines[order], [
        (9, geometry, lambda p: (
            f"geometry conflicts with line {lines[head[p]]} for (video_id={names[videos[order[p]]]}, "
            f"keyframe={keyframes[order[p]]}, actor_id={actors[order[p]]})"
        )),
        (9, score, lambda p: f"score conflicts with line {lines[head[p]]}"),
        (9, no_action, "action_id 0 must be the observation's only row"),
        (9, duplicate, lambda p: f"duplicate action_id {sorted_actions[p]}"),
    ], {})
    return errors + group_errors, (order, starts)


def _records(path: str, role: str, n_labels: int, cells: _Cells) -> list[VideoRecord]:
    """The records of an annotation file's cells; FormatError naming each row's first broken rule.

    The rules are `_annotation_errors`'. Each record is made from its
    column table, which `model._table_of` builds from the record's slice of
    the sorted columns, and its actor ids; it builds its observations from
    the table on first read (`VideoRecord._from_table`).
    """
    errors, (order, starts) = _annotation_errors(cells, role, n_labels)
    _raise_errors(path, errors)

    # Every row is clean and taken: each observation is its rows from its head.
    columns = cells.columns
    keyframes, boxes, actors = (columns[name][order[starts]] for name in ("keyframe", "box", "actor_id"))
    keyframes, actors = keyframes.tolist(), actors.tolist()
    scores = columns["score"][order[starts]] if role == "pred" else np.ones(len(boxes))
    names, videos = cells.names, cells.videos[order[starts]]
    bounds = starts.tolist() + [len(order)]
    action_ids = columns["action_id"][order].tolist()
    labels = [tuple(action_ids[start:stop]) for start, stop in zip(bounds, bounds[1:])]
    # Each set is built from its rows' action ids in file order, so that its
    # iteration order, and so its repr, is that of the file's rows.
    label_sets = {ids: frozenset(set(ids) - {NO_ACTION_MARKER}) for ids in set(labels)}
    labels = list(map(label_sets.__getitem__, labels))

    # The observations run in (video, keyframe, actor) order, one record per video.
    records = []
    cuts = np.searchsorted(videos, np.arange(len(names) + 1)).tolist()
    for name, start, stop in zip(names, cuts, cuts[1:]):
        actor_ids = tuple(sorted(set(actors[start:stop])))
        table = _table_of(
            keyframes[start:stop], actors[start:stop], actor_ids, boxes[start:stop], scores[start:stop],
            labels[start:stop],
        )
        records.append(VideoRecord._from_table(name, table, actor_ids))
    return records


def _stream_errors(cells: _Cells) -> tuple[str, list[tuple[int, str]]]:
    """A stream file's video id, its first non-empty one, and each row's first broken rule (`_row_errors`)."""
    columns = cells.columns
    names, videos, no_id = cells.names, cells.videos, cells.no_id
    present = videos[~no_id]
    first = present[0] if len(present) else -1
    checks = [
        (0, no_id, "video_id: must be non-empty"),
        (0, ~no_id & (videos != first),
         lambda row: f"multiple videos in one stream file ({names[first]!r} and {names[videos[row]]!r})"),
        *_located_box_checks(columns["keyframe"], columns["box"]),
        *_fraction_checks(6, columns["score"]),
        (7, ~np.isfinite(columns["embedding"]), "must be finite"),
    ]
    _, errors = _row_errors(cells.lines, checks, cells.failed)
    return (names[first] if first >= 0 else ""), errors


def _stream(path: str, cells: _Cells) -> DetectionStream:
    """The stream of a stream file's cells; FormatError naming each row's first broken rule."""
    video_id, errors = _stream_errors(cells)
    _raise_errors(path, errors)
    keyframes, boxes, scores, embeddings = map(cells.columns.get, ("keyframe", "box", "score", "embedding"))
    return DetectionStream(video_id, embeddings.shape[1], tuple(keyframes.tolist()), boxes, scores, embeddings)


def parse_annotations(path: str, role: str, n_labels: int = DEFAULT_N_LABELS) -> list[VideoRecord]:
    """Parse an annotation CSV into validated records, one per video.

    Rows sharing (video_id, keyframe, actor_id) merge into one multi-label
    observation and must agree exactly on geometry (and score). The checks
    enforce every rule of the domain model (see `model`): ids and keyframes
    >= 0, boxes with x1 < x2 and y1 < y2 inside the unit square, scores in
    [0, 1], labels in [1, n_labels], and a non-empty label set on ground
    truth. Each row that breaks a rule is reported with its line number and
    its first broken rule, and any problem aborts the parse. numpy's reader
    reads the file, or the csv reader one it declines (`_read_cells`; see the
    module docstring); `_records` checks either's cells.
    """
    expected = f"header {','.join(_columns(role))}"  # a ValueError on another role comes before any read
    return _records(path, role, n_labels, _read_cells(path, partial(_annotation_dtype, path, role), expected))


def _cell(value) -> str:
    """The one cell rule, unquoted: a float, numpy's included, is its repr; None is empty; any other its str."""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return "" if value is None else str(value)


# The csv module's writer (QUOTE_MINIMAL) quotes a cell holding one of these,
# and writes any other as it is; `_quoted` writes the same bytes.
_QUOTED = frozenset(',"\r\n')


def _write_rows(path: str, columns: Sequence[str], row_format: str, rows: Iterable[Sequence]) -> None:
    """The one CSV writer: the header, then one ``row_format`` join per row.

    Each ``%r`` of the format must take a float (its repr is `_cell`'s), each
    ``%d`` an int and each ``%s`` a str cell as the csv module writes it
    (`_quoted`).
    """
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write(",".join(columns) + "\r\n")
        handle.write("".join(map(row_format.__mod__, rows)))


def _quoted(value) -> str:
    """Any cell as the csv module writes it: its `_cell` text, in quotes (each one doubled) if `_QUOTED` meets it."""
    text = _cell(value)
    return text if _QUOTED.isdisjoint(text) else '"' + text.replace('"', '""') + '"'


def write_annotations(records: Sequence[VideoRecord], path: str, role: str) -> None:
    """Serialize records in canonical row order (video, keyframe, actor, action).

    The rows are written from the records' column tables (`_written_cells`).
    Raises ValueError, before the file is opened, on two records of one
    video_id, as `model.aligned_records` does: the parser would read their
    rows as one video's. Then on a row that `parse_annotations` would refuse
    under any label count (its checks, `_annotation_errors`, but the label
    range), or would read back as another label set: action 0 as a label.
    The message names the first such row's video and keyframe, and gives the
    parser's message, whose lines are the rows' lines in the file. A record
    holding one (keyframe, actor_id) twice, which the parser would merge
    into one observation, is then refused too (`model._check_no_repeat`).
    """
    header = _columns(role)
    records = sorted(records, key=lambda r: r.video_id)
    for record, following in zip(records, records[1:]):
        if record.video_id == following.video_id:
            raise ValueError(f"duplicate video_id {record.video_id!r} among the records")
    cells, labelled = _written_cells(records)
    columns = cells.columns
    errors, _ = _annotation_errors(cells, role, None, labelled)
    if errors:
        line, message = min(errors, key=itemgetter(0))
        raise ValueError(
            f"{cells.names[cells.videos[line - 2]]!r}: row at keyframe {columns['keyframe'][line - 2]} "
            f"would not parse back: {message}"
        )
    for record in records:
        _check_no_repeat(record)
    names = list(map(_quoted, cells.names))
    rows = zip(
        map(names.__getitem__, cells.videos.tolist()),
        columns["keyframe"].tolist(),
        *columns["box"].T.tolist(),
        columns["action_id"].tolist(),
        columns["actor_id"].tolist(),
        *([columns["score"].tolist()] if role == "pred" else []),
    )
    _write_rows(path, header, "%s,%d,%r,%r,%r,%r,%d,%d" + (",%r" if role == "pred" else "") + "\r\n", rows)


def _written_cells(records: Sequence[VideoRecord]) -> tuple[_Cells, np.ndarray]:
    """The cells of the rows written for ``records``, and a mask of the rows written for a label.

    ``records`` are sorted by video_id, one per video_id. One row is written
    per sorted label of each row of a record's column table
    (`model._Table`), or one of action 0 for none; its other cells repeat
    that row. A row's line is its index + 2. The action column holds each
    label as the parser reads its text, which is what the row writes.
    """
    names = [record.video_id for record in records]
    records = [VideoRecord(""), *records]  # so that every column has a part
    tables = [record._table for record in records]
    labels = [sorted(actions) for table in tables for actions in table.labels]
    counts = [len(action_ids) or 1 for action_ids in labels]

    def per_row(parts: Iterable[np.ndarray]) -> np.ndarray:
        return np.repeat(np.concatenate(list(parts)), counts, axis=0)

    videos = per_row(np.full(len(table.scores), code) for code, table in enumerate(tables, start=-1))
    columns = dict(
        keyframe=per_row(_int_column(table.keyframes)[table.frame_codes] for table in tables),
        box=per_row(table.boxes for table in tables),
        actor_id=per_row(_int_column(record.actor_ids)[table.actors] for record, table in zip(records, tables)),
        score=per_row(table.scores for table in tables),
    )
    actions = [action for action_ids in labels for action in action_ids or [NO_ACTION_MARKER]]
    failed: dict[int, tuple[int, str]] = {}
    columns["action_id"] = _int_column([
        action if type(action) is int else _converted(int, _cell(action), row, 6, failed)
        for row, action in enumerate(actions)
    ])
    labelled = np.repeat(np.array(list(map(bool, labels)), bool), counts)
    return _Cells(names, videos, columns, range(2, len(actions) + 2), failed), labelled


def _int_column(values: Sequence[int]) -> np.ndarray:
    """Python ints as an int64 array, or as an object array if one passes int64 (as the csv reader reads them)."""
    try:
        return np.array(values, np.int64)
    except OverflowError:
        return np.array(values, object)


def parse_detection_stream(path: str) -> DetectionStream:
    """Parse a detection-stream CSV; one video per file, fixed embedding width.

    Each row that breaks a rule is reported with its line number and its
    first broken rule: a non-empty video_id, the same as the first row's that
    has one; an integer keyframe >= 0; corners in [0, 1] with x1 < x2 and
    y1 < y2; a score in [0, 1]; finite embedding values. numpy's reader reads
    the file, or the csv reader one it declines (`_read_cells`; see the
    module docstring); `_stream` checks either's cells.
    """
    cells = _read_cells(path, partial(_stream_dtype, path), "a stream header", " (ragged embedding width)")
    return _stream(path, cells)


def write_detection_stream(stream: DetectionStream, path: str) -> None:
    """The stream's rows in its order: ascending keyframe, given order within one.

    Raises ValueError, before the file is opened, on a stream that
    `parse_detection_stream` would not read back (see `_check_parsable`).
    """
    keyframes = _check_parsable(stream)
    header = STREAM_FIXED_COLUMNS + [f"e{i}" for i in range(stream.dim)]
    video_id = _quoted(stream.video_id)
    columns = zip(keyframes, stream.boxes.tolist(), stream.scores.tolist(), stream.embeddings.tolist())
    _write_rows(path, header, "%s,%d" + ",%r" * (5 + stream.dim) + "\r\n", (
        (video_id, keyframe, *box, score, *embedding) for keyframe, box, score, embedding in columns
    ))


def _check_parsable(stream: DetectionStream) -> list[int]:
    """Each row's keyframe as the int the parser reads from its cell, which is what the row writes.

    Raises ValueError unless `parse_detection_stream` accepts every row the
    stream writes. A stream needs an embedding column. Its columns then take
    the parser's checks (`_stream_errors`), each keyframe as that int; the
    error names the first bad row's keyframe and its message.
    """
    if stream.dim < 1:
        raise ValueError(f"a stream needs at least one embedding column, got dim {stream.dim}")
    failed: dict[int, tuple[int, str]] = {}
    keyframes = [
        _converted(int, _cell(keyframe), row, 1, failed) for row, keyframe in enumerate(stream.row_keyframes)
    ]
    columns = dict(keyframe=np.array(keyframes, object), box=stream.boxes, score=stream.scores,
                   embedding=stream.embeddings)
    n = len(keyframes)  # each row's index stands for its line, so an error names its row
    _, errors = _stream_errors(_Cells([stream.video_id], np.zeros(n, np.int64), columns, range(n), failed))
    if errors:
        row, message = errors[0]
        raise ValueError(
            f"{stream.video_id!r}: row at keyframe {stream.row_keyframes[row]} would not parse back: {message}"
        )
    return keyframes


_BLOCK_FIELDS = [f.name for f in fields(MetricBlock)]


def _block_to_dict(block: MetricBlock) -> dict:
    """The block's fields by name, its flags as a list: the one map both report forms write."""
    return {name: getattr(block, name) for name in _BLOCK_FIELDS} | {"flags": list(block.flags)}


# A JSON value's type, by the annotation of the field it fills: its name and
# the Python types `json.load` gives for it. Report fields, config-file flags
# (`cli._check_config_value`) and a manifest's n_labels read it.
_JSON_TYPES = {
    "bool": ("true or false", bool),
    "str": ("a string", str),
    "int": ("an integer", int),
    "float": ("a number", (int, float)),
    "Optional[float]": ("a number or null", (int, float, type(None))),
    "Optional[str]": ("a string or null", (str, type(None))),
    "tuple[str, ...]": ("a list of strings", list),
}


def _has_json_type(value, annotation: str) -> bool:
    """Whether ``value`` has the JSON type of ``annotation``: a bool only "bool"'s, an int also a number's."""
    types = _JSON_TYPES[annotation][1]
    of_strings = not isinstance(value, list) or all(isinstance(x, str) for x in value)
    return isinstance(value, types) and isinstance(value, bool) == (types is bool) and of_strings


def _check_type(value, annotation: str, where: str) -> None:
    """FormatError at ``where`` unless ``value`` has the JSON type of ``annotation``."""
    if not _has_json_type(value, annotation):
        raise FormatError([f"{where}: expected {_JSON_TYPES[annotation][0]}, got {json.dumps(value)}"])


def _block_from_dict(data: dict, where: str) -> MetricBlock:
    """The block of a report's JSON; FormatError naming the key of a missing or mistyped value."""
    kwargs = _required(data, _BLOCK_FIELDS, where)
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


# The tallies each field `_metric_block` derives follows from, named in a read report's errors.
_DERIVED_FROM = {
    "ap": ("tp", "fn"),
    "ap_reason": ("tp", "fn"),
    "hl": ("wrong_label_bits", "n_matched_pairs", "n_labels"),
    "hl_reason": ("n_matched_pairs",),
    "idf1": ("idtp", "idfp", "idfn"),
    "mt_pct": ("mt_count", "n_gt_tracklets"),
    "ml_pct": ("ml_count", "n_gt_tracklets"),
    "flags": ("idtp", "idfp", "idfn"),
}


def _check_arithmetic(block: MetricBlock, n_labels: int, where: str) -> None:
    """FormatError at ``where`` unless the block's tallies agree and give its derived fields.

    GT boxes and predictions are counted twice, by detection (tp + fn,
    tp + fp) and by identity (idtp + idfn, idtp + idfp), and must agree;
    a tracklet is at most one of MT and ML; a pair has at most ``n_labels``
    wrong bits. A non-null AP must be a number in [0, 1]. Then
    `_metric_block` of the tallies, the AP value and reason, and the
    score_ties flag must give every field exactly (JSON floats round-trip,
    so there is no tolerance).
    """
    values = {**vars(block), "n_labels": n_labels}

    def sources(keys) -> str:
        return ", ".join(f"{key}={values[key]}" for key in keys)

    checks = (  # one side's keys and value, the other side's, and whether the two must be equal or ordered
        (("tp", "fn"), block.tp + block.fn, ("idtp", "idfn"), block.idtp + block.idfn, True),
        (("tp", "fp"), block.tp + block.fp, ("idtp", "idfp"), block.idtp + block.idfp, True),
        (("mt_count", "ml_count"), block.mt_count + block.ml_count, ("n_gt_tracklets",), block.n_gt_tracklets, False),
        (("wrong_label_bits",), block.wrong_label_bits, ("n_matched_pairs", "n_labels"),
         block.n_matched_pairs * n_labels, False),
    )
    for keys, value, other_keys, other, equal in checks:
        if value != other if equal else value > other:
            left, right = " + ".join(map(repr, keys)), (" + " if equal else " * ").join(map(repr, other_keys))
            relation = f"but {right} is" if equal else f"more than {right},"
            raise FormatError([f"{where}: {left} is {value}, {relation} {other} ({sources(keys + other_keys)})"])
    if block.ap is not None and not 0 <= block.ap <= 1:  # NaN too
        raise FormatError([f"{where}: key 'ap' is {json.dumps(block.ap)}, but an AP lies in [0, 1]"])
    tallies = {key: getattr(block, key) for key in SUMMED_TALLIES}
    expected = _metric_block(block.ap, block.ap_reason, "score_ties" in block.flags, n_labels, **tallies)
    for key, keys in _DERIVED_FROM.items():
        value, derived = getattr(block, key), getattr(expected, key)
        if value != derived:
            raise FormatError([f"{where}: key {key!r} is {json.dumps(value)}, but its tallies give "
                               f"{json.dumps(derived)} ({sources(keys)})"])


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
    JSON type, a repeated video_id, an aggregate tally (`SUMMED_TALLIES`)
    that is not the sum of the videos', a config without a positive integer
    ``n_labels``, or a block whose arithmetic does not hold
    (`_check_arithmetic`: its tallies, then its AP's range, then its
    derived fields), checked in that order.
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
    n_labels = _required(config, ["n_labels"], "config")["n_labels"]
    _check_type(n_labels, "int", "config: key 'n_labels'")
    if n_labels < 1:
        raise FormatError([f"config: key 'n_labels': expected a positive integer, got {n_labels}"])
    for i, block in enumerate(per_video.values()):  # in the order of ``videos``, which repeats none
        _check_arithmetic(block, n_labels, f"videos[{i}]")
    _check_arithmetic(aggregate, n_labels, "aggregate")
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
        columns = ["video_id"] + _BLOCK_FIELDS
        rows = []
        for video_id, block in [(AGGREGATE_KEY, report.aggregate)] + sorted(report.per_video.items()):
            data = {"video_id": video_id, **_block_to_dict(block), "flags": ";".join(block.flags)}
            rows.append(tuple(map(_quoted, data.values())))
        _write_rows(path, columns, ",".join(["%s"] * len(columns)) + "\r\n", rows)
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
        if _has_json_type(value, "int") and value >= 1:
            return value
    return None


def write_bench_table(rows: Sequence[dict], path: str) -> None:
    """Two-row-per-seed online/offline comparison table."""
    row_format = ",".join(["%s"] * len(BENCH_COLUMNS)) + "\r\n"
    _write_rows(path, BENCH_COLUMNS, row_format, (tuple(_quoted(row[name]) for name in BENCH_COLUMNS) for row in rows))


def write_pr_curve(result: APResult, path: str) -> None:
    """The ranked PR curve, one row per prediction, for offline inspection.

    The recall, precision and p_interp columns are the curve's ``columns``,
    the ones its AP was summed from; a curve without ground truth has none,
    and so no rows. Every cell is a number, so no cell needs quoting
    (`_write_rows`).
    """
    curve = result.curve
    columns = [column.tolist() for column in (curve.scores, curve.flags, *curve.columns)]
    _write_rows(path, PR_CURVE_COLUMNS, "%d,%r,%d,%d,%r,%r,%r\r\n", (
        (rank, score, is_tp, not is_tp, *values)
        for rank, (score, is_tp, *values) in enumerate(zip(*columns), start=1)
    ))
