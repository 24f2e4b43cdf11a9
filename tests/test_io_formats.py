import hashlib
import json
import os
import re
import tempfile
import warnings
from dataclasses import fields, replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asadeval import io_formats
from asadeval.association import DetectionStream
from asadeval.detection import APResult, DetectionTally, PRCurve, average_precision
from asadeval.evaluation import AGGREGATE_KEY, SUMMED_TALLIES, MetricBlock, evaluate_records
from asadeval.io_formats import (
    FormatError,
    parse_annotations,
    parse_detection_stream,
    read_report,
    report_from_dict,
    report_to_dict,
    sidecar_n_labels,
    write_annotations,
    write_bench_table,
    write_detection_stream,
    write_pr_curve,
    write_report,
)
from asadeval.model import BoundingBox
from asadeval.synthetic import Perturbation, generate, perturb, scenario_preset
from support import LEFT, RIGHT, obs, random_record, record, write_csv_reference


def write_text(path, text):
    path.write_bytes(text.encode("utf-8"))
    return str(path)


GT_HEADER = "video_id,keyframe,x1,y1,x2,y2,action_id,actor_id"
PRED_HEADER = GT_HEADER + ",score"


def test_multi_label_rows_group_into_one_observation(tmp_path):
    path = write_text(
        tmp_path / "gt.csv",
        f"{GT_HEADER}\n"
        "v,0,0.1,0.1,0.3,0.3,12,3\n"
        "v,0,0.1,0.1,0.3,0.3,79,3\n",
    )
    (rec,) = parse_annotations(path, role="gt")
    (observation,) = rec.observations
    assert observation.actions == frozenset({12, 79})
    assert observation.score == 1.0


STREAM_HEADER = "video_id,keyframe,x1,y1,x2,y2,score,e0,e1"


@pytest.mark.parametrize(
    "parse, text, line",
    [
        (
            lambda path: parse_annotations(path, role="gt"),
            f"{GT_HEADER}\nv,0,0.1,0.1,0.3,0.3,1,1\nv,1,0.5,0.1,0.4,0.3,1,1\n",
            ":3:",
        ),
        # A quoted field holding a newline: messages name physical lines.
        (
            lambda path: parse_annotations(path, role="gt"),
            f'{GT_HEADER}\n"two\nlines",0,0.1,0.1,0.3,0.3,1,1\nv,1,0.5,0.1,0.4,0.3,1,1\n',
            ":4:",
        ),
        (
            parse_detection_stream,
            f'{STREAM_HEADER}\nv,0,0.1,0.1,0.3,0.3,0.9,"1.0\n",0.0\nv,1,0.5,0.1,0.4,0.3,0.9,1.0,0.0\n',
            ":4:",
        ),
    ],
    ids=["annotations", "annotations-quoted-newline", "stream-quoted-newline"],
)
def test_degenerate_box_row_names_the_line(tmp_path, parse, text, line):
    path = write_text(tmp_path / "in.csv", text)
    with pytest.raises(FormatError) as excinfo:
        parse(path)
    assert any(line in message and "degenerate" in message for message in excinfo.value.errors)


def test_header_only_file_is_empty(tmp_path):
    path = write_text(tmp_path / "gt.csv", f"{GT_HEADER}\n")
    assert parse_annotations(path, role="gt") == []


def test_score_column_required_for_pred_forbidden_for_gt(tmp_path):
    pred_in_gt = write_text(
        tmp_path / "a.csv", f"{PRED_HEADER}\nv,0,0.1,0.1,0.3,0.3,1,1,0.9\n"
    )
    with pytest.raises(FormatError, match="header"):
        parse_annotations(pred_in_gt, role="gt")
    gt_as_pred = write_text(
        tmp_path / "b.csv", f"{GT_HEADER}\nv,0,0.1,0.1,0.3,0.3,1,1\n"
    )
    with pytest.raises(FormatError, match="header"):
        parse_annotations(gt_as_pred, role="pred")


def test_geometry_conflict_rejected(tmp_path):
    path = write_text(
        tmp_path / "gt.csv",
        f"{GT_HEADER}\n"
        "v,0,0.1,0.1,0.3,0.3,1,3\n"
        "v,0,0.1,0.1,0.35,0.3,2,3\n",
    )
    with pytest.raises(FormatError, match="geometry conflicts"):
        parse_annotations(path, role="gt")


def test_malformed_number_and_range_errors_carry_lines(tmp_path):
    path = write_text(
        tmp_path / "pred.csv",
        f"{PRED_HEADER}\n"
        "v,0,0.1,0.1,0.3,0.3,1,1,0.9\n"
        "v,abc,0.1,0.1,0.3,0.3,1,1,0.9\n"
        "v,2,0.1,0.1,1.3,0.3,1,1,0.9\n"
        "v,3,0.1,0.1,0.3,0.3,1,1,1.9\n",
    )
    with pytest.raises(FormatError) as excinfo:
        parse_annotations(path, role="pred")
    joined = "\n".join(excinfo.value.errors)
    assert ":3:" in joined and ":4:" in joined and ":5:" in joined


def test_no_action_marker_rules(tmp_path):
    ok = write_text(tmp_path / "ok.csv", f"{PRED_HEADER}\nv,0,0.1,0.1,0.3,0.3,0,1,0.9\n")
    (rec,) = parse_annotations(ok, role="pred")
    assert rec.observations[0].actions == frozenset()

    in_gt = write_text(tmp_path / "gt.csv", f"{GT_HEADER}\nv,0,0.1,0.1,0.3,0.3,0,1\n")
    with pytest.raises(FormatError, match="not allowed in ground truth"):
        parse_annotations(in_gt, role="gt")

    mixed = write_text(
        tmp_path / "mixed.csv",
        f"{PRED_HEADER}\n"
        "v,0,0.1,0.1,0.3,0.3,0,1,0.9\n"
        "v,0,0.1,0.1,0.3,0.3,2,1,0.9\n",
    )
    with pytest.raises(FormatError, match="only row"):
        parse_annotations(mixed, role="pred")


def test_crlf_lines_accepted(tmp_path):
    path = write_text(
        tmp_path / "gt.csv",
        f"{GT_HEADER}\r\nv,0,0.1,0.1,0.3,0.3,1,1\r\n",
    )
    (rec,) = parse_annotations(path, role="gt")
    assert len(rec.observations) == 1


@pytest.mark.parametrize("role", ["gt", "pred"])
def test_annotation_round_trip_randomized(tmp_path, role):
    rng = np.random.default_rng({"gt": 0, "pred": 1}[role])
    records = [random_record(rng, f"video_{i:02d}", role) for i in range(10)]
    path = tmp_path / "out.csv"
    write_annotations(records, str(path), role=role)
    parsed = parse_annotations(str(path), role=role)
    assert parsed == sorted(records, key=lambda r: r.video_id)


def test_gt_writer_refuses_an_unlabelled_observation_before_opening(tmp_path):
    # The bad observation sorts after rows that would be written first.
    labelled = record("a", [obs("a", 0, 1, LEFT)])
    unlabelled = record("b", [obs("b", 0, 1, LEFT), obs("b", 3, 2, RIGHT, actions=())])
    path = tmp_path / "gt.csv"
    path.write_bytes(b"previous contents\n")
    message = "'b': row at keyframe 3 would not parse back: action_id 0 (no labels) is not allowed in ground truth"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        write_annotations([unlabelled, labelled], str(path), role="gt")
    assert path.read_bytes() == b"previous contents\n"
    write_annotations([unlabelled, labelled], str(path), role="pred")
    assert parse_annotations(str(path), role="pred") == [labelled, unlabelled]


def test_annotation_writer_refuses_an_empty_video_id_before_opening(tmp_path):
    path = tmp_path / "out.csv"
    path.write_bytes(b"previous contents\n")
    records = [record("a", [obs("a", 0, 1, LEFT)]), record("", [obs("", 0, 1, LEFT)])]
    for role in ("gt", "pred"):
        message = "^'': row at keyframe 0 would not parse back: video_id: must be non-empty$"
        with pytest.raises(ValueError, match=message):
            write_annotations(records, str(path), role=role)
        assert path.read_bytes() == b"previous contents\n"
    # A record without observations writes no row, so its id is never read.
    write_annotations([record("", []), records[0]], str(path), role="gt")
    assert parse_annotations(str(path), role="gt") == records[:1]


def test_stream_round_trip_and_sorting(tmp_path):
    header = "video_id,keyframe,x1,y1,x2,y2,score,e0,e1,e2,e3"
    path = write_text(
        tmp_path / "stream.csv",
        f"{header}\n"
        "v,5,0.1,0.1,0.3,0.3,0.9,1.0,0.0,0.0,0.0\n"
        "v,0,0.2,0.2,0.4,0.4,0.8,0.0,1.0,0.0,0.0\n",
    )
    stream = parse_detection_stream(path)
    assert stream.dim == 4
    assert stream.keyframes == (0, 5)
    out = tmp_path / "round.csv"
    write_detection_stream(stream, str(out))
    again = parse_detection_stream(str(out))
    assert again.keyframes == stream.keyframes
    assert again.frames[0][0].box == stream.frames[0][0].box
    assert np.array_equal(again.frames[0][0].appearance, stream.frames[0][0].appearance)


def test_parsed_stream_frames_view_equals_the_csv_rows(tmp_path):
    # Rows out of keyframe order, keyframes past int64's range: the view groups
    # them by ascending keyframe and keeps file order within each keyframe.
    rng = np.random.default_rng(7)
    rows = []
    for keyframe in [2**64 + 3, 4, 2**63, 4, 0, 2**64 + 3, 4]:
        x1, y1 = rng.uniform(0.0, 0.4, size=2)
        x2, y2 = rng.uniform(0.5, 1.0, size=2)
        cells = [x1, y1, x2, y2, rng.uniform(), *rng.standard_normal(3)]
        rows.append(["v", str(keyframe)] + [repr(float(c)) for c in cells])
    header = "video_id,keyframe,x1,y1,x2,y2,score,e0,e1,e2"
    text = "\n".join([header] + [",".join(row) for row in rows]) + "\n"
    stream = parse_detection_stream(write_text(tmp_path / "stream.csv", text))

    expected: dict[int, list] = {}
    for row in rows:
        expected.setdefault(int(row[1]), []).append(row)
    assert list(stream.frames) == sorted(expected) == list(stream.keyframes)
    for keyframe, dets in stream.frames.items():
        assert len(dets) == len(expected[keyframe])
        for det, row in zip(dets, expected[keyframe]):
            assert det.box == BoundingBox(*map(float, row[2:6]))
            assert type(det.score) is float and det.score.hex() == float(row[6]).hex()
            assert det.appearance.tobytes() == np.array([float(c) for c in row[7:]]).tobytes()


def test_stream_ragged_embedding_is_error(tmp_path):
    header = "video_id,keyframe,x1,y1,x2,y2,score,e0,e1,e2,e3"
    path = write_text(
        tmp_path / "stream.csv",
        f"{header}\nv,0,0.1,0.1,0.3,0.3,0.9,1.0,0.0,0.0\n",
    )
    with pytest.raises(FormatError, match="ragged"):
        parse_detection_stream(path)


def test_stream_bad_embedding_header(tmp_path):
    header = "video_id,keyframe,x1,y1,x2,y2,score,f0,f1"
    path = write_text(tmp_path / "stream.csv", f"{header}\n")
    with pytest.raises(FormatError, match="e0"):
        parse_detection_stream(path)


def test_stream_refuses_multiple_videos(tmp_path):
    header = "video_id,keyframe,x1,y1,x2,y2,score,e0"
    path = write_text(
        tmp_path / "stream.csv",
        f"{header}\n"
        "a,0,0.1,0.1,0.3,0.3,0.9,1.0\n"
        "b,0,0.1,0.1,0.3,0.3,0.9,1.0\n",
    )
    with pytest.raises(FormatError, match="multiple videos"):
        parse_detection_stream(path)


def test_stray_quote_names_the_line_the_record_starts_on(tmp_path):
    # The quote on line 3 swallows lines 4-5 into one 3-column record.
    path = write_text(
        tmp_path / "q.csv",
        f"{GT_HEADER}\n"
        "v,1,0.1,0.1,0.3,0.3,1,1\n"
        'v,2,"0.1,0.1,0.3,0.3,1,1\n'
        "v,3,0.1,0.1,0.3,0.3,1,1\n"
        "v,4,0.1,0.1,0.3,0.3,1,1\n",
    )
    with pytest.raises(FormatError) as excinfo:
        parse_annotations(path, role="gt")
    assert excinfo.value.errors == [
        f"{path}:3: expected 8 columns, got 3 (record runs from line 3 to line 5; unbalanced quote?)"
    ]


def parse_embedding_cells(tmp_path, cells):
    """Parse one stream row holding the embedding ``cells``."""
    header = ",".join(["video_id,keyframe,x1,y1,x2,y2,score"] + [f"e{i}" for i in range(len(cells))])
    row = ",".join(["v,0,0.1,0.1,0.3,0.3,0.9"] + cells)
    return parse_detection_stream(write_text(tmp_path / "stream.csv", f"{header}\n{row}\n"))


@pytest.mark.parametrize(
    "cells, message",
    [
        (["1.0", "nan", "abc"], "must be finite"),
        (["1.0", "abc", "nan"], "could not convert string to float: 'abc'"),
        (["-inf", "1.0"], "must be finite"),
        (["1e309", "0.0"], "must be finite"),
    ],
    ids=["nan-before-abc", "abc-before-nan", "inf", "overflowing-cell"],
)
def test_stream_embedding_error_names_the_first_bad_cell(tmp_path, cells, message):
    with pytest.raises(FormatError) as excinfo:
        parse_embedding_cells(tmp_path, cells)
    assert excinfo.value.errors == [f"{tmp_path / 'stream.csv'}:2: {message}"]


@pytest.mark.parametrize(
    "cells",
    [
        ["1e308", "1e308"],
        ["-1.7976931348623157e+308", "-1e308", "0.5"],
        ["1_0", " 2.5 ", "\t-0.0", "+3", ".5e1", "1E-320"],
        [repr(float(v)) for v in np.random.default_rng(5).standard_normal(64)],
    ],
    ids=["sum-overflows", "sum-overflows-negative", "float-syntax", "dim-64"],
)
def test_stream_embedding_bytes_equal_the_per_cell_parse(tmp_path, cells):
    stream = parse_embedding_cells(tmp_path, cells)
    (detection,) = stream.frames[0]
    assert detection.appearance.tobytes() == np.array([float(c) for c in cells]).tobytes()


PATH_ROWS = {
    "pred": [PRED_HEADER, "v,0,0.1,0.1,0.3,0.3,1,1,0.5", "v,0,0.1,0.1,0.3,0.3,2,1,0.5",
             "v,1,0.2,0.2,0.4,0.4,1,1,0.75"],
    "stream": [STREAM_HEADER, "v,1,0.1,0.1,0.3,0.3,0.5,0.25,-1.5", "v,0,0.2,0.2,0.4,0.4,0.75,1.0,2.0"],
}


def schema(kind, path):
    """How ``path`` is read as ``kind``: its header check, the csv reader's two message texts, its cell check."""
    if kind == "pred":
        return (partial(io_formats._annotation_dtype, path, "pred"), ("header " + PRED_HEADER,),
                partial(io_formats._records, path, "pred", 80))
    return (partial(io_formats._stream_dtype, path), ("a stream header", " (ragged embedding width)"),
            partial(io_formats._stream, path))


def by_arrays(kind):
    """The parse of a ``kind`` file by numpy's reader (`_read_arrays`) alone, or None where it declines the file."""
    def parse(path):
        dtype_of, _, checked = schema(kind, path)
        cells = io_formats._read_arrays(path, dtype_of)
        return None if cells is None else checked(cells)
    return parse


def by_csv(kind):
    """The parse of a ``kind`` file by the csv reader (`_read_csv`) alone, which reads any file."""
    def parse(path):
        dtype_of, texts, checked = schema(kind, path)
        return checked(io_formats._read_csv(path, dtype_of, *texts))
    return parse


PATH_PARSERS = {
    "pred": (by_arrays("pred"), by_csv("pred"), lambda path: parse_annotations(path, role="pred")),
    "stream": (by_arrays("stream"), by_csv("stream"), parse_detection_stream),
}


def with_cell(kind, line, column, token):
    lines = list(PATH_ROWS[kind])
    cells = lines[line].split(",")
    cells[column] = token
    lines[line] = ",".join(cells)
    return "\n".join(lines) + "\n"


def plain(kind):
    return "\n".join(PATH_ROWS[kind]) + "\n"


# Inputs on either side of the line between the two readers: (kind, file text,
# whether numpy's reader reads it). A declined file is the csv reader's,
# whether the parse then succeeds (1_0 is 10.0 to `float`) or fails. A file
# numpy reads may still break a rule: infinity is read, then refused.
PATH_CASES = {
    "underscore": ("stream", with_cell("stream", 1, 7, "1_0"), False),
    "plus-point": ("pred", with_cell("pred", 3, 8, "+.5"), True),
    "trailing-point": ("stream", with_cell("stream", 2, 8, "5."), True),
    "spaces": ("pred", with_cell("pred", 3, 8, " 0.5 "), True),
    "negative-zero": ("pred", with_cell("pred", 3, 2, "-0.0"), True),
    "underflow": ("stream", with_cell("stream", 1, 2, "1e-400"), True),
    "infinity": ("stream", with_cell("stream", 1, 7, "infinity"), True),
    "arabic-indic-digit": ("pred", with_cell("pred", 3, 1, "\u0663"), False),
    "keyframe-2**63": ("stream", with_cell("stream", 1, 1, str(2**63)), False),
    "leading-zeros": ("pred", with_cell("pred", 3, 1, "007"), True),
    "extra-column": ("stream", plain("stream").replace("-1.5\n", "-1.5,9\n"), False),
    "whitespace-line": ("pred", plain("pred").replace("0.5\nv,1", "0.5\n \nv,1"), False),
    "lone-cr": ("stream", plain("stream").replace("-1.5\n", "-1.5\r"), False),
    "bom": ("pred", "\ufeff" + plain("pred"), False),
    "long-field": ("stream", with_cell("stream", 1, 7, "0." + "0" * 131072 + "1"), False),
    "crlf": ("pred", plain("pred").replace("\n", "\r\n"), True),
    "blank-lines-only": ("pred", PRED_HEADER + "\n\n\r\n\n", True),
    "blank-lines": ("stream", plain("stream").replace("\n", "\n\n").replace("-1.5\n", "-1.5\r\n"), True),
}
# A float in an integer column: numpy 2 refuses it, numpy 1.23-1.26 truncates it with a warning.
PATH_CASES.update({
    f"{token}-{name}": ("pred", with_cell("pred", 3, column, token), False)
    for name, column in (("keyframe", 1), ("action_id", 6), ("actor_id", 7))
    for token in ("0.5", "1.0", "nan")
})


def parse_outcome(parse, path):
    """What ``parse`` makes of ``path``, in a form two parses compare by: exact text or errors."""
    try:
        result = parse(path)
    except FormatError as exc:
        return ("errors", exc.errors)
    if isinstance(result, list):
        return ("records", repr(result))
    arrays = (result.boxes, result.scores, result.embeddings)
    return ("stream", result.video_id, result.dim, result.row_keyframes, *(a.tobytes() for a in arrays))


@pytest.mark.parametrize("case", list(PATH_CASES.values()), ids=list(PATH_CASES))
def test_array_pass_reads_a_file_as_the_row_parser_does_or_declines(tmp_path, case):
    kind, text, taken = case
    path = write_text(tmp_path / "in.csv", text)
    by_arrays, by_rows, public = PATH_PARSERS[kind]
    rows = parse_outcome(by_rows, path)
    assert parse_outcome(public, path) == rows
    if taken:
        assert parse_outcome(by_arrays, path) == rows
    else:
        assert by_arrays(path) is None


def test_a_numpy_warning_declines_the_file_whatever_the_warning_filters(tmp_path, monkeypatch):
    # As numpy 1.23-1.26 reads keyframe 5.5: a DeprecationWarning, then the
    # truncated value, 5, which would make a valid file. The caller's filters
    # ignore warnings here.
    loadtxt = np.loadtxt

    def truncating(lines, dtype, **kwargs):
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.", DeprecationWarning)
        return loadtxt([line.replace(b",5.5,", b",5,", 1) for line in lines], dtype, **kwargs)

    monkeypatch.setattr(io_formats.np, "loadtxt", truncating)
    path = write_text(tmp_path / "in.csv", with_cell("pred", 3, 1, "5.5"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert by_arrays("pred")(path) is None
        with pytest.raises(FormatError, match=r":4: invalid literal for int\(\) with base 10: '5.5'$"):
            parse_annotations(path, role="pred")


@pytest.mark.skipif(not Path("/dev/fd").is_dir(), reason="needs /dev/fd to name a pipe")
def test_a_pipe_is_left_to_the_row_parser_whole():
    # As a shell's <(cat gt.csv) names it: each open of /dev/fd/N reads on
    # from where the last one stopped, so only one parser may open it.
    read_end, write_end = os.pipe()
    os.write(write_end, f"{GT_HEADER}\nv,0,0.1,0.1,0.3,0.3,1,1\nv,1,0.5,0.1,0.4,0.3,1,1\n".encode())
    os.close(write_end)
    path = f"/dev/fd/{read_end}"
    try:
        with pytest.raises(FormatError) as excinfo:
            parse_annotations(path, role="gt")
    finally:
        os.close(read_end)
    assert excinfo.value.errors == [f"{path}:3: degenerate box: requires x1 < x2 and y1 < y2"]


def test_array_pass_reads_a_file_of_many_chunks_as_the_row_parser_does(tmp_path, monkeypatch):
    rng = np.random.default_rng(7)
    records = [random_record(rng, f"video_{i:02d}", "pred") for i in (3, 1, 2)]
    path = str(tmp_path / "pred.csv")
    write_annotations(records, path, role="pred")
    monkeypatch.setattr(io_formats, "_CHUNK_BYTES", 200)
    read = by_arrays("pred")(path)
    assert repr(read) == repr(by_csv("pred")(path))
    assert read == sorted(records, key=lambda r: r.video_id)


def quoted(text):
    """``text`` with every video id quoted: the same rows, which numpy's reader declines."""
    return "\n".join(
        line if i == 0 or not line.strip("\r") else '"' + line.replace(",", '",', 1)
        for i, line in enumerate(text.split("\n"))
    )


# Rows that break rules after blank and CRLF lines, with their errors.
RULE_BREAKING_FILES = {
    "pred": (
        lambda path: parse_annotations(path, role="pred"),
        f"{PRED_HEADER}\nv,0,0.1,0.1,0.3,0.3,1,1,0.5\n\nv,0,0.1,0.1,0.3,0.3,2,1,0.5\r\n\r\n"
        "v,1,0.2,0.2,0.4,0.4,1,1,0.75\nv,2,0.5,0.1,0.4,0.3,1,1,0.5\nv,0,0.1,0.1,0.35,0.3,3,1,0.5\n"
        "v,3,0.1,0.1,0.3,0.3,81,1,0.5\nv,0,0.1,0.1,0.3,0.3,2,1,0.5\nv,-1,0.1,0.1,0.3,0.3,1,1,0.5\n"
        ",4,0.1,0.1,0.3,0.3,1,1,0.5\nv,1,0.2,0.2,0.4,0.4,2,1,0.5\n",
        [
            "7: degenerate box: requires x1 < x2 and y1 < y2",
            "8: geometry conflicts with line 2 for (video_id=v, keyframe=0, actor_id=1)",
            "9: action_id 81 outside [1, 80]",
            "10: duplicate action_id 2",
            "11: must be >= 0",
            "12: video_id: must be non-empty",
            "13: score conflicts with line 6",
        ],
    ),
    "stream": (
        parse_detection_stream,
        f"{STREAM_HEADER}\nv,0,0.1,0.1,0.3,0.3,0.9,1.0,0.0\n\nv,1,0.1,0.1,0.3,0.3,0.9,1.0,0.0\r\n"
        "v,2,0.1,0.1,0.3,0.3,1.5,1.0,0.0\nw,3,0.1,0.1,0.3,0.3,0.9,1.0,0.0\n\r\n"
        "v,4,0.1,0.1,0.3,0.3,0.9,nan,0.0\nv,5,0.3,0.1,0.1,0.3,0.9,1.0,0.0\n",
        [
            "5: must lie in [0, 1]",
            "6: multiple videos in one stream file ('v' and 'w')",
            "8: must be finite",
            "9: degenerate box: requires x1 < x2 and y1 < y2",
        ],
    ),
}


@pytest.mark.parametrize("kind", list(RULE_BREAKING_FILES))
def test_numpy_reader_reports_a_plain_files_rule_errors_without_a_second_read(tmp_path, monkeypatch, kind):
    parse, text, expected = RULE_BREAKING_FILES[kind]
    path = tmp_path / "in.csv"
    with pytest.raises(FormatError) as by_csv:
        parse(write_text(path, quoted(text)))
    assert by_csv.value.errors == [f"{path}:{error}" for error in expected]

    def second_read(*args):
        raise AssertionError("the csv reader read a file numpy's reader had read")

    monkeypatch.setattr(io_formats, "_read_csv", second_read)
    monkeypatch.setattr(io_formats, "_CHUNK_BYTES", 64)  # two or three lines a chunk
    with pytest.raises(FormatError) as by_numpy:
        parse(write_text(path, text))
    assert by_numpy.value.errors == by_csv.value.errors


# An annotation file whose rows break several rules, and the one error each row reports.
SEVERAL_BAD_CELLS = {
    "keyframe-before-x1": ("v,-1,abc,0.1,0.3,0.3,1,1\n", ["2: must be >= 0"]),
    "x2-before-y2": ("v,0,0.1,0.1,abc,1.5,1,1\n", ["2: could not convert string to float: 'abc'"]),
    "y2-before-degenerate": ("v,0,0.5,0.1,0.4,1.5,1,1\n", ["2: must lie in [0, 1]"]),
    "gt-action-0-before-actor": (
        "v,0,0.1,0.1,0.3,0.3,0,-1\n", ["2: action_id 0 (no labels) is not allowed in ground truth"]
    ),
    # Line 2 breaks a cell rule, so line 3 is the first row of the observation;
    # line 4 breaks its geometry, so action 2 on line 5 is no duplicate.
    "geometry-among-passing-rows": (
        "v,0,0.5,0.1,0.4,0.3,1,1\nv,0,0.1,0.1,0.3,0.3,1,1\nv,0,0.1,0.1,0.35,0.3,2,1\nv,0,0.1,0.1,0.3,0.3,2,1\n",
        [
            "2: degenerate box: requires x1 < x2 and y1 < y2",
            "4: geometry conflicts with line 3 for (video_id=v, keyframe=0, actor_id=1)",
        ],
    ),
}


@pytest.mark.parametrize("copy", ["plain", "quoted"])
@pytest.mark.parametrize("rows, expected", list(SEVERAL_BAD_CELLS.values()), ids=list(SEVERAL_BAD_CELLS))
def test_an_annotation_row_reports_its_first_broken_rule(tmp_path, rows, expected, copy):
    text = f"{GT_HEADER}\n{rows}"
    path = write_text(tmp_path / "gt.csv", quoted(text) if copy == "quoted" else text)
    with pytest.raises(FormatError) as excinfo:
        parse_annotations(path, role="gt")
    assert excinfo.value.errors == [f"{path}:{error}" for error in expected]


def test_writer_refuses_a_stream_its_parser_rejects(tmp_path):
    # Once written as v,0,0.3,0.1,0.1,0.3,1.5,nan, which the parser rejected.
    stream = DetectionStream("v", 1, (0,), [[0.3, 0.1, 0.1, 0.3]], [1.5], [[np.nan]])
    path = tmp_path / "stream.csv"
    message = "'v': row at keyframe 0 would not parse back: degenerate box: requires x1 < x2 and y1 < y2"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        write_detection_stream(stream, str(path))
    assert not path.exists()


@pytest.mark.parametrize("video_id, message", [
    ("", "'': row at keyframe 0 would not parse back: video_id: must be non-empty"),
    ("a,b", "'a,b': row at keyframe 0 would not parse back: degenerate box: requires x1 < x2 and y1 < y2"),
], ids=["empty", "comma"])
def test_stream_writer_names_the_video_by_its_repr(tmp_path, video_id, message):
    # As `write_annotations` names it: a bare id would read ": row ..." when
    # empty, and "a,b: row ..." leaves unclear where the id ends.
    stream = DetectionStream(video_id, 1, (0,), [[0.3, 0.1, 0.1, 0.3]], [1.5], [[np.nan]])
    path = tmp_path / "stream.csv"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        write_detection_stream(stream, str(path))
    assert not path.exists()


def test_writer_refuses_a_stream_without_an_embedding_column(tmp_path):
    # Its header would be no stream's, so nothing is written.
    stream = DetectionStream("v", 0, (0,), [LEFT], [0.5], np.empty((1, 0)))
    path = tmp_path / "stream.csv"
    with pytest.raises(ValueError, match="^a stream needs at least one embedding column, got dim 0$"):
        write_detection_stream(stream, str(path))
    assert not path.exists()


# Edge values of every rule the parser applies to a stream row's cells.
STREAM_CELLS = (0.0, -0.0, 1.0, 0.25, 0.5, 0.75, 1.0 + 2.0**-52, -5e-324, 1e308, np.nan, np.inf, -np.inf)


@st.composite
def stream_cells(draw):
    """A stream of 0-4 rows, each valid but for at most one cell drawn from `STREAM_CELLS`.

    Cells are the keyframe, the four corners, the score and the embedding.
    A valid row takes x1 and y1 from {0, -0, 0.25} and x2 and y2 from
    {0.75, 1}; the one drawn cell may still be valid. A drawn keyframe is
    negative, a float, a bool or a numpy integer (which is valid).
    """
    dim = draw(st.integers(1, 3))
    rows = []
    for _ in range(draw(st.integers(0, 4))):
        low, high = st.sampled_from((0.0, -0.0, 0.25)), st.sampled_from((0.75, 1.0))
        cells = [draw(st.integers(0, 3)), draw(low), draw(low), draw(high), draw(high)]
        cells.append(draw(st.sampled_from((0.0, 0.5, 1.0))))
        cells += [draw(st.sampled_from(STREAM_CELLS[:9])) for _ in range(dim)]
        broken = draw(st.integers(-3, len(cells) - 1))
        if broken == 0:
            cells[0] = draw(st.sampled_from((-1, 0.5, 3.0, True, np.int64(2))))
        elif broken > 0:
            cells[broken] = draw(st.sampled_from(STREAM_CELLS))
        rows.append((cells[0], cells[1:5], cells[5], cells[6:]))
    return dim, rows


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(stream_cells())
def test_written_stream_parses_back_to_equal_arrays(case):
    # The writer raises exactly when the parser would reject the rows it writes;
    # otherwise the file parses back to bit-equal arrays.
    dim, rows = case
    stream = DetectionStream.from_rows("v", dim, rows)
    header = ",".join(["video_id,keyframe,x1,y1,x2,y2,score"] + [f"e{i}" for i in range(dim)])
    lines = [
        ",".join(["v", str(kf)] + [repr(float(c)) for c in (*box, score, *emb)])
        for kf, box, score, emb in rows
    ]
    with tempfile.TemporaryDirectory() as directory:
        by_hand, written = Path(directory) / "by_hand.csv", Path(directory) / "written.csv"
        by_hand.write_text("\n".join([header, *lines]) + "\n")
        try:
            parse_detection_stream(str(by_hand))
            parsable = True
        except FormatError:
            parsable = False
        try:
            write_detection_stream(stream, str(written))
        except ValueError:
            assert not parsable and not written.exists()
            return
        assert parsable
        again = parse_detection_stream(str(written))
    assert again.row_keyframes == stream.row_keyframes
    for name in ("boxes", "scores", "embeddings"):
        assert getattr(again, name).tobytes() == getattr(stream, name).tobytes()


def sample_report():
    gt = record("v", [obs("v", 0, 1, LEFT, actions=(1, 2)), obs("v", 1, 1, LEFT)])
    pred = record(
        "v",
        [obs("v", 0, 7, LEFT, actions=(1,), score=0.9), obs("v", 1, 7, LEFT, score=0.8)],
    )
    return evaluate_records([gt], [pred])


def test_report_json_round_trip_exact(tmp_path):
    report = sample_report()
    path = tmp_path / "report.json"
    write_report(report, str(path), fmt="json")
    assert read_report(str(path)) == report


def test_report_round_trip_leaves_the_pooled_ap_behind(tmp_path):
    report = sample_report()
    assert report.pooled_ap.ap == report.aggregate.ap
    assert "pooled_ap" not in repr(report)
    path = tmp_path / "report.json"
    write_report(report, str(path), fmt="json")
    assert "pooled" not in path.read_text()
    back = read_report(str(path))
    assert back.pooled_ap is None and back == report


def test_report_null_hl_serialized_as_null(tmp_path):
    gt = record("v", [obs("v", 0, 1, LEFT)])
    report = evaluate_records([gt], [record("v", [])])
    assert report.aggregate.hl is None
    path = tmp_path / "report.json"
    write_report(report, str(path), fmt="json")
    data = json.loads(path.read_text())
    assert data["aggregate"]["hl"] is None
    assert "no pairs" in data["aggregate"]["hl_reason"]
    assert data["aggregate"]["hl"] != 0


def test_report_aggregate_equals_video_sums():
    gt_a = record("a", [obs("a", 0, 1, LEFT)])
    gt_b = record("b", [obs("b", 0, 1, RIGHT)])
    pred_a = record("a", [obs("a", 0, 5, LEFT, score=0.9)])
    pred_b = record("b", [obs("b", 0, 5, LEFT, score=0.8)])  # misses its gt
    report = evaluate_records([gt_a, gt_b], [pred_a, pred_b])
    data = report_to_dict(report)
    keys = ("tp", "fp", "fn", "idtp", "idfp", "idfn", "id_switches",
            "n_matched_pairs", "wrong_label_bits", "mt_count", "ml_count",
            "n_gt_tracklets")
    for key in keys:
        assert data["aggregate"][key] == sum(video[key] for video in data["videos"])
    assert sorted(SUMMED_TALLIES) == sorted(keys)  # the tallies `report_from_dict` checks


def test_report_whose_aggregate_is_not_the_videos_sum_is_a_format_error():
    data = report_to_dict(sample_report())
    data["videos"][0]["idtp"] = 99
    with pytest.raises(FormatError, match=r"^aggregate: key 'idtp' is 2, but the videos' sum to 99$"):
        report_from_dict(data)


@pytest.mark.parametrize("key", SUMMED_TALLIES)
def test_report_reads_back_only_with_every_tally_summed(key):
    data = report_to_dict(sample_report())
    assert report_from_dict(data) == sample_report()
    data["videos"][0][key] += 1
    with pytest.raises(FormatError, match=rf"^aggregate: key '{key}' is "):
        report_from_dict(data)


def mixed_report():
    """A generated scene "v" with a perturbed prediction, "w" with ground truth only and "x" with predictions only."""
    gt, _ = generate(scenario_preset("camera-cut", seed=5, video_id="v", n_actors=4, n_keyframes=12, n_cuts=2))
    pred = perturb(gt, Perturbation("jitter_boxes", sigma=0.03, seed=1))
    pred = perturb(pred, Perturbation("inject_fp", rate=0.5, seed=2))
    pred = perturb(pred, Perturbation("swap_ids", actor_id=1, other_actor_id=2, keyframe=6))
    pred = perturb(pred, Perturbation("flip_labels", bits=9, seed=3))
    pred = record("v", [replace(o, score=(0.5, 0.9)[o.keyframe % 2]) for o in pred.observations])
    gt_only = record("w", [obs("w", kf, 1, LEFT) for kf in range(3)])
    pred_only = record("x", [obs("x", 0, 1, RIGHT, score=0.7)])
    return evaluate_records([gt, gt_only], [pred, pred_only])


def mutated(value):
    """Another value of a block field's JSON type: a number for a null, one more tally flag for the flags."""
    if value is None:
        return 0.5
    if isinstance(value, list):
        return value + ["no_predictions"]
    if isinstance(value, str):
        return value + "!"
    return value + (1 if isinstance(value, int) else 0.125)


# The video whose field changes: AP is free where there is ground truth, and a
# reason is changed where it is not null.
MUTATED_VIDEO = {"ap": "x", "ap_reason": "x", "hl_reason": "w"}


@pytest.mark.parametrize("key", [f.name for f in fields(MetricBlock) if f.name != "id_switches"])
def test_report_whose_arithmetic_does_not_hold_is_a_format_error(key):
    # One field of one block changes; a tally changes in the aggregate too, so
    # that it still sums and the arithmetic check is the one that fails. ID
    # switches determine no other field: only their sum is checked.
    data = report_to_dict(mixed_report())
    assert report_from_dict(json.loads(json.dumps(data))) == mixed_report()
    index = [video["video_id"] for video in data["videos"]].index(MUTATED_VIDEO.get(key, "v"))
    block = data["videos"][index]
    assert "score_ties" in data["videos"][0]["flags"] and data["videos"][0]["hl"] > 0
    before = block[key]
    block[key] = mutated(before)
    if key in SUMMED_TALLIES:
        data["aggregate"][key] += block[key] - before
    with pytest.raises(FormatError, match=rf"^videos\[{index}\]: .*('{key}'|\b{key}=)"):
        report_from_dict(data)


@pytest.mark.parametrize("ap, shown", [
    (7.0, "7.0"), (-3.0, "-3.0"), (float("nan"), "NaN"), (float("inf"), "Infinity"), (float("-inf"), "-Infinity"),
])
def test_report_whose_ap_lies_outside_zero_to_one_is_a_format_error(ap, shown):
    # Where there is ground truth the tallies do not fix the AP, but its range
    # does, and the message names that range for a NaN too.
    data = report_to_dict(mixed_report())
    index = [video["video_id"] for video in data["videos"]].index("v")
    data["videos"][index]["ap"] = ap
    message = f"videos[{index}]: key 'ap' is {shown}, but an AP lies in [0, 1]"
    with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
        report_from_dict(json.loads(json.dumps(data)))


@pytest.mark.parametrize("n_labels, expected", [
    (None, "config: missing key 'n_labels'"),
    ("80", 'config: key \'n_labels\': expected an integer, got "80"'),
    (0, "config: key 'n_labels': expected a positive integer, got 0"),
])
def test_report_without_its_label_count_is_a_format_error(n_labels, expected):
    data = report_to_dict(sample_report())
    if n_labels is None:
        del data["config"]["n_labels"]
    else:
        data["config"]["n_labels"] = n_labels
    with pytest.raises(FormatError, match=f"^{re.escape(expected)}$"):
        report_from_dict(data)


def test_report_csv_has_aggregate_and_video_rows(tmp_path):
    report = sample_report()
    path = tmp_path / "report.csv"
    write_report(report, str(path), fmt="csv")
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("video_id,ap,")
    assert lines[1].startswith("__all__,")
    assert lines[2].startswith("v,")


def test_numpy_float_cells_are_written_as_python_floats(tmp_path):
    stream = DetectionStream("v", 2, (0,), [LEFT], [np.float64(0.9)], [np.array([0.5, -1.0])])
    path = str(tmp_path / "stream.csv")
    write_detection_stream(stream, path)
    (det,) = parse_detection_stream(path).frames[0]
    assert det.score == 0.9 and det.appearance.tolist() == [0.5, -1.0]

    report = sample_report()
    floats = {name: np.float64(value) for name, value in vars(report.aggregate).items()
              if isinstance(value, float)}
    numpy_report = replace(report, aggregate=replace(report.aggregate, **floats))
    write_report(report, str(tmp_path / "python.csv"), fmt="csv")
    write_report(numpy_report, str(tmp_path / "numpy.csv"), fmt="csv")
    assert (tmp_path / "numpy.csv").read_bytes() == (tmp_path / "python.csv").read_bytes()


def test_report_dict_schema_checked():
    with pytest.raises(FormatError, match="schema"):
        report_from_dict({"schema": "something-else"})


def test_report_that_is_no_object_is_a_format_error(tmp_path):
    path = tmp_path / "report.json"
    path.write_text("[]")
    with pytest.raises(FormatError, match="report: expected a dict, got list"):
        read_report(str(path))


def test_report_without_videos_is_a_format_error(tmp_path):
    data = report_to_dict(sample_report())
    del data["videos"]
    path = tmp_path / "report.json"
    path.write_text(json.dumps(data))
    with pytest.raises(FormatError, match="report: missing key 'videos'"):
        read_report(str(path))


def test_report_whose_videos_is_no_list_is_a_format_error():
    data = report_to_dict(sample_report())
    data["videos"] = {"v": data["videos"][0]}
    with pytest.raises(FormatError, match="^videos: expected a list, got dict$"):
        report_from_dict(data)


def test_an_unknown_role_or_report_format_is_a_value_error(tmp_path):
    path = tmp_path / "gt.csv"
    write_annotations([record("v", [obs("v", 0, 1, LEFT)])], str(path), role="gt")
    with pytest.raises(ValueError, match="^role must be 'gt' or 'pred', got 'x'$"):
        parse_annotations(str(path), role="x")
    report_path = tmp_path / "report.xml"
    with pytest.raises(ValueError, match="^unknown report format 'xml'$"):
        write_report(sample_report(), str(report_path), fmt="xml")
    assert not report_path.exists()


def test_report_block_without_ap_is_a_format_error(tmp_path):
    data = report_to_dict(sample_report())
    del data["videos"][0]["ap"]
    path = tmp_path / "report.json"
    path.write_text(json.dumps(data))
    with pytest.raises(FormatError, match=r"videos\[0\]: missing key 'ap'"):
        read_report(str(path))


def test_report_with_a_repeated_video_is_a_format_error(tmp_path):
    # Read back, the later entry used to replace the earlier one silently.
    data = report_to_dict(sample_report())
    data["videos"] += [{**data["videos"][0], "video_id": "w"}, {**data["videos"][0], "idtp": 99}]
    path = tmp_path / "report.json"
    path.write_text(json.dumps(data))
    message = "videos[2]: video_id 'v' repeats videos[0]"
    with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
        read_report(str(path))


@pytest.mark.parametrize("block, key, value, expected", [
    ("aggregate", "flags", 5, "a list of strings"),
    ("aggregate", "flags", ["score_ties", 1], "a list of strings"),
    ("videos", "idtp", "x", "an integer"),
    ("videos", "tp", True, "an integer"),
    ("aggregate", "n_matched_pairs", 1.0, "an integer"),
    ("aggregate", "ap", "0.5", "a number or null"),
    ("videos", "hl", False, "a number or null"),
    ("aggregate", "idf1", None, "a number"),
    ("videos", "mt_pct", [50.0], "a number"),
    ("aggregate", "hl_reason", 3, "a string or null"),
    ("videos", "video_id", 7, "a string"),
    ("videos", "video_id", ["v"], "a string"),
])
def test_report_value_of_the_wrong_type_is_a_format_error(tmp_path, block, key, value, expected):
    data = report_to_dict(sample_report())
    (data["videos"][0] if block == "videos" else data[block])[key] = value
    path = tmp_path / "report.json"
    path.write_text(json.dumps(data))
    where = "videos[0]" if block == "videos" else block
    message = f"{where}: key '{key}': expected {expected}, got {json.dumps(value)}"
    with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
        read_report(str(path))


@pytest.mark.parametrize("data", [b"{", b"not json", b'{"schema": }', b'\xff{"schema": 1}'])
def test_report_that_is_not_json_is_a_format_error_naming_the_file(tmp_path, data):
    path = tmp_path / "report.json"
    path.write_bytes(data)
    with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: invalid JSON: "):
        read_report(str(path))


def test_report_nested_too_deeply_is_a_format_error_naming_the_file(tmp_path):
    path = tmp_path / "report.json"
    path.write_text("[" * 200000)
    with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: invalid JSON: "):
        read_report(str(path))


def test_report_accepts_an_integer_ratio_and_null_optionals(tmp_path):
    data = report_to_dict(sample_report())
    data["aggregate"].update(idf1=1, ap=None, ap_reason="no predictions")
    path = tmp_path / "report.json"
    path.write_text(json.dumps(data))
    aggregate = read_report(str(path)).aggregate
    assert (aggregate.idf1, aggregate.ap, aggregate.ap_reason) == (1, None, "no predictions")


def pinned_writer_outputs(directory) -> dict[str, bytes]:
    """Every writer's output on one fixed generate/perturb case, by name."""
    spec = scenario_preset("camera-cut", seed=5, n_actors=4, n_keyframes=12, n_cuts=2)
    gt, stream = generate(spec)
    other_gt, _ = generate(replace(spec, seed=6, video_id="w"))
    pred = perturb(gt, Perturbation("jitter_boxes", sigma=0.03, seed=1))
    pred = perturb(pred, Perturbation("inject_fp", rate=0.5, seed=2))
    rng = np.random.default_rng(3)
    observations = [replace(o, score=float(rng.uniform(0.5, 1.0))) for o in pred.observations]
    observations[0] = replace(observations[0], actions=frozenset())
    pred = record(pred.video_id, observations)
    # Fresh embeddings: generate's are normalised through BLAS, whose last bits
    # vary with the kernel, and a byte pin must not.
    stream = replace(stream, dim=3, embeddings=rng.standard_normal((len(stream.row_keyframes), 3)))
    report = evaluate_records([gt, other_gt], [pred], n_labels=spec.n_labels)
    bench_rows = [
        {"seed": seed, "mode": mode, "ap50": block.ap, "hl50": block.hl, "idf1": block.idf1,
         "mt_pct": block.mt_pct, "ml_pct": block.ml_pct, "id_switches": block.id_switches}
        for seed, mode, block in ((1, "online", report.per_video["synthetic"]), (1, "offline", report.per_video["w"]))
    ]
    writers = {
        "gt.csv": lambda path: write_annotations([gt, other_gt], path, role="gt"),
        "pred.csv": lambda path: write_annotations([pred], path, role="pred"),
        "stream.csv": lambda path: write_detection_stream(stream, path),
        "report.json": lambda path: write_report(report, path, fmt="json"),
        "report.csv": lambda path: write_report(report, path, fmt="csv"),
        "pr.csv": lambda path: write_pr_curve(average_precision([gt, other_gt], [pred]), path),
        "bench.csv": lambda path: write_bench_table(bench_rows, path),
    }
    outputs = {}
    for name, write in writers.items():
        write(str(directory / name))
        outputs[name] = (directory / name).read_bytes()
    return outputs


# sha256 of each output, recorded before the writers shared one cell rule.
PINNED_WRITER_DIGESTS = {
    "gt.csv": "357f7aaeb2444d7f67e93281e2b8b32bcf444f6c664caa6a6b9066e563b71e4b",
    "pred.csv": "256a71914f0164d9f6bf78ba384dcc23cd3b922a7d35230b01afbc0970dad295",
    "stream.csv": "26fb352423e4f0fc5b2545bbc5d0a8773665f199f08f7cd64045554f4194d15a",
    "report.json": "6a86967ee091080f800ccdbd3b263b7e4c4a9e2e25cc456b929b359dabf4fcfe",
    "report.csv": "75eef6b86b5e9c23f380af25aa18474688a13e5fa01a97fe08b931ec4c724e95",
    "pr.csv": "a4318c7e2ddec1fe74cb07c8816ad35488f42f1482902fde75c13a1c27686c8f",
    "bench.csv": "9cf662940fbf9326b152dbd4c075c8599367c408e14494afa1b2f4ad080ba759",
}


def test_every_writer_output_is_pinned(tmp_path):
    digests = {
        name: hashlib.sha256(data).hexdigest() for name, data in pinned_writer_outputs(tmp_path).items()
    }
    assert digests == PINNED_WRITER_DIGESTS


@pytest.mark.parametrize(
    "manifest, expected",
    [
        ("[1, 2]", None),
        ('"x"', None),
        ('{"n_labels": true}', None),
        ('{"n_labels": 0}', None),
        ('{"n_labels": -3}', None),
        ('{"n_labels": 17.0}', None),
        ('{"n_labels": 17}', 17),
        ('{"spec": {"n_labels": 12}}', 12),
        ('{"n_labels": 0, "spec": {"n_labels": 12}}', 12),
        (b'\xff{"n_labels": 17}', None),  # not UTF-8
    ],
)
def test_sidecar_n_labels_takes_only_an_int_of_at_least_one(tmp_path, manifest, expected):
    if isinstance(manifest, bytes):
        (tmp_path / "manifest.json").write_bytes(manifest)
    else:
        write_text(tmp_path / "manifest.json", manifest)
    assert sidecar_n_labels(str(tmp_path / "gt.csv")) == expected


# Scores whose repr is hard: the least subnormal, a small power of ten, a sum
# that rounds, the ends of [0, 1] and 17 significant digits.
REPR_SCORES = (5e-324, 1e-05, 0.1 + 0.2, 1.0, 0.0, 0.12345678901234568, 0.9999999999999999)


@pytest.mark.parametrize("n_gt", [7, 1, 0])
def test_pr_curve_rows_are_the_bytes_csv_writer_writes(tmp_path, n_gt):
    # write_pr_curve joins each row with one format string, to the bytes
    # csv.writer writes. A curve without ground truth has no rows, though it
    # ranks predictions.
    flags = (True, False, True, True, False, False, True)[: max(n_gt, 1)] if n_gt else (False,) * 3
    ranked = tuple(zip(REPR_SCORES, flags))
    tally = DetectionTally(tp=sum(flags), fp=len(flags) - sum(flags), fn=max(n_gt - sum(flags), 0))
    curve = PRCurve(np.array(REPR_SCORES[: len(flags)]), np.array(flags), n_gt)
    result = APResult(None, None, curve, tally, had_score_ties=False)
    columns = [column.tolist() for column in result.curve.columns]
    expected = tmp_path / "expected.csv"
    write_csv_reference(str(expected), io_formats.PR_CURVE_COLUMNS, (
        (rank, score, int(is_tp), int(not is_tp), *values)
        for rank, ((score, is_tp), *values) in enumerate(zip(ranked, *columns), start=1)
    ))
    written = tmp_path / "pr.csv"
    write_pr_curve(result, str(written))
    assert written.read_bytes() == expected.read_bytes()
    assert len(written.read_bytes().splitlines()) == 1 + (len(ranked) if n_gt else 0)


WRITER_REFUSALS = {
    # role, observation, the parser's message
    "negative keyframe": ("pred", dict(keyframe=-2, actions=(99,)), "keyframe -2 would not parse back: must be >= 0"),
    "degenerate box": ("pred", dict(box=(0.5, 0.1, 0.4, 0.3)),
                       "keyframe 0 would not parse back: degenerate box: requires x1 < x2 and y1 < y2"),
    "corner outside": ("gt", dict(box=(0.1, 0.1, 1.5, 0.3)), "keyframe 0 would not parse back: must lie in [0, 1]"),
    "nan corner": ("gt", dict(box=(0.1, np.nan, 0.3, 0.3)), "keyframe 0 would not parse back: must be finite"),
    "score above 1": ("pred", dict(score=1.5), "keyframe 0 would not parse back: must lie in [0, 1]"),
    "negative actor": ("pred", dict(actor_id=-1), "keyframe 0 would not parse back: must be >= 0"),
    "negative label": ("gt", dict(actions=(-3, 2)), "keyframe 0 would not parse back: must be >= 0"),
    "label 0 alone": ("pred", dict(actions=(0,)),
                      "keyframe 0 would not parse back: action_id 0 reads back as no label"),
    "label 0 and 4": ("pred", dict(actions=(0, 4)),
                      "keyframe 0 would not parse back: action_id 0 reads back as no label"),
    "gt label 0": ("gt", dict(actions=(0,)),
                   "keyframe 0 would not parse back: action_id 0 (no labels) is not allowed in ground truth"),
    "float label": ("gt", dict(actions=(2.5,)),
                    "keyframe 0 would not parse back: invalid literal for int() with base 10: '2.5'"),
    "bool label": ("pred", dict(actions=(True,)),
                   "keyframe 0 would not parse back: invalid literal for int() with base 10: 'True'"),
}


@pytest.mark.parametrize("role, fields, message", list(WRITER_REFUSALS.values()), ids=list(WRITER_REFUSALS))
def test_annotation_writer_refuses_a_row_its_parser_rejects(tmp_path, role, fields, message):
    # The bad observation sorts after a good one in the same file, and the
    # file is left as it was.
    values = dict(keyframe=0, actor_id=1, box=LEFT, actions=(1,), score=0.5) | fields
    bad = obs("v", values["keyframe"], values["actor_id"], values["box"], values["actions"], values["score"])
    good = obs("a", 0, 1, LEFT, score=0.5)
    path = tmp_path / f"{role}.csv"
    path.write_bytes(b"previous contents\n")
    with pytest.raises(ValueError, match=f"^{re.escape(repr('v') + ': row at ' + message)}$"):
        write_annotations([record("v", [bad]), record("a", [good])], str(path), role=role)
    assert path.read_bytes() == b"previous contents\n"
    missing = tmp_path / "new.csv"
    with pytest.raises(ValueError):
        write_annotations([record("v", [bad])], str(missing), role=role)
    assert not missing.exists()


def test_annotation_writer_refuses_what_the_parser_would_merge_into_a_conflict(tmp_path):
    # Two records of one video whose observations share (keyframe, actor): the
    # parser would read the second row as a conflicting row of the first
    # observation. Two records of one video are refused first.
    first = record("v", [obs("v", 0, 1, LEFT, score=0.5)])
    second = record("v", [obs("v", 0, 1, RIGHT, score=0.5)])
    message = "duplicate video_id 'v' among the records"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        write_annotations([first, second], str(tmp_path / "pred.csv"), role="pred")
    assert not (tmp_path / "pred.csv").exists()


@pytest.mark.parametrize("role", ["gt", "pred"])
def test_annotation_writer_refuses_two_records_of_one_video_before_opening(tmp_path, role):
    # Labels {1} and {2} at equal geometry and score would read back as one
    # observation holding {1, 2}: the parser refuses no row there.
    first = record("v", [obs("v", 0, 1, LEFT, actions=(1,), score=0.5 if role == "pred" else 1.0)])
    second = record("v", [obs("v", 0, 1, LEFT, actions=(2,), score=0.5 if role == "pred" else 1.0)])
    other = record("w", [obs("w", 0, 1, RIGHT)])
    path = tmp_path / f"{role}.csv"
    with pytest.raises(ValueError, match=r"^duplicate video_id 'v' among the records$"):
        write_annotations([first, other, second], str(path), role=role)
    assert not path.exists()


def test_annotation_writer_writes_ids_past_int64(tmp_path):
    # The parser reads them with the csv reader, as Python ints.
    original = record("v", [obs("v", 2**70, 2**64, LEFT, actions=(3, 80), score=0.5)])
    path = tmp_path / "pred.csv"
    write_annotations([original], str(path), role="pred")
    assert parse_annotations(str(path), role="pred") == [original]


@pytest.mark.parametrize("role", ["gt", "pred"])
@pytest.mark.parametrize("video_id", ["v", "a b", "é\t", "a,b", 'a"b', "a\rb", "a\nb"])
def test_annotation_rows_are_the_bytes_csv_writer_writes(tmp_path, role, video_id):
    # write_annotations joins each row with one format string, quoting an id
    # as csv.writer quotes it, so the bytes are csv.writer's. A numpy label
    # is written by its str, as csv.writer writes it.
    rng = np.random.default_rng(3)
    records = [random_record(rng, video_id, role), random_record(rng, "w", role)]
    labelled = replace(records[1].observations[0], actions=frozenset({np.int64(7), 2**40}))
    records[1] = record("w", [labelled, *records[1].observations[1:]])
    expected = tmp_path / "expected.csv"
    write_csv_reference(str(expected), GT_HEADER.split(",") + (["score"] if role == "pred" else []), (
        (r.video_id, o.keyframe, o.box.x1, o.box.y1, o.box.x2, o.box.y2, action, o.actor_id)
        + ((o.score,) if role == "pred" else ())
        for r in sorted(records, key=lambda r: r.video_id)
        for o in r.observations
        for action in sorted(o.actions) or [0]
    ))
    written = tmp_path / "out.csv"
    write_annotations(records, str(written), role=role)
    assert written.read_bytes() == expected.read_bytes()


@pytest.mark.parametrize("role", ["gt", "pred"])
def test_annotation_writer_refuses_a_repeated_keyframe_and_actor(tmp_path, role):
    # Two observations of one (keyframe, actor) with equal geometry and score
    # pass the parser's row checks, but would read back as one observation
    # holding both label sets.
    repeated = record("v", [obs("v", 0, 1, LEFT, (1,), 0.5), obs("v", 0, 1, LEFT, (2,), 0.5)])
    path = tmp_path / f"{role}.csv"
    with pytest.raises(ValueError, match=r"^duplicate \(keyframe=0, actor_id=1\) in video 'v'$"):
        write_annotations([repeated, record("a", [obs("a", 0, 1, LEFT, score=0.5)])], str(path), role=role)
    assert not path.exists()


@pytest.mark.parametrize("video_id", ["v", "a,b", 'a"b', "a\rb", "é\t"])
def test_stream_rows_are_the_bytes_csv_writer_writes(tmp_path, video_id):
    # write_detection_stream joins each row with one format string: the id
    # quoted as csv.writer quotes it, a numpy keyframe as the int its parser
    # reads, and each float as its repr.
    keyframes = [np.int64(3), 0, np.int64(2**40), 3]
    boxes = [LEFT, RIGHT, (0.0, 0.25, 1.0, 0.5), (0.1, 0.2, 0.30000000000000004, 0.9)]
    embeddings = [(5e-324, -0.12345678901234568), (1e300, 0.0), (-5e-324, 0.9999999999999999), (0.1 + 0.2, -1e-05)]
    stream = DetectionStream(video_id, 2, keyframes, boxes, REPR_SCORES[:4], embeddings)
    expected = tmp_path / "expected.csv"
    write_csv_reference(str(expected), STREAM_HEADER.split(","), (
        (video_id, keyframe, *box, score, *embedding)
        for keyframe, box, score, embedding in zip(stream.row_keyframes, stream.boxes, stream.scores, stream.embeddings)
    ))
    written = tmp_path / "stream.csv"
    write_detection_stream(stream, str(written))
    assert written.read_bytes() == expected.read_bytes()
    back = parse_detection_stream(str(written))
    assert back.video_id == video_id and back.row_keyframes == (0, 3, 3, 2**40)


def test_report_csv_rows_are_the_bytes_csv_writer_writes(tmp_path):
    # A null HL is an empty cell beside its reason, flags join with ';', and
    # ids are quoted as csv.writer quotes them.
    gts = [record(v, [obs(v, 0, 1, LEFT), obs(v, 1, 1, LEFT)]) for v in ("a,b", 'a"b', "é\t")]
    tied = [obs("a,b", 0, 7, LEFT, score=0.5), obs("a,b", 1, 7, RIGHT, score=0.5)]
    report = evaluate_records(gts, [record("a,b", tied), record('a"b', []), record("p\nq", tied)])
    blocks = [(AGGREGATE_KEY, report.aggregate), *sorted(report.per_video.items())]
    assert report.per_video['a"b'].hl is None and report.per_video['a"b'].hl_reason
    assert {flag for _, block in blocks for flag in block.flags} >= {"no_predictions", "no_ground_truth"}
    names = [f.name for f in fields(MetricBlock)]
    expected = tmp_path / "expected.csv"
    write_csv_reference(str(expected), ["video_id"] + names, (
        [video_id] + [";".join(block.flags) if name == "flags" else getattr(block, name) for name in names]
        for video_id, block in blocks
    ))
    written = tmp_path / "report.csv"
    write_report(report, str(written), fmt="csv")
    assert written.read_bytes() == expected.read_bytes()


def test_bench_rows_are_the_bytes_csv_writer_writes(tmp_path):
    # A null AP or HL is an empty cell; numpy numbers are written as csv.writer writes them.
    rows = [
        dict(seed=0, mode="online", ap50=None, hl50=None, idf1=0.0, mt_pct=0.0, ml_pct=100.0, id_switches=0),
        dict(seed=np.int64(1), mode="offline", ap50=np.float64(0.1 + 0.2), hl50=5e-324,
             idf1=0.12345678901234568, mt_pct=2 / 3, ml_pct=np.float32(0.1), id_switches=12),
    ]
    expected = tmp_path / "expected.csv"
    write_csv_reference(str(expected), io_formats.BENCH_COLUMNS, (
        [row[name] for name in io_formats.BENCH_COLUMNS] for row in rows
    ))
    written = tmp_path / "bench.csv"
    write_bench_table(rows, str(written))
    assert written.read_bytes() == expected.read_bytes()
    assert written.read_text().splitlines()[1] == "0,online,,,0.0,0.0,100.0,0"


@pytest.mark.parametrize("label", ["3\n", " 3", np.int16(3)])
def test_annotation_writer_writes_a_label_as_the_int_its_parser_reads(tmp_path, label):
    # A label that int() reads as 3 is written as 3, never as its own text,
    # whose newline would split the row.
    written = tmp_path / "out.csv"
    write_annotations([record("v", [obs("v", 0, 1, LEFT, actions=[label])])], str(written), role="gt")
    assert written.read_text().splitlines()[1] == "v,0,0.1,0.1,0.3,0.3,3,1"
    (parsed,) = parse_annotations(str(written), role="gt", n_labels=4)
    assert parsed.observations[0].actions == {3}
