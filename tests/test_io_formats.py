import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from asadeval.association import Detection, DetectionStream
from asadeval.detection import average_precision
from asadeval.evaluation import evaluate_records
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
from asadeval.model import BoundingBox, VideoRecord
from asadeval.synthetic import Perturbation, generate, perturb, scenario_preset
from support import LEFT, RIGHT, obs, record


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


def random_record(rng: np.random.Generator, video_id: str, role: str) -> VideoRecord:
    observations = []
    for actor in range(1, int(rng.integers(1, 5)) + 1):
        for kf in sorted(rng.choice(20, size=int(rng.integers(1, 6)), replace=False)):
            x1 = float(rng.uniform(0, 0.6))
            y1 = float(rng.uniform(0, 0.6))
            w = float(rng.uniform(0.05, 0.35))
            h = float(rng.uniform(0.05, 0.35))
            if role == "pred" and rng.random() < 0.2:
                actions = frozenset()
            else:
                actions = frozenset(
                    int(l) + 1 for l in rng.choice(80, size=int(rng.integers(1, 4)), replace=False)
                )
            score = 1.0 if role == "gt" else float(rng.random())
            observations.append(
                obs(
                    video_id,
                    int(kf),
                    actor,
                    (x1, y1, min(x1 + w, 1.0), min(y1 + h, 1.0)),
                    actions=tuple(actions),
                    score=score,
                )
            )
    return record(video_id, observations)


@pytest.mark.parametrize("role", ["gt", "pred"])
def test_annotation_round_trip_randomized(tmp_path, role):
    rng = np.random.default_rng(hash(role) % (2**32))
    records = [random_record(rng, f"video_{i:02d}", role) for i in range(10)]
    path = tmp_path / "out.csv"
    write_annotations(records, str(path), role=role)
    parsed = parse_annotations(str(path), role=role)
    assert parsed == sorted(records, key=lambda r: r.video_id)


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
    for key in ("tp", "fp", "fn", "idtp", "idfp", "idfn", "id_switches",
                "n_matched_pairs", "wrong_label_bits", "mt_count", "ml_count",
                "n_gt_tracklets"):
        assert data["aggregate"][key] == sum(video[key] for video in data["videos"])


def test_report_csv_has_aggregate_and_video_rows(tmp_path):
    report = sample_report()
    path = tmp_path / "report.csv"
    write_report(report, str(path), fmt="csv")
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("video_id,ap,")
    assert lines[1].startswith("__all__,")
    assert lines[2].startswith("v,")


def test_numpy_float_cells_are_written_as_python_floats(tmp_path):
    stream = DetectionStream(
        "v", dim=2, frames={0: (Detection(BoundingBox(*LEFT), np.float64(0.9), np.array([0.5, -1.0])),)}
    )
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
    stream = replace(stream, dim=3, frames={
        kf: tuple(replace(d, appearance=rng.standard_normal(3)) for d in dets)
        for kf, dets in stream.frames.items()
    })
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
    ],
)
def test_sidecar_n_labels_takes_only_an_int_of_at_least_one(tmp_path, manifest, expected):
    write_text(tmp_path / "manifest.json", manifest)
    assert sidecar_n_labels(str(tmp_path / "gt.csv")) == expected
