import json

import numpy as np
import pytest

from asadeval.evaluation import evaluate_records
from asadeval.io_formats import (
    FormatError,
    parse_annotations,
    parse_detection_stream,
    read_report,
    report_from_dict,
    report_to_dict,
    write_annotations,
    write_detection_stream,
    write_report,
)
from asadeval.model import BoundingBox, VideoRecord
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


def test_report_dict_schema_checked():
    with pytest.raises(FormatError, match="schema"):
        report_from_dict({"schema": "something-else"})
