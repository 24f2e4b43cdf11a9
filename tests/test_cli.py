import json

import pytest

from asadeval.cli import EXIT_DATA, EXIT_IO, EXIT_OK, EXIT_USAGE, main
from asadeval.io_formats import parse_annotations, read_report, write_annotations
from asadeval.model import validate_record
from support import LEFT, obs, record


@pytest.fixture()
def identity_fixture(tmp_path):
    gt = record("v", [obs("v", kf, 1, LEFT, actions=(1, 2)) for kf in range(6)])
    gt_path = tmp_path / "gt.csv"
    pred_path = tmp_path / "pred.csv"
    write_annotations([gt], str(gt_path), role="gt")
    write_annotations([gt], str(pred_path), role="pred")
    return gt_path, pred_path


def test_evaluate_identity_fixture(identity_fixture, tmp_path, capsys):
    gt_path, pred_path = identity_fixture
    report_path = tmp_path / "report.json"
    code = main(
        ["evaluate", "--gt", str(gt_path), "--pred", str(pred_path),
         "--report", str(report_path)]
    )
    assert code == EXIT_OK
    report = read_report(str(report_path))
    assert report.aggregate.ap == 1.0
    assert report.aggregate.idf1 == 1.0
    assert report.aggregate.hl == 0.0
    assert report.aggregate.id_switches == 0
    out = capsys.readouterr().out
    assert "AP@0.5" in out and "IDF1" in out


@pytest.mark.parametrize(
    "bad_row, message",
    [
        (b"v,99,0.5,0.1,0.4,0.3,1,1,0.9", "degenerate"),  # x2 < x1
        (b"v,99,0.1,0.1,0.4,0.3,1,1,0.\xff", "UTF-8"),
        (b"v,99,0.1,0.1,0.4,0.3,1,1," + b"9" * 131073, "field limit"),
    ],
    ids=["degenerate-box", "invalid-utf8", "oversized-field"],
)
def test_evaluate_malformed_pred_exits_2(identity_fixture, tmp_path, capsys, bad_row, message):
    gt_path, pred_path = identity_fixture
    broken = tmp_path / "broken.csv"
    lines = pred_path.read_bytes().splitlines()
    lines.append(bad_row)
    broken.write_bytes(b"\n".join(lines) + b"\n")
    code = main(["evaluate", "--gt", str(gt_path), "--pred", str(broken)])
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert message in err and f":{len(lines)}:" in err


def test_evaluate_custom_iou_renames_metrics(identity_fixture, tmp_path):
    gt_path, pred_path = identity_fixture
    report_path = tmp_path / "report.json"
    code = main(
        ["evaluate", "--gt", str(gt_path), "--pred", str(pred_path),
         "--iou", "0.75", "--report", str(report_path)]
    )
    assert code == EXIT_OK
    data = json.loads(report_path.read_text())
    assert data["config"]["ap_label"] == "AP@0.75"
    assert data["config"]["hl_label"] == "HL@0.75"
    assert data["config"]["iou_threshold"] == 0.75


def test_evaluate_bad_gate_is_usage_error_without_rows(tmp_path, capsys):
    # Header-only inputs reach no metric, so the gate is checked on entry.
    gt_path = tmp_path / "gt.csv"
    pred_path = tmp_path / "pred.csv"
    write_annotations([], str(gt_path), role="gt")
    write_annotations([], str(pred_path), role="pred")
    code = main(["evaluate", "--gt", str(gt_path), "--pred", str(pred_path), "--iou", "1.5"])
    assert code == EXIT_USAGE
    assert "iou_threshold" in capsys.readouterr().err


def test_evaluate_missing_inputs_is_usage_error(capsys):
    assert main(["evaluate"]) == EXIT_USAGE
    assert "--gt" in capsys.readouterr().err


def test_evaluate_config_file_flags_override(identity_fixture, tmp_path):
    gt_path, pred_path = identity_fixture
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"gt": str(gt_path), "pred": str(pred_path), "iou": 0.6}))
    report_path = tmp_path / "report.json"
    code = main(
        ["evaluate", "--config", str(config), "--iou", "0.7", "--report", str(report_path)]
    )
    assert code == EXIT_OK
    data = json.loads(report_path.read_text())
    assert data["config"]["iou_threshold"] == 0.7  # flag wins over file


def test_evaluate_rejects_unknown_config_keys(identity_fixture, tmp_path, capsys):
    gt_path, pred_path = identity_fixture
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"gt": str(gt_path), "pred": str(pred_path), "bogus": 1}))
    assert main(["evaluate", "--config", str(config)]) == EXIT_USAGE
    assert "bogus" in capsys.readouterr().err


def test_unknown_flag_rejected(capsys):
    assert main(["evaluate", "--frobnicate"]) == EXIT_USAGE


def test_synth_same_seed_is_byte_identical(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert main(["synth", "--scenario", "camera-cut", "--seed", "9",
                     "--out", str(out)]) == EXIT_OK
    for name in ("gt.csv", "detections.csv", "manifest.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_synth_static_records_zero_cuts(tmp_path):
    out = tmp_path / "static"
    assert main(["synth", "--scenario", "static", "--seed", "1", "--out", str(out)]) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["spec"]["n_cuts"] == 0
    assert manifest["generator"] == "numpy-default-rng-pcg64"


def test_synth_camera_cut_records_default_cuts(tmp_path):
    out = tmp_path / "cuts"
    assert main(["synth", "--scenario", "camera-cut", "--seed", "1", "--out", str(out)]) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["spec"]["n_cuts"] == 20


def test_track_offline_output_validates(tmp_path):
    out = tmp_path / "scene"
    assert main(["synth", "--scenario", "camera-cut", "--seed", "4", "--out", str(out)]) == EXIT_OK
    pred_path = tmp_path / "tracked.csv"
    code = main(["track", "--detections", str(out / "detections.csv"),
                 "--mode", "offline", "--out", str(pred_path)])
    assert code == EXIT_OK
    (rec,) = parse_annotations(str(pred_path), role="pred")
    assert validate_record(rec, role="pred") == []
    assert all(o.actions == frozenset() for o in rec.observations)


def test_track_missing_mode_is_usage_error(tmp_path, capsys):
    out = tmp_path / "scene"
    main(["synth", "--seed", "2", "--out", str(out)])
    code = main(["track", "--detections", str(out / "detections.csv"),
                 "--out", str(tmp_path / "pred.csv")])
    assert code == EXIT_USAGE
    assert "--mode" in capsys.readouterr().err


def test_synth_evaluate_with_sidecar_labels(tmp_path):
    out = tmp_path / "scene"
    assert main(["synth", "--scenario", "static", "--seed", "3", "--out", str(out),
                 "--labels", "17"]) == EXIT_OK
    gt_csv = out / "gt.csv"
    pred_csv = out / "pred.csv"
    (rec,) = parse_annotations(str(gt_csv), role="gt", n_labels=17)
    write_annotations([rec], str(pred_csv), role="pred")
    report_path = tmp_path / "report.json"
    code = main(["evaluate", "--gt", str(gt_csv), "--pred", str(pred_csv),
                 "--report", str(report_path)])
    assert code == EXIT_OK
    data = json.loads(report_path.read_text())
    assert data["config"]["n_labels"] == 17  # picked up from manifest.json


def test_bench_single_seed_deterministic_table(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert main(["bench", "--seeds", "1", "--out", str(out)]) == EXIT_OK
    table_a = (out_a / "comparison.csv").read_bytes()
    assert table_a == (out_b / "comparison.csv").read_bytes()
    lines = table_a.decode().strip().splitlines()
    assert lines[0] == "seed,mode,ap50,hl50,idf1,mt_pct,ml_pct,id_switches"
    assert len(lines) == 3  # header + online + offline
    assert lines[1].startswith("1,online,") and lines[2].startswith("1,offline,")


def test_bench_rejects_zero_seeds(tmp_path, capsys):
    assert main(["bench", "--seeds", "0", "--out", str(tmp_path / "x")]) == EXIT_USAGE


def test_evaluate_csv_report_format(identity_fixture, tmp_path):
    gt_path, pred_path = identity_fixture
    report_path = tmp_path / "report.csv"
    code = main(["evaluate", "--gt", str(gt_path), "--pred", str(pred_path),
                 "--report", str(report_path), "--format", "csv"])
    assert code == EXIT_OK
    lines = report_path.read_text().strip().splitlines()
    assert lines[0].startswith("video_id,ap,")
    assert len(lines) == 3  # header, aggregate, one video


def test_evaluate_unwritable_report_is_io_error(identity_fixture, tmp_path, capsys):
    gt_path, pred_path = identity_fixture
    missing_dir = tmp_path / "does" / "not" / "exist" / "report.json"
    code = main(["evaluate", "--gt", str(gt_path), "--pred", str(pred_path),
                 "--report", str(missing_dir)])
    assert code == EXIT_IO
    assert "I/O error" in capsys.readouterr().err


def test_missing_input_file_is_io_error(tmp_path, capsys):
    code = main(["evaluate", "--gt", str(tmp_path / "nope.csv"),
                 "--pred", str(tmp_path / "nope2.csv")])
    assert code == EXIT_IO


@pytest.mark.parametrize(
    "bad_row",
    [
        b"v,0,0.1,0.1,0.3,0.3,0.9",  # ragged: no embedding
        b"v,0,0.1,0.1,0.3,0.3,0.9,0.\xff",
        b"v,0,0.1,0.1,0.3,0.3,0.9," + b"1" * 131073,
    ],
    ids=["ragged", "invalid-utf8", "oversized-field"],
)
def test_track_malformed_stream_exits_2(tmp_path, capsys, bad_row):
    bad = tmp_path / "stream.csv"
    bad.write_bytes(b"video_id,keyframe,x1,y1,x2,y2,score,e0\n" + bad_row + b"\n")
    code = main(["track", "--detections", str(bad), "--mode", "online",
                 "--out", str(tmp_path / "out.csv")])
    assert code == EXIT_DATA
    assert ":2:" in capsys.readouterr().err


def test_version_flag():
    assert main(["--version"]) == 0


def test_evaluate_per_video_prints_lines(identity_fixture, capsys):
    gt_path, pred_path = identity_fixture
    code = main(["evaluate", "--gt", str(gt_path), "--pred", str(pred_path), "--per-video"])
    assert code == EXIT_OK
    assert "video v:" in capsys.readouterr().out
