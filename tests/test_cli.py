import json
import random

import pytest

from asadeval.cli import EXIT_DATA, EXIT_IO, EXIT_OK, EXIT_USAGE, main
from asadeval.detection import average_precision
from asadeval.io_formats import parse_annotations, read_report, write_annotations, write_pr_curve
from asadeval.model import validate_record
from support import LEFT, RIGHT, obs, record


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
    assert "evaluate: --iou must lie in (0, 1), got 1.5" in capsys.readouterr().err


@pytest.mark.parametrize("via, value, shown", [
    ("flag", "2", "2.0"), ("flag", "nan", "nan"), ("config", 1.5, "1.5"), ("config", 0, "0"),
])
def test_evaluate_gate_is_checked_before_any_file_is_read(tmp_path, capsys, via, value, shown):
    # Both files are malformed, and a parse would exit 2 naming a line.
    gt_path, pred_path = tmp_path / "gt.csv", tmp_path / "pred.csv"
    gt_path.write_text("not,a,header\n")
    pred_path.write_text("not,a,header\n")
    argv = ["evaluate", "--gt", str(gt_path), "--pred", str(pred_path)]
    if via == "flag":
        argv += ["--iou", value]
    else:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"iou": value}))
        argv += ["--config", str(config)]
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"evaluate: --iou must lie in (0, 1), got {shown}" in err and "gt.csv" not in err


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


@pytest.mark.parametrize(
    "command, config, key",
    [
        ("evaluate", {"iou": "0.5"}, "iou"),
        ("evaluate", {"labels": "80"}, "labels"),
        ("evaluate", {"labels": True}, "labels"),
        ("evaluate", {"gt": 5}, "gt"),
        ("evaluate", {"per_video": "no"}, "per_video"),
        ("evaluate", {"format": "xml"}, "format"),
        ("track", {"gap": "3"}, "gap"),
        ("track", {"tau": "0.5"}, "tau"),
        ("track", {"mode": "sideways"}, "mode"),
        ("synth", {"actors": "2"}, "actors"),
        ("synth", {"actors": 2.5}, "actors"),
        ("bench", {"seeds": "2"}, "seeds"),
    ],
)
def test_config_value_unlike_its_flag_is_usage_error(tmp_path, capsys, command, config, key):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main([command, "--config", str(path)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert str(path) in err and repr(key) in err


def test_config_null_is_an_absent_key(identity_fixture, tmp_path, capsys):
    gt_path, pred_path = identity_fixture
    config = tmp_path / "config.json"
    config.write_text(json.dumps(
        {"gt": str(gt_path), "pred": str(pred_path), "iou": None, "labels": None, "per_video": None}
    ))
    report_path = tmp_path / "report.json"
    assert main(["evaluate", "--config", str(config), "--report", str(report_path)]) == EXIT_OK
    data = json.loads(report_path.read_text())
    assert data["config"]["iou_threshold"] == 0.5
    assert data["config"]["n_labels"] == 80
    assert "video v:" not in capsys.readouterr().out


def test_config_int_stands_for_a_float_flag(tmp_path):
    out = tmp_path / "scene"
    assert main(["synth", "--scenario", "static", "--seed", "2", "--out", str(out)]) == EXIT_OK
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"mode": "online", "tau": 1, "gap": 3}))
    code = main(["track", "--config", str(config), "--detections", str(out / "detections.csv"),
                 "--out", str(tmp_path / "pred.csv")])
    assert code == EXIT_OK


@pytest.mark.parametrize("labels", [0, -1])
@pytest.mark.parametrize("via", ["flag", "config"])
def test_evaluate_label_universe_below_one_is_usage_error(
    identity_fixture, tmp_path, capsys, labels, via
):
    gt_path, pred_path = identity_fixture
    argv = ["evaluate", "--gt", str(gt_path), "--pred", str(pred_path)]
    if via == "flag":
        argv += [f"--labels={labels}"]
    else:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"labels": labels}))
        argv += ["--config", str(config)]
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "--labels must be >= 1" in err and "gt.csv:" not in err


@pytest.mark.parametrize("flag, field", [("--dim", "appearance_dim"), ("--labels", "n_labels")])
def test_synth_width_or_labels_below_one_is_usage_error(tmp_path, capsys, flag, field):
    assert main(["synth", flag, "0", "--out", str(tmp_path / "x")]) == EXIT_USAGE
    assert f"{field} must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize(
    "flag, value, field", [("--box-jitter", "nan", "box_jitter"), ("--app-noise", "inf", "appearance_noise")]
)
def test_synth_non_finite_noise_is_usage_error(tmp_path, capsys, flag, value, field):
    assert main(["synth", flag, value, "--out", str(tmp_path / "x")]) == EXIT_USAGE
    assert f"{field} must be finite" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_synth_negative_seed_is_usage_error(tmp_path, capsys):
    assert main(["synth", "--seed", "-1", "--out", str(tmp_path / "x")]) == EXIT_USAGE
    assert "synth: seed must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_synth_preset_cuts_too_many_for_keyframes_names_cuts(tmp_path, capsys):
    argv = ["synth", "--actors", "2", "--keyframes", "5", "--out", str(tmp_path / "x")]
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "n_cuts=20" in err and "--cuts" in err
    assert main(argv + ["--cuts", "1"]) == EXIT_OK


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


def shuffle_data_rows(path, rng, keep_keyframe_order=False):
    """Rewrite a CSV with its data rows shuffled and its header first.

    With ``keep_keyframe_order``, rows of different keyframes interleave at
    random but each keyframe's rows keep their order in the file.
    """
    header, *rows = path.read_bytes().splitlines(keepends=True)
    if keep_keyframe_order:
        by_keyframe = {}
        for row in rows:
            by_keyframe.setdefault(row.split(b",")[1], []).append(row)
        order = [keyframe for keyframe, kf_rows in by_keyframe.items() for _ in kf_rows]
        rng.shuffle(order)
        queues = {keyframe: iter(kf_rows) for keyframe, kf_rows in by_keyframe.items()}
        rows = [next(queues[keyframe]) for keyframe in order]
    else:
        rng.shuffle(rows)
    path.write_bytes(header + b"".join(rows))


def tied_corpus():
    """Three videos whose predictions tie on score within and across videos.

    Every keyframe predicts one GT box twice (a duplicate box under a second
    identity), the other GT box once and one false positive, and the two
    copies swap identities halfway, so the report has switches too.
    """
    middle = (0.35, 0.35, 0.55, 0.55)
    gts, preds = [], []
    for video_id in ("c", "a", "b"):
        gts.append(record(video_id, [
            obs(video_id, kf, actor, box, actions=(actor + 1,))
            for kf in range(4) for actor, box in enumerate((LEFT, RIGHT))
        ]))
        preds.append(record(video_id, [
            o for kf in range(4) for o in (
                obs(video_id, kf, 10 + (kf >= 2), LEFT, actions=(1,), score=0.5),
                obs(video_id, kf, 11 - (kf >= 2), LEFT, actions=(2,), score=0.5),
                obs(video_id, kf, 12, RIGHT, actions=(2,), score=0.75),
                obs(video_id, kf, 13, middle, score=0.5),
            )
        ]))
    return gts, preds


def test_evaluate_is_independent_of_row_order(tmp_path, capsys):
    gts, preds = tied_corpus()
    gt_path, pred_path = tmp_path / "gt.csv", tmp_path / "pred.csv"
    write_annotations(gts, str(gt_path), role="gt")
    write_annotations(preds, str(pred_path), role="pred")
    argv = ["evaluate", "--gt", str(gt_path), "--pred", str(pred_path), "--labels", "2",
            "--per-video", "--report", str(tmp_path / "report.json"),
            "--pr-curve", str(tmp_path / "pr.csv")]

    def outputs():
        assert main(argv) == EXIT_OK
        return (capsys.readouterr().out, (tmp_path / "report.json").read_bytes(),
                (tmp_path / "pr.csv").read_bytes())

    expected = outputs()
    assert json.loads(expected[1])["aggregate"]["flags"] == ["score_ties"]
    rng = random.Random(0)
    for _ in range(5):
        shuffle_data_rows(gt_path, rng)
        shuffle_data_rows(pred_path, rng)
        assert outputs() == expected


def test_evaluate_pr_curve_is_the_pooled_average_precision(tmp_path, capsys):
    # Scores tie across videos; one video has only ground truth, one only predictions.
    gts, preds = tied_corpus()
    gts.append(record("gt-only", [obs("gt-only", 0, 1, LEFT)]))
    preds.append(record("pred-only", [obs("pred-only", 0, 1, RIGHT, score=0.5)]))
    gt_path, pred_path = tmp_path / "gt.csv", tmp_path / "pred.csv"
    write_annotations(gts, str(gt_path), role="gt")
    write_annotations(preds, str(pred_path), role="pred")
    assert main(["evaluate", "--gt", str(gt_path), "--pred", str(pred_path), "--labels", "2",
                 "--pr-curve", str(tmp_path / "pr.csv")]) == EXIT_OK
    pooled = average_precision(
        parse_annotations(str(gt_path), role="gt", n_labels=2),
        parse_annotations(str(pred_path), role="pred", n_labels=2),
    )
    write_pr_curve(pooled, str(tmp_path / "expected.csv"))
    assert (tmp_path / "pr.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()
    assert f"AP@0.5: {pooled.ap:.6f}" in capsys.readouterr().out


@pytest.mark.parametrize("mode", ["online", "offline"])
def test_track_is_independent_of_row_order_across_keyframes(tmp_path, capsys, mode):
    scene = tmp_path / "scene"
    assert main(["synth", "--actors", "3", "--keyframes", "8", "--cuts", "2", "--dim", "4",
                 "--fp-rate", "0.3", "--seed", "5", "--out", str(scene)]) == EXIT_OK
    stream = scene / "detections.csv"
    argv = ["track", "--detections", str(stream), "--mode", mode, "--out", str(tmp_path / "tracked.csv")]

    def outputs():
        capsys.readouterr()
        assert main(argv) == EXIT_OK
        return capsys.readouterr().out, (tmp_path / "tracked.csv").read_bytes()

    expected = outputs()
    rng = random.Random(0)
    for _ in range(5):
        shuffle_data_rows(stream, rng, keep_keyframe_order=True)
        assert outputs() == expected
