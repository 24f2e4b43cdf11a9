import ast
import importlib.util
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import asadeval
from asadeval import cli
from asadeval.association import track_offline, track_online
from asadeval.cli import EXIT_DATA, EXIT_IO, EXIT_OK, EXIT_USAGE, main
from asadeval.detection import average_precision
from asadeval.io_formats import (
    parse_annotations,
    parse_detection_stream,
    read_report,
    write_annotations,
    write_pr_curve,
)
from asadeval.model import ActorObservation, BoundingBox
from asadeval.synthetic import Perturbation, generate, perturb, scenario_preset
from support import LEFT, RIGHT, obs, record, validate_record


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
        ("evaluate", {"iou": True}, "iou"),  # a bool is no number
        ("evaluate", {"per_video": 1}, "per_video"),  # 1 is not true or false
        ("evaluate", {"gt": True}, "gt"),  # a bool is no string
    ],
)
def test_config_value_unlike_its_flag_is_usage_error(tmp_path, capsys, command, config, key):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main([command, "--config", str(path)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert str(path) in err and repr(key) in err


@pytest.mark.parametrize("config, expected", [
    ({"per_video": 1}, "key 'per_video': expected true or false, got 1"),
    ({"labels": True}, "key 'labels': expected an integer, got true"),
    ({"iou": True}, "key 'iou': expected a number, got true"),
    ({"gt": True}, "key 'gt': expected a string, got true"),
    ({"format": "xml"}, 'key \'format\': expected one of [\'csv\', \'json\'], got "xml"'),
    ([1], "expected a JSON object"),
])
def test_config_file_refusal_is_one_whole_line(tmp_path, capsys, config, expected):
    # One case of each flag type, a choice, and a file that holds no object.
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["evaluate", "--config", str(path)]) == EXIT_USAGE
    assert capsys.readouterr().err == f"asadeval: error: config file {path}: {expected}\n"


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


@pytest.mark.parametrize("via", ["flag", "config"])
def test_synth_number_too_large_for_numpy_is_usage_error(tmp_path, capsys, via):
    # Each value passes its own check but is past what numpy's generator takes.
    argv = ["synth", "--out", str(tmp_path / "x")]
    if via == "flag":
        argv += ["--labels", "1" + "0" * 30]
    else:
        config = tmp_path / "config.json"
        config.write_text('{"box_jitter": 1' + "0" * 400 + "}")
        argv += ["--config", str(config)]
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("asadeval: error: ")
    assert not (tmp_path / "x").exists()


def test_synth_negative_seed_is_usage_error(tmp_path, capsys):
    assert main(["synth", "--seed", "-1", "--out", str(tmp_path / "x")]) == EXIT_USAGE
    assert "synth: seed must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_synth_empty_video_id_is_usage_error_and_writes_nothing(tmp_path, capsys):
    # It used to exit 64 only after writing a gt.csv that its own parser refuses.
    assert main(["synth", "--video-id", "", "--out", str(tmp_path / "x")]) == EXIT_USAGE
    assert "synth: video_id must be non-empty" in capsys.readouterr().err
    assert not (tmp_path / "x" / "gt.csv").exists()


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


@pytest.mark.parametrize("mode", ["online", "offline"])
@pytest.mark.parametrize("flag, key, via, value, shown", [
    ("--lambda", "iou_weight", "flag", "2", "2.0"),
    ("--lambda", "iou_weight", "flag", "nan", "nan"),
    ("--lambda", "iou_weight", "config", -0.5, "-0.5"),
    ("--tau", "tau", "flag", "0", "0.0"),
    ("--tau", "tau", "flag", "nan", "nan"),
    ("--tau", "tau", "config", 1.5, "1.5"),
    ("--tau", "tau", "config", float("nan"), "nan"),
    ("--gap", "gap", "flag", "0", "0"),
    ("--gap", "gap", "config", -3, "-3"),
])
def test_track_flags_are_checked_before_the_stream_is_read(
    tmp_path, capsys, mode, flag, key, via, value, shown
):
    # The stream is malformed, and a parse would exit 2 naming a line.
    stream = tmp_path / "stream.csv"
    stream.write_text("not,a,header\n")
    out = tmp_path / "out.csv"
    argv = ["track", "--detections", str(stream), "--mode", mode, "--out", str(out)]
    if via == "flag":
        argv += [flag, value]
    else:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: value}))
        argv += ["--config", str(config)]
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    rule = {"--lambda": "lie in [0, 1]", "--tau": "lie in (0, 1]", "--gap": "be >= 1"}[flag]
    assert f"track: {flag} must {rule}, got {shown}" in err
    assert "stream.csv" not in err and not out.exists()
    assert not any(field in err for field in ("iou_weight", "threshold", "max_gap"))


@pytest.mark.parametrize("mode", ["online", "offline"])
def test_track_accepts_each_flag_at_its_bound(tmp_path, mode):
    scene = tmp_path / "scene"
    assert main(["synth", "--actors", "2", "--keyframes", "4", "--cuts", "1", "--dim", "4",
                 "--out", str(scene)]) == EXIT_OK
    argv = ["track", "--detections", str(scene / "detections.csv"), "--mode", mode,
            "--out", str(tmp_path / "out.csv")]
    for bounds in (["--lambda", "0", "--tau", "1", "--gap", "1"], ["--lambda", "1"]):
        assert main(argv + bounds) == EXIT_OK


@pytest.mark.parametrize("mode, threshold", [("online", "match_threshold"), ("offline", "merge_threshold")])
@pytest.mark.parametrize("flags, parameters", [
    (["--lambda", "0.4", "--tau", "0.3", "--gap", "3"], {"iou_weight": 0.4, "tau": 0.3, "max_gap": 3}),
    (["--tau", "0.3"], {"tau": 0.3}),
], ids=["all-flags", "tau"])
def test_track_passes_its_flags_to_the_tracker(tmp_path, mode, threshold, flags, parameters):
    scene = tmp_path / "scene"
    assert main(["synth", "--actors", "4", "--keyframes", "12", "--cuts", "2", "--fp-rate", "0.3",
                 "--seed", "5", "--out", str(scene)]) == EXIT_OK
    stream = parse_detection_stream(str(scene / "detections.csv"))
    tracker = {"online": track_online, "offline": track_offline}[mode]
    keywords = {threshold if name == "tau" else name: value for name, value in parameters.items()}

    def written(name, record):
        write_annotations([record], str(tmp_path / name), role="pred")
        return (tmp_path / name).read_bytes()

    argv = ["track", "--detections", str(scene / "detections.csv"), "--mode", mode,
            "--out", str(tmp_path / "tracked.csv")]
    assert main(argv + flags) == EXIT_OK
    tracked = (tmp_path / "tracked.csv").read_bytes()
    assert tracked == written("expected.csv", tracker(stream, **keywords))
    assert tracked != written("default.csv", tracker(stream))


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


def test_evaluate_ignores_a_manifest_that_is_not_utf8(identity_fixture, tmp_path, capsys):
    gt_path, pred_path = identity_fixture
    (gt_path.parent / "manifest.json").write_bytes(b'\xff{"n_labels": 17}')
    report_path = tmp_path / "report.json"
    code = main(["evaluate", "--gt", str(gt_path), "--pred", str(pred_path),
                 "--report", str(report_path)])
    assert code == EXIT_OK
    assert json.loads(report_path.read_text())["config"]["n_labels"] == 80
    assert capsys.readouterr().err == ""


def test_evaluate_ignores_a_manifest_nested_too_deeply(identity_fixture, tmp_path, capsys):
    gt_path, pred_path = identity_fixture
    (gt_path.parent / "manifest.json").write_text("[" * 200000)
    report_path = tmp_path / "report.json"
    code = main(["evaluate", "--gt", str(gt_path), "--pred", str(pred_path),
                 "--report", str(report_path)])
    assert code == EXIT_OK
    assert json.loads(report_path.read_text())["config"]["n_labels"] == 80
    assert capsys.readouterr().err == ""


def test_config_file_nested_too_deeply_is_usage_error_naming_the_file(identity_fixture, tmp_path, capsys):
    gt_path, pred_path = identity_fixture
    config = tmp_path / "config.json"
    config.write_text("[" * 200000)
    assert main(["evaluate", "--gt", str(gt_path), "--pred", str(pred_path), "--config", str(config)]) == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"asadeval: error: config file {config}: invalid JSON: ")


@pytest.mark.parametrize("command", ["evaluate", "track", "synth", "bench"])
def test_config_file_not_utf8_is_usage_error_naming_the_file(tmp_path, capsys, command):
    config = tmp_path / "config.json"
    config.write_bytes(b'\xff{"seed": 1}')
    assert main([command, "--config", str(config)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"asadeval: error: config file {config}: invalid JSON: ")
    assert "utf-8" in err


def _cold_start_tool():
    path = Path(__file__).resolve().parents[1] / "tools" / "check_cold_start.py"
    spec = importlib.util.spec_from_file_location("check_cold_start", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_only_commands_that_solve_import_scipy(tmp_path):
    # The cold-start tool's set-up in one interpreter, then its table up to
    # its first path that solves in another (keeps the suite's time flat);
    # "loaded" is cumulative within an interpreter. A solving command loads
    # scipy's C solver alone, not `scipy.optimize` nor even `scipy`.
    tool = _cold_start_tool()
    table = tool.paths(tmp_path)
    first_solve = next(i for i, (*_, scipy_free) in enumerate(table) if not scipy_free)
    table = table[: first_solve + 1]
    assert [name for name, *_ in table] == [
        "--version", "synth", "track --mode offline", "evaluate (exit 2)", "evaluate (1 actor)",
        "evaluate (3 actors)", "evaluate (5 clean)",
    ]
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    setup = tool.setup(tmp_path)
    _, results, returncode = tool.probe(setup, env, tmp_path)
    assert returncode == 0
    # set-up never solves either
    assert [[code, loaded] for code, loaded, _ in results] == [[EXIT_OK, []]] * len(setup)
    tool.write_corpus(tmp_path)
    tool.write_clean_scene(tmp_path)
    _, results, returncode = tool.probe([argv for _, argv, _, _ in table], env, tmp_path)
    assert returncode == 0
    assert [[code, loaded] for code, loaded, _ in results] == [
        [code, [] if scipy_free else ["scipy.optimize._lsap"]]
        for _, _, code, scipy_free in table
    ]
    assert all(maxrss > 0 for *_, maxrss in results)


def test_every_public_name_resolves():
    # The star import raises AttributeError on an `__all__` entry the package lacks.
    namespace = {}
    exec("from asadeval import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(asadeval.__all__)


PUBLIC_NAMES = [
    "APResult", "ActorObservation", "Assignment", "BoundingBox", "Detection", "DetectionStream",
    "DetectionTally", "EvalReport", "FormatError", "HammingResult", "IdMatchResult", "MatchedPair",
    "MatchedPairSet", "MetricBlock", "MtMlResult", "PRCurve", "Perturbation", "ScenarioSpec", "TrackCoverage",
    "VideoRecord", "__version__", "average_precision", "build_cost_matrix", "evaluate_records", "generate",
    "hamming_loss", "id_switches", "idf1", "match_pairs", "mt_ml", "parse_annotations", "parse_detection_stream",
    "perturb", "read_report", "scenario_preset", "solve_assignment", "track_offline", "track_online",
    "write_annotations", "write_detection_stream", "write_report",
]


def test_every_name_the_benchmark_reads_resolves():
    # The benchmark's files are parsed, never imported or edited: every
    # `ad.<name>` (``ad`` is the imported package), every name imported from
    # asadeval or a submodule and every attribute read on one, and every
    # function its tracer wraps (CLI_SPANS on asadeval.cli, SETUP_SPANS on the
    # package) must exist. The public names are pinned, so that removing one
    # is a deliberate edit here.
    assert sorted(asadeval.__all__) == PUBLIC_NAMES
    bench = Path(__file__).resolve().parents[1] / "asadbench"
    missing, read = [], 0
    for path in sorted(bench.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = {"ad": asadeval}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "asadeval":
                module = importlib.import_module(node.module)
                for alias in node.names:
                    read += 1
                    if hasattr(module, alias.name):
                        bound[alias.asname or alias.name] = getattr(module, alias.name)
                    else:
                        missing.append(f"{path.name}:{node.lineno}: {node.module}.{alias.name}")
            if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] in (
                ["CLI_SPANS"], ["SETUP_SPANS"]
            ):
                owner = cli if node.targets[0].id == "CLI_SPANS" else asadeval
                for name in ast.literal_eval(node.value):
                    read += 1
                    if not hasattr(owner, name):
                        missing.append(f"{path.name}:{node.lineno}: {owner.__name__}.{name}")
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in bound:
                owner = bound[node.value.id]
                if type(owner) is type(asadeval):  # a module; names read on a class or function are its own
                    read += 1
                    if not hasattr(owner, node.attr):
                        missing.append(f"{path.name}:{node.lineno}: {owner.__name__}.{node.attr}")
    assert read > 30 and missing == []


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


# Every flag of every subcommand, by the config key that mirrors it: a value a
# config file gives, flag tokens that give another value, that value, and the
# built-in default.
FLAG_TABLE = [
    ("evaluate", "gt", "a.csv", ["--gt", "b.csv"], "b.csv", None),
    ("evaluate", "pred", "a.csv", ["--pred", "b.csv"], "b.csv", None),
    ("evaluate", "iou", 0.6, ["--iou", "0.7"], 0.7, 0.5),
    ("evaluate", "labels", 5, ["--labels", "7"], 7, None),
    ("evaluate", "report", "a.json", ["--report", "b.json"], "b.json", None),
    ("evaluate", "format", "csv", ["--format", "json"], "json", "json"),
    ("evaluate", "per_video", True, ["--no-per-video"], False, False),
    ("evaluate", "id_persistence", False, ["--id-persistence"], True, True),
    ("evaluate", "pr_curve", "a.csv", ["--pr-curve", "b.csv"], "b.csv", None),
    ("track", "detections", "a.csv", ["--detections", "b.csv"], "b.csv", None),
    ("track", "mode", "online", ["--mode", "offline"], "offline", None),
    ("track", "iou_weight", 0.2, ["--lambda", "0.4"], 0.4, None),
    ("track", "tau", 0.3, ["--tau", "0.9"], 0.9, None),
    ("track", "gap", 3, ["--gap", "4"], 4, None),
    ("track", "out", "a.csv", ["--out", "b.csv"], "b.csv", None),
    ("synth", "scenario", "static", ["--scenario", "camera-cut"], "camera-cut", "default"),
    ("synth", "seed", 5, ["--seed", "6"], 6, 0),
    ("synth", "out", "a", ["--out", "b"], "b", None),
    ("synth", "video_id", "a", ["--video-id", "b"], "b", None),
    ("synth", "actors", 2, ["--actors", "3"], 3, None),
    ("synth", "keyframes", 20, ["--keyframes", "30"], 30, None),
    ("synth", "cuts", 1, ["--cuts", "2"], 2, None),
    ("synth", "miss_rate", 0.1, ["--miss-rate", "0.2"], 0.2, None),
    ("synth", "box_jitter", 0.01, ["--box-jitter", "0.02"], 0.02, None),
    ("synth", "fp_rate", 0.1, ["--fp-rate", "0.2"], 0.2, None),
    ("synth", "app_noise", 0.1, ["--app-noise", "0.2"], 0.2, None),
    ("synth", "label_switch_rate", 0.1, ["--label-switch-rate", "0.2"], 0.2, None),
    ("synth", "labels", 4, ["--labels", "5"], 5, None),
    ("synth", "dim", 8, ["--dim", "16"], 16, None),
    ("bench", "seeds", 2, ["--seeds", "3"], 3, 10),
    ("bench", "out", "a", ["--out", "b"], "b", None),
    ("bench", "scenario", "static", ["--scenario", "default"], "default", "camera-cut"),
]


def test_flag_table_holds_every_flag():
    flags = {
        (command, key)
        for command in cli._COMMANDS
        for key in cli._flags(cli._build_parser().parse_args([command]).parser)
    }
    assert len(flags) == len(FLAG_TABLE) == 32
    assert flags == {(command, key) for command, key, *_ in FLAG_TABLE}


@pytest.mark.parametrize(
    "command, key, file_value, flag, flag_value, default",
    FLAG_TABLE,
    ids=[f"{command}-{key}" for command, key, *_ in FLAG_TABLE],
)
def test_flag_beats_config_file_beats_default(
    tmp_path, monkeypatch, command, key, file_value, flag, flag_value, default
):
    # The command sees the resolved value; nothing is read or written.
    seen = []
    monkeypatch.setitem(cli._COMMANDS, command, lambda args: seen.append(getattr(args, key)) or EXIT_OK)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: file_value}))
    assert main([command, "--config", str(config)]) == EXIT_OK
    assert main([command, "--config", str(config), *flag]) == EXIT_OK
    assert main([command]) == EXIT_OK
    assert seen == [file_value, flag_value, default]
    assert [type(value) for value in seen] == [type(file_value), type(flag_value), type(default)]


def test_synth_keeps_jittered_boxes_inside_the_unit_square(tmp_path, capsys):
    # At this jitter some extents pass 1; each box must still lie in the unit
    # square, so that the writer takes every scene ScenarioSpec accepts.
    out = tmp_path / "d"
    command = ["synth", "--out", str(out), "--box-jitter", "0.6", "--actors", "3", "--keyframes", "5", "--cuts", "0"]
    assert main(command) == EXIT_OK
    stream = parse_detection_stream(str(out / "detections.csv"))
    assert len(stream.row_keyframes) and 0.0 <= stream.boxes.min() and stream.boxes.max() <= 1.0
    assert len(parse_annotations(str(out / "gt.csv"), role="gt")[0]) == 15


def test_evaluate_and_track_build_no_observation_objects(tmp_path, monkeypatch, capsys):
    # Parsed, tracked and generated records hold column tables and build
    # their observations only when read; scoring and writing them reads none.
    gts, preds = [], []
    for seed in range(3):
        spec = scenario_preset("camera-cut", seed=seed, video_id=f"v{seed}", n_actors=3, n_keyframes=12, n_cuts=1)
        gt, _ = generate(spec)
        pred = perturb(gt, Perturbation("jitter_boxes", sigma=0.02, seed=seed))
        pred = perturb(pred, Perturbation("swap_ids", actor_id=1, other_actor_id=2, keyframe=5))
        pred = perturb(pred, Perturbation("inject_fp", rate=0.5, seed=seed, n_labels=spec.n_labels))
        gts.append(gt)
        preds.append(perturb(pred, Perturbation("flip_labels", bits=6, seed=seed, n_labels=spec.n_labels)))
    write_annotations(gts, str(tmp_path / "gt.csv"), role="gt")
    write_annotations(preds, str(tmp_path / "pred.csv"), role="pred")
    assert main(["synth", "--scenario", "camera-cut", "--seed", "0", "--out", str(tmp_path / "scene")]) == EXIT_OK

    built = []
    for cls in (ActorObservation, BoundingBox):
        def counting(self, constructor=cls.__post_init__):
            built.append(type(self).__name__)
            constructor(self)
        monkeypatch.setattr(cls, "__post_init__", counting)
    commands = [
        ["evaluate", "--gt", str(tmp_path / "gt.csv"), "--pred", str(tmp_path / "pred.csv"), "--per-video",
         "--report", str(tmp_path / "report.json"), "--pr-curve", str(tmp_path / "pr.csv")],
        *(["track", "--detections", str(tmp_path / "scene" / "detections.csv"), "--mode", mode,
           "--out", str(tmp_path / f"{mode}.csv")] for mode in ("online", "offline")),
        ["synth", "--scenario", "camera-cut", "--seed", "1", "--out", str(tmp_path / "again")],
        ["bench", "--seeds", "1", "--out", str(tmp_path / "bench")],
    ]
    for command in commands:
        assert main(command) == EXIT_OK
    assert built == []
    # Reading a parsed record's observations builds them, and the patch counts them.
    assert parse_annotations(str(tmp_path / "online.csv"), role="pred")[0].observations and built
