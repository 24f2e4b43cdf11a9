"""Command-line surface for batch evaluation, tracking, and benchmarks.

Exit codes are fixed for scripting: 0 success, 1 I/O failure, 2 input-data
validation errors (details on stderr, one line each), 64 usage errors.
Every run resolves its configuration as flags > config file > defaults and
echoes the result into the artifacts it writes.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from .association import AssociationConfig, track_offline, track_online
# Unused here since the report carries its pooled AP, but kept under this
# name: the committed benchmark (asadbench/run.py) wraps
# `cli.average_precision` by name in its traced run, which asadbench/selftest.py runs.
from .detection import average_precision  # noqa: F401
from .evaluation import EvalReport, evaluate_records
from .io_formats import (
    FormatError,
    parse_annotations,
    parse_detection_stream,
    sidecar_n_labels,
    write_annotations,
    write_bench_table,
    write_detection_stream,
    write_pr_curve,
    write_report,
    write_scenario_manifest,
)
from .model import DEFAULT_N_LABELS
from .synthetic import SCENARIO_PRESETS, generate, scenario_preset
from .version import __version__

EXIT_OK = 0
EXIT_IO = 1
EXIT_DATA = 2
EXIT_USAGE = 64


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage errors exit with the documented code 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="asadeval", description=__doc__)
    parser.add_argument("--version", action="version", version=f"asadeval {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    evaluate = sub.add_parser("evaluate", help="score predictions against ground truth")
    evaluate.add_argument("--gt", help="ground-truth annotation CSV")
    evaluate.add_argument("--pred", help="prediction annotation CSV")
    evaluate.add_argument("--iou", type=float, help="IoU gate for all metric families (default 0.5)")
    evaluate.add_argument("--labels", type=int, help="action-label universe size (default: sidecar manifest or 80)")
    evaluate.add_argument("--report", help="write the evaluation report here")
    evaluate.add_argument("--format", choices=["json", "csv"], help="report format (default json)")
    evaluate.add_argument("--per-video", action=argparse.BooleanOptionalAction, help="print per-video metric lines")
    evaluate.add_argument("--id-persistence", action=argparse.BooleanOptionalAction,
                          help="keep a track's previous identity when still matchable (default on)")
    evaluate.add_argument("--pr-curve", help="dump the pooled precision-recall curve CSV here")
    evaluate.add_argument("--config", help="JSON config file whose keys mirror the flags")

    track = sub.add_parser("track", help="assign actor identities to a detection stream")
    track.add_argument("--detections", help="detection-stream CSV")
    track.add_argument("--mode", choices=["online", "offline"])
    track.add_argument("--lambda", dest="iou_weight", type=float,
                       help="weight of box overlap vs appearance (default 0.7 online / 0.3 offline)")
    track.add_argument("--tau", type=float,
                       help="match-cost ceiling (online) or merge-affinity floor (offline)")
    track.add_argument("--gap", type=int, help="max keyframe gap for linking/retirement (default 10)")
    track.add_argument("--out", help="output prediction CSV")
    track.add_argument("--config", help="JSON config file whose keys mirror the flags")

    synth = sub.add_parser("synth", help="generate a synthetic scenario")
    synth.add_argument("--scenario", choices=sorted(SCENARIO_PRESETS), help="preset (default 'default')")
    synth.add_argument("--seed", type=int, help="generator seed (default 0)")
    synth.add_argument("--out", help="output directory for gt.csv, detections.csv, manifest.json")
    synth.add_argument("--video-id", help="video id recorded in the outputs")
    synth.add_argument("--actors", type=int, help="override n_actors")
    synth.add_argument("--keyframes", type=int, help="override n_keyframes")
    synth.add_argument("--cuts", type=int, help="override n_cuts")
    synth.add_argument("--miss-rate", type=float, help="override detector miss probability")
    synth.add_argument("--box-jitter", type=float, help="override box jitter sigma")
    synth.add_argument("--fp-rate", type=float, help="override false-positive rate")
    synth.add_argument("--app-noise", type=float, help="override appearance noise magnitude")
    synth.add_argument("--label-switch-rate", type=float, help="override per-keyframe label switch probability")
    synth.add_argument("--labels", type=int, help="override n_labels")
    synth.add_argument("--dim", type=int, help="override appearance dimensionality")
    synth.add_argument("--config", help="JSON config file whose keys mirror the flags")

    bench = sub.add_parser("bench", help="run the online/offline association comparison")
    bench.add_argument("--seeds", type=int, help="number of seeds (default 10)")
    bench.add_argument("--out", help="output directory for comparison.csv")
    bench.add_argument("--scenario", choices=sorted(SCENARIO_PRESETS),
                       help="scenario preset (default 'camera-cut')")
    bench.add_argument("--config", help="JSON config file whose keys mirror the flags")
    for command in (evaluate, track, synth, bench):
        command.set_defaults(flags={action.dest: action for action in command._actions})
    return parser


def _check_config_value(path: str, key: str, value, flag: argparse.Action) -> None:
    """Raise a usage error unless a config-file value could have come from ``flag``."""
    if isinstance(flag, argparse.BooleanOptionalAction):
        expected, ok = "true or false", isinstance(value, bool)
    elif flag.type is int:
        expected, ok = "an integer", isinstance(value, int) and not isinstance(value, bool)
    elif flag.type is float:
        expected, ok = "a number", isinstance(value, (int, float)) and not isinstance(value, bool)
    else:
        expected, ok = "a string", isinstance(value, str)
    if ok and flag.choices is not None and value not in flag.choices:
        expected, ok = f"one of {sorted(flag.choices)}", False
    if not ok:
        raise _UsageError(
            f"config file {path}: key {key!r}: expected {expected}, got {json.dumps(value)}"
        )


def _load_config_file(path: Optional[str], flags: dict[str, argparse.Action]) -> dict:
    """The file's non-null values, each checked against the flag its key mirrors."""
    if path is None:
        return {}
    with open(path, encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise _UsageError(f"config file {path}: invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise _UsageError(f"config file {path}: expected a JSON object")
    unknown = sorted(set(data) - set(flags))
    if unknown:
        raise _UsageError(f"config file {path}: unknown keys {unknown}")
    values = {key: value for key, value in data.items() if value is not None}
    for key, value in values.items():
        _check_config_value(path, key, value, flags[key])
    return values


def _resolve(args: argparse.Namespace, defaults: dict) -> dict:
    """Merge CLI flags over config-file values over built-in defaults."""
    file_cfg = _load_config_file(
        getattr(args, "config", None), {key: args.flags[key] for key in defaults}
    )
    resolved = {}
    for key, default in defaults.items():
        cli_value = getattr(args, key, None)
        if cli_value is not None:
            resolved[key] = cli_value
        elif key in file_cfg:
            resolved[key] = file_cfg[key]
        else:
            resolved[key] = default
    return resolved


def _require(resolved: dict, keys: Sequence[str], command: str) -> None:
    missing = [f"--{key.replace('_', '-')}" for key in keys if resolved[key] is None]
    if missing:
        raise _UsageError(f"{command}: missing required option(s): {', '.join(missing)}")


def _print_summary(report: EvalReport, per_video: bool) -> None:
    config = report.config
    ap_label = config.get("ap_label", "AP")
    hl_label = config.get("hl_label", "HL")

    def fmt(value, reason):
        return f"{value:.6f}" if value is not None else f"null ({reason})"

    agg = report.aggregate
    print(f"{ap_label}: {fmt(agg.ap, agg.ap_reason)}")
    print(f"{hl_label}: {fmt(agg.hl, agg.hl_reason)}")
    print(f"IDF1: {agg.idf1:.6f}")
    print(f"MT: {agg.mt_count}/{agg.n_gt_tracklets} ({agg.mt_pct:.1f}%)")
    print(f"ML: {agg.ml_count}/{agg.n_gt_tracklets} ({agg.ml_pct:.1f}%)")
    print(f"ID switches: {agg.id_switches}")
    if agg.flags:
        print(f"flags: {', '.join(agg.flags)}")
    if per_video:
        for video_id, block in sorted(report.per_video.items()):
            print(
                f"video {video_id}: {ap_label}={fmt(block.ap, block.ap_reason)} "
                f"{hl_label}={fmt(block.hl, block.hl_reason)} idf1={block.idf1:.6f} "
                f"mt={block.mt_count}/{block.n_gt_tracklets} ml={block.ml_count}/{block.n_gt_tracklets} "
                f"switches={block.id_switches}"
            )


def _cmd_evaluate(args: argparse.Namespace) -> int:
    defaults = {
        "gt": None,
        "pred": None,
        "iou": 0.5,
        "labels": None,
        "report": None,
        "format": "json",
        "per_video": False,
        "id_persistence": True,
        "pr_curve": None,
    }
    resolved = _resolve(args, defaults)
    _require(resolved, ["gt", "pred"], "evaluate")
    if not (0.0 < resolved["iou"] < 1.0):
        raise _UsageError(f"evaluate: --iou must lie in (0, 1), got {resolved['iou']}")

    n_labels = resolved["labels"]
    if n_labels is None:
        n_labels = sidecar_n_labels(resolved["gt"]) or DEFAULT_N_LABELS
        resolved["labels"] = n_labels
    if n_labels < 1:
        raise _UsageError(f"evaluate: --labels must be >= 1, got {n_labels}")

    gt_records = parse_annotations(resolved["gt"], role="gt", n_labels=n_labels)
    pred_records = parse_annotations(resolved["pred"], role="pred", n_labels=n_labels)
    echo = {f"cli_{key}": value for key, value in resolved.items()}
    report = evaluate_records(
        gt_records,
        pred_records,
        iou_threshold=resolved["iou"],
        n_labels=n_labels,
        id_persistence=resolved["id_persistence"],
        config=echo,
    )
    _print_summary(report, per_video=resolved["per_video"])
    if resolved["report"]:
        write_report(report, resolved["report"], fmt=resolved["format"])
    if resolved["pr_curve"]:
        write_pr_curve(report.pooled_ap, resolved["pr_curve"])
    return EXIT_OK


def _association_config(mode: str, iou_weight, tau, gap) -> AssociationConfig:
    overrides = {}
    if iou_weight is not None:
        overrides["iou_weight"] = iou_weight
    if gap is not None:
        overrides["max_gap"] = gap
    if mode == "online":
        if tau is not None:
            overrides["match_threshold"] = tau
        return AssociationConfig.online(**overrides)
    if tau is not None:
        overrides["merge_threshold"] = tau
    return AssociationConfig.offline(**overrides)


def _cmd_track(args: argparse.Namespace) -> int:
    defaults = {
        "detections": None,
        "mode": None,
        "iou_weight": None,
        "tau": None,
        "gap": None,
        "out": None,
    }
    resolved = _resolve(args, defaults)
    _require(resolved, ["detections", "mode", "out"], "track")

    stream = parse_detection_stream(resolved["detections"])
    cfg = _association_config(
        resolved["mode"], resolved["iou_weight"], resolved["tau"], resolved["gap"]
    )
    tracker = track_online if resolved["mode"] == "online" else track_offline
    record = tracker(stream, cfg)
    write_annotations([record], resolved["out"], role="pred")
    print(
        f"tracked {len(record.observations)} detections into "
        f"{len(record.actor_ids)} identities -> {resolved['out']}"
    )
    return EXIT_OK


def _cmd_synth(args: argparse.Namespace) -> int:
    defaults = {
        "scenario": "default",
        "seed": 0,
        "out": None,
        "video_id": None,
        "actors": None,
        "keyframes": None,
        "cuts": None,
        "miss_rate": None,
        "box_jitter": None,
        "fp_rate": None,
        "app_noise": None,
        "label_switch_rate": None,
        "labels": None,
        "dim": None,
    }
    resolved = _resolve(args, defaults)
    _require(resolved, ["out"], "synth")

    override_map = {
        "video_id": "video_id",
        "actors": "n_actors",
        "keyframes": "n_keyframes",
        "cuts": "n_cuts",
        "miss_rate": "miss_rate",
        "box_jitter": "box_jitter",
        "fp_rate": "fp_rate",
        "app_noise": "appearance_noise",
        "label_switch_rate": "label_switch_rate",
        "labels": "n_labels",
        "dim": "appearance_dim",
    }
    overrides = {
        spec_key: resolved[flag]
        for flag, spec_key in override_map.items()
        if resolved[flag] is not None
    }
    try:
        spec = scenario_preset(resolved["scenario"], seed=resolved["seed"], **overrides)
    except ValueError as exc:
        hint = ""
        if resolved["cuts"] is None and str(exc).startswith("n_cuts"):
            preset_cuts = SCENARIO_PRESETS[resolved["scenario"]]["n_cuts"]
            hint = f"; the {resolved['scenario']!r} preset sets n_cuts={preset_cuts}, so pass --cuts"
        raise _UsageError(f"synth: {exc}{hint}") from exc

    gt, stream = generate(spec)
    out_dir = Path(resolved["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    write_annotations([gt], str(out_dir / "gt.csv"), role="gt")
    write_detection_stream(stream, str(out_dir / "detections.csv"))
    write_scenario_manifest(spec, str(out_dir / "manifest.json"))
    print(f"wrote scenario '{resolved['scenario']}' (seed {spec.seed}) to {out_dir}")
    return EXIT_OK


def _cmd_bench(args: argparse.Namespace) -> int:
    defaults = {"seeds": 10, "out": None, "scenario": "camera-cut"}
    resolved = _resolve(args, defaults)
    _require(resolved, ["out"], "bench")
    n_seeds = resolved["seeds"]
    if n_seeds < 1:
        raise _UsageError(f"bench: --seeds must be >= 1, got {n_seeds}")

    rows = []
    for seed in range(1, n_seeds + 1):
        spec = scenario_preset(resolved["scenario"], seed=seed)
        gt, stream = generate(spec)
        for mode, cfg, tracker in (
            ("online", AssociationConfig.online(), track_online),
            ("offline", AssociationConfig.offline(), track_offline),
        ):
            record = tracker(stream, cfg)
            report = evaluate_records([gt], [record], n_labels=spec.n_labels)
            agg = report.aggregate
            rows.append(
                {
                    "seed": seed,
                    "mode": mode,
                    "ap50": agg.ap,
                    "hl50": agg.hl,
                    "idf1": agg.idf1,
                    "mt_pct": agg.mt_pct,
                    "ml_pct": agg.ml_pct,
                    "id_switches": agg.id_switches,
                }
            )

    out_dir = Path(resolved["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    table_path = out_dir / "comparison.csv"
    write_bench_table(rows, str(table_path))

    for mode in ("online", "offline"):
        mode_rows = [row for row in rows if row["mode"] == mode]
        mean_idf1 = sum(row["idf1"] for row in mode_rows) / len(mode_rows)
        switches = sum(row["id_switches"] for row in mode_rows)
        print(f"{mode}: mean IDF1 {mean_idf1:.4f}, total ID switches {switches}")
    print(f"wrote {table_path}")
    return EXIT_OK


_COMMANDS = {
    "evaluate": _cmd_evaluate,
    "track": _cmd_track,
    "synth": _cmd_synth,
    "bench": _cmd_bench,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"asadeval: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FormatError as exc:
        for line in exc.errors:
            print(line, file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"asadeval: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"asadeval: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
