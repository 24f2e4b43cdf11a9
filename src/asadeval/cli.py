"""Command-line surface for batch evaluation, tracking, and benchmarks.

Exit codes are fixed for scripting: 0 success, 1 I/O failure, 2 input-data
validation errors (details on stderr, one line each), 64 usage errors.
Every run resolves its configuration as flags > config file > defaults and
echoes the result into the artifacts it writes. Each flag's built-in default
is set on its argparse argument. With --config, the command line is parsed
once, the file's values (each checked against the flag its key mirrors)
become the subcommand's defaults, and the command line is parsed again, so a
flag given on it still beats the file.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from .association import (
    DEFAULT_MATCH_THRESHOLD, DEFAULT_MAX_GAP, DEFAULT_MERGE_THRESHOLD, OFFLINE_IOU_WEIGHT,
    ONLINE_IOU_WEIGHT, track_offline, track_online,
)
# Unused here since the report carries its pooled AP, but kept under this
# name: the committed benchmark (asadbench/run.py) wraps
# `cli.average_precision` by name in its traced run, which asadbench/selftest.py runs.
from .detection import average_precision  # noqa: F401
from .evaluation import EvalReport, evaluate_records
from .io_formats import (
    _JSON_TYPES,
    FormatError,
    _has_json_type,
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


# synth's scenario overrides: flag dest -> (`ScenarioSpec` field, type, help).
_SYNTH_OVERRIDES = {
    "video_id": ("video_id", str, "video id recorded in the outputs"),
    "actors": ("n_actors", int, "override n_actors"),
    "keyframes": ("n_keyframes", int, "override n_keyframes"),
    "cuts": ("n_cuts", int, "override n_cuts"),
    "miss_rate": ("miss_rate", float, "override detector miss probability"),
    "box_jitter": ("box_jitter", float, "override box jitter sigma"),
    "fp_rate": ("fp_rate", float, "override false-positive rate"),
    "app_noise": ("appearance_noise", float, "override appearance noise magnitude"),
    "label_switch_rate": ("label_switch_rate", float, "override per-keyframe label switch probability"),
    "labels": ("n_labels", int, "override n_labels"),
    "dim": ("appearance_dim", int, "override appearance dimensionality"),
}


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
    evaluate.add_argument("--iou", type=float, default=0.5,
                          help="IoU gate for all metric families (default 0.5)")
    evaluate.add_argument("--labels", type=int, help="action-label universe size (default: sidecar manifest or 80)")
    evaluate.add_argument("--report", help="write the evaluation report here")
    evaluate.add_argument("--format", choices=["json", "csv"], default="json",
                          help="report format (default json)")
    evaluate.add_argument("--per-video", action=argparse.BooleanOptionalAction, default=False,
                          help="print per-video metric lines")
    evaluate.add_argument("--id-persistence", action=argparse.BooleanOptionalAction, default=True,
                          help="keep a track's previous identity when still matchable (default on)")
    evaluate.add_argument("--pr-curve", help="dump the pooled precision-recall curve CSV here")

    track = sub.add_parser("track", help="assign actor identities to a detection stream")
    track.add_argument("--detections", help="detection-stream CSV")
    track.add_argument("--mode", choices=["online", "offline"])
    track.add_argument("--lambda", dest="iou_weight", type=float,
                       help="weight of box overlap vs appearance "
                            f"(default {ONLINE_IOU_WEIGHT} online / {OFFLINE_IOU_WEIGHT} offline)")
    track.add_argument("--tau", type=float,
                       help=f"match-cost ceiling (online, default {DEFAULT_MATCH_THRESHOLD}) or "
                            f"merge-affinity floor (offline, default {DEFAULT_MERGE_THRESHOLD})")
    track.add_argument("--gap", type=int,
                       help=f"max keyframe gap for linking/retirement (default {DEFAULT_MAX_GAP})")
    track.add_argument("--out", help="output prediction CSV")

    synth = sub.add_parser("synth", help="generate a synthetic scenario")
    synth.add_argument("--scenario", choices=sorted(SCENARIO_PRESETS), default="default",
                       help="preset (default 'default')")
    synth.add_argument("--seed", type=int, default=0, help="generator seed (default 0)")
    synth.add_argument("--out", help="output directory for gt.csv, detections.csv, manifest.json")
    for dest, (_, kind, text) in _SYNTH_OVERRIDES.items():
        synth.add_argument(f"--{dest.replace('_', '-')}", type=kind, help=text)

    bench = sub.add_parser("bench", help="run the online/offline association comparison")
    bench.add_argument("--seeds", type=int, default=10, help="number of seeds (default 10)")
    bench.add_argument("--out", help="output directory for comparison.csv")
    bench.add_argument("--scenario", choices=sorted(SCENARIO_PRESETS), default="camera-cut",
                       help="scenario preset (default 'camera-cut')")
    for command in (evaluate, track, synth, bench):
        command.add_argument("--config", help="JSON config file whose keys mirror the flags")
        command.set_defaults(parser=command)
    return parser


def _flags(command: argparse.ArgumentParser) -> dict[str, argparse.Action]:
    """A subcommand's flags by dest, without --help and --config: the keys a config file may set."""
    return {action.dest: action for action in command._actions if action.dest not in ("help", "config")}


def _check_config_value(path: str, key: str, value, flag: argparse.Action) -> None:
    """Raise a usage error unless a config-file value could have come from ``flag``.

    The value takes the JSON type of the flag (a switch's bool, an int flag's
    integer, a float flag's number, any other flag's string) by the type
    table and predicate a report is read with (`io_formats._has_json_type`),
    then, where the flag has choices, must be one of them.
    """
    switch = isinstance(flag, argparse.BooleanOptionalAction)
    annotation = "bool" if switch else {int: "int", float: "float"}.get(flag.type, "str")
    expected, ok = _JSON_TYPES[annotation][0], _has_json_type(value, annotation)
    if ok and flag.choices is not None and value not in flag.choices:
        expected, ok = f"one of {sorted(flag.choices)}", False
    if not ok:
        raise _UsageError(f"config file {path}: key {key!r}: expected {expected}, got {json.dumps(value)}")


def _load_config_file(path: str, flags: dict[str, argparse.Action]) -> dict:
    """The file's non-null values, each checked against the flag its key mirrors."""
    with open(path, encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except (ValueError, RecursionError) as exc:  # malformed, too deeply nested or not UTF-8
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


def _require(args: argparse.Namespace, keys: Sequence[str], command: str) -> None:
    missing = [f"--{key.replace('_', '-')}" for key in keys if getattr(args, key) is None]
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
    _require(args, ["gt", "pred"], "evaluate")
    if not (0.0 < args.iou < 1.0):
        raise _UsageError(f"evaluate: --iou must lie in (0, 1), got {args.iou}")

    if args.labels is None:
        args.labels = sidecar_n_labels(args.gt) or DEFAULT_N_LABELS
    if args.labels < 1:
        raise _UsageError(f"evaluate: --labels must be >= 1, got {args.labels}")

    gt_records = parse_annotations(args.gt, role="gt", n_labels=args.labels)
    pred_records = parse_annotations(args.pred, role="pred", n_labels=args.labels)
    echo = {f"cli_{key}": getattr(args, key) for key in _flags(args.parser)}
    report = evaluate_records(
        gt_records,
        pred_records,
        iou_threshold=args.iou,
        n_labels=args.labels,
        id_persistence=args.id_persistence,
        config=echo,
    )
    _print_summary(report, per_video=args.per_video)
    if args.report:
        write_report(report, args.report, fmt=args.format)
    if args.pr_curve:
        write_pr_curve(report.pooled_ap, args.pr_curve)
    return EXIT_OK


def _tracker_parameters(mode: str, iou_weight, tau, gap) -> dict:
    """The given flags as the mode's tracker keywords; a flag out of range is a usage error naming it."""
    if iou_weight is not None and not (0.0 <= iou_weight <= 1.0):
        raise _UsageError(f"track: --lambda must lie in [0, 1], got {iou_weight}")
    if tau is not None and not (0.0 < tau <= 1.0):
        raise _UsageError(f"track: --tau must lie in (0, 1], got {tau}")
    if gap is not None and gap < 1:
        raise _UsageError(f"track: --gap must be >= 1, got {gap}")
    threshold = "match_threshold" if mode == "online" else "merge_threshold"
    given = {"iou_weight": iou_weight, threshold: tau, "max_gap": gap}
    return {name: value for name, value in given.items() if value is not None}


def _cmd_track(args: argparse.Namespace) -> int:
    _require(args, ["detections", "mode", "out"], "track")

    parameters = _tracker_parameters(args.mode, args.iou_weight, args.tau, args.gap)
    tracker = track_online if args.mode == "online" else track_offline
    record = tracker(parse_detection_stream(args.detections), **parameters)
    write_annotations([record], args.out, role="pred")
    print(
        f"tracked {len(record)} detections into "
        f"{len(record.actor_ids)} identities -> {args.out}"
    )
    return EXIT_OK


def _cmd_synth(args: argparse.Namespace) -> int:
    _require(args, ["out"], "synth")

    overrides = {
        field: getattr(args, dest)
        for dest, (field, _, _) in _SYNTH_OVERRIDES.items()
        if getattr(args, dest) is not None
    }
    try:
        spec = scenario_preset(args.scenario, seed=args.seed, **overrides)
    except ValueError as exc:
        hint = ""
        if args.cuts is None and str(exc).startswith("n_cuts"):
            preset_cuts = SCENARIO_PRESETS[args.scenario]["n_cuts"]
            hint = f"; the {args.scenario!r} preset sets n_cuts={preset_cuts}, so pass --cuts"
        raise _UsageError(f"synth: {exc}{hint}") from exc

    gt, stream = generate(spec)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_annotations([gt], str(out_dir / "gt.csv"), role="gt")
    write_detection_stream(stream, str(out_dir / "detections.csv"))
    write_scenario_manifest(spec, str(out_dir / "manifest.json"))
    print(f"wrote scenario '{args.scenario}' (seed {spec.seed}) to {out_dir}")
    return EXIT_OK


def _cmd_bench(args: argparse.Namespace) -> int:
    _require(args, ["out"], "bench")
    if args.seeds < 1:
        raise _UsageError(f"bench: --seeds must be >= 1, got {args.seeds}")

    rows = []
    for seed in range(1, args.seeds + 1):
        spec = scenario_preset(args.scenario, seed=seed)
        gt, stream = generate(spec)
        for mode, tracker in (("online", track_online), ("offline", track_offline)):
            record = tracker(stream)
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

    out_dir = Path(args.out)
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
        if args.config is not None:
            # The file's values become the subcommand's defaults, so a flag still beats them.
            args.parser.set_defaults(**_load_config_file(args.config, _flags(args.parser)))
            args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except _UsageError as exc:
        print(f"asadeval: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FormatError as exc:
        for line in exc.errors:
            print(line, file=sys.stderr)
        return EXIT_DATA
    except (ValueError, OverflowError) as exc:  # OverflowError: a number past what numpy takes
        print(f"asadeval: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"asadeval: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
