"""Benchmark of the asadeval CLI: three seeded workloads, end to end and per module.

    python3 asadbench/run.py --workload eval-crowded --seed 0 --seconds 20 --trace 0

Each workload is a closed loop in one process: one CLI pass at a time,
driven in-process through `asadeval.cli.main`, with the library's defaults
as shipped (its own evaluation thread pool included). A run writes the
workload's inputs from the seed, makes one untimed warm-up pass, then times
passes until `--seconds` have gone by, and checks every pass's outputs.

With `--trace 0` it reports the end-to-end metrics: `setup_s` (median of
SETUP_REPEATS set-ups, each from the import of asadeval in a fresh
interpreter until the inputs are on disk), `pass_s` (median over the timed
passes), `obs_per_s` (input rows read per pass over `pass_s`) and
`peak_rss_mb` (of this process). Both times are in reference seconds, see
REFERENCE_LOOP_S. With `--trace 1` it times the passes the same way, then
makes one traced pass, in which a span opens around each asadeval function
the CLI calls, and a breakdown of the evaluation into its metric families
and per-keyframe matching; it reports the per-module metrics (see
BENCHMARK.json for names and units) and the tracing overhead. Per-module
times are wall seconds summed over spans outside set-up, except for
`synthetic.generate_s` and `io_formats.write_detection_stream_s`, which time
set-up; a module a workload does not call reads 0.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The lines above it are a
table for people. Each run also appends its full record to
`.bench_out/results.jsonl` (see `--results`) and a traced run writes its
spans to `.bench_out/trace-<workload>-seed<seed>.json`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import Tracer
from workloads import (
    N_LABELS,
    ROOT,
    WORKLOADS,
    ProgramMissing,
    count_rows,
    import_program,
    output_digest,
    pass_commands,
    stream_dirs,
    write_inputs,
)

HERE = Path(__file__).resolve().parent
BENCH_SPEC = ROOT / "BENCHMARK.json"
BASELINE = HERE / "baseline.json"
OUT_DIR = ROOT / ".bench_out"
WORK_DIR = ROOT / ".bench_work"
SETUP_REPEATS = 3
# Other tenants of a shared machine slow every process on it by up to a third
# for seconds at a time. A fixed loop of the benchmark's own, which never
# calls asadeval, is timed next to every pass and every set-up, and those are
# reported in reference seconds: wall seconds scaled by
# REFERENCE_LOOP_S / (the loop's time around them). Drift of the machine's
# speed cancels out; a change to asadeval does not. Wall seconds are kept in
# the results record.
REFERENCE_LOOP_S = 0.012
THREAD_ENV_VARS = (
    "ASAD_BENCH_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
)


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "env": {name: os.environ.get(name) for name in THREAD_ENV_VARS},
    }


def recorded_digest(workload: str, scale: str, seed: int):
    """The output digest recorded for this workload and seed, if any."""
    if scale != "full" or not BASELINE.is_file():
        return None
    digests = json.loads(BASELINE.read_text()).get("digests", {})
    return digests.get(workload, {}).get(str(seed))


def reference_loop() -> float:
    """Seconds the calibration loop takes now: the best of three."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        best = min(best, time.perf_counter() - start)
    return best


class Calibrated:
    """Times a block and scales it by the calibration loop timed around it."""

    def __init__(self) -> None:
        self.before = reference_loop()
        self.wall: list[float] = []
        self.scaled: list[float] = []

    @contextlib.contextmanager
    def measure(self):
        start = time.perf_counter()
        yield
        wall = time.perf_counter() - start
        after = reference_loop()
        self.wall.append(wall)
        self.scaled.append(wall * 2 * REFERENCE_LOOP_S / (self.before + after))
        self.before = after


def _dir_digest(work: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in work.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(work)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def repeated_setup(workload, scale: str, seed: int, work: Path) -> tuple[Calibrated, list[str]]:
    """Write the inputs SETUP_REPEATS times, each in a fresh interpreter."""
    times, problems, digests = Calibrated(), [], set()
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(work, ignore_errors=True)
        with times.measure():
            done = subprocess.run(
                [sys.executable, str(HERE / "workloads.py"), "--workload", workload.name,
                 "--scale", scale, "--seed", str(seed), "--out", str(work)],
                capture_output=True, text=True, timeout=150, cwd=ROOT,
            )
        if done.returncode != 0:
            raise RuntimeError(f"input set-up failed:\n{done.stderr}")
        # Count from the import of asadeval, not from the interpreter's start.
        inside = json.loads(done.stdout.splitlines()[-1])["setup_s"]
        times.scaled[-1] *= inside / times.wall[-1]
        times.wall[-1] = inside
        digests.add(_dir_digest(work))
    if len(digests) != 1:
        problems.append(f"set-up wrote different inputs for one seed ({len(digests)} variants)")
    return times, problems


def run_pass(cli_main, workload, work: Path) -> str | None:
    """One pass through the CLI; returns a failure description or None."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            for argv in pass_commands(workload, work):
                code = cli_main(argv)
                if code != 0:
                    return f"{argv[0]} exited with {code}: {sink.getvalue()[-400:]}"
    except Exception as exc:  # a crashing pass is counted, not fatal
        return f"{type(exc).__name__}: {exc}"
    return None


class Passes:
    """Attempted and failed passes, checked against the first pass's digest."""

    def __init__(self, workload, work: Path, expected):
        self.workload, self.work, self.expected = workload, work, expected
        self.attempted = 0
        self.failures: list[str] = []
        self.reference = None
        self.times: Calibrated | None = None

    def check(self, error) -> None:
        self.attempted += 1
        if error is None:
            try:
                digest = output_digest(self.workload, self.work)
            except (OSError, ValueError, KeyError) as exc:
                error = f"unreadable outputs: {exc}"
        if error is None:
            if self.reference is None:
                self.reference = digest
            if digest != self.reference:
                error = f"digest {digest[:12]} differs from the first pass's {self.reference[:12]}"
            elif self.expected is not None and digest != self.expected:
                error = f"digest {digest[:12]} differs from the recorded {self.expected[:12]}"
        if error is not None:
            self.failures.append(error)

    def run(self, cli_main, seconds: float) -> None:
        self.check(run_pass(cli_main, self.workload, self.work))  # warm-up, untimed
        self.times = Calibrated()
        window_end = time.perf_counter() + seconds
        while time.perf_counter() < window_end:
            with self.times.measure():
                error = run_pass(cli_main, self.workload, self.work)
            self.check(error)


def _report(path: Path) -> dict:
    return json.loads(path.read_text())


def check_eval_outputs(workload, work: Path, info: dict) -> list[str]:
    """Tallies in the report must agree with the input counts."""
    report = _report(work / "report.json")
    agg = report["aggregate"]
    n_gt, n_pred = info["gt_observations"], info["pred_observations"]
    expect = {
        "tp + fn == GT observations": agg["tp"] + agg["fn"] == n_gt,
        "tp + fp == predictions": agg["tp"] + agg["fp"] == n_pred,
        "idtp + idfn == GT observations": agg["idtp"] + agg["idfn"] == n_gt,
        "idtp + idfp == predictions": agg["idtp"] + agg["idfp"] == n_pred,
        "one tracklet per GT actor": agg["n_gt_tracklets"] == info["gt_tracklets"],
        "ratios lie in [0, 1]": all(0.0 <= agg[k] <= 1.0 for k in ("ap", "hl", "idf1")),
        "one block per video": len(report["videos"]) == info["shape"]["videos"],
    }
    if workload.name == "eval-corpus":
        expect["one PR point per prediction"] = count_rows(work / "pr.csv") == n_pred
    return [f"report check failed: {name}" for name, ok in expect.items() if not ok]


def score_tracks(ad, cli_main, work: Path) -> tuple[list[str], dict]:
    """Check the tracker outputs and score them against ground truth.

    IDF1 pools the identification tallies of all streams; switches and
    identities are sums over streams.
    """
    problems = []
    tallies = {mode: {"idtp": 0, "idfp": 0, "idfn": 0, "id_switches": 0, "identities": 0}
               for mode in ("online", "offline")}
    for stream_dir in stream_dirs(work):
        stream = ad.parse_detection_stream(str(stream_dir / "detections.csv"))
        expected = sorted(
            (kf, d.box.x1, d.box.y1, d.box.x2, d.box.y2, d.score)
            for kf, dets in stream.frames.items() for d in dets
        )
        for mode, tally in tallies.items():
            output = stream_dir / f"{mode}.csv"
            (record,) = ad.parse_annotations(str(output), role="pred")
            got = sorted(
                (o.keyframe, o.box.x1, o.box.y1, o.box.x2, o.box.y2, o.score)
                for o in record.observations
            )
            if got != expected:
                problems.append(f"{output.name} of {stream_dir.name} does not hold each detection once")
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli_main(["evaluate", "--gt", str(stream_dir / "gt.csv"), "--pred", str(output),
                                 "--report", str(stream_dir / f"{mode}.json")])
            if code != 0:
                problems.append(f"scoring {output.name} of {stream_dir.name} exited with {code}")
                continue
            agg = _report(stream_dir / f"{mode}.json")["aggregate"]
            for key in ("idtp", "idfp", "idfn", "id_switches"):
                tally[key] += agg[key]
            tally["identities"] += len(record.actor_ids)
    quality = {}
    for mode, tally in tallies.items():
        denom = 2 * tally["idtp"] + tally["idfp"] + tally["idfn"]
        quality[f"{mode}_idf1"] = 2 * tally["idtp"] / denom if denom else 0.0
        quality[f"{mode}_id_switches"] = tally["id_switches"]
        quality[f"{mode}_identities"] = tally["identities"]
    return problems, quality


# Functions the CLI calls, by the name it imports them under, and their spans.
CLI_SPANS = {
    "parse_annotations": "io_formats.parse_annotations",
    "evaluate_records": "evaluation.evaluate_records",
    "write_report": "io_formats.write_report",
    "average_precision": "detection.pooled_ap",
    "write_pr_curve": "detection.write_pr_curve",
    "parse_detection_stream": "io_formats.parse_detection_stream",
    "track_online": "association.track_online",
    "track_offline": "association.track_offline",
    "write_annotations": "io_formats.write_annotations",
    "generate": "synthetic.generate",
    "write_detection_stream": "io_formats.write_detection_stream",
    "write_scenario_manifest": "io_formats.write_scenario_manifest",
}
# Functions the eval workloads' own set-up calls through the package.
SETUP_SPANS = {
    "generate": "synthetic.generate",
    "perturb": "synthetic.perturb",
    "write_annotations": "io_formats.write_annotations",
}
FAMILY_SPANS = (
    "detection.average_precision", "identity.idf1", "identity.mt_ml",
    "identity.id_switches", "actions.match_pairs", "actions.hamming_loss",
)


def breakdown(ad, tracer: Tracer, gt_path: Path, pred_path: Path) -> dict:
    """Serial evaluation, its metric families one by one, and per-keyframe matching.

    Calls the public functions in the order `evaluate_records` calls them,
    then builds and solves every keyframe's gated GT x prediction problem
    once. Returns the matching counters.
    """
    from asadeval.actions import merge_pair_sets

    gt = ad.parse_annotations(str(gt_path), role="gt", n_labels=N_LABELS)
    pred = ad.parse_annotations(str(pred_path), role="pred", n_labels=N_LABELS)
    pred_by_video = {r.video_id: r for r in pred}
    aligned = [(g, pred_by_video.get(g.video_id, ad.VideoRecord(g.video_id))) for g in gt]
    counts = {"problems": 0, "search_problems": 0, "solved_pairs": 0, "kept_pairs": 0}
    with tracer.span("breakdown"):
        with tracer.span("evaluation.evaluate_records_serial"):
            ad.evaluate_records(gt, pred, n_labels=N_LABELS, max_workers=1)
        pair_sets = []
        for g, p in aligned:
            with tracer.span("detection.average_precision"):
                ad.average_precision([g], [p])
            with tracer.span("identity.idf1"):
                ad.idf1(g, p)
            with tracer.span("identity.mt_ml"):
                ad.mt_ml(g, p)
            with tracer.span("identity.id_switches"):
                ad.id_switches(g, p, persistence=True)
            with tracer.span("actions.match_pairs"):
                pairs = ad.match_pairs(g, p)
            with tracer.span("actions.hamming_loss"):
                ad.hamming_loss(pairs, N_LABELS)
            pair_sets.append(pairs)
        with tracer.span("detection.pooled_ap"):
            ad.average_precision([g for g, _ in aligned], [p for _, p in aligned])
        with tracer.span("actions.hamming_loss"):
            ad.hamming_loss(merge_pair_sets(pair_sets), N_LABELS)
        for g, p in aligned:
            for keyframe, g_frame in g.frames.items():
                p_frame = p.frames.get(keyframe, ())
                if not p_frame:
                    continue
                with tracer.span("matching.build_cost_matrix"):
                    problem = ad.build_cost_matrix([o.box for o in g_frame], [o.box for o in p_frame])
                with tracer.span("matching.solve_assignment"):
                    solution = ad.solve_assignment(problem)
                size = min(len(g_frame), len(p_frame))
                counts["problems"] += 1
                counts["search_problems"] += size >= 2
                counts["solved_pairs"] += size
                counts["kept_pairs"] += len(solution.pairs)
    return counts


def traced_run(ad, workload, scale, seed, seconds, work, expected):
    """Per-module metrics from one traced set-up, pass and breakdown."""
    from asadeval import cli

    tracer = Tracer()
    setup_module, setup_names = (cli, CLI_SPANS) if workload.kind == "track" else (ad, SETUP_SPANS)
    with tracer.instrument(setup_module, setup_names), tracer.span("setup"):
        info = write_inputs(workload, scale, seed, work)

    passes = Passes(workload, work, expected)
    passes.run(cli.main, seconds)
    pass_s = statistics.median(passes.times.scaled)
    with tracer.instrument(cli, CLI_SPANS):
        traced = Calibrated()
        with traced.measure(), tracer.span("pass") as pass_span:
            error = run_pass(cli.main, workload, work)
        passes.check(error)
        if workload.kind == "eval":
            problems = check_eval_outputs(workload, work, info)
            counts = breakdown(ad, tracer, work / "gt.csv", work / "pred.csv")
            quality = {}
        else:
            with tracer.span("score"):
                problems, quality = score_tracks(ad, cli.main, work)
            counts = {}
            for stream_dir in stream_dirs(work):
                for mode in ("online", "offline"):
                    scored = breakdown(ad, tracer, stream_dir / "gt.csv", stream_dir / f"{mode}.csv")
                    for key, value in scored.items():
                        counts[key] = counts.get(key, 0) + value

    work_roots = ("pass", "score", "breakdown")

    def t(name, roots=work_roots):
        return tracer.total(name, roots)

    # The CLI parses exactly the pass's annotation inputs, or the scored outputs.
    parse_inputs = (
        [work / "gt.csv", work / "pred.csv"] if workload.kind == "eval"
        else [d / name for d in stream_dirs(work) for mode in ("online", "offline")
              for name in ("gt.csv", f"{mode}.csv")]
    )
    parsed_rows = sum(count_rows(path) for path in parse_inputs)
    parse_s = t("io_formats.parse_annotations")
    serial = t("evaluation.evaluate_records_serial")
    default = t("evaluation.evaluate_records")
    families = sum(t(name, ("breakdown",)) for name in FAMILY_SPANS) + t("detection.pooled_ap", ("breakdown",))
    metrics = {
        "cli.other_s": (tracer.self_time(pass_span), "s"),
        "io_formats.parse_annotations_s": (parse_s, "s"),
        "io_formats.parse_rows_per_s": (parsed_rows / parse_s if parse_s else 0.0, "1/s"),
        "io_formats.write_report_s": (t("io_formats.write_report"), "s"),
        "io_formats.parse_detection_stream_s": (t("io_formats.parse_detection_stream"), "s"),
        "io_formats.write_annotations_s": (t("io_formats.write_annotations"), "s"),
        "io_formats.write_detection_stream_s": (t("io_formats.write_detection_stream", ("setup",)), "s"),
        "synthetic.generate_s": (t("synthetic.generate", ("setup",)), "s"),
        "matching.build_cost_matrix_s": (t("matching.build_cost_matrix"), "s"),
        "matching.solve_assignment_s": (t("matching.solve_assignment"), "s"),
        "matching.problems": (counts["problems"], "count"),
        "matching.search_problems": (counts["search_problems"], "count"),
        "matching.gated_pair_ratio": (
            counts["kept_pairs"] / counts["solved_pairs"] if counts["solved_pairs"] else 0.0, "ratio"),
        "detection.average_precision_s": (t("detection.average_precision"), "s"),
        "detection.pooled_ap_s": (t("detection.pooled_ap"), "s"),
        "detection.write_pr_curve_s": (t("detection.write_pr_curve"), "s"),
        "identity.idf1_s": (t("identity.idf1"), "s"),
        "identity.mt_ml_s": (t("identity.mt_ml"), "s"),
        "identity.id_switches_s": (t("identity.id_switches"), "s"),
        "actions.match_pairs_s": (t("actions.match_pairs"), "s"),
        "actions.hamming_loss_s": (t("actions.hamming_loss"), "s"),
        "evaluation.evaluate_records_s": (default, "s"),
        "evaluation.evaluate_records_serial_s": (serial, "s"),
        "evaluation.pool_gain": (serial / default if default else 0.0, "ratio"),
        "evaluation.other_s": (serial - families, "s"),
        "association.track_online_s": (t("association.track_online"), "s"),
        "association.track_offline_s": (t("association.track_offline"), "s"),
        "association.online_identities": (quality.get("online_identities", 0), "count"),
        "association.offline_identities": (quality.get("offline_identities", 0), "count"),
        "association.online_idf1": (quality.get("online_idf1", 0.0), "ratio"),
        "association.offline_idf1": (quality.get("offline_idf1", 0.0), "ratio"),
        "association.online_id_switches": (quality.get("online_id_switches", 0), "count"),
        "association.offline_id_switches": (quality.get("offline_id_switches", 0), "count"),
        "bench.trace_overhead_s": (traced.scaled[0] - pass_s, "s"),
    }
    tracer.write(
        OUT_DIR / f"trace-{workload.name}-seed{seed}.json",
        workload=workload.name, seed=seed, untraced_pass_s=pass_s, counts=counts,
    )
    return passes, problems, metrics, {"untraced_pass_s": pass_s, **quality}


def timed_run(ad, workload, scale, seed, seconds, work, expected):
    """End-to-end metrics: repeated set-up, timed passes, output checks."""
    from asadeval import cli

    setup_times, problems = repeated_setup(workload, scale, seed, work)
    info = json.loads((work / "inputs.json").read_text())
    passes = Passes(workload, work, expected)
    passes.run(cli.main, seconds)
    quality = {}
    if workload.kind == "eval":
        problems += check_eval_outputs(workload, work, info)
    else:
        more, quality = score_tracks(ad, cli.main, work)
        problems += more
    pass_s = statistics.median(passes.times.scaled)
    metrics = {
        "setup_s": (statistics.median(setup_times.scaled), "s"),
        "pass_s": (pass_s, "s"),
        "obs_per_s": (info["rows_per_pass"] / pass_s, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    extra = {
        "setup_wall_s": statistics.median(setup_times.wall),
        "pass_wall_s": statistics.median(passes.times.wall),
        "setup_samples": setup_times.scaled,
        "rows_per_pass": info["rows_per_pass"],
        **quality,
    }
    return passes, problems, metrics, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", choices=["full", "toy"], default="full",
                        help="toy inputs run in seconds, for the self-test")
    parser.add_argument("--results", default=str(OUT_DIR / "results.jsonl"),
                        help="append this run's full record here")
    args = parser.parse_args(argv)

    try:
        ad = import_program()
    except ProgramMissing as exc:
        print(f"asadbench: {exc}", file=sys.stderr)
        return 2
    if not BENCH_SPEC.is_file():
        print(f"asadbench: missing {BENCH_SPEC}", file=sys.stderr)
        return 2
    spec = json.loads(BENCH_SPEC.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    workload = WORKLOADS[args.workload]
    expected = recorded_digest(workload.name, args.scale, args.seed)
    work = WORK_DIR / f"{workload.name}-seed{args.seed}-{os.getpid()}"
    run = traced_run if args.trace else timed_run
    try:
        passes, problems, metrics, extra = run(
            ad, workload, args.scale, args.seed, args.seconds, work, expected)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    correct = not passes.failures and not problems
    result = {
        "correct": correct,
        "attempted": passes.attempted,
        "failed": len(passes.failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]} for m in wanted},
    }
    env = environment()
    record = {
        "workload": workload.name, "seed": args.seed, "scale": args.scale,
        "trace": args.trace, "seconds": args.seconds, **result,
        "pass_samples": passes.times.scaled, "pass_wall_samples": passes.times.wall,
        "digest": passes.reference,
        "recorded_digest": expected, "failures": passes.failures[:5],
        "problems": problems, "extra": extra, "environment": env,
    }
    results = Path(args.results)
    results.parent.mkdir(parents=True, exist_ok=True)
    with open(results, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")

    why = {w["name"]: w["why"] for w in spec["workloads"]}.get(workload.name, "")
    print(f"{workload.name}  seed={args.seed} scale={args.scale} trace={args.trace}: {why}")
    print(f"  environment: {json.dumps(env, sort_keys=True)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:>14.6g} {unit}")
    print(f"  {'timed passes':40s} {len(passes.times.wall):>14d} count")
    print(f"  {'fail_ratio':40s} {len(passes.failures) / passes.attempted:>14.6g} ratio"
          f"  ({len(passes.failures)} of {passes.attempted} passes)")
    for key, value in extra.items():
        if not isinstance(value, list):
            print(f"  {key:40s} {value:>14.6g}")
    for line in passes.failures[:5] + problems:
        print(f"  FAIL {line}")
    print(f"  digest {passes.reference}  recorded {expected}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
