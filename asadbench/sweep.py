"""Run the benchmark over several seeds and report each metric's spread.

    python3 asadbench/sweep.py --seeds 0-9 --trace 0 --results runs.jsonl
    python3 asadbench/sweep.py --summarize runs.jsonl --baseline asadbench/baseline.json

Each run is a separate `run.py` process, as a benchmark driver would start
it. The table gives, per workload and metric, the median over seeds, the
quartile spread as a share of the median, and whether that spread stays
below a third of the metric's bound. `--baseline` writes the summary, the
environment and the per-seed output digests that `run.py` checks against.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

from compare import BENCH_SPEC, load, series, stats

HERE = Path(__file__).resolve().parent


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summarize(records: list[dict], spec: dict) -> list[str]:
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    lines = [f"{'workload':14s} {'metric':38s} {'median':>12s} {'spread':>8s} {'bound/3':>8s}"]
    for (workload, name), values in sorted(series(records).items()):
        s = stats(values)
        bound = bounds.get(name)
        mark = "" if bound is None else f"{bound / 3:8.3f} {'ok' if s['spread'] < bound / 3 else 'WIDE'}"
        lines.append(f"{workload:14s} {name:38s} {s['median']:12.6g} {s['spread']:8.3f} {mark}")
    bad = [r for r in records if not r["correct"] or r["failed"]]
    lines.append(f"{len(records)} runs, {len(bad)} incorrect or with failed passes")
    return lines


def baseline(records: list[dict]) -> dict:
    seeds = {t: sorted({r["seed"] for r in records if r["trace"] == t}) for t in (0, 1)}
    out = {
        "about": f"medians, quartiles (statistics.quantiles, n=4) and run counts over seeds "
                 f"{seeds[0]} untraced and {seeds[1]} traced; run.py fails a pass whose output "
                 f"digest differs from the one recorded here for its workload and seed",
        "environment": records[-1]["environment"], "digests": {}, "end_to_end": {}, "per_layer": {},
    }
    for record in records:
        if record["scale"] == "full" and record["digest"]:
            out["digests"].setdefault(record["workload"], {})[str(record["seed"])] = record["digest"]
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        chosen = [r for r in records if r["trace"] == trace]
        for (workload, name), values in sorted(series(chosen).items()):
            s = stats(values)
            del s["spread"]
            out[key].setdefault(workload, {})[name] = s
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-9", help="inclusive range, e.g. 0-9")
    parser.add_argument("--workloads", help="comma-separated (default: all in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--seconds", type=float, help="default: run_seconds in BENCHMARK.json")
    parser.add_argument("--results", help="append run records here")
    parser.add_argument("--summarize", nargs="*", default=[], help="result files to summarize instead of running")
    parser.add_argument("--baseline", help="write the baseline summary here")
    args = parser.parse_args(argv)
    spec = json.loads(BENCH_SPEC.read_text())

    records = [r for path in args.summarize for r in load(path)]
    if not args.summarize:
        if not args.results:
            parser.error("--results is required when running")
        names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
        seconds = args.seconds or spec["run_seconds"]
        for name in names:
            for seed in _seeds(args.seeds):
                start = time.perf_counter()
                done = subprocess.run(
                    [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", str(args.trace), "--results", args.results],
                    capture_output=True, text=True, timeout=900,
                )
                result = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else done.stderr[-300:]
                print(f"{name} seed={seed} exit={done.returncode} wall={time.perf_counter() - start:.1f}s "
                      f"{result}", flush=True)
        records = load(args.results)
    for line in summarize(records, spec):
        print(line)
    if args.baseline:
        Path(args.baseline).write_text(json.dumps(baseline(records), indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
