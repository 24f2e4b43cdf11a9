"""Compare two benchmark result files, one row per workload and metric.

    python3 asadbench/compare.py OLD.jsonl NEW.jsonl

Each file holds run records as `run.py` appends them (`--results`). For each
metric the table shows both sides' median, quartiles and run count, the
change of the median, and a verdict under the bounds in BENCHMARK.json:

  regressed   the new median is worse than the old by more than the bound
  unresolved  either side's quartile spread (as a share of its median) is
              wider than the bound, and the new runs do not all beat the old
  better      every new run beats every old run, or the medians differ by
              more than the old side's own spread, in the better direction
  no worse    none of the above

Per-layer metrics have no bound and get no verdict.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCH_SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def stats(values: list[float]) -> dict:
    """Median, quartiles (statistics.quantiles, n=4), count and relative spread."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    spread = (q3 - q1) / abs(median) if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "n": len(values), "spread": spread}


def series(records: list[dict]) -> dict:
    """(workload, metric) -> values, in run order."""
    out: dict = {}
    for record in records:
        for name, metric in record["metrics"].items():
            out.setdefault((record["workload"], name), []).append(metric["value"])
    return out


def verdict(old: list[float], new: list[float], bound: float, lower_is_better: bool) -> str:
    a, b = stats(old), stats(new)
    sign = 1.0 if lower_is_better else -1.0
    worse = sign * (b["median"] - a["median"]) / abs(a["median"]) if a["median"] else 0.0
    if max(sign * v for v in new) < min(sign * v for v in old):
        return "better"
    if max(a["spread"], b["spread"]) > bound:
        return "unresolved"
    if worse > bound:
        return "regressed"
    if -worse > a["spread"]:
        return "better"
    return "no worse"


def compare(old_records: list[dict], new_records: list[dict], spec: dict) -> list[str]:
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    old, new = series(old_records), series(new_records)
    lines = [
        f"{'workload':14s} {'metric':38s} {'old median [q1, q3] n':>34s} "
        f"{'new median [q1, q3] n':>34s} {'change':>8s}  verdict"
    ]
    for key in sorted(set(old) & set(new)):
        workload, name = key
        a, b = stats(old[key]), stats(new[key])
        change = (b["median"] - a["median"]) / abs(a["median"]) if a["median"] else 0.0
        meta = metrics.get(name, {})
        if "bound" in meta:
            result = verdict(old[key], new[key], meta["bound"], meta["better"] == "lower")
        else:
            result = "-"
        cell = "{median:.4g} [{q1:.4g}, {q3:.4g}] {n}"
        lines.append(
            f"{workload:14s} {name:38s} {cell.format(**a):>34s} {cell.format(**b):>34s} "
            f"{change:>+8.1%}  {result}"
        )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare two benchmark result files.")
    parser.add_argument("old")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    spec = json.loads(BENCH_SPEC.read_text())
    for line in compare(load(args.old), load(args.new), spec):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
