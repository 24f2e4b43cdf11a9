"""Toy-scale self-test of the benchmark; runs in well under a minute.

    python3 asadbench/selftest.py

Checks, for every workload in BENCHMARK.json, that a run prints every
end-to-end metric (and, traced, every per-layer metric) with its unit, both
in the table and in the final JSON line, and that the correctness gate can
fail: a tampered recorded digest, and outputs that change between passes,
each make the fail ratio positive. Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from run import BENCH_SPEC, WORK_DIR, Passes, run_pass
from workloads import WORKLOADS, import_program, stream_dirs, write_inputs

HERE = Path(__file__).resolve().parent
SEED = 3


def check_metrics(spec: dict, results: Path) -> list[str]:
    problems = []
    for workload in spec["workloads"]:
        name = workload["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(SEED),
                 "--seconds", "0.3", "--trace", str(trace), "--scale", "toy",
                 "--results", str(results)],
                capture_output=True, text=True, timeout=170,
            )
            where = f"{name} trace={trace}"
            if done.returncode != 0:
                problems.append(f"{where}: exit {done.returncode}: {done.stderr[-300:]}")
                continue
            lines = done.stdout.splitlines()
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{where}: unexpected result {lines[-1][:200]}")
            if list(result["metrics"]) != [m["name"] for m in spec[key]]:
                problems.append(f"{where}: metric names differ from BENCHMARK.json {key}")
            table = {line.split()[0]: line.split()[-1] for line in lines[:-1] if line.startswith("  ")}
            for metric in spec[key]:
                got = result["metrics"].get(metric["name"], {})
                if got.get("unit") != metric["unit"] or not isinstance(got.get("value"), (int, float)):
                    problems.append(f"{where}: {metric['name']} printed as {got}")
                if table.get(metric["name"]) != metric["unit"]:
                    problems.append(f"{where}: {metric['name']} missing from the table with its unit")
    return problems


def check_gate() -> list[str]:
    from asadeval import cli

    problems = []
    for workload in WORKLOADS.values():
        work = WORK_DIR / f"selftest-{workload.name}"
        shutil.rmtree(work, ignore_errors=True)
        try:
            write_inputs(workload, "toy", SEED, work)
            honest = Passes(workload, work, expected=None)
            honest.run(cli.main, 0.2)
            if honest.failures:
                problems.append(f"{workload.name}: honest passes failed: {honest.failures[:1]}")

            tampered = Passes(workload, work, expected="0" * 64)
            tampered.run(cli.main, 0.2)
            if len(tampered.failures) != tampered.attempted:
                problems.append(f"{workload.name}: a tampered recorded digest did not fail every pass")

            drifting = Passes(workload, work, expected=None)
            drifting.check(run_pass(cli.main, workload, work))
            source = stream_dirs(work)[0] / "detections.csv" if workload.kind == "track" else work / "pred.csv"
            source.write_text("".join(source.read_text().splitlines(keepends=True)[:-1]))
            drifting.check(run_pass(cli.main, workload, work))
            if not drifting.failures:
                problems.append(f"{workload.name}: outputs that changed between passes did not fail")
        finally:
            shutil.rmtree(work, ignore_errors=True)
    return problems


def main() -> int:
    import_program()
    spec = json.loads(BENCH_SPEC.read_text())
    results = WORK_DIR / "selftest-results.jsonl"
    results.parent.mkdir(parents=True, exist_ok=True)
    try:
        problems = check_metrics(spec, results) + check_gate()
    finally:
        results.unlink(missing_ok=True)
    for line in problems:
        print(f"FAIL {line}")
    print(f"selftest: {'ok' if not problems else f'{len(problems)} problem(s)'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
