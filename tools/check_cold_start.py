"""Time each asadeval CLI path in fresh interpreters, with its max RSS, and check which load scipy.

    python tools/check_cold_start.py [--runs 5] [--src OTHER/src]

`asadbench` times warm, in-process passes; this times what a user pays per
command: a new interpreter, `import asadeval` and the command. Two
camera-cut `synth` scenes (seed 0; the default cast and a single actor) and
their offline tracking are made first, and a three-video corpus of
three-actor scenes (30 keyframes, seeds 0-2) whose offline tracking, at
``--gap 1``, splits each actor into several identities, and a perfect
prediction of five actors, all five on every keyframe, written by hand
(`write_clean_scene`); then each path below runs ``--runs`` times,
each in a fresh interpreter, and the tool prints its median wall seconds
(interpreter start included), its median max RSS (the interpreter's
``ru_maxrss`` when the command returned), and whether any scipy module
and whether `scipy.optimize` itself were in `sys.modules` then ("?" when a
run died before returning and no other run loaded one).
A solving path must load scipy's C solver, `scipy.optimize._lsap`, and no
other scipy module: loading it takes under a millisecond and well under
1 MB, while `import scipy.optimize` takes about 0.4 s and about 48 MB. The
paths marked scipy-free must load no scipy module at all. A one-actor
`evaluate` solves only one-row problems; the corpus's identity pairings are
3 x 8 and 3 x 9 and its keyframes 3 x 5 at most, all within the
enumeration's 3 x 10. The clean scene's keyframes and its identity pairing
are 5 x 5, each with one gated hit per row and column: too large to
enumerate, so it is the first solving path, and each of its problems takes
one solve. Exits 1 when a path loads other scipy modules than its rule
allows, exits with an unexpected code, or dies before returning.
``--src`` times another checkout's `src` instead of this one's, so runs
with and without it give a before/after table of cold start and RSS.

`tests/test_cli.py` runs the same set-up in one interpreter, then the same
table, up to its first path that solves, in another.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
# The one scipy module a solving path loads: the C extension of scipy's solver.
LSAP = "scipy.optimize._lsap"

# Runs commands in order as `asadeval` would and writes, per command, its exit
# code, the scipy modules loaded when it returned, and the max RSS so far in KiB.
_PROBE = """
import contextlib, io, json, resource, sys
from asadeval.cli import main
results = []
for argv in json.loads(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    scipy = sorted(name for name in sys.modules if name.partition(".")[0] == "scipy")
    results.append([code, scipy, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss])
with open(sys.argv[1], "w") as handle:
    json.dump(results, handle)
"""


CORPUS_SEEDS = (0, 1, 2)
PROBE_TIMEOUT_S = 300


def setup(work: Path) -> list[list[str]]:
    """The commands that make each scene and its offline tracking as pred.csv.

    `write_corpus` then joins the corpus scenes into one corpus.
    """
    scenes = [(work / "scene", ["--seed", "0"], []), (work / "one", ["--seed", "0", "--actors", "1"], [])]
    scenes += [
        (work / f"c{seed}", ["--seed", str(seed), "--actors", "3", "--keyframes", "30",
                             "--video-id", f"c{seed}"], ["--gap", "1"])
        for seed in CORPUS_SEEDS
    ]
    commands = []
    for scene, cast, tracking in scenes:
        commands += [
            ["synth", "--scenario", "camera-cut", *cast, "--out", str(scene)],
            ["track", "--detections", str(scene / "detections.csv"), "--mode", "offline", *tracking,
             "--out", str(scene / "pred.csv")],
        ]
    return commands


def write_corpus(work: Path) -> None:
    """Join the corpus scenes' gt.csv and pred.csv, one header each, into ``work/corpus``."""
    (work / "corpus").mkdir()
    for name in ("gt.csv", "pred.csv"):
        parts = [(work / f"c{seed}" / name).read_text().splitlines(keepends=True) for seed in CORPUS_SEEDS]
        (work / "corpus" / name).write_text("".join(parts[0] + [line for part in parts[1:] for line in part[1:]]))


CLEAN_ACTORS = 5


def write_clean_scene(work: Path) -> None:
    """A perfect prediction of five actors in ``work/clean``: actor a in column a, none overlapping.

    Every keyframe shows all five; every prediction copies its ground truth
    at score 0.9.
    """
    (work / "clean").mkdir()
    rows = [
        f"clean,{keyframe},{0.02 + 0.19 * actor!r},0.2,{0.17 + 0.19 * actor!r},0.6,1,{actor}"
        for keyframe in range(10)
        for actor in range(CLEAN_ACTORS)
    ]
    header = "video_id,keyframe,x1,y1,x2,y2,action_id,actor_id"
    (work / "clean" / "gt.csv").write_text("\n".join([header, *rows]) + "\n")
    (work / "clean" / "pred.csv").write_text(
        "\n".join([header + ",score", *(row + ",0.9" for row in rows)]) + "\n"
    )


def paths(work: Path) -> list[tuple[str, list[str], int, bool]]:
    """(name, argv, expected exit code, scipy-free) for every timed CLI path, scipy-free first."""
    scene, one, corpus, clean = work / "scene", work / "one", work / "corpus", work / "clean"
    detections = str(scene / "detections.csv")
    return [
        ("--version", ["--version"], 0, True),
        ("synth", ["synth", "--scenario", "camera-cut", "--seed", "0",
                   "--out", str(work / "synth")], 0, True),
        ("track --mode offline", ["track", "--detections", detections, "--mode", "offline",
                                  "--out", str(work / "offline.csv")], 0, True),
        # A detection stream is no prediction file: its header is refused.
        ("evaluate (exit 2)", ["evaluate", "--gt", str(scene / "gt.csv"), "--pred", detections], 2, True),
        ("evaluate (1 actor)", ["evaluate", "--gt", str(one / "gt.csv"), "--pred", str(one / "pred.csv"),
                                "--report", str(work / "one.json")], 0, True),
        ("evaluate (3 actors)", ["evaluate", "--gt", str(corpus / "gt.csv"), "--pred", str(corpus / "pred.csv"),
                                 "--report", str(work / "corpus.json")], 0, True),
        ("evaluate (5 clean)", ["evaluate", "--gt", str(clean / "gt.csv"), "--pred", str(clean / "pred.csv"),
                                "--report", str(work / "clean.json")], 0, False),
        ("track --mode online", ["track", "--detections", detections, "--mode", "online",
                                 "--out", str(work / "online.csv")], 0, False),
        ("evaluate", ["evaluate", "--gt", str(scene / "gt.csv"), "--pred", str(scene / "pred.csv"),
                      "--report", str(work / "report.json")], 0, False),
        ("bench --seeds 1", ["bench", "--seeds", "1", "--out", str(work / "bench")], 0, False),
    ]


def probe(argvs: list[list[str]], env: dict, work: Path) -> tuple[float, list | None, int]:
    """Wall seconds, the per-command results (None if the interpreter died first)
    and the exit code, for one fresh interpreter running ``argvs`` in order.

    The interpreter is killed after `PROBE_TIMEOUT_S`. The wait blocks
    rather than polls: `subprocess.run`'s timeout polls at up to 50 ms,
    which rounded every wall time up to a 50 ms step.
    """
    out = work / "probe.json"
    out.unlink(missing_ok=True)
    start = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, "-c", _PROBE, str(out), json.dumps(argvs)],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=env, cwd=work,
    )
    timer = threading.Timer(PROBE_TIMEOUT_S, process.kill)
    timer.start()
    try:
        returncode = process.wait()
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    results = json.loads(out.read_text()) if out.exists() else None
    return wall, results, returncode


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=5, help="fresh interpreters per path (default 5)")
    parser.add_argument("--src", type=Path, default=REPO / "src",
                        help="the src directory to time (default: this checkout's)")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    if not (args.src / "asadeval" / "__init__.py").is_file():
        parser.error(f"no asadeval package under {args.src}")

    env = {**os.environ, "PYTHONPATH": str(args.src.resolve())}
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        _, results, returncode = probe(setup(work), env, work)
        if results is None or any(code != 0 for code, *_ in results):
            print(f"set-up failed (exit {returncode}, results {results})", file=sys.stderr)
            return 1
        write_corpus(work)
        write_clean_scene(work)
        print(f"{'path':<22} {'median s':>9} {'max MB':>7}  scipy  scipy.optimize  expected")
        for name, path_argv, expected_code, scipy_free in paths(work):
            walls, rss, loaded, died = [], [], set(), False
            for _ in range(args.runs):
                wall, results, returncode = probe([path_argv], env, work)
                walls.append(wall)
                if results is None:
                    died = True
                    failures.append(f"{name}: died before returning (exit {returncode})")
                    continue
                [(code, modules, maxrss)] = results
                if code != expected_code:
                    failures.append(f"{name}: exited with {code}, expected {expected_code}")
                if modules != ([] if scipy_free else [LSAP]):
                    failures.append(f"{name}: loaded {modules}, expected {'none' if scipy_free else [LSAP]}")
                loaded.update(modules)
                rss.append(maxrss / 1024)
            shown = ["yes" if held else "?" if died else "no" for held in (loaded, "scipy.optimize" in loaded)]
            print(f"{name:<22} {statistics.median(walls):>9.3f} "
                  f"{statistics.median(rss) if rss else float('nan'):>7.1f}  {shown[0]:<5}  {shown[1]:<14}  "
                  f"{'no' if scipy_free else 'yes (solves)'}")
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
