"""`matching.linear_sum_assignment` loads scipy's C solver alone, and falls back to `scipy.optimize`.

This process has imported `scipy.optimize` already (`test_matching` does so
at import), so each cold path runs in a fresh interpreter: it solves the
problems saved by `saved_problems` and writes each answer, which modules
were loaded, and the answers of `scipy.optimize`, imported afterwards, to
the same problems.
"""

from __future__ import annotations

import importlib.machinery
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from asadeval import matching
from cost_kinds import KINDS, tie_heavy_cost

# argv: problems.npz, out.json, how the file lookup behaves. "found" leaves it;
# "none" finds nothing; "raise" raises ImportError; "broken" finds a file with
# an extension's suffix that is no extension; "imported" imports scipy.optimize
# before the first solve, with a lookup that must not run.
_COLD = """
import importlib.machinery, json, os, sys
import numpy as np
from asadeval import matching

problems_path, out_path, lookup = sys.argv[1:]

def refuse():
    raise ImportError("no solver file")

def unused():
    raise AssertionError("the file lookup ran although scipy.optimize was imported")

if lookup == "none":
    matching._lsap_file = lambda: None
elif lookup == "raise":
    matching._lsap_file = refuse
elif lookup == "broken":
    broken = os.path.join(os.path.dirname(out_path), "_lsap" + importlib.machinery.EXTENSION_SUFFIXES[0])
    with open(broken, "wb") as handle:
        handle.write(b"not an extension module")
    matching._lsap_file = lambda: broken
elif lookup == "imported":
    import scipy.optimize
    matching._lsap_file = unused

def answers(solve):
    found = []
    with np.load(problems_path) as problems:
        for name in sorted(problems.files, key=int):
            try:
                rows, cols = solve(problems[name])
                found.append(["solved", rows.tolist(), cols.tolist()])
            except ValueError as error:
                found.append(["raised", str(error)])
    return found

first = answers(matching.linear_sum_assignment)
loaded = sorted(name for name in sys.modules if name.partition(".")[0] == "scipy")
import scipy.optimize
result = {
    "first": first,
    "loaded": loaded,
    "public": matching._solver() is scipy.optimize.linear_sum_assignment,
    "later": answers(scipy.optimize.linear_sum_assignment),
    "again": answers(matching.linear_sum_assignment),
}
with open(out_path, "w") as handle:
    json.dump(result, handle)
"""

EMPTY_SHAPES = [(0, 0), (0, 3), (3, 0)]
SHAPES = [(1, 1), (1, 7), (7, 1), (2, 9), (3, 12), (12, 3), (5, 40), (40, 5), (8, 8), (20, 20), (40, 40)]


def saved_problems(path: Path) -> list[np.ndarray]:
    """Empty, 1 x n, n x 1, wide, tall and square problems of every cost kind, random ones up to
    40 x 40, and two the solver refuses; saved to ``path``, keyed by position."""
    rng = np.random.default_rng(0)
    problems = [np.zeros(shape) for shape in EMPTY_SHAPES]
    problems += [tie_heavy_cost(rng, kind, *shape) for shape in SHAPES for kind in KINDS]
    problems += [rng.random(tuple(rng.integers(1, 41, size=2))) for _ in range(40)]
    problems += [np.full((2, 2), np.nan), np.array([[np.inf, 0.0], [np.inf, 1.0]])]
    np.savez(path, **{str(i): problem for i, problem in enumerate(problems)})
    return problems


def expected_answers(problems: list[np.ndarray]) -> list[list]:
    found = []
    for problem in problems:
        try:
            rows, cols = linear_sum_assignment(problem)
            found.append(["solved", rows.tolist(), cols.tolist()])
        except ValueError as error:
            found.append(["raised", str(error)])
    return found


def cold_run(tmp_path: Path, lookup: str) -> tuple[dict, list[list]]:
    """The fresh interpreter's result with the file lookup as ``lookup`` says, and `scipy.optimize`'s answers."""
    problems = saved_problems(tmp_path / "problems.npz")
    src = str(Path(matching.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    out = tmp_path / "out.json"
    done = subprocess.run(
        [sys.executable, "-c", _COLD, str(tmp_path / "problems.npz"), str(out), lookup],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(out.read_text()), expected_answers(problems)


def test_the_loaded_solver_is_scipys_and_a_later_import_reuses_it(tmp_path):
    result, expected = cold_run(tmp_path, "found")
    assert result["loaded"] == ["scipy.optimize._lsap"]
    assert result["public"]
    assert result["first"] == result["later"] == result["again"] == expected
    assert sum(answer[0] == "raised" for answer in expected) == 2


@pytest.mark.parametrize("lookup", ["none", "raise", "broken"])
def test_without_a_loadable_file_the_solver_is_scipy_optimizes(tmp_path, lookup):
    result, expected = cold_run(tmp_path, lookup)
    assert "scipy.optimize" in result["loaded"]
    assert result["public"]
    assert result["first"] == result["later"] == result["again"] == expected


def test_an_imported_scipy_optimize_gives_the_solver(tmp_path):
    result, expected = cold_run(tmp_path, "imported")
    assert result["public"]
    assert result["first"] == result["later"] == expected


def test_the_file_lookup_finds_the_extension_by_an_import_suffix():
    path = matching._lsap_file()
    assert path is not None and os.path.isfile(path)
    folder, name = os.path.split(path)
    assert name.startswith("_lsap") and name[len("_lsap"):] in importlib.machinery.EXTENSION_SUFFIXES
    assert os.path.basename(folder) == "optimize"
