"""Check that this checkout's `solve_assignment` agrees with another checkout's on generated problems.

    git archive HEAD~1 | tar -x -C /tmp/parent
    python tools/check_solver_parity.py /tmp/parent/src [--problems 100000] [--seed 0]

Both copies of `asadeval` are imported into this one process, the other one
under another package name. Problem ``i`` has the shape ``SHAPES[i % 64]``,
every shape from 1 x 1 to 8 x 8, so both sides of the enumeration's coverage
(2 or 3 pairs, at most 6 rows and columns) are met equally often. Its kind is
drawn from `tests/cost_kinds.py` or is "extreme": a grid matrix with some
entries set to +-1e308 or +-1e300, where sums can overflow. Both copies
solve every problem with ``drop_gated`` true and false; the pairs and the
``total_cost`` bits must match exactly, or else the exception's type and
message. Prints the first differences and a summary, and exits 1 on any
difference.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import itertools
import sys
from collections import Counter
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO / "src"), str(REPO / "tests")]

from asadeval import matching  # noqa: E402
from cost_kinds import KINDS, tie_heavy_cost  # noqa: E402

SHAPES = tuple(itertools.product(range(1, 9), repeat=2))
EXTREMES = np.array([1e308, -1e308, 1e300, -1e300])
SHOWN_DIFFERENCES = 20


def load_other(src: Path):
    """`matching` of the `asadeval` in ``src``, imported as the package ``asadeval_other``."""
    package = src / "asadeval"
    spec = importlib.util.spec_from_file_location(
        "asadeval_other", package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules["asadeval_other"] = module
    spec.loader.exec_module(module)
    return importlib.import_module("asadeval_other.matching")


def problem(rng: np.random.Generator, kind: str, shape: tuple[int, int]) -> np.ndarray:
    if kind != "extreme":
        return tie_heavy_cost(rng, kind, *shape)
    cost = tie_heavy_cost(rng, "grid", *shape)
    where = rng.random(shape) < 0.3
    cost[where] = rng.choice(EXTREMES, size=int(where.sum()))
    return cost


def outcomes(module, cost: np.ndarray) -> list[tuple]:
    """("solved", pairs, total bits) or ("raised", type, message), with drop_gated true then false."""
    results = []
    for drop_gated in (True, False):
        try:
            solution = module.solve_assignment(module.AssignmentProblem(cost=cost.copy()), drop_gated)
            results.append(("solved", solution.pairs, float(solution.total_cost).hex()))
        except Exception as exc:  # a crash is an outcome to compare, not a stop
            results.append(("raised", type(exc).__name__, str(exc)))
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other_src", type=Path, help="the src directory of the other checkout")
    parser.add_argument("--problems", type=int, default=100000, help="number of problems (default 100000)")
    parser.add_argument("--seed", type=int, default=0, help="seed of the problems (default 0)")
    args = parser.parse_args(argv)
    other = load_other(args.other_src.resolve())

    rng = np.random.default_rng(args.seed)
    kinds = KINDS + ("extreme",)
    tally: Counter = Counter()
    differences = 0
    for index in range(args.problems):
        shape = SHAPES[index % len(SHAPES)]
        kind = kinds[rng.integers(len(kinds))]
        cost = problem(rng, kind, shape)
        here, there = outcomes(matching, cost), outcomes(other, cost)
        tally[kind] += 1
        tally["enumerated"] += matching._enumerable(shape)
        tally.update(result[0] for result in here)
        if here != there:
            differences += 1
            if differences <= SHOWN_DIFFERENCES:
                print(f"problem {index} ({kind}, {shape[0]}x{shape[1]}) differs: {cost.tolist()!r}")
                for mine, theirs in zip(here, there):
                    if mine != theirs:
                        print(f"  here:  {mine!r}\n  other: {theirs!r}")
    print(
        f"{args.problems} problems ({', '.join(f'{k} {tally[k]}' for k in kinds)}; "
        f"{tally['enumerated']} of an enumerated shape), {2 * args.problems} solves per side: "
        f"{tally['solved']} solved, {tally['raised']} raised; {differences} problems differ"
    )
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
