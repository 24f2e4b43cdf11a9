"""Check that this checkout's `solve_assignment` agrees with another checkout's on generated problems.

    git archive HEAD~1 | tar -x -C /tmp/parent
    python tools/check_solver_parity.py /tmp/parent/src [--problems 100000] [--seed 0]

Both copies of `asadeval` are imported into this one process, the other one
under another package name. Problem ``i`` has the shape ``SHAPES[i % 144]``,
every shape from 1 x 1 to 12 x 12 equally often, so both sides of the
enumeration's boundary (2 or 3 pairs, at most 10 rows and columns) are met:
2 x 9 to 3 x 10 inside it and 2 x 11 to 3 x 12 just past it. Its kind is
drawn from `tests/cost_kinds.py`, or is "extreme": a grid matrix with some
entries set to +-1e308 or +-1e300, where sums can overflow, or is "large": a
`crowded_boxes_cost` keyframe of 9-60 rows and 9-60 columns, drawn in place
of the problem's shape, where the tie search meets gated pairs and duplicated
boxes at the scale of a crowded video. Both copies solve every problem with
``drop_gated`` true and false; the pairs and the ``total_cost`` bits must
match exactly, or else the exception's type and message. Each side's
``RuntimeWarning``s (numpy overflow and invalid-value warnings) are recorded
and counted. Prints the first differences and a summary, and exits 1 on any
difference or on any warning from this checkout's solver.
"""

from __future__ import annotations

import argparse
import itertools
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO / "src"), str(REPO / "tests")]

from asadeval import matching  # noqa: E402
from cost_kinds import KINDS, crowded_boxes_cost, tie_heavy_cost  # noqa: E402
from other_checkout import load_other  # noqa: E402

SHAPES = tuple(itertools.product(range(1, 13), repeat=2))
EXTREMES = np.array([1e308, -1e308, 1e300, -1e300])
SHOWN_DIFFERENCES = 20


def problem(rng: np.random.Generator, kind: str, shape: tuple[int, int]) -> np.ndarray:
    if kind == "large":
        return crowded_boxes_cost(rng, *(int(side) for side in rng.integers(9, 61, size=2)))
    if kind != "extreme":
        return tie_heavy_cost(rng, kind, *shape)
    cost = tie_heavy_cost(rng, "grid", *shape)
    where = rng.random(shape) < 0.3
    cost[where] = rng.choice(EXTREMES, size=int(where.sum()))
    return cost


def outcomes(module, cost: np.ndarray) -> tuple[list[tuple], int]:
    """("solved", pairs, total bits) or ("raised", type, message), with drop_gated true then false.

    Also returns the number of ``RuntimeWarning``s the two solves emitted.
    """
    results = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        for drop_gated in (True, False):
            try:
                solution = module.solve_assignment(cost.copy(), drop_gated)
                results.append(("solved", solution.pairs, float(solution.total_cost).hex()))
            except Exception as exc:  # a crash is an outcome to compare, not a stop
                results.append(("raised", type(exc).__name__, str(exc)))
    return results, sum(issubclass(warning.category, RuntimeWarning) for warning in caught)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other_src", type=Path, help="the src directory of the other checkout")
    parser.add_argument("--problems", type=int, default=100000, help="number of problems (default 100000)")
    parser.add_argument("--seed", type=int, default=0, help="seed of the problems (default 0)")
    args = parser.parse_args(argv)
    _, other = load_other(args.other_src.resolve(), "matching")

    rng = np.random.default_rng(args.seed)
    kinds = KINDS + ("extreme", "large")
    tally: Counter = Counter()
    differences = 0
    for index in range(args.problems):
        kind = kinds[rng.integers(len(kinds))]
        cost = problem(rng, kind, SHAPES[index % len(SHAPES)])
        shape = cost.shape
        (here, warned_here), (there, warned_there) = outcomes(matching, cost), outcomes(other, cost)
        tally[kind] += 1
        tally["warnings here"] += warned_here
        tally["warnings other"] += warned_there
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
        f"{tally['solved']} solved, {tally['raised']} raised; {differences} problems differ; "
        f"RuntimeWarnings: {tally['warnings here']} here, {tally['warnings other']} other"
    )
    return 1 if differences or tally["warnings here"] else 0


if __name__ == "__main__":
    sys.exit(main())
