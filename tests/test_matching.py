import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from asadeval import matching
from asadeval.matching import (
    AssignmentProblem,
    build_cost_matrix,
    frame_ious,
    iou,
    iou_matrix,
    solve_assignment,
)
from asadeval.model import ActorObservation, BoundingBox, VideoRecord
from cost_kinds import KINDS, random_boxes, tie_heavy_cost


def grid_iou(a: BoundingBox, b: BoundingBox, n: int = 1000) -> float:
    """Independent rasterized area-counting oracle on an n x n grid."""
    centers = (np.arange(n) + 0.5) / n
    xs = centers[None, :]
    ys = centers[:, None]
    in_a = (xs >= a.x1) & (xs < a.x2) & (ys >= a.y1) & (ys < a.y2)
    in_b = (xs >= b.x1) & (xs < b.x2) & (ys >= b.y1) & (ys < b.y2)
    union = np.count_nonzero(in_a | in_b)
    if union == 0:
        return 0.0
    return np.count_nonzero(in_a & in_b) / union


def brute_force_min_cost(cost: np.ndarray) -> float:
    """Exhaustive permutation enumeration of all size-min(r,c) assignments."""
    return brute_force_lex_pairs(cost)[1]


def brute_force_lex_pairs(cost: np.ndarray) -> tuple[list[tuple[int, int]], float]:
    """The smallest sorted pair list among the minimum-fsum assignments, and that minimum.

    Enumerates every assignment of size min(rows, cols).
    """
    n_rows, n_cols = cost.shape
    if n_rows <= n_cols:
        assignments = [list(enumerate(cols)) for cols in itertools.permutations(range(n_cols), n_rows)]
    else:
        assignments = [
            sorted(zip(rows, range(n_cols))) for rows in itertools.permutations(range(n_rows), n_cols)
        ]
    totals = [math.fsum(float(cost[pair]) for pair in pairs) for pairs in assignments]
    best = min(totals)
    return min(pairs for pairs, total in zip(assignments, totals) if total == best), best


def reference_lex_pairs(cost: np.ndarray, best: float) -> list[tuple[int, int]] | None:
    """Reference tie search: one fresh sub-solve per candidate pair, no pruning.

    Fixes pairs greedily in lexicographic order, keeping a candidate only if
    the remaining submatrix still completes to the optimal total. Returns None
    if floating point noise ever leaves no completable candidate.
    """
    n_rows, n_cols = cost.shape
    k = min(n_rows, n_cols)
    pairs: list[tuple[int, int]] = []
    fixed: list[float] = []
    free_cols = list(range(n_cols))
    row_start = 0
    while len(pairs) < k:
        need = k - len(pairs) - 1
        accepted: tuple[int, int] | None = None
        for i in range(row_start, n_rows - need):
            for j in free_cols:
                candidate = fixed + [float(cost[i, j])]
                if need == 0:
                    total = math.fsum(candidate)
                else:
                    rest_rows = list(range(i + 1, n_rows))
                    rest_cols = [c for c in free_cols if c != j]
                    sub = cost[np.ix_(rest_rows, rest_cols)]
                    sr, sc = linear_sum_assignment(sub)
                    total = math.fsum(
                        candidate + [float(sub[r, c]) for r, c in zip(sr, sc)]
                    )
                if total == best:
                    accepted = (i, j)
                    break
            if accepted is not None:
                break
        if accepted is None:
            return None
        pairs.append(accepted)
        fixed.append(float(cost[accepted]))
        free_cols.remove(accepted[1])
        row_start = accepted[0] + 1
    return pairs


def test_iou_identity():
    a = BoundingBox(0.2, 0.2, 0.5, 0.6)
    assert iou(a, a) == 1.0


def test_iou_disjoint():
    assert iou(BoundingBox(0.0, 0.0, 0.2, 0.2), BoundingBox(0.5, 0.5, 0.7, 0.7)) == 0.0


def test_iou_one_third_against_grid_oracle():
    a = BoundingBox(0.0, 0.0, 0.2, 0.2)
    b = BoundingBox(0.1, 0.0, 0.3, 0.2)
    value = iou(a, b)
    assert value == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert value == pytest.approx(grid_iou(a, b), abs=2e-3)


def test_iou_symmetric_on_random_boxes():
    rng = np.random.default_rng(11)
    for _ in range(100):
        a, b = random_boxes(rng, 2)
        assert iou(a, b) == iou(b, a)
        assert iou(a, b) == pytest.approx(grid_iou(a, b), abs=5e-3)


def test_iou_matrix_matches_scalar():
    # Exact equality: AP and IDF1 compare matrix entries against the gate,
    # where the scalar oracles compare iou(); the two must agree bit for bit.
    rng = np.random.default_rng(5)
    base = BoundingBox(0.2, 0.2, 0.5, 0.6)
    special = [
        BoundingBox(0.2, 0.2, 0.5, 0.6),  # identical
        BoundingBox(0.25, 0.3, 0.45, 0.5),  # nested
        BoundingBox(0.5, 0.2, 0.7, 0.6),  # touches the right edge
        BoundingBox(0.2, 0.6, 0.5, 0.9),  # touches the bottom edge
        BoundingBox(0.5, 0.6, 0.8, 0.9),  # touches a corner
        BoundingBox(0.7, 0.7, 0.9, 0.9),  # disjoint
    ]
    gts = random_boxes(rng, 4) + [base]
    preds = random_boxes(rng, 3) + special
    arr_a = np.array([[b.x1, b.y1, b.x2, b.y2] for b in gts])
    arr_b = np.array([[b.x1, b.y1, b.x2, b.y2] for b in preds])
    matrix = iou_matrix(arr_a, arr_b)
    for i, g in enumerate(gts):
        for j, p in enumerate(preds):
            assert matrix[i, j] == iou(g, p)
    assert list(matrix[-1, -6:]) == [1.0, iou(base, special[1]), 0.0, 0.0, 0.0, 0.0]


def test_frame_ious_match_scalar_per_frame():
    # Frames of different sizes share one padded stack; padding must not leak.
    rng = np.random.default_rng(8)
    gt = {kf: random_boxes(rng, int(rng.integers(0, 5))) for kf in range(12)}
    pred = {kf: random_boxes(rng, int(rng.integers(0, 6))) for kf in range(4, 16)}
    ious = frame_ious(boxes_record(gt), boxes_record(pred))
    assert list(ious) == sorted(kf for kf in range(4, 12) if gt[kf] and pred[kf])
    for kf, matrix in ious.items():
        assert matrix.shape == (len(gt[kf]), len(pred[kf]))
        assert not matrix.flags.writeable
        for i, g in enumerate(gt[kf]):
            for j, p in enumerate(pred[kf]):
                assert matrix[i, j] == iou(g, p)
    assert frame_ious(boxes_record({0: gt[4]}), boxes_record({1: pred[4]})) == {}


def boxes_record(frames):
    """A record whose keyframe ``kf`` holds ``frames[kf]``, in list order."""
    return VideoRecord("v", tuple(
        ActorObservation("v", kf, box, actor_id)
        for kf, boxes in frames.items() for actor_id, box in enumerate(boxes)
    ))


def test_cost_matrix_keeps_above_gate():
    # IoU 0.6 -> 0.4; shared width 0.15 of 0.2: IoU = 0.15/0.25 = 0.6
    g = BoundingBox(0.0, 0.0, 0.2, 0.2)
    p = BoundingBox(0.05, 0.0, 0.25, 0.2)
    assert iou(g, p) == pytest.approx(0.6, abs=1e-12)
    problem = build_cost_matrix([g], [p])
    assert problem.cost[0, 0] == pytest.approx(0.4, abs=1e-12)


def test_cost_matrix_gates_below_threshold():
    # IoU 0.4: shared width 2/7 of 0.2-wide boxes -> (2/7)/(12/7)... use 0.4 via overlap 0.1 of 0.25
    g = BoundingBox(0.0, 0.0, 0.2, 0.2)
    p = BoundingBox(0.1, 0.0, 0.3, 0.2)  # IoU 1/3 < 0.5
    problem = build_cost_matrix([g], [p])
    assert problem.cost[0, 0] == 1.0


def test_cost_matrix_empty_predictions():
    g = BoundingBox(0.0, 0.0, 0.2, 0.2)
    problem = build_cost_matrix([g], [])
    assert problem.cost.shape == (1, 0)


def test_solve_single_cell():
    solution = solve_assignment(AssignmentProblem(cost=np.array([[0.2]])))
    assert solution.pairs == ((0, 0),)
    assert solution.total_cost == 0.2


def test_solve_two_by_two():
    cost = np.array([[0.1, 1.0], [1.0, 0.3]])
    solution = solve_assignment(AssignmentProblem(cost=cost))
    assert solution.pairs == ((0, 0), (1, 1))
    assert solution.total_cost == pytest.approx(0.4, abs=1e-15)


def test_solve_all_gated_filters_everything():
    solution = solve_assignment(AssignmentProblem(cost=np.ones((2, 2))))
    assert solution.pairs == ()
    assert solution.total_cost == 2.0


def test_solve_keeps_gated_pairs_when_asked():
    solution = solve_assignment(AssignmentProblem(cost=np.ones((2, 2))), drop_gated=False)
    assert solution.pairs == ((0, 0), (1, 1))


def test_solve_empty_matrix():
    solution = solve_assignment(AssignmentProblem(cost=np.zeros((0, 3))))
    assert solution.pairs == ()
    assert solution.total_cost == 0.0


def test_solve_rejects_non_finite():
    with pytest.raises(ValueError, match="finite"):
        solve_assignment(AssignmentProblem(cost=np.array([[np.inf]])))


def test_lexicographic_tie_break():
    # Both diagonals cost 0.6; the smaller pair list wins.
    cost = np.array([[0.1, 0.2], [0.4, 0.5]])
    solution = solve_assignment(AssignmentProblem(cost=cost), drop_gated=False)
    assert solution.pairs == ((0, 0), (1, 1))


def test_oracle_equivalence_on_gated_random_matrices():
    rng = np.random.default_rng(42)
    for _ in range(120):
        n_gt = int(rng.integers(1, 8))
        n_pred = int(rng.integers(1, 8))
        problem = build_cost_matrix(random_boxes(rng, n_gt), random_boxes(rng, n_pred))
        solution = solve_assignment(problem)
        assert solution.total_cost == brute_force_min_cost(problem.cost)


def test_transpose_symmetry():
    rng = np.random.default_rng(9)
    for _ in range(50):
        problem = build_cost_matrix(random_boxes(rng, 5), random_boxes(rng, 4))
        forward = solve_assignment(problem)
        backward = solve_assignment(AssignmentProblem(cost=problem.cost.T))
        assert backward.total_cost == forward.total_cost
        assert sorted((j, i) for i, j in backward.pairs) == sorted(forward.pairs)


def test_gate_soundness_no_pair_below_half_iou():
    rng = np.random.default_rng(17)
    for _ in range(50):
        gts = random_boxes(rng, 5)
        preds = random_boxes(rng, 5)
        problem = build_cost_matrix(gts, preds)
        for i, j in solve_assignment(problem).pairs:
            assert iou(gts[i], preds[j]) >= 0.5


@st.composite
def tie_heavy_costs(draw):
    """Cost matrices of 1-12 rows and columns of every `cost_kinds` kind.

    Half have a shape the enumeration covers: 2 or 3 rows and at most 6
    columns (the test also solves the transpose). A quarter keep only their
    first row, so the single-pair case gets ties and fully gated rows of its
    own.
    """
    if draw(st.booleans()):
        n_rows = draw(st.integers(2, 3))
        n_cols = draw(st.integers(n_rows, 6))
    else:
        n_rows, n_cols = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cost = tie_heavy_cost(rng, draw(st.sampled_from(KINDS)), n_rows, n_cols)
    if draw(st.integers(0, 3)) == 0:
        cost = cost[:1]
    return cost


# Numpy sums order these two assignments against their fsum totals: the
# diagonal (1, 2**-53, 2**-53) sums to 1 and has fsum 1 + 2**-52, and
# (0, 1), (1, 2), (2, 0) sums to 1 + 2**-52 (resp. ties at 1) with fsum 1.
EPS = 2.0**-53
NAIVE_ORDER_REVERSED = np.array([[1.0, 1.0, 5.0], [5.0, EPS, EPS * (1 + 2.0**-50)], [-EPS / 2, 5.0, EPS]])
NAIVE_ORDER_TIED = np.array([[1.0, 1.0, 5.0], [5.0, EPS, 0.0], [EPS / 2, 5.0, EPS]])


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(tie_heavy_costs())
@example(np.array([[1.0, 1.0, 1.0]]))
@example(np.array([[0.5, 0.25, 1.0, 0.25]]))
@example(NAIVE_ORDER_REVERSED)
@example(NAIVE_ORDER_TIED)
def test_tie_break_matches_oracle_and_reference(cost):
    # Both orientations; the oracle up to 6 x 6, the unpruned search up to 12 x 12.
    for matrix in (cost, cost.T):
        problem = AssignmentProblem(cost=matrix)
        total = solve_assignment(problem).total_cost
        expected = [reference_lex_pairs(matrix, total)]
        if max(matrix.shape) <= 6:
            oracle_pairs, oracle_total = brute_force_lex_pairs(matrix)
            assert total == oracle_total
            expected.append(oracle_pairs)
        for drop_gated in (True, False):
            solution = solve_assignment(problem, drop_gated=drop_gated)
            for pairs in expected:
                assert pairs is not None
                assert solution.pairs == tuple(p for p in pairs if not drop_gated or matrix[p] != 1.0)


@pytest.mark.parametrize("shape", [(30, 30), (30, 24), (24, 30)])
def test_reduced_costs_spare_the_sub_solves(shape, monkeypatch):
    # Without the reduced-cost prune the tie search makes hundreds of sub-solves here.
    calls = counted_lsa(monkeypatch)
    cost = np.random.default_rng(shape[0] * 100 + shape[1]).random(shape)
    solution = solve_assignment(AssignmentProblem(cost=cost))
    assert len(calls) <= 30
    assert list(solution.pairs) == reference_lex_pairs(cost, solution.total_cost)


def counted_lsa(monkeypatch) -> list:
    """The shapes of every `linear_sum_assignment` call `matching` makes from now on."""
    calls = []

    def counting(cost):
        calls.append(cost.shape)
        return linear_sum_assignment(cost)

    monkeypatch.setattr(matching, "linear_sum_assignment", counting)
    return calls


COVERED_SHAPES = [(k, n) for k in (2, 3) for n in range(k, 7)]


@pytest.mark.parametrize("shape", COVERED_SHAPES + [(n, k) for k, n in COVERED_SHAPES if n != k])
def test_covered_shapes_make_no_lsa_call(shape, monkeypatch):
    calls = counted_lsa(monkeypatch)
    rng = np.random.default_rng(shape[0] * 10 + shape[1])
    for kind in KINDS:
        cost = tie_heavy_cost(rng, kind, *shape)
        solution = solve_assignment(AssignmentProblem(cost=cost), drop_gated=False)
        assert list(solution.pairs) == brute_force_lex_pairs(cost)[0]
    assert calls == []


@pytest.mark.parametrize("shape", [(4, 4), (3, 7), (7, 3)])
def test_uncovered_shapes_still_use_lsa(shape, monkeypatch):
    calls = counted_lsa(monkeypatch)
    solve_assignment(AssignmentProblem(cost=np.random.default_rng(1).random(shape)))
    assert calls


def test_gated_pairs_match_solve_assignment_per_keyframe(monkeypatch):
    # Covered keyframes are solved in stacked calls; only the rest reach solve_assignment.
    rng = np.random.default_rng(4)
    gt = {kf: random_boxes(rng, int(rng.integers(0, 5))) for kf in range(40)}
    pred = {kf: random_boxes(rng, int(rng.integers(0, 6))) for kf in range(40)}
    for kf in range(0, 40, 5):  # duplicate boxes: gated ties
        pred[kf] = gt[kf] + gt[kf][:1]
    ious = frame_ious(boxes_record(gt), boxes_record(pred))
    singly = []

    def counting(problem, drop_gated=True):
        singly.append(problem.cost.shape)
        return solve_assignment(problem, drop_gated)

    monkeypatch.setattr(matching, "solve_assignment", counting)
    pairs = matching.gated_pairs(ious, 0.5)
    monkeypatch.undo()
    uncovered = [overlaps.shape for overlaps in ious.values() if not matching._enumerable(overlaps.shape)]
    assert sorted(singly) == sorted(uncovered)
    assert 0 < len(uncovered) < len(ious)
    assert list(pairs) == list(ious)
    for kf, overlaps in ious.items():
        assert pairs[kf] == solve_assignment(matching.gated_cost(overlaps, 0.5)).pairs


@pytest.mark.parametrize("cost, drop_gated, expected", [
    ([[1e308, 1.0], [1.0, 1e308]], True, ((), 2.0)),
    ([[1e308, 1.0], [1.0, 1e308]], False, (((0, 1), (1, 0)), 2.0)),
    ([[1e300, 1e300], [1e300, 1e300]], True, (((0, 0), (1, 1)), 2e300)),
])
def test_costs_near_the_largest_float(cost, drop_gated, expected):
    # A sum of 1e308s could overflow, so they take the LSA route, as they always
    # did; 1e300 is enumerated. The expected outcomes are the LSA route's.
    solution = solve_assignment(AssignmentProblem(cost=np.array(cost)), drop_gated=drop_gated)
    assert (solution.pairs, solution.total_cost) == expected


def test_overflowing_optimum_raises_as_before():
    cost = np.array([[-1e308, 1e308], [1e308, -1e308]])
    with pytest.raises(OverflowError, match="intermediate overflow in fsum"):
        solve_assignment(AssignmentProblem(cost=cost))
