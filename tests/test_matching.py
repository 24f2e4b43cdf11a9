import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from asadeval import matching
from asadeval.matching import build_cost_matrix, iou_matrix, match_corpus, solve_assignment
from asadeval.model import ActorObservation, BoundingBox, VideoRecord
from cost_kinds import KINDS, crowded_boxes_cost, random_boxes, tie_heavy_cost
from support import LEFT, brute_force_lex_pairs, brute_force_min_cost, frame_pairs, iou, iou_tables


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
    # Frames of different sizes and videos share padded stacks; padding must not leak.
    rng = np.random.default_rng(8)
    videos = []
    for _ in range(3):
        gt = {kf: random_boxes(rng, int(rng.integers(0, 5))) for kf in range(12)}
        pred = {kf: random_boxes(rng, int(rng.integers(0, 6))) for kf in range(4, 16)}
        videos.append((gt, pred))
    corpus = match_corpus([(boxes_record(gt), boxes_record(pred)) for gt, pred in videos], 0.5)
    tables = iou_tables(corpus)
    assert len(tables) == len(videos)
    for (gt, pred), table in zip(videos, tables):
        assert list(table) == sorted(kf for kf in range(4, 12) if gt[kf] and pred[kf])
        for kf, matrix in table.items():
            assert matrix.shape == (len(gt[kf]), len(pred[kf]))
            assert not matrix.flags.writeable
            for i, g in enumerate(gt[kf]):
                for j, p in enumerate(pred[kf]):
                    assert matrix[i, j] == iou(g, p)
    gt, pred = videos[0]
    assert iou_tables(match_corpus([(boxes_record({0: gt[4]}), boxes_record({1: pred[4]}))], 0.5)) == [{}]
    assert iou_tables(match_corpus([], 0.5)) == []


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
    cost = build_cost_matrix([g], [p])
    assert cost[0, 0] == pytest.approx(0.4, abs=1e-12)


def test_cost_matrix_gates_below_threshold():
    # IoU 0.4: shared width 2/7 of 0.2-wide boxes -> (2/7)/(12/7)... use 0.4 via overlap 0.1 of 0.25
    g = BoundingBox(0.0, 0.0, 0.2, 0.2)
    p = BoundingBox(0.1, 0.0, 0.3, 0.2)  # IoU 1/3 < 0.5
    cost = build_cost_matrix([g], [p])
    assert cost[0, 0] == 1.0


def test_cost_matrix_empty_predictions():
    g = BoundingBox(0.0, 0.0, 0.2, 0.2)
    cost = build_cost_matrix([g], [])
    assert cost.shape == (1, 0)


def test_solve_single_cell():
    solution = solve_assignment(np.array([[0.2]]))
    assert solution.pairs == ((0, 0),)
    assert solution.total_cost == 0.2


def test_solve_two_by_two():
    cost = np.array([[0.1, 1.0], [1.0, 0.3]])
    solution = solve_assignment(cost)
    assert solution.pairs == ((0, 0), (1, 1))
    assert solution.total_cost == pytest.approx(0.4, abs=1e-15)


def test_solve_all_gated_filters_everything():
    solution = solve_assignment(np.ones((2, 2)))
    assert solution.pairs == ()
    assert solution.total_cost == 2.0


def test_solve_keeps_gated_pairs_when_asked():
    solution = solve_assignment(np.ones((2, 2)), drop_gated=False)
    assert solution.pairs == ((0, 0), (1, 1))


def test_solve_empty_matrix():
    solution = solve_assignment(np.zeros((0, 3)))
    assert solution.pairs == ()
    assert solution.total_cost == 0.0


def test_solve_rejects_non_finite():
    with pytest.raises(ValueError, match="finite"):
        solve_assignment(np.array([[np.inf]]))


@pytest.mark.parametrize("shape", [(3,), (2, 2, 2)])
def test_solve_rejects_a_cost_that_is_no_matrix(shape):
    with pytest.raises(ValueError, match="^cost matrix must be two-dimensional$"):
        solve_assignment(np.zeros(shape))


def test_lexicographic_tie_break():
    # Both diagonals cost 0.6; the smaller pair list wins.
    cost = np.array([[0.1, 0.2], [0.4, 0.5]])
    solution = solve_assignment(cost, drop_gated=False)
    assert solution.pairs == ((0, 0), (1, 1))


def test_oracle_equivalence_on_gated_random_matrices():
    rng = np.random.default_rng(42)
    for _ in range(120):
        n_gt = int(rng.integers(1, 8))
        n_pred = int(rng.integers(1, 8))
        cost = build_cost_matrix(random_boxes(rng, n_gt), random_boxes(rng, n_pred))
        solution = solve_assignment(cost)
        assert solution.total_cost == brute_force_min_cost(cost)


def test_transpose_symmetry():
    rng = np.random.default_rng(9)
    for _ in range(50):
        cost = build_cost_matrix(random_boxes(rng, 5), random_boxes(rng, 4))
        forward = solve_assignment(cost)
        backward = solve_assignment(cost.T)
        assert backward.total_cost == forward.total_cost
        assert sorted((j, i) for i, j in backward.pairs) == sorted(forward.pairs)


def test_gate_soundness_no_pair_below_half_iou():
    rng = np.random.default_rng(17)
    for _ in range(50):
        gts = random_boxes(rng, 5)
        preds = random_boxes(rng, 5)
        cost = build_cost_matrix(gts, preds)
        for i, j in solve_assignment(cost).pairs:
            assert iou(gts[i], preds[j]) >= 0.5


@st.composite
def tie_heavy_costs(draw):
    """Cost matrices of 1-12 rows and columns of every `cost_kinds` kind.

    Half have a shape the enumeration covers: 2 or 3 rows and at most 10
    columns (the test also solves the transpose). A quarter keep only their
    first row, so the single-pair case gets ties and fully gated rows of its
    own.
    """
    if draw(st.booleans()):
        n_rows = draw(st.integers(2, 3))
        n_cols = draw(st.integers(n_rows, 10))
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
# Gated box problems in which a row holding a surviving pair also has tight
# gated pairs that no optimum holds.
@example(crowded_boxes_cost(np.random.default_rng(0), 6, 6))
@example(crowded_boxes_cost(np.random.default_rng(1), 5, 6))
@example(crowded_boxes_cost(np.random.default_rng(0), 12, 12))
def test_tie_break_matches_oracle_and_reference(cost):
    # Both orientations; the oracle up to 6 x 6 and at 1-3 pairs up to 3 x 12,
    # the unpruned search up to 12 x 12.
    for matrix in (cost, cost.T):
        total = solve_assignment(matrix).total_cost
        expected = [reference_lex_pairs(matrix, total)]
        if max(matrix.shape) <= 6 or min(matrix.shape) <= 3:
            oracle_pairs, oracle_total = brute_force_lex_pairs(matrix)
            assert total == oracle_total
            expected.append(oracle_pairs)
        for drop_gated in (True, False):
            solution = solve_assignment(matrix, drop_gated=drop_gated)
            for pairs in expected:
                assert pairs is not None
                assert solution.pairs == tuple(p for p in pairs if not drop_gated or matrix[p] != 1.0)


@pytest.mark.parametrize("shape", [(30, 30), (30, 24), (24, 30)])
def test_reduced_costs_spare_the_sub_solves(shape, monkeypatch):
    # Without the reduced-cost prune the tie search makes hundreds of sub-solves here.
    calls = counted_lsa(monkeypatch)
    cost = np.random.default_rng(shape[0] * 100 + shape[1]).random(shape)
    solution = solve_assignment(cost)
    assert len(calls) <= 30
    assert list(solution.pairs) == reference_lex_pairs(cost, solution.total_cost)


def test_holdable_filter_spares_the_gated_sub_solves(monkeypatch):
    # Crowded gated box problems of about 40 x 40. Most tight pairs here are
    # gated pairs in rows whose surviving pair every optimum holds; without
    # the holdable-pair filter the tie search makes about 100 LSA calls per
    # problem here, with it about 8.
    calls = counted_lsa(monkeypatch)
    rng = np.random.default_rng(40)
    costs = [crowded_boxes_cost(rng, int(r), int(c)) for r, c in rng.integers(36, 45, size=(8, 2))]
    solutions = [solve_assignment(cost) for cost in costs]
    assert len(calls) <= 20 * len(costs)
    monkeypatch.undo()
    for cost, solution in zip(costs, solutions):
        expected = reference_lex_pairs(cost, solution.total_cost)
        assert solution.pairs == tuple(pair for pair in expected if cost[pair] != 1.0)


def counted_lsa(monkeypatch) -> list:
    """The shapes of every `linear_sum_assignment` call `matching` makes from now on."""
    calls = []

    def counting(cost):
        calls.append(cost.shape)
        return linear_sum_assignment(cost)

    monkeypatch.setattr(matching, "linear_sum_assignment", counting)
    return calls


COVERED_SHAPES = [(k, n) for k in (2, 3) for n in range(k, 11)]


@pytest.mark.parametrize("shape", COVERED_SHAPES + [(n, k) for k, n in COVERED_SHAPES if n != k])
def test_covered_shapes_make_no_lsa_call(shape, monkeypatch):
    calls = counted_lsa(monkeypatch)
    rng = np.random.default_rng(shape[0] * 10 + shape[1])
    for kind in KINDS:
        cost = tie_heavy_cost(rng, kind, *shape)
        solution = solve_assignment(cost, drop_gated=False)
        assert list(solution.pairs) == brute_force_lex_pairs(cost)[0]
    assert calls == []


@st.composite
def sole_optimum_costs(draw):
    """A 4-8 x 4-8 cost whose entries below the largest form one full assignment.

    Each lies at least 0.01 below the largest, far beyond rounding of the
    totals, so the assignment's fsum is the least.
    """
    n_rows, n_cols = draw(st.integers(4, 8)), draw(st.integers(4, 8))
    k = min(n_rows, n_cols)
    rows = draw(st.permutations(range(n_rows)))[:k]
    cols = draw(st.permutations(range(n_cols)))[:k]
    top = draw(st.sampled_from([0.0, 1.0, 5.0]))
    below = st.floats(-4.0, top - 0.01)
    cost = np.full((n_rows, n_cols), top)
    for r, c in zip(rows, cols):
        cost[r, c] = draw(below | st.integers(-50, int(top) - 1).map(float))
    return cost


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(sole_optimum_costs())
def test_sole_optimum_costs_match_oracle_and_reference(cost):
    for matrix in (cost, cost.T):
        expected = [reference_lex_pairs(matrix, solve_assignment(matrix).total_cost)]
        if max(matrix.shape) <= 6:
            oracle_pairs, oracle_total = brute_force_lex_pairs(matrix)
            assert solve_assignment(matrix).total_cost == oracle_total
            expected.append(oracle_pairs)
        for drop_gated in (True, False):
            solution = solve_assignment(matrix, drop_gated=drop_gated)
            for pairs in expected:
                assert solution.pairs == tuple(p for p in pairs if not drop_gated or matrix[p] != 1.0)


def test_a_permutation_below_a_common_top_takes_one_lsa_call(monkeypatch):
    # A crowded keyframe where each actor passes the gate with its own
    # prediction only, the negated identity counts of a clean tracking, and
    # generated `permutation` costs of 4 x 4 to 40 x 40, in both orientations.
    # The permutation is the only optimum, so no other pair is holdable and
    # the tie search makes no sub-solve.
    overlaps = np.zeros((12, 14))
    overlaps[np.arange(12), np.arange(2, 14)] = np.linspace(0.55, 0.95, 12)
    counts = np.diag([3.0, 7.0, 1.0, 4.0, 2.0])[[2, 0, 4, 1, 3]]
    rng = np.random.default_rng(32)
    sides = [4, 5, 8, 13, 21, 34, 40]
    costs = [matching.gated_cost(overlaps), -counts]
    costs += [tie_heavy_cost(rng, "permutation", r, c) for r in sides for c in sides for _ in range(2)]
    calls = counted_lsa(monkeypatch)
    for cost in costs:
        for matrix in (cost, cost.T):
            calls.clear()
            solution = solve_assignment(matrix, drop_gated=False)
            assert calls == [matrix.shape]
            assert list(solution.pairs) == sorted(zip(*np.nonzero(matrix < matrix.max()))), matrix.shape


def test_a_rounding_tie_matches_oracle_and_reference():
    # Below-largest entries on (0, 0), (1, 3), (2, 2), (3, 1): in exact arithmetic
    # the only optimum, but its fsum rounds to -1e20, as does the diagonal's, and
    # the diagonal is the lexicographically smaller.
    cost = np.zeros((4, 4))
    cost[0, 0] = -1e20
    cost[1, 3] = cost[2, 2] = cost[3, 1] = -1e-20
    oracle_pairs, oracle_total = brute_force_lex_pairs(cost)
    assert oracle_pairs == [(0, 0), (1, 1), (2, 2), (3, 3)]
    solution = solve_assignment(cost, drop_gated=False)
    assert (list(solution.pairs), solution.total_cost) == (oracle_pairs, oracle_total)
    assert list(solution.pairs) == reference_lex_pairs(cost, solution.total_cost)


@pytest.mark.parametrize("shape", [(4, 4), (2, 11), (3, 11), (11, 3)])
def test_uncovered_shapes_still_use_lsa(shape, monkeypatch):
    calls = counted_lsa(monkeypatch)
    solve_assignment(np.random.default_rng(1).random(shape))
    assert calls


@pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1)])
def test_one_pair_stack_takes_each_first_smallest_entry(shape):
    # Two values only, so most problems tie at their minimum; one argmin over
    # the stack answers each with its first smallest entry in row-major order.
    stack = np.random.default_rng(sum(shape)).choice([0.25, 0.5], size=(60, *shape))
    rows, cols = matching._optimal_pairs(stack, 0.5)
    assert rows.shape == cols.shape == (60, 1)
    ties = 0
    for cost, (row,), (col,) in zip(stack, rows.tolist(), cols.tolist()):
        smallest = [(i, j) for i in range(shape[0]) for j in range(shape[1]) if cost[i, j] == cost.min()]
        assert (row, col) == smallest[0]
        ties += len(smallest) > 1
    assert ties > 20 or shape == (1, 1)


@pytest.mark.parametrize("kind", KINDS)
def test_solve_assignment_is_its_stack_of_one(kind):
    # Every route: one pair, enumeration and LSA. A problem's pairs are the
    # same alone, in a stack of one, and in a stack of six; its total is the
    # least fsum where it is enumerated (the oracle's), and the fsum of
    # scipy's optimum on the LSA route.
    rng = np.random.default_rng(23)
    for shape in [(1, 6), (6, 1), (3, 3), (3, 10), (10, 2), (4, 4), (5, 7), (8, 3)]:
        stack = np.array([tie_heavy_cost(rng, kind, *shape) for _ in range(6)])
        batch = matching._optimal_pairs(stack, float(np.abs(stack).max()))
        for cost, rows, cols in zip(stack, *batch):
            pairs = list(zip(rows.tolist(), cols.tolist()))
            (rows,), (cols,) = matching._optimal_pairs(cost[None], float(np.abs(cost).max()))
            assert list(zip(rows.tolist(), cols.tolist())) == pairs
            solution = solve_assignment(cost, drop_gated=False)
            assert list(solution.pairs) == pairs
            assert solve_assignment(cost).pairs == tuple(p for p in pairs if cost[p] != 1.0)
            if min(shape) > 1 and not matching._enumerable(shape):
                total = math.fsum(cost[linear_sum_assignment(cost)].tolist())
            else:
                total = brute_force_lex_pairs(cost)[1]
            assert solution.total_cost.hex() == total.hex()


def test_gated_pairs_match_solve_assignment_per_keyframe(monkeypatch):
    # One `_optimal_pairs` call per chunk: only the keyframes too large to
    # enumerate reach the tie search, once each, and no keyframe's pairs
    # differ from `solve_assignment`'s.
    rng = np.random.default_rng(4)
    videos = []
    for _ in range(3):
        gt = {kf: random_boxes(rng, int(rng.integers(0, 5))) for kf in range(40)}
        pred = {kf: random_boxes(rng, int(rng.integers(0, 6))) for kf in range(40)}
        for kf in range(0, 40, 5):  # duplicate boxes: gated ties
            pred[kf] = gt[kf] + gt[kf][:1]
        videos.append((boxes_record(gt), boxes_record(pred)))
    corpus = match_corpus(videos, 0.5)
    searched = []
    search = matching._lexicographic_optimal_pairs

    def counting(cost, best, optimum):
        searched.append(cost.shape)
        return search(cost, best, optimum)

    monkeypatch.setattr(matching, "_lexicographic_optimal_pairs", counting)
    corpus.pair_rows
    monkeypatch.undo()
    pairs, tables = frame_pairs(corpus), iou_tables(corpus)
    every = [overlaps for table in tables for overlaps in table.values()]
    lsa_sized = [o.shape for o in every if min(o.shape) > 1 and not matching._enumerable(o.shape)]
    assert sorted(searched) == sorted(lsa_sized)
    assert 0 < len(lsa_sized) < len(every)
    assert [list(video_pairs) for video_pairs in pairs] == [list(table) for table in tables]
    for video_pairs, table in zip(pairs, tables):
        for kf, overlaps in table.items():
            assert video_pairs[kf] == solve_assignment(matching.gated_cost(overlaps, 0.5)).pairs


def test_gated_pairs_bound_each_enumerated_batch(monkeypatch):
    # Many short videos of one wide shape are solved in a few stacked calls that
    # mix videos, each within both entry bounds, so no length raises peak memory.
    rng = np.random.default_rng(12)
    videos = []
    for _ in range(10):
        gt = {kf: random_boxes(rng, 3) for kf in range(10)}
        pred = {kf: gt[kf][:2] + random_boxes(rng, 8) for kf in range(10)}
        gt[10], pred[10] = random_boxes(rng, 2), random_boxes(rng, 2)
        videos.append((boxes_record(gt), boxes_record(pred)))
    batches = []
    enumerated_optima = matching._enumerated_optima

    def recording(stack, scale):
        batches.append(stack.shape)
        return enumerated_optima(stack, scale)

    monkeypatch.setattr(matching, "_enumerated_optima", recording)
    corpus = match_corpus(videos, 0.5)
    corpus.pair_rows
    monkeypatch.undo()
    assert len(batches) == len(corpus.chunks)
    for chunk in corpus.chunks:
        count, *shape = chunk.ious.shape
        assert count == len(chunk.index) and chunk.ious.size <= matching._IOU_BATCH_ENTRIES
        assert count * matching._assignment_table(*shape)[0].size <= matching._ENUMERATED_BATCH_ENTRIES
    wide = [chunk for chunk in corpus.chunks if chunk.ious.shape[1:] == (3, 10)]
    assert sum(len(chunk.index) for chunk in wide) == 100 and 1 < len(wide) < 10
    assert len(set(corpus.keys.video[wide[0].index].tolist())) > 1
    assert [shape[0] for shape in batches if shape[1:] == (2, 2)] == [10]
    for video_pairs, table in zip(frame_pairs(corpus), iou_tables(corpus)):
        for kf, overlaps in table.items():
            assert video_pairs[kf] == solve_assignment(matching.gated_cost(overlaps, 0.5)).pairs


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 3), st.integers(2, 10), st.integers(1, 6), st.randoms(use_true_random=False))
def test_gated_pairs_do_not_depend_on_the_chunk(n_gt, n_pred, n_others, rnd):
    # A keyframe whose every pair passes the gate, so its largest cost is below
    # 1, solved alone and in one chunk with keyframes that hold gated pairs
    # (cost 1). The chunk's largest cost sets how many candidates the
    # enumeration keeps for fsum to decide among, not which one wins.
    # Shifts of a few ulps make candidate totals differ by about 1e-15: kept
    # at the mixed chunk's bound, ruled out at the lone keyframe's.
    def near(box):
        x1, y1, x2, y2 = box
        dx, dy = rnd.choice((0.0, 0.01, 0.01 + 3e-16, 0.01 + 1e-15)), rnd.choice((0.0, 5e-16))
        return BoundingBox(x1 + dx, y1 + dy, x2 + dx, y2 + dy)

    base = (0.2, 0.2, 0.5, 0.5)
    alone = (boxes_record({0: [near(base) for _ in range(n_gt)]}),
             boxes_record({0: [near(base) for _ in range(n_pred)]}))
    others = []
    for _ in range(n_others):
        gt = [BoundingBox(*LEFT)] + [near(base) for _ in range(n_gt - 1)]
        others.append((boxes_record({0: gt}), boxes_record({0: [near(base) for _ in range(n_pred)]})))
    single = match_corpus([alone], 0.3)
    mixed = match_corpus(others[: n_others // 2] + [alone] + others[n_others // 2 :], 0.3)
    (chunk,) = mixed.chunks
    costs = matching.gated_cost(chunk.ious, 0.3)
    assert costs.max() == 1.0 > matching.gated_cost(single.chunks[0].ious, 0.3).max()
    expected = solve_assignment(matching.gated_cost(iou_tables(single)[0][0], 0.3)).pairs
    assert frame_pairs(single)[0][0] == expected
    assert frame_pairs(mixed)[n_others // 2][0] == expected


@pytest.mark.parametrize("cost, drop_gated, expected", [
    ([[1e308, 1.0], [1.0, 1e308]], True, ((), 2.0)),
    ([[1e308, 1.0], [1.0, 1e308]], False, (((0, 1), (1, 0)), 2.0)),
    ([[1e300, 1e300], [1e300, 1e300]], True, (((0, 0), (1, 1)), 2e300)),
])
def test_costs_near_the_largest_float(cost, drop_gated, expected):
    # A sum of 1e308s could overflow, so they take the LSA route, as they always
    # did; 1e300 is enumerated. The expected outcomes are the LSA route's.
    solution = solve_assignment(np.array(cost), drop_gated=drop_gated)
    assert (solution.pairs, solution.total_cost) == expected


def test_overflowing_optimum_raises_as_before():
    cost = np.array([[-1e308, 1e308], [1e308, -1e308]])
    with pytest.raises(OverflowError, match="intermediate overflow in fsum"):
        solve_assignment(cost)


def test_extreme_costs_emit_no_warning():
    # The duals of this LSA-route problem overflow; numpy's warnings about that
    # must not reach the caller, where warnings-as-errors would raise them.
    cost = np.array([[1.0, 0.25], [-1e308, 0.0], [1e308, 0.25]])
    for matrix in (cost, cost.T):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            solution = solve_assignment(matrix)
        assert (solution.pairs, solution.total_cost) == (((0, 1), (1, 0)), -1e308)


# A 4 x 4 problem, so it takes the LSA route: linear_sum_assignment compares
# rounded sums and returns the diagonal, whose fsum is 1 + 2**-52, while
# (0, 2), (1, 0), (2, 1), (3, 3) has fsum 1.
LSA_MISSES_LEAST_FSUM = np.full((4, 4), 5.0)
LSA_MISSES_LEAST_FSUM[:3, :3] = NAIVE_ORDER_REVERSED.T
LSA_MISSES_LEAST_FSUM[3, 3] = 0.0


@pytest.mark.xfail(strict=True, reason="the LSA route's total is the fsum of LSA's optimum, not the least fsum")
def test_lsa_route_total_is_the_least_fsum():
    oracle_pairs, oracle_total = brute_force_lex_pairs(LSA_MISSES_LEAST_FSUM)
    solution = solve_assignment(LSA_MISSES_LEAST_FSUM, drop_gated=False)
    assert (list(solution.pairs), solution.total_cost) == (oracle_pairs, oracle_total)
