import itertools
import math

import numpy as np
import pytest

from asadeval.matching import (
    AssignmentProblem,
    build_cost_matrix,
    frame_ious,
    iou,
    iou_matrix,
    solve_assignment,
)
from asadeval.model import ActorObservation, BoundingBox, VideoRecord


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
    n_rows, n_cols = cost.shape
    best = math.inf
    if n_rows <= n_cols:
        for cols in itertools.permutations(range(n_cols), n_rows):
            total = math.fsum(float(cost[i, c]) for i, c in enumerate(cols))
            best = min(best, total)
    else:
        for rows in itertools.permutations(range(n_rows), n_cols):
            total = math.fsum(float(cost[r, j]) for j, r in enumerate(rows))
            best = min(best, total)
    return best


def random_boxes(rng: np.random.Generator, count: int) -> list[BoundingBox]:
    boxes = []
    for _ in range(count):
        x1, y1 = rng.uniform(0.0, 0.7, size=2)
        w, h = rng.uniform(0.05, 0.3, size=2)
        boxes.append(BoundingBox(x1, y1, min(x1 + w, 1.0), min(y1 + h, 1.0)))
    return boxes


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
