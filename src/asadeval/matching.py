"""IoU, gated cost matrices, and exact one-to-one assignment.

The shared matching substrate: `frame_ious` computes a video's overlaps once,
as one read-only GT x prediction IoU matrix per keyframe, for every metric
family to read. `gated_cost` puts exactly 1.0 wherever the IoU gate fails,
so a surviving pair can always be recognized by cost < 1. The solver returns
the exact optimum and, among equal-cost optima, the lexicographically
smallest (row, col) pair list so results are identical across platforms.

Three routes reach that answer. A single-row or single-column problem takes
its first smallest entry. A problem of 2 or 3 pairs with at most
`_ENUMERATED_SIDE` rows and columns enumerates every assignment from a
per-shape table: numpy sums rule out all but the candidates within a
rounding bound of the minimum, and `math.fsum` picks among those.
`gated_pairs` solves all of a video's same-shape keyframes in one such call.
Any other problem takes one `linear_sum_assignment`; the reduced costs of its
optimal duals rule out every pair no optimum can hold, and the tie search
confirms each remaining pair by comparing `math.fsum` totals with the
optimum's. There is no fallback to the solver's own order.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from .model import BoundingBox, VideoRecord

DEFAULT_IOU_GATE = 0.5
# Entries per batched IoU call: bounds the temporaries at 64 KiB each.
_IOU_BATCH_ENTRIES = 8192
# One video's IoU table, as `frame_ious` returns it: keyframe -> IoU matrix.
IouTable = dict[int, np.ndarray]
# Enumeration covers 2 or 3 pairs with at most this many rows and columns:
# at most 6 * 5 * 4 = 120 candidates, where one LSA and the duals cost more.
_ENUMERATED_SIDE = 6
# Largest |cost| enumerated: a sum of three such terms, and the difference of
# two such sums, stay below the largest float.
_ENUMERATED_MAX_COST = 2.0**1021


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection over union of two boxes; 0 when disjoint, symmetric."""
    ix1 = max(a.x1, b.x1)
    iy1 = max(a.y1, b.y1)
    ix2 = min(a.x2, b.x2)
    iy2 = min(a.y2, b.y2)
    iw = ix2 - ix1
    ih = iy2 - iy1
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    union = a.area() + b.area() - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def boxes_to_array(boxes: Sequence[BoundingBox]) -> np.ndarray:
    """Stack boxes into an (n, 4) float array of x1, y1, x2, y2."""
    if not boxes:
        return np.zeros((0, 4), dtype=float)
    return np.array([[b.x1, b.y1, b.x2, b.y2] for b in boxes], dtype=float)


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise IoU between (..., n, 4) and (..., m, 4) arrays of corner boxes.

    Leading dimensions broadcast. Entries take `iou`'s float operations in its order.
    """
    ix1 = np.maximum(a[..., :, None, 0], b[..., None, :, 0])
    iy1 = np.maximum(a[..., :, None, 1], b[..., None, :, 1])
    ix2 = np.minimum(a[..., :, None, 2], b[..., None, :, 2])
    iy2 = np.minimum(a[..., :, None, 3], b[..., None, :, 3])
    iw = np.clip(ix2 - ix1, 0.0, None)
    ih = np.clip(iy2 - iy1, 0.0, None)
    inter = iw * ih
    area_a = (a[..., 2] - a[..., 0]) * (a[..., 3] - a[..., 1])
    area_b = (b[..., 2] - b[..., 0]) * (b[..., 3] - b[..., 1])
    union = area_a[..., :, None] + area_b[..., None, :] - inter
    out = np.zeros_like(inter)
    np.divide(inter, union, out=out, where=union > 0)
    return out


def check_gate(iou_threshold: float) -> None:
    """Reject an IoU gate outside (0, 1)."""
    if not (0.0 < iou_threshold < 1.0):
        raise ValueError("iou_threshold must lie in (0, 1)")


def frame_ious(gt: VideoRecord, pred: VideoRecord) -> IouTable:
    """The read-only IoU matrix of every keyframe with boxes on both sides, ascending.

    Rows and columns are the keyframe's GT and predictions in frame order.
    Same-shape frames share `iou_matrix` calls of bounded size: the entries
    of one call per frame, at far less cost when frames are small.
    """
    by_shape: dict[tuple[int, int], list[int]] = {}
    for keyframe in sorted(gt.frames.keys() & pred.frames.keys()):
        by_shape.setdefault((len(gt.frames[keyframe]), len(pred.frames[keyframe])), []).append(keyframe)
    ious: IouTable = {}
    for (n_gt, n_pred), keyframes in by_shape.items():
        step = max(1, _IOU_BATCH_ENTRIES // (n_gt * n_pred))
        for start in range(0, len(keyframes), step):
            chunk = keyframes[start : start + step]
            a = boxes_to_array([o.box for kf in chunk for o in gt.frames[kf]])
            b = boxes_to_array([o.box for kf in chunk for o in pred.frames[kf]])
            stack = iou_matrix(a.reshape(-1, n_gt, 4), b.reshape(-1, n_pred, 4))
            stack.setflags(write=False)
            ious.update(zip(chunk, stack))
    return {keyframe: ious[keyframe] for keyframe in sorted(ious)}


@dataclass(frozen=True)
class AssignmentProblem:
    """Dense matching-distance matrix: rows = ground truth, cols = predictions.

    Every entry lies in [0, 1]; gated entries (IoU below the gate) are
    exactly 1.0, surviving entries equal 1 - IoU.
    """

    cost: np.ndarray


@dataclass(frozen=True)
class Assignment:
    """A one-to-one assignment after the gate filter.

    ``pairs`` holds the surviving (row, col) matches sorted lexicographically;
    pairs whose cost is exactly 1 (failed gate) have been removed.
    ``total_cost`` is the solver objective: the minimum total cost over all
    assignments of size min(rows, cols), measured before the gate filter.
    """

    pairs: tuple[tuple[int, int], ...]
    total_cost: float


def build_cost_matrix(
    gt: Sequence[BoundingBox],
    pred: Sequence[BoundingBox],
    gate: float = DEFAULT_IOU_GATE,
) -> AssignmentProblem:
    """Gated matching distance of two box lists (see `gated_cost`)."""
    return gated_cost(iou_matrix(boxes_to_array(gt), boxes_to_array(pred)), gate)


def gated_cost(overlaps: np.ndarray, gate: float = DEFAULT_IOU_GATE) -> AssignmentProblem:
    """Gated matching distance of an IoU matrix: 1 where IoU < gate, else 1 - IoU."""
    return AssignmentProblem(cost=_gated(overlaps, gate))


def _gated(overlaps: np.ndarray, gate: float) -> np.ndarray:
    """`gated_cost`'s entries, for an IoU array of any shape."""
    return np.where(overlaps >= gate, 1.0 - overlaps, 1.0)


def gated_pairs(ious: IouTable, gate: float = DEFAULT_IOU_GATE) -> dict[int, tuple[tuple[int, int], ...]]:
    """The gated pairs, `solve_assignment(gated_cost(overlaps, gate)).pairs`, of every keyframe.

    Keyframes keep the table's order. All keyframes of one shape that the
    enumeration covers are solved in one call, the way `frame_ious` batches
    its IoUs; the rest go through `solve_assignment` one by one.
    """
    by_shape: dict[tuple[int, int], list[int]] = {}
    for keyframe, overlaps in ious.items():
        by_shape.setdefault(overlaps.shape, []).append(keyframe)
    solved: dict[int, tuple[tuple[int, int], ...]] = {}
    for shape, keyframes in by_shape.items():
        costs = _gated(np.stack([ious[keyframe] for keyframe in keyframes]), gate)
        scale = float(np.abs(costs).max())
        if _enumerable(shape) and scale <= _ENUMERATED_MAX_COST:
            _, _, candidates = _assignment_table(*shape)
            for keyframe, cost, index in zip(keyframes, costs, _enumerated_optima(costs, scale)):
                solved[keyframe] = tuple(pair for pair in candidates[index] if cost[pair] != 1.0)
        else:
            for keyframe, cost in zip(keyframes, costs):
                solved[keyframe] = solve_assignment(AssignmentProblem(cost=cost)).pairs
    return {keyframe: solved[keyframe] for keyframe in ious}


def solve_assignment(problem: AssignmentProblem, drop_gated: bool = True) -> Assignment:
    """Exact minimum-cost one-to-one assignment with deterministic ties.

    Minimizes total cost over all assignments of size min(rows, cols); among
    equal-cost optima the lexicographically smallest (row, col) pair list is
    chosen. A single-row or single-column problem takes its first smallest
    entry, and a shape the enumeration covers takes `_enumerated_optima`
    unless a cost exceeds `_ENUMERATED_MAX_COST`. Otherwise one
    `linear_sum_assignment` finds the optimum; its optimal duals rule out the
    pairs no optimum can hold, and `math.fsum` confirms each remaining pair
    the tie search keeps (see `_lexicographic_optimal_pairs`). There is no
    fallback: every route returns a pair list. With ``drop_gated`` (the
    default), pairs whose cost is exactly 1 are then removed from the result,
    so every surviving pair passed the IoU gate. Callers doing their own
    thresholding (e.g. trackers) pass False.
    """
    cost = np.asarray(problem.cost, dtype=float)
    if cost.ndim != 2:
        raise ValueError("cost matrix must be two-dimensional")
    n_rows, n_cols = cost.shape
    if min(n_rows, n_cols) == 0:
        return Assignment(pairs=(), total_cost=0.0)
    scale = float(np.abs(cost).max())
    if not math.isfinite(scale):
        raise ValueError("cost matrix must be finite")

    if min(n_rows, n_cols) == 1:
        # One pair: the optimum is a smallest entry, and the lexicographically
        # smallest among them is the first in row-major order.
        pairs = [divmod(int(np.argmin(cost)), n_cols)]
        best = math.fsum([float(cost[pairs[0]])])
    elif _enumerable(cost.shape) and scale <= _ENUMERATED_MAX_COST:
        _, _, candidates = _assignment_table(n_rows, n_cols)
        (index,) = _enumerated_optima(cost[None], scale)
        pairs = candidates[index]
        best = math.fsum([float(cost[pair]) for pair in pairs])
    else:
        rows, cols = linear_sum_assignment(cost)
        optimum = list(zip(rows.tolist(), cols.tolist()))
        best = math.fsum(float(cost[r, c]) for r, c in optimum)
        pairs = _lexicographic_optimal_pairs(cost, best, optimum)
    if drop_gated:
        kept = tuple((i, j) for i, j in pairs if cost[i, j] != 1.0)
    else:
        kept = tuple(pairs)
    return Assignment(pairs=kept, total_cost=best)


def _enumerable(shape: tuple[int, ...]) -> bool:
    """Whether `_enumerated_optima` covers problems of this shape."""
    return min(shape) in (2, 3) and max(shape) <= _ENUMERATED_SIDE


@functools.cache
def _assignment_table(
    n_rows: int, n_cols: int
) -> tuple[np.ndarray, np.ndarray, tuple[tuple[tuple[int, int], ...], ...]]:
    """Every assignment of size k = min(n_rows, n_cols), ascending by sorted pair list.

    Returns the row and the column indices, each (candidates, k), and the
    pair lists themselves. The first of several equal totals is thus the
    lexicographically smallest assignment.
    """
    if n_rows <= n_cols:
        lists = (zip(range(n_rows), cols) for cols in itertools.permutations(range(n_cols), n_rows))
    else:
        lists = (zip(rows, range(n_cols)) for rows in itertools.permutations(range(n_rows), n_cols))
    candidates = tuple(sorted(tuple(sorted(pairs)) for pairs in lists))
    table = np.array(candidates)
    table.setflags(write=False)
    return table[..., 0], table[..., 1], candidates


def _enumerated_optima(stack: np.ndarray, scale: float) -> list[int]:
    """For each problem of a (B, rows, cols) stack, the `_assignment_table` index of its answer.

    The answer is the first candidate of least `math.fsum` total: the
    lexicographically smallest optimum. ``scale`` bounds every |cost| in the
    stack and may be at most `_ENUMERATED_MAX_COST`, so no sum overflows.
    """
    _, n_rows, n_cols = stack.shape
    k = min(n_rows, n_cols)
    rows, cols, _ = _assignment_table(n_rows, n_cols)
    entries = stack[:, rows, cols]
    sums = entries.sum(axis=2)
    # Keep every candidate whose fsum may be the least. With u = 2**-53 and
    # M = ``scale``, a numpy sum n_t of k terms errs from the exact total s_t
    # by at most (k - 1)·u·sum|c| <= (k - 1)·u·k·M (Jeannerod and Rump, SIAM
    # J. Matrix Anal. Appl. 34, 2013), and fsum f_t = fl(s_t) by at most
    # u·|s_t| <= u·k·M. So n_t <= f_t + k²uM and f_t <= n_t + k²uM. If f_t is
    # least, then against the candidate t0 of least numpy sum m:
    #     n_t <= f_t + k²uM <= f_t0 + k²uM <= m + 2k²uM.
    # The test allows twice that, 4k²uM = k²·M·2**-51, so neither the rounding
    # nor an underflow of the bound's own product can drop a candidate, and
    # the difference n_t - m rounds monotonically.
    kept = sums - sums.min(axis=1, keepdims=True) <= k * k * 2.0**-51 * scale
    answers = kept.argmax(axis=1).tolist()
    for i, count in enumerate(np.count_nonzero(kept, axis=1).tolist()):
        if count > 1:
            candidates = np.flatnonzero(kept[i]).tolist()
            totals = [math.fsum(entries[i, t].tolist()) for t in candidates]
            answers[i] = candidates[totals.index(min(totals))]
    return answers


def _tight_pairs(cost: np.ndarray, optimum: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """The (row, col) pairs, ascending, that some minimum-cost assignment may hold.

    Optimal duals u, v come from ``optimum``, an optimal assignment, extended
    to a perfect matching of the zero-padded square problem: row potentials
    are shortest distances in its residual graph (Bellman-Ford from a virtual
    source, at most n vectorised relaxations) and column potentials make every
    matched pair tight. Every assignment holding (i, j) then costs at least
    the optimum plus the reduced cost ``c_ij - u_i - v_j``, so a pair whose
    reduced cost exceeds a tolerance far above the duals' rounding error lies
    on no optimum.
    """
    n_rows, n_cols = cost.shape
    n = max(n_rows, n_cols)
    square = np.zeros((n, n))
    square[:n_rows, :n_cols] = cost
    matched_col = dict(optimum)
    spare_cols = iter(sorted(set(range(n)).difference(matched_col.values())))
    col_of = [matched_col[i] if i in matched_col else next(spare_cols) for i in range(n)]
    matched = square[range(n), col_of]
    # shift[i, k]: cost change of moving row i onto row k's column; shift[i, i] == 0,
    # so a relaxation never raises a potential.
    shift = square[:, col_of] - matched
    u = np.zeros(n)
    for _ in range(n):
        relaxed = (shift + u).min(axis=1)
        if not (relaxed < u).any():
            break
        u = relaxed
    v = np.empty(n)
    v[col_of] = matched - u
    reduced = (square - u[:, None] - v)[:n_rows, :n_cols]
    tolerance = 1e-9 * (1.0 + float(np.abs(cost).max())) * n
    return list(zip(*(index.tolist() for index in np.nonzero(reduced <= tolerance))))


def _lexicographic_optimal_pairs(
    cost: np.ndarray, best: float, optimum: list[tuple[int, int]]
) -> list[tuple[int, int]]:
    """Smallest (row, col) pair list among all minimum-cost assignments.

    Fixes pairs greedily in lexicographic order, keeping a candidate only if
    the remaining submatrix still completes to the optimal total ``best``.
    Totals are compared through math.fsum, so assignments with equal
    real-valued cost compare equal regardless of summation order.

    Two facts spare almost every sub-solve. A candidate outside
    `_tight_pairs` lies on no optimum, so it is skipped. And a known optimal
    completion of the pairs fixed so far is carried along: ``optimum`` at
    first, then the sub-solve of the last candidate kept. Its smallest pair
    completes to ``best`` by that same fsum, so the scan accepts it without a
    solve once every earlier candidate has failed; it always gets that far.
    """
    n_rows, n_cols = cost.shape
    k = min(n_rows, n_cols)
    tight = _tight_pairs(cost, optimum)
    completion = sorted(optimum)
    pairs: list[tuple[int, int]] = []
    fixed: list[float] = []
    free_cols = list(range(n_cols))
    row_start = 0
    while len(pairs) < k:
        need = k - len(pairs) - 1
        known = completion[0]
        accepted, completion = known, completion[1:]
        for i, j in tight[bisect.bisect_left(tight, (row_start, 0)) :]:
            if (i, j) >= known:
                break
            if j not in free_cols:
                continue
            candidate = fixed + [float(cost[i, j])]
            rest: list[tuple[int, int]] = []
            if need:
                rest_cols = [c for c in free_cols if c != j]
                sub = cost[i + 1 :, rest_cols]
                sr, sc = linear_sum_assignment(sub)
                candidate += [float(sub[r, c]) for r, c in zip(sr, sc)]
                rest = [(i + 1 + r, rest_cols[c]) for r, c in zip(sr.tolist(), sc.tolist())]
            if math.fsum(candidate) == best:
                accepted, completion = (i, j), sorted(rest)
                break
        pairs.append(accepted)
        fixed.append(float(cost[accepted]))
        free_cols.remove(accepted[1])
        row_start = accepted[0] + 1
    return pairs
