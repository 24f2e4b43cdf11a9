"""IoU, gated cost matrices, and exact one-to-one assignment.

The shared matching substrate: `match_corpus` matches a corpus once, for
every metric reader to take. It holds one read-only GT x prediction IoU
matrix per keyframe of each video, and on first read the corpus's gated
pairs and AP's greedy TP flags, as rows of its columns. It batches the
keyframes of all videos by shape, gathering their boxes from the records'
column tables (`model._Table`) by row index into chunks that keep those rows,
so a corpus of short videos of a few shapes takes a few numpy calls, not a
few per video, and the pairs and flags one call per chunk. `gated_cost` puts
exactly 1.0 wherever the IoU gate fails, so a surviving pair can always be
recognized by cost < 1.
Every assignment the package solves (IDF1's identity pairing and the online
tracker's included) gets the exact optimum and, among equal-cost optima, the
lexicographically smallest (row, col) pair list, so results are identical
across platforms. `solve_assignment` solves one problem, and a corpus's gated
pairs are solved a chunk of same-shape keyframes at a time, across videos;
both go through `_optimal_pairs`, which takes a stack of same-shape problems.

Three routes reach that answer, and `_optimal_pairs` alone chooses among
them. A single-row or single-column problem takes its first smallest entry,
one `argmin` for the whole stack. A problem of 2 or 3 pairs with at most
`_ENUMERATED_SIDE` rows and columns enumerates every assignment from a
per-shape table, one call for the whole stack: numpy sums rule out all but
the candidates within a rounding bound of the minimum, and `math.fsum` picks
among those. Any other problem takes one `linear_sum_assignment`; the
reduced costs of its optimal duals rule out every pair no optimum can hold,
and the tie search confirms each remaining pair by comparing `math.fsum`
totals with the optimum's. There is no fallback to the solver's own order.

The solver is scipy's shortest-augmenting-path routine (Crouse 2016), the C
extension `scipy.optimize._lsap`, which the first `linear_sum_assignment`
call loads from its file (`_solver`), not this module. Loading it alone
takes under a millisecond and well under 1 MB; `import scipy.optimize`,
which runs the whole package's `__init__` to reach the same function, takes
about 0.4 s and about 48 MB, half of a solving command's peak memory.
Commands that never solve an assignment too large to enumerate load no
scipy module at all: `synth`, `track --mode offline`, `--help`,
`--version`, input errors, and an `evaluate` whose every keyframe and
identity pairing fits in 3 x 10 or 10 x 3, such as a corpus of three-actor
scenes.

The pairs the duals leave (the tight graph, zero-padded to a square) still
include many that no optimum holds: in a crowded keyframe, a gated pair in a
row whose surviving pair is matched is often tight. The optima are exactly
the perfect matchings of the tight graph (Kuhn 1955), so the tie search
sub-solves only the tight pairs that some such matching holds, the pairs on
an alternating cycle (Tassa 2012), and skips the rest unsolved. A skipped
candidate's completion is a full assignment holding a pair outside every
tight perfect matching; padded, it holds a non-tight pair, so the reduced-cost
bound puts its fsum above the optimum's. Which pairs lie on a cycle is found
only once a candidate needs it, and only among the rows with a tight step in
and out besides their own pair (the cycle core), a few rows of a crowded
keyframe. A problem whose tight graph holds the optimum's pairs alone has
that optimum as its answer at once, with no sub-solve and no closure; a
keyframe where each actor passes the gate with its own prediction only, or
the identity counts of a clean tracking, usually is one. Otherwise the
search is one sorted pass over the candidates: a rejected sub-solve changes
neither the pairs fixed so far nor the known optimal completion, so the
candidates to try are all known before the first sub-solve, and only an
accepted one starts a new pass, over the rows past it.
"""

from __future__ import annotations

import bisect
import functools
import importlib.machinery
import importlib.util
import itertools
import math
import os
import sys
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .model import BoundingBox, VideoRecord

DEFAULT_IOU_GATE = 0.5
# Entries per batched IoU call: bounds the temporaries at 64 KiB each.
_IOU_BATCH_ENTRIES = 8192
# Enumeration covers 2 or 3 pairs with at most this many rows and columns:
# at most 10 * 9 * 8 = 720 candidates. Up to that side one enumeration takes
# a half to a quarter of the time of one LSA with its duals (2 x 6 to 3 x 10,
# on gated box costs and IDF1-style counts). Past it the gain shrinks (3 x 12:
# about 0.8 of the LSA route) while the table grows to 1320 candidates.
_ENUMERATED_SIDE = 10
# Candidate entries per batched enumeration (problems x candidates x pairs):
# bounds its temporaries at 256 KiB each, whatever the corpus's size.
_ENUMERATED_BATCH_ENTRIES = 2**15
# Largest |cost| enumerated: a sum of three such terms, and the difference of
# two such sums, stay below the largest float.
_ENUMERATED_MAX_COST = 2.0**1021
# The C extension that holds scipy's `linear_sum_assignment`.
_LSAP = "scipy.optimize._lsap"


def linear_sum_assignment(cost) -> tuple[np.ndarray, np.ndarray]:
    """`scipy.optimize.linear_sum_assignment`, with its C extension loaded on the first call (`_solver`).

    The solver waits until a problem needs it: `evaluate` and `track --mode
    online` load it at their first assignment too large to enumerate (one
    with 4 or more pairs, or with more than `_ENUMERATED_SIDE` rows or
    columns). `synth`, `track --mode offline`, `--help`, `--version` and
    input errors never do, nor does an `evaluate` of scenes with at most 3
    actors, at most 10 predictions a keyframe and at most 10 predicted
    identities overlapping the actors.
    This is the package's only use of scipy. `_optimal_pairs` calls it once
    per problem its LSA route takes, and the tie search
    (`_lexicographic_optimal_pairs`) once per sub-solve. After the first
    call, `_solver` is a cache lookup.
    """
    return _solver()(cost)


@functools.cache
def _solver():
    """scipy's C solver, `_LSAP`'s `linear_sum_assignment`, loaded once from its file (`_lsap_file`).

    The extension is loaded under its own dotted name without running
    `scipy/optimize/__init__.py`, and put in `sys.modules`, so a later
    `import scipy.optimize` reuses it: its `linear_sum_assignment` is then
    this same function. Where `scipy.optimize` is already imported, or the
    file is missing or fails to load, the solver is `scipy.optimize`'s.
    """
    if "scipy.optimize" not in sys.modules:
        try:
            path = _lsap_file()
            if path is not None:
                spec = importlib.util.spec_from_file_location(_LSAP, path)
                module = importlib.util.module_from_spec(spec)
                spec.loader.exec_module(module)
                sys.modules[_LSAP] = module
                return module.linear_sum_assignment
        except (ImportError, OSError):
            pass
    from scipy.optimize import linear_sum_assignment as solve

    return solve


def _lsap_file() -> Optional[str]:
    """The `_LSAP` extension's file in scipy's `optimize` folder, or None if there is none.

    scipy is found without being imported, and each suffix of
    `importlib.machinery.EXTENSION_SUFFIXES` is tried in turn.
    """
    spec = importlib.util.find_spec("scipy")
    for folder in (spec.submodule_search_locations or ()) if spec else ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(folder, "optimize", "_lsap" + suffix)
            if os.path.isfile(path):
                return path
    return None


def boxes_to_array(boxes: Sequence[BoundingBox]) -> np.ndarray:
    """Stack boxes into an (n, 4) float array of x1, y1, x2, y2."""
    if not boxes:
        return np.zeros((0, 4), dtype=float)
    return np.array([[b.x1, b.y1, b.x2, b.y2] for b in boxes], dtype=float)


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise IoU between (..., n, 4) and (..., m, 4) arrays of corner boxes.

    Leading dimensions broadcast; an entry is 0 where the boxes are disjoint
    or the union is not positive. The tests' scalar oracle (`iou` in
    `tests/support.py`) takes the same float operations in the same order.
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


class _Columns(NamedTuple):
    """One side of a corpus: its videos' `_Table` rows, concatenated in video order.

    Video ``v``'s rows are ``offsets[v]:offsets[v + 1]``; ``actors`` keeps each
    row's code within its own record.
    """

    offsets: np.ndarray  # (videos + 1,)
    boxes: np.ndarray  # (rows, 4)
    scores: np.ndarray
    actors: np.ndarray

    @classmethod
    def of(cls, records: Sequence[VideoRecord]) -> _Columns:
        tables = [VideoRecord("")._table] + [record._table for record in records]  # one even with no record
        offsets = np.cumsum([len(table.actors) for table in tables])
        return cls(offsets, *(np.concatenate([getattr(table, name) for table in tables]) for name in cls._fields[1:]))


class _Keys(NamedTuple):
    """The keyframes of a corpus with boxes on both sides, in corpus order: by video, then keyframe.

    Key ``k`` lies in chunk ``chunks[chunk[k]]`` at ``slot[k]``: its IoU matrix
    is that chunk's ``ious[slot[k]]``, and its GT and prediction rows (of the
    corpus's `_Columns`) are its ``rows[slot[k]]`` and ``cols[slot[k]]``.
    """

    video: np.ndarray
    chunk: np.ndarray
    slot: np.ndarray


class _Pairs(NamedTuple):
    """A corpus's gated pairs as rows of its GT and prediction `_Columns`, in key order.

    Key ``k``'s pairs are ``bounds[k]:bounds[k + 1]``, sorted as
    `solve_assignment` sorts them.
    """

    gt: np.ndarray
    pred: np.ndarray
    bounds: np.ndarray  # (keys + 1,)


@dataclass(frozen=True)
class _Chunk:
    """Same-shape keyframes of a corpus and their stacked IoU matrices."""

    index: np.ndarray  # the keyframes' positions in the corpus's `_Keys`, ascending
    ious: np.ndarray  # (len(index), n_gt, n_pred), read-only
    rows: np.ndarray  # (len(index), n_gt): each keyframe's GT rows
    cols: np.ndarray  # (len(index), n_pred): each keyframe's prediction rows


@dataclass(frozen=True)
class _CorpusMatch:
    """A corpus's per-keyframe matching at one gate, which every metric reader takes.

    ``videos`` holds the ``(gt, pred)`` records, and ``gt`` and ``pred`` their
    column tables, concatenated (`_Columns`). ``keys`` lists the keyframes
    with boxes on both sides (`_Keys`), and ``chunks`` the same-shape batches
    their IoU matrices were computed in, GT x prediction, rows and columns in
    frame order. `pair_rows` and `flags` are computed for the whole corpus
    on first read, one batched call per chunk, so a reader that needs
    neither costs neither: `idf1` reads neither, `average_precision` only
    `flags`, and `match_pairs`, `mt_ml` and `id_switches` only `pair_rows`.
    The object spans the corpus rather than one video so that both stay
    lazy and still take one call per chunk across videos: a per-video object
    would have to compute them eagerly or refer back to its corpus.
    """

    videos: Sequence[tuple[VideoRecord, VideoRecord]]
    gate: float
    gt: _Columns
    pred: _Columns
    keys: _Keys
    chunks: list[_Chunk]

    @functools.cached_property
    def pair_rows(self) -> _Pairs:
        """Every keyframe's gated pairs, `solve_assignment(gated_cost(overlaps, gate)).pairs`, as `_Pairs`.

        One `_optimal_pairs` call per chunk, whatever its shape and whatever
        videos it mixes, then one gate filter over the chunk's pairs. On the
        enumeration route the chunk's largest cost only widens the candidates
        that `math.fsum` decides among, and the other routes solve each
        keyframe alone, so a keyframe's pairs do not depend on its chunk. The
        chunks' bound keeps peak memory level however long the corpus.
        """
        members, gts, preds = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]
        for chunk in self.chunks:
            costs = gated_cost(chunk.ious, self.gate)
            # Gated costs lie in [0, 1], far below `_ENUMERATED_MAX_COST`.
            rows, cols = _optimal_pairs(costs, float(costs.max()))
            kept = costs[np.arange(len(costs))[:, None], rows, cols] != 1.0
            member = np.nonzero(kept)[0]
            members.append(chunk.index[member])
            gts.append(chunk.rows[member, rows[kept]])
            preds.append(chunk.cols[member, cols[kept]])
        keys = np.concatenate(members)
        order = np.argsort(keys, kind="stable")
        bounds = np.searchsorted(keys[order], np.arange(len(self.keys.video) + 1))
        return _Pairs(np.concatenate(gts)[order], np.concatenate(preds)[order], bounds)

    @functools.cached_property
    def flags(self) -> np.ndarray:
        """Every prediction's TP flag under AP's greedy matching, one per row of ``pred``, beside its ``scores``.

        One `_greedy_flags` call per chunk; a prediction at a keyframe
        without ground truth is a false positive.
        """
        flags = np.zeros(len(self.pred.scores), dtype=bool)
        for chunk in self.chunks:
            flags[chunk.cols] = _greedy_flags(chunk.ious, self.pred.scores[chunk.cols], self.gate)
        return flags

    @functools.cached_property
    def video_pairs(self) -> list[int]:
        """Where each video's pairs start in `pair_rows`, then the pair count."""
        return self.pair_rows.bounds[np.searchsorted(self.keys.video, np.arange(len(self.videos) + 1))].tolist()


def match_corpus(videos: Sequence[tuple[VideoRecord, VideoRecord]], gate: float) -> _CorpusMatch:
    """The matching of every keyframe with boxes on both sides, for each ``(gt, pred)`` video, at ``gate``.

    A gate outside (0, 1) is a ValueError. The keyframes of every video,
    taken in order, are grouped by shape, and each group is cut into chunks
    of at most `_IOU_BATCH_ENTRIES` IoU entries and, for a shape the
    enumeration covers, `_ENUMERATED_BATCH_ENTRIES` candidate entries: one
    `iou_matrix` call a chunk, on boxes gathered from the records' column
    tables by row index, whose stack the gated pairs and the AP flags read
    in turn. A corpus of short videos of a few shapes thus takes a few
    calls, not a few per video.
    """
    check_gate(gate)
    gt, pred = _Columns.of([g for g, _ in videos]), _Columns.of([p for _, p in videos])
    key_video, gt_first, n_gt, pred_first, n_pred = [], [], [], [], []
    for v, (g, p) in enumerate(videos):
        g, p = g._table, p._table
        # Python ints compare exactly, whatever their size.
        pred_code = {keyframe: code for code, keyframe in enumerate(p.keyframes)}
        common = [(code, pred_code[keyframe]) for code, keyframe in enumerate(g.keyframes) if keyframe in pred_code]
        gi, pi = np.array(common, np.int64).reshape(-1, 2).T
        key_video.append(np.full(len(gi), v))
        gt_first.append(gt.offsets[v] + g.bounds[gi])
        n_gt.append(g.bounds[gi + 1] - g.bounds[gi])
        pred_first.append(pred.offsets[v] + p.bounds[pi])
        n_pred.append(p.bounds[pi + 1] - p.bounds[pi])
    key_video, gt_first, n_gt, pred_first, n_pred = (
        np.concatenate([np.zeros(0, np.int64), *parts]) for parts in (key_video, gt_first, n_gt, pred_first, n_pred)
    )

    by_shape: dict[tuple[int, int], list[int]] = {}
    for key, shape in enumerate(zip(n_gt.tolist(), n_pred.tolist())):
        by_shape.setdefault(shape, []).append(key)
    key_chunk, key_slot = np.zeros(len(key_video), np.int64), np.zeros(len(key_video), np.int64)
    chunks: list[_Chunk] = []
    for shape, members in by_shape.items():
        step = max(1, _IOU_BATCH_ENTRIES // (shape[0] * shape[1]))
        if _enumerable(shape):
            step = min(step, max(1, _ENUMERATED_BATCH_ENTRIES // _assignment_table(*shape)[0].size))
        for start in range(0, len(members), step):
            index = np.array(members[start : start + step])
            rows = gt_first[index, None] + np.arange(shape[0])
            cols = pred_first[index, None] + np.arange(shape[1])
            stack = iou_matrix(gt.boxes[rows], pred.boxes[cols])
            stack.setflags(write=False)
            key_chunk[index] = len(chunks)
            key_slot[index] = np.arange(len(index))
            chunks.append(_Chunk(index, stack, rows, cols))
    keys = _Keys(key_video, key_chunk, key_slot)
    return _CorpusMatch(videos, gate, gt, pred, keys, chunks)


def _greedy_flags(overlaps: np.ndarray, scores: np.ndarray, iou_threshold: float) -> np.ndarray:
    """AP's TP flags, (B, n_pred), of a (B, n_gt, n_pred) IoU stack and its (B, n_pred) scores.

    Each keyframe's predictions are visited in descending score, equal
    scores in column order (a stable sort), and each claims the unclaimed
    ground-truth row of highest IoU if that IoU reaches the gate; one numpy
    step per rank position for the whole stack.
    """
    count, n_gt, n_pred = overlaps.shape
    flags = np.zeros((count, n_pred), dtype=bool)
    if n_gt == 0:
        return flags
    # A claimed row is set to -1 in a copy so it never wins again; argmax keeps
    # the first of equal overlaps, as a strict ">" scan over the rows would.
    overlaps = overlaps.copy()
    batch = np.arange(count)
    for column in np.argsort(-scores, axis=1, kind="stable").T:
        column_ious = overlaps[batch, :, column]
        best = column_ious.argmax(axis=1)
        hit = column_ious[batch, best] >= iou_threshold
        overlaps[batch[hit], best[hit], :] = -1.0
        flags[batch, column] = hit
    return flags


@dataclass(frozen=True)
class Assignment:
    """A one-to-one assignment after the gate filter.

    ``pairs`` holds the (row, col) matches sorted lexicographically. Unless
    `solve_assignment` was called with ``drop_gated=False``, as the
    trackers and IDF1's identity pairing call it, pairs whose cost is
    exactly 1 (failed gate) have been removed.
    ``total_cost`` is the solver objective: the minimum total cost over all
    assignments of size min(rows, cols), measured before the gate filter.
    """

    pairs: tuple[tuple[int, int], ...]
    total_cost: float


def build_cost_matrix(
    gt: Sequence[BoundingBox],
    pred: Sequence[BoundingBox],
    gate: float = DEFAULT_IOU_GATE,
) -> np.ndarray:
    """Gated matching distance of two box lists (see `gated_cost`)."""
    return gated_cost(iou_matrix(boxes_to_array(gt), boxes_to_array(pred)), gate)


def gated_cost(overlaps: np.ndarray, gate: float = DEFAULT_IOU_GATE) -> np.ndarray:
    """Gated matching distance of an IoU array of any shape: 1 where IoU < gate, else 1 - IoU."""
    return np.where(overlaps >= gate, 1.0 - overlaps, 1.0)


def solve_assignment(cost, drop_gated: bool = True) -> Assignment:
    """Exact minimum-cost one-to-one assignment of a 2-D cost array, with deterministic ties.

    Minimizes total cost over all assignments of size min(rows, cols); among
    equal-cost optima the lexicographically smallest (row, col) pair list is
    chosen. The array is checked, then solved as a stack of one by
    `_optimal_pairs`, which chooses the route (one pair, enumeration, or one
    `linear_sum_assignment` and the tie search), and ``total_cost`` is the
    `math.fsum` of the pairs' costs. With ``drop_gated`` (the default), pairs
    whose cost is exactly 1 are then removed from the result, so every
    surviving pair of a `gated_cost` array passed the IoU gate. Callers with
    other costs (trackers, IDF1's pairing) pass False.

    One limit: the LSA route takes the fsum of `linear_sum_assignment`'s
    optimum as the least total, but LSA compares rounded sums. Where
    rounding orders two assignments unlike their fsums, the total returned
    can exceed the least fsum by rounding error, and the pairs are the
    smallest list of that total. `test_lsa_route_total_is_the_least_fsum`,
    an expected failure, holds a 4 x 4 case.
    """
    cost = np.asarray(cost, dtype=float)
    if cost.ndim != 2:
        raise ValueError("cost matrix must be two-dimensional")
    if min(cost.shape) == 0:
        return Assignment(pairs=(), total_cost=0.0)
    scale = float(np.abs(cost).max())
    if not math.isfinite(scale):
        raise ValueError("cost matrix must be finite")

    (rows,), (cols,) = _optimal_pairs(cost[None], scale)
    kept = tuple(pair for pair in zip(rows.tolist(), cols.tolist()) if not drop_gated or cost[pair] != 1.0)
    return Assignment(pairs=kept, total_cost=math.fsum(cost[rows, cols].tolist()))


def _optimal_pairs(stack: np.ndarray, scale: float) -> tuple[np.ndarray, np.ndarray]:
    """The rows and the columns, each (B, k), of the answer to each problem of a (B, rows, cols) stack.

    k = min(rows, cols) >= 1, and ``scale`` bounds every |cost| in the
    stack. A problem's answer is its lexicographically smallest minimum-cost
    assignment, its pairs in order. This is the one place a route is chosen,
    by the stack's shape and ``scale``. One pair: each problem's first
    smallest entry in row-major order, by one ``argmin`` over the stack. A
    shape the enumeration covers, with ``scale`` at most
    `_ENUMERATED_MAX_COST`: one `_enumerated_optima` call. Any other: per
    problem, one `linear_sum_assignment`, whose optimum's fsum the tie search
    (`_lexicographic_optimal_pairs`) keeps while it finds the smallest pair
    list of that total. On every route the fsum of a problem's pairs is the
    total its route takes as the optimum's.
    """
    count, n_rows, n_cols = stack.shape
    if min(n_rows, n_cols) == 1:
        # The optimum is a smallest entry, and the lexicographically smallest
        # among them is the first in row-major order.
        rows, cols = np.divmod(stack.reshape(count, -1).argmin(axis=1), n_cols)
        return rows[:, None], cols[:, None]
    if _enumerable(stack.shape[1:]) and scale <= _ENUMERATED_MAX_COST:
        rows, cols = _assignment_table(n_rows, n_cols)
        optima = _enumerated_optima(stack, scale)
        return rows[optima], cols[optima]
    rows, cols = np.empty((2, count, min(n_rows, n_cols)), np.int64)
    for b, cost in enumerate(stack):
        rows[b], cols[b] = _lexicographic_optimal_pairs(cost, *linear_sum_assignment(cost))
    return rows, cols


def _enumerable(shape: tuple[int, ...]) -> bool:
    """Whether `_enumerated_optima` covers problems of this shape."""
    return min(shape) in (2, 3) and max(shape) <= _ENUMERATED_SIDE


@functools.cache
def _assignment_table(n_rows: int, n_cols: int) -> tuple[np.ndarray, np.ndarray]:
    """Every assignment of size k = min(n_rows, n_cols), ascending by sorted pair list.

    Returns the row and the column indices, each (candidates, k). The first
    of several equal totals is thus the lexicographically smallest assignment.
    """
    if n_rows <= n_cols:
        lists = (zip(range(n_rows), cols) for cols in itertools.permutations(range(n_cols), n_rows))
    else:
        lists = (zip(rows, range(n_cols)) for rows in itertools.permutations(range(n_rows), n_cols))
    table = np.array(sorted(sorted(pairs) for pairs in lists))
    table.setflags(write=False)
    return table[..., 0], table[..., 1]


def _enumerated_optima(stack: np.ndarray, scale: float) -> list[int]:
    """For each problem of a (B, rows, cols) stack, the `_assignment_table` index of its answer.

    The answer is the first candidate of least `math.fsum` total: the
    lexicographically smallest optimum. ``scale`` bounds every |cost| in the
    stack and may be at most `_ENUMERATED_MAX_COST`, so no sum overflows.
    """
    _, n_rows, n_cols = stack.shape
    k = min(n_rows, n_cols)
    rows, cols = _assignment_table(n_rows, n_cols)
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


def _tight_graph(
    cost: np.ndarray, rows: np.ndarray, cols: np.ndarray, scale: float
) -> tuple[np.ndarray, np.ndarray]:
    """The pairs of the zero-padded square problem that some minimum-cost assignment may hold.

    ``rows`` and ``cols`` are an optimal assignment as `linear_sum_assignment`
    returns it, rows ascending, and ``scale`` is the largest |cost|. Returns
    an (n, n) mask of those pairs, n = max(rows, cols), and the perfect
    matching ``col_of`` (row -> column), an array, that the assignment
    extends to: its unmatched rows take the spare columns, both in ascending
    order. Optimal duals u, v come from that matching: row potentials are
    shortest distances in its residual graph (Bellman-Ford from a virtual
    source, at most n vectorised relaxations) and column potentials make
    every matched pair tight. Every assignment, extended by padding to a
    perfect matching, costs the optimum plus the sum of its pairs' reduced
    costs ``c_ij - u_i - v_j``, so a pair whose reduced cost exceeds a
    tolerance far above the duals' rounding error lies on no optimum. The
    mask holds the other pairs: the tight graph.
    """
    n_rows, n_cols = cost.shape
    n = max(n_rows, n_cols)
    square = np.zeros((n, n))
    square[:n_rows, :n_cols] = cost
    col_of = np.empty(n, np.int64)
    col_of[rows] = cols
    unmatched, spare = np.ones(n, bool), np.ones(n, bool)
    unmatched[rows] = spare[cols] = False
    col_of[unmatched] = np.flatnonzero(spare)
    permuted = square[:, col_of]
    matched = permuted.diagonal()
    # shift[i, k]: cost change of moving row i onto row k's column; shift[i, i] == 0,
    # so a relaxation never raises a potential.
    shift = permuted - matched
    u = np.zeros(n)
    for _ in range(n):
        relaxed = (shift + u).min(axis=1)
        if not (relaxed < u).any():
            break
        u = relaxed
    v = np.empty(n)
    v[col_of] = matched - u
    tolerance = 1e-9 * (1.0 + scale) * n
    return square - u[:, None] - v <= tolerance, col_of


def _cycle_core(tight: np.ndarray, col_of: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The steps between the rows of the tight graph, as a 0/1 matrix, its cycle core, and the row of each column.

    ``col_of`` is one perfect matching of ``tight`` (every matched pair is
    tight), and ``row_of`` inverts it. Row a steps to row b when
    (a, col_of[b]) is tight. A tight pair (i, j) off the matching lies on a
    perfect matching iff it closes an alternating cycle, i -> row_of[j] ->
    ... -> i (Kuhn 1955; Tassa 2012). Every row of such a cycle has a step
    in and a step out besides its own pair: ``core`` marks those rows, a
    few of a crowded keyframe's, about half of a padded problem's. So only a
    pair off the matching whose two rows lie in the core can be held.
    """
    n = len(col_of)
    steps = tight[:, col_of].astype(float)
    core = (steps.sum(axis=0) > 1) & (steps.sum(axis=1) > 1)
    row_of = np.empty(n, np.int64)
    row_of[col_of] = np.arange(n)
    return steps, core, row_of


def _holdable(
    steps: np.ndarray, core: np.ndarray, row_of: np.ndarray, ti: np.ndarray, tj: np.ndarray
) -> np.ndarray:
    """Which of the tight pairs ``(ti[e], tj[e])`` some perfect matching of the tight graph holds, as a mask.

    ``steps``, ``core`` and ``row_of`` are `_cycle_core`'s. A matched pair
    is held, and a pair (i, j) off the matching is held iff row_of[j]
    reaches row i, which only a path through core rows can do. Reachability
    is the transitive closure of the core's steps, by repeated squaring of
    a 0/1 matrix; each entry of a product counts at most n intermediate
    rows, so the float products are exact.
    """
    index = np.flatnonzero(core)
    reach = steps[index[:, None], index]
    while True:
        longer = (reach @ reach > 0).astype(float)
        if (longer == reach).all():
            break
        reach = longer
    closure = np.eye(len(row_of), dtype=bool)
    closure[index[:, None], index] = reach > 0
    return closure[row_of[tj], ti]


def _lexicographic_optimal_pairs(
    cost: np.ndarray, rows: np.ndarray, cols: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Smallest (row, col) pair list among all minimum-cost assignments, as its rows and its columns.

    ``rows`` and ``cols`` are `linear_sum_assignment`'s optimum, whose
    `math.fsum` total ``best`` the answer keeps. Pairs are fixed greedily in
    lexicographic order: a candidate is kept only if the remaining submatrix
    still completes to ``best``. Totals are compared through math.fsum, so
    assignments with equal real-valued cost compare equal regardless of
    summation order.

    Three facts spare almost every sub-solve. A candidate outside the tight
    graph (`_tight_graph`) lies on no optimum, so only tight pairs are
    candidates; where the tight pairs are the optimum's alone, the optimum
    is the answer at once. A known optimal completion of the pairs fixed so
    far is carried along: the optimum at first, then the sub-solve of the
    last candidate kept. Its pairs are fixed in turn, each after the
    candidates that sort between it and the pair fixed last and whose
    column is still free; the first candidate that completes to ``best`` is
    kept, and if none does, the completion's pair is fixed by that same
    fsum, without a solve. And before the first candidate is tried,
    `_holdable` finds which tight pairs some perfect matching of the tight
    graph holds, and the rest are skipped. That skip is exact: a
    candidate's completion is a full assignment (the candidate sorts before
    a completion pair in its own row or below, so the rows below it can
    hold the rest), and any assignment holding a pair no tight perfect
    matching holds extends by padding to a perfect matching that also
    holds a non-tight pair, so by the bound above its fsum cannot equal
    ``best``. The bound needs duals that did not overflow, so costs of
    magnitude near the largest float skip nothing this way: every tight
    pair is a candidate.

    A rejected candidate changes neither the fixed pairs nor the
    completion, so the scan is one sorted pass over the candidates, not a
    step per row. Candidate (i, j) comes up before completion pair t, where
    t counts the completion pairs in rows above i, if row i's own
    completion pair, if any, sorts after it, t is within the completion,
    and no completion pair before t takes column j. Every candidate of a
    completion is thus found in one vectorised test and tried in order.
    Only a kept candidate starts a new pass, over the candidates past its
    row; when none is kept, the completion is the rest of the answer.

    The holdable pairs are found lazily, when a first candidate passes that
    test, and only over the cycle core (`_cycle_core`). If no candidate of
    that first pass has both rows in the core, none is held, and the
    optimum is the answer without the closure. Otherwise the closure
    narrows the pass, and every later one, to the holdable pairs.
    """
    n_rows, n_cols = cost.shape
    comp_rows, comp_cols, comp_costs = rows, cols, cost[rows, cols].tolist()
    best = math.fsum(comp_costs)
    scale = float(np.abs(cost).max())
    # Costs near the largest float can overflow the duals. numpy's warnings
    # about that change no value, so they are silenced rather than raised
    # (the overflow guard before `_cycle_core` handles those duals).
    with np.errstate(over="ignore", invalid="ignore"):
        tight, col_of = _tight_graph(cost, rows, cols, scale)
    ti, tj = np.nonzero(tight[:n_rows, :n_cols])
    if len(ti) == len(rows) and tight[rows, cols].all():
        return rows, cols
    # The pairs fixed so far, then the known optimal completion of them, rows ascending.
    fixed_rows: list[int] = []
    fixed_cols: list[int] = []
    fixed_costs: list[float] = []
    while len(comp_rows):
        m = len(comp_rows)
        # Candidate e comes up before completion pair step[e] if it sorts
        # before its row's completion pair (row_col) and its column is free
        # until then (last_free).
        row_col = np.full(n_rows, n_cols)
        row_col[comp_rows] = comp_cols
        last_free = np.full(n_cols, m - 1)
        last_free[fixed_cols] = -1
        last_free[comp_cols] = np.arange(m)
        step = np.searchsorted(comp_rows, ti)
        examined = (tj < row_col[ti]) & (step <= last_free[tj])
        # The first pass narrows the candidates to the holdable pairs, if one
        # is examined. The skip's bound needs duals that did not overflow:
        # every potential and reduced cost lies within (4n + 2) * max |cost|.
        if not fixed_rows and examined.any() and scale * (4 * len(col_of) + 2) < 2.0**1023:
            steps, core, row_of = _cycle_core(tight, col_of)
            # The first pass's candidates are all off the matching: if none
            # has both rows in the core, none is held.
            if not (examined & core[ti] & core[row_of[tj]]).any():
                break
            holdable = _holdable(steps, core, row_of, ti, tj)
            ti, tj, step, examined = ti[holdable], tj[holdable], step[holdable], examined[holdable]
        for i, j, t in zip(ti[examined].tolist(), tj[examined].tolist(), step[examined].tolist()):
            prefix = fixed_costs + comp_costs[:t] + [float(cost[i, j])]
            rest_rows = rest_cols = np.zeros(0, np.int64)
            rest_costs: list[float] = []
            if t < m - 1:
                free = last_free >= t
                free[j] = False
                free_cols = np.flatnonzero(free)
                sub = cost[i + 1 :, free_cols]
                sr, sc = linear_sum_assignment(sub)
                rest_rows, rest_cols, rest_costs = i + 1 + sr, free_cols[sc], sub[sr, sc].tolist()
            if math.fsum(prefix + rest_costs) == best:
                fixed_rows += comp_rows[:t].tolist() + [i]
                fixed_cols += comp_cols[:t].tolist() + [j]
                fixed_costs = prefix
                comp_rows, comp_cols, comp_costs = rest_rows, rest_cols, rest_costs
                past = np.searchsorted(ti, i + 1)
                ti, tj = ti[past:], tj[past:]
                break
        else:
            # No candidate kept: the completion is the rest of the answer.
            break
    if not fixed_rows:
        return comp_rows, comp_cols
    return np.concatenate((fixed_rows, comp_rows)), np.concatenate((fixed_cols, comp_cols))
