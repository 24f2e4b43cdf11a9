"""Spatial detection scoring: TP/FP/FN tallies, precision/recall, and AP.

There is a single "actor" class, so the summary metric is plain Average
Precision at a given IoU threshold (AP@0.5 by default). Predictions from all
videos are pooled into one global confidence ranking and the area under the
all-point interpolated precision-recall curve is integrated over every
recall increment.

AP takes two steps: `rank_predictions` ranks one video's predictions as
``(score, is_tp)`` pairs, flagged on its `frame_ious` table, and
`curve_from_ranked` computes AP, the tally and the tie flag from that
ranking. `pool_rankings` of the per-video lists, in video_id order, is
exactly the pooled ranking. A `PRCurve` holds the ranking and builds its
`PRPoint`s on first read, so a curve nobody writes costs no points.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np

from .matching import DEFAULT_IOU_GATE, IouTable, boxes_to_array, check_gate, frame_ious, iou_matrix
from .model import BoundingBox, VideoRecord, aligned_records

AP_NO_GROUND_TRUTH = "no ground truth boxes"


@dataclass(frozen=True)
class DetectionTally:
    """TP/FP/FN counts at a fixed confidence cutoff and IoU threshold."""

    tp: int
    fp: int
    fn: int


@dataclass(frozen=True)
class PRPoint:
    """One ranked prediction on the precision-recall curve."""

    rank: int
    score: float
    is_tp: bool
    recall: float
    precision: float
    p_interp: float


@dataclass(frozen=True)
class PRCurve:
    """Ranked precision-recall points with interpolated precision.

    Holds the ranked ``(score, is_tp)`` pairs and the number of ground-truth
    boxes they were matched against; `points` is built on first read.
    Recall is non-decreasing down the ranking and p_interp(r) is the maximum
    precision at any recall >= r, hence non-increasing.
    """

    ranked: tuple[tuple[float, bool], ...] = ()
    n_gt: int = 0

    @cached_property
    def points(self) -> tuple[PRPoint, ...]:
        """One point per ranked prediction; none without ground truth."""
        if self.n_gt == 0:
            return ()
        cum_tp = 0
        raw: list[tuple[float, bool, float, float]] = []
        for rank, (score, is_tp) in enumerate(self.ranked, start=1):
            cum_tp += is_tp
            raw.append((score, is_tp, cum_tp / self.n_gt, cum_tp / rank))
        interp = [0.0] * len(raw)
        running_max = 0.0
        for i in range(len(raw) - 1, -1, -1):
            running_max = max(running_max, raw[i][3])
            interp[i] = running_max
        # raw holds (score, is_tp, recall, precision), PRPoint's fields after rank.
        return tuple(PRPoint(i + 1, *raw[i], p_interp=interp[i]) for i in range(len(raw)))


@dataclass(frozen=True)
class APResult:
    """Average precision plus the evidence needed to audit it.

    ``ap`` is None (with ``reason``) when no ground truth exists, which is
    distinct from an AP of 0. ``tally`` counts TP/FP/FN with every prediction
    kept (confidence cutoff 0). ``had_score_ties`` records that ranking order
    fell back to stable input order somewhere.
    """

    ap: Optional[float]
    reason: Optional[str]
    curve: PRCurve
    tally: DetectionTally
    had_score_ties: bool


def tally_frame(
    gt: Sequence[BoundingBox],
    pred: Sequence[tuple[BoundingBox, float]],
    iou_threshold: float = DEFAULT_IOU_GATE,
) -> tuple[DetectionTally, list[bool]]:
    """Match one keyframe's predictions to ground truth, greedy by score.

    Predictions are visited in descending score (ties keep input order) and
    each claims the unmatched ground-truth box of highest IoU if that IoU
    reaches the threshold; otherwise it is a false positive. Unclaimed ground
    truth counts as false negatives. Returns the tally and a per-prediction
    TP flag aligned with the input order.
    """
    check_gate(iou_threshold)
    overlaps = iou_matrix(boxes_to_array(gt), boxes_to_array([box for box, _ in pred]))
    flags = _greedy_flags(overlaps, [score for _, score in pred], iou_threshold)
    tp = sum(flags)
    return DetectionTally(tp=tp, fp=len(pred) - tp, fn=len(gt) - tp), flags


def _greedy_flags(overlaps: np.ndarray, scores: Sequence[float], iou_threshold: float) -> list[bool]:
    """`tally_frame`'s TP flags from its GT x prediction IoU matrix."""
    # A claimed row is set to -1 in a copy so it never wins again; argmax keeps
    # the first of equal overlaps, as a strict ">" scan over the rows would.
    flags = [False] * len(scores)
    if overlaps.shape[0]:
        overlaps = overlaps.copy()
        for idx in sorted(range(len(scores)), key=lambda i: -scores[i]):
            best_gt = int(overlaps[:, idx].argmax())
            if overlaps[best_gt, idx] >= iou_threshold:
                overlaps[best_gt, :] = -1.0
                flags[idx] = True
    return flags


def precision_recall(tally: DetectionTally) -> tuple[float, float]:
    """Precision and recall with the zero-denominator convention.

    No predictions yields precision 0 and no ground truth yields recall 0;
    callers flag those conditions in the report.
    """
    precision = tally.tp / (tally.tp + tally.fp) if tally.tp + tally.fp > 0 else 0.0
    recall = tally.tp / (tally.tp + tally.fn) if tally.tp + tally.fn > 0 else 0.0
    return precision, recall


def rank_predictions(
    pred: VideoRecord,
    ious: IouTable,
    iou_threshold: float = DEFAULT_IOU_GATE,
) -> list[tuple[float, bool]]:
    """Step one of AP: one video's predictions as ``(score, is_tp)``, ranked.

    Each keyframe's TP flags come from `tally_frame`'s greedy matching on its
    matrix in ``ious``, the video's `frame_ious` table.
    """
    flagged: list[tuple[float, bool]] = []
    for keyframe, frame in pred.frames.items():
        scores = [o.score for o in frame]
        flags = _greedy_flags(ious[keyframe], scores, iou_threshold) if keyframe in ious else [False] * len(frame)
        flagged.extend(zip(scores, flags))
    return pool_rankings([flagged])


def pool_rankings(rankings: Iterable[Sequence[tuple[float, bool]]]) -> list[tuple[float, bool]]:
    """``(score, is_tp)`` lists concatenated, then stably sorted by descending score."""
    return sorted(itertools.chain.from_iterable(rankings), key=lambda item: -item[0])


def curve_from_ranked(ranked: Sequence[tuple[float, bool]], n_gt: int) -> APResult:
    """Step two of AP: the AP, tally and PR curve of ranked ``(score, is_tp)`` pairs.

    ``n_gt`` is the number of ground-truth boxes the flags were matched
    against. Equal adjacent scores set ``had_score_ties``. AP sums recall
    increments times the interpolated precision at the higher recall, with
    the float operations of summing over the curve's points in rank order.
    """
    had_ties = any(ranked[i][0] == ranked[i + 1][0] for i in range(len(ranked) - 1))
    if n_gt == 0:
        return APResult(
            ap=None,
            reason=AP_NO_GROUND_TRUTH,
            curve=PRCurve(),
            tally=DetectionTally(tp=0, fp=len(ranked), fn=0),
            had_score_ties=had_ties,
        )

    # Only a TP's point can add to AP: at a FP rank recall repeats the last
    # TP's. And a TP's interpolated precision, the largest precision at its
    # rank or a later one, is a TP's precision: a FP's is below that of the
    # last TP ranked before it. So summing over the TP points alone takes the
    # same float operations as summing over every point.
    tp_ranks = [rank for rank, (_, is_tp) in enumerate(ranked, start=1) if is_tp]
    precisions = [cum_tp / rank for cum_tp, rank in enumerate(tp_ranks, start=1)]
    interp = list(itertools.accumulate(reversed(precisions), max))[::-1]
    ap = 0.0
    prev_recall = 0.0
    for cum_tp, p_interp in enumerate(interp, start=1):
        recall = cum_tp / n_gt
        if recall > prev_recall:
            ap += (recall - prev_recall) * p_interp
            prev_recall = recall

    n_tp = len(tp_ranks)
    return APResult(
        ap=ap,
        reason=None,
        curve=PRCurve(ranked=tuple(ranked), n_gt=n_gt),
        tally=DetectionTally(tp=n_tp, fp=len(ranked) - n_tp, fn=n_gt - n_tp),
        had_score_ties=had_ties,
    )


def average_precision(
    gt_records: Sequence[VideoRecord],
    pred_records: Sequence[VideoRecord],
    iou_threshold: float = DEFAULT_IOU_GATE,
) -> APResult:
    """Area under the interpolated precision-recall curve, pooled over videos.

    The two steps composed: `rank_predictions` per video, pooled in video_id
    order whatever order the records arrive in (the order `evaluate_records`
    pools in), then `curve_from_ranked` against every ground-truth box. A
    repeated video_id is a ValueError.
    """
    check_gate(iou_threshold)
    aligned = aligned_records(gt_records, pred_records)
    rankings = [rank_predictions(pred, frame_ious(gt, pred), iou_threshold) for gt, pred in aligned]
    return curve_from_ranked(pool_rankings(rankings), sum(len(gt.observations) for gt, _ in aligned))
