"""Spatial detection scoring: TP/FP/FN tallies, precision/recall, and AP.

There is a single "actor" class, so the summary metric is plain Average
Precision at a given IoU threshold (AP@0.5 by default): the all-point
interpolated AP of PASCAL VOC, with the predictions of all videos pooled
into one confidence ranking.

AP reads two flat arrays of a `match_corpus` result: its prediction
columns' ``scores`` and its ``flags``, the greedy matching of every
keyframe, one entry per prediction row. `_ranked_ap` ranks predictions with
one stable sort and sums AP from the recall, precision and p_interp columns
(`_pr_columns`) that a `PRCurve` holds and `write_pr_curve` writes. A
report's per-video blocks take it on their video's slice of both arrays;
`curve_from_ranked` ranks whole arrays and keeps the curve as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .matching import DEFAULT_IOU_GATE, _greedy_flags, boxes_to_array, check_gate, iou_matrix, match_corpus
from .model import BoundingBox, VideoRecord, aligned_records

AP_NO_GROUND_TRUTH = "no ground truth boxes"


@dataclass(frozen=True)
class DetectionTally:
    """TP/FP/FN counts at a fixed confidence cutoff and IoU threshold."""

    tp: int
    fp: int
    fn: int


@dataclass(frozen=True)
class PRCurve:
    """Ranked ``(score, is_tp)`` pairs and the number of ground-truth boxes they were matched against."""

    ranked: tuple[tuple[float, bool], ...] = ()
    n_gt: int = 0

    @cached_property
    def columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Recall, precision and p_interp at each rank; empty without ground truth.

        Recall is non-decreasing down the ranking, and p_interp, the largest
        precision at this rank or a later one, is non-increasing.
        """
        return _pr_columns(np.array([is_tp for _, is_tp in self.ranked], bool), self.n_gt)


def _pr_columns(flags: np.ndarray, n_gt: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Recall, precision and p_interp down ranked TP ``flags`` matched against ``n_gt`` boxes (see `PRCurve`)."""
    cum_tp = np.cumsum(flags if n_gt else flags[:0], dtype=np.int64)
    precision = cum_tp / np.arange(1, len(cum_tp) + 1)
    return cum_tp / n_gt, precision, np.maximum.accumulate(precision[::-1])[::-1]


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
    TP flag aligned with the input order. This is AP's matching, run on a
    stack of one keyframe (`_greedy_flags`).
    """
    check_gate(iou_threshold)
    overlaps = iou_matrix(boxes_to_array(gt), boxes_to_array([box for box, _ in pred]))
    scores = np.array([[score for _, score in pred]], dtype=float)
    flags = _greedy_flags(overlaps[None], scores, iou_threshold)[0].tolist()
    tp = sum(flags)
    return DetectionTally(tp=tp, fp=len(pred) - tp, fn=len(gt) - tp), flags


def precision_recall(tally: DetectionTally) -> tuple[float, float]:
    """Precision and recall with the zero-denominator convention.

    No predictions yields precision 0 and no ground truth yields recall 0;
    callers flag those conditions in the report.
    """
    precision = tally.tp / (tally.tp + tally.fp) if tally.tp + tally.fp > 0 else 0.0
    recall = tally.tp / (tally.tp + tally.fn) if tally.tp + tally.fn > 0 else 0.0
    return precision, recall


def curve_from_ranked(scores: np.ndarray, flags: np.ndarray, n_gt: int) -> APResult:
    """The AP, tally and PR curve of predictions with these scores and TP flags, ranked together.

    ``n_gt`` is the number of ground-truth boxes the flags were matched
    against. The AP, tally and ties are `_ranked_ap`'s.
    """
    summary, scores, flags = _ranked_ap(scores, flags, n_gt)
    curve = PRCurve(ranked=tuple(zip(scores.tolist(), flags.tolist())), n_gt=n_gt) if n_gt else PRCurve()
    return APResult(summary.ap, summary.reason, curve, summary.tally, summary.had_score_ties)


class _APSummary(NamedTuple):
    """An `APResult` without its curve: all a report block reads."""

    ap: Optional[float]
    reason: Optional[str]
    tally: DetectionTally
    had_score_ties: bool


def _ranked_ap(scores: np.ndarray, flags: np.ndarray, n_gt: int) -> tuple[_APSummary, np.ndarray, np.ndarray]:
    """The AP, tally and ties of predictions with these scores and TP flags, then the ranked scores and flags.

    One stable sort by descending score ranks the predictions, so equal
    scores keep their given order; equal adjacent scores set
    ``had_score_ties``. AP sums each TP rank's recall step times its
    p_interp (`_pr_columns`), in rank order and one addition at a time
    (`np.cumsum`, not the pairwise `np.sum`). It builds no `PRCurve`, so a
    report's per-video blocks take it directly.
    """
    order = np.argsort(-scores, kind="stable")
    scores, flags = scores[order], flags[order]
    had_ties = bool((scores[1:] == scores[:-1]).any())
    if n_gt == 0:
        return _APSummary(None, AP_NO_GROUND_TRUTH, DetectionTally(tp=0, fp=len(scores), fn=0), had_ties), scores, flags
    recall, _, p_interp = _pr_columns(flags, n_gt)
    steps = np.diff(recall[flags], prepend=0.0) * p_interp[flags]
    n_tp = len(steps)
    tally = DetectionTally(tp=n_tp, fp=len(scores) - n_tp, fn=n_gt - n_tp)
    return _APSummary(float(np.cumsum(np.append(0.0, steps))[-1]), None, tally, had_ties), scores, flags


def average_precision(
    gt_records: Sequence[VideoRecord],
    pred_records: Sequence[VideoRecord],
    iou_threshold: float = DEFAULT_IOU_GATE,
) -> APResult:
    """Area under the interpolated precision-recall curve, pooled over videos.

    `curve_from_ranked` of the corpus's prediction scores and TP flags,
    its videos in video_id order whatever order the records arrive in (the
    order `evaluate_records` pools in), against every ground-truth box. A
    repeated video_id, or a gate outside (0, 1), is a ValueError.
    """
    corpus = match_corpus(aligned_records(gt_records, pred_records), iou_threshold)
    return curve_from_ranked(corpus.pred.scores, corpus.flags, len(corpus.gt.scores))
