"""Spatial detection scoring: TP/FP/FN tallies and AP.

There is a single "actor" class, so the summary metric is plain Average
Precision at a given IoU threshold (AP@0.5 by default): the all-point
interpolated AP of PASCAL VOC, with the predictions of all videos pooled
into one confidence ranking.

AP reads two flat arrays of a `match_corpus` result: its prediction
columns' ``scores`` and its ``flags``, the greedy matching of every
keyframe, one entry per prediction row. `_ranked_ap` ranks predictions with
one stable sort into a `PRCurve`, which holds the ranked scores and flags as
arrays, and sums AP from the recall, precision and p_interp ``columns`` of
that curve, the ones `write_pr_curve` writes. A report's per-video blocks
take it on their video's slice of both arrays, and its aggregate on the
whole arrays: one `APResult` either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .matching import DEFAULT_IOU_GATE, match_corpus
from .model import VideoRecord, aligned_records

AP_NO_GROUND_TRUTH = "no ground truth boxes"


@dataclass(frozen=True)
class DetectionTally:
    """TP/FP/FN counts at a fixed confidence cutoff and IoU threshold."""

    tp: int
    fp: int
    fn: int


@dataclass(frozen=True, eq=False)
class PRCurve:
    """Ranked prediction scores and TP flags, as read-only arrays, and ``n_gt``.

    ``n_gt`` is the number of ground-truth boxes the flags were matched
    against. Two curves are equal when ``n_gt``, the scores and the flags are; a
    curve is not hashable.
    """

    scores: np.ndarray  # (n,) float, descending
    flags: np.ndarray  # (n,) bool
    n_gt: int

    def __eq__(self, other) -> bool:
        if not isinstance(other, PRCurve):
            return NotImplemented
        return (
            self.n_gt == other.n_gt
            and np.array_equal(self.scores, other.scores)
            and np.array_equal(self.flags, other.flags)
        )

    @cached_property
    def columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Recall, precision and p_interp at each rank; empty without ground truth.

        Recall is non-decreasing down the ranking, and p_interp, the largest
        precision at this rank or a later one, is non-increasing.
        """
        cum_tp = np.cumsum(self.flags if self.n_gt else self.flags[:0], dtype=np.int64)
        precision = cum_tp / np.arange(1, len(cum_tp) + 1)
        return cum_tp / self.n_gt, precision, np.maximum.accumulate(precision[::-1])[::-1]


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


def _ranked_ap(scores: np.ndarray, flags: np.ndarray, n_gt: int) -> APResult:
    """The AP, curve, tally and ties of predictions with these scores and TP flags, ranked together.

    ``n_gt`` is the number of ground-truth boxes the flags were matched
    against. One stable sort by descending score ranks the predictions, so
    equal scores keep their given order; equal adjacent scores set
    ``had_score_ties``. AP sums each TP rank's recall step times its
    p_interp (`PRCurve.columns`), in rank order and one addition at a time
    (`np.cumsum`, not the pairwise `np.sum`).
    """
    order = np.argsort(-scores, kind="stable")
    scores, flags = scores[order], flags[order]
    scores.setflags(write=False)
    flags.setflags(write=False)
    curve = PRCurve(scores, flags, n_gt)
    had_ties = bool((scores[1:] == scores[:-1]).any())
    if n_gt == 0:
        return APResult(None, AP_NO_GROUND_TRUTH, curve, DetectionTally(tp=0, fp=len(scores), fn=0), had_ties)
    recall, _, p_interp = curve.columns
    steps = np.diff(recall[flags], prepend=0.0) * p_interp[flags]
    n_tp = len(steps)
    tally = DetectionTally(tp=n_tp, fp=len(scores) - n_tp, fn=n_gt - n_tp)
    return APResult(float(np.cumsum(np.append(0.0, steps))[-1]), None, curve, tally, had_ties)


def average_precision(
    gt_records: Sequence[VideoRecord],
    pred_records: Sequence[VideoRecord],
    iou_threshold: float = DEFAULT_IOU_GATE,
) -> APResult:
    """Area under the interpolated precision-recall curve, pooled over videos.

    `_ranked_ap` of the corpus's prediction scores and TP flags, its videos
    in video_id order whatever order the records arrive in (the order
    `evaluate_records` pools in), against every ground-truth box. A
    repeated video_id, or a gate outside (0, 1), is a ValueError.
    """
    corpus = match_corpus(aligned_records(gt_records, pred_records), iou_threshold)
    return _ranked_ap(corpus.pred.scores, corpus.flags, len(corpus.gt.scores))
