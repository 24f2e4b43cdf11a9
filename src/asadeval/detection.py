"""Spatial detection scoring: TP/FP/FN tallies, precision/recall, and AP.

There is a single "actor" class, so the summary metric is plain Average
Precision at a given IoU threshold (AP@0.5 by default). Predictions from all
videos are pooled into one global confidence ranking and the area under the
all-point interpolated precision-recall curve is integrated over every
recall increment.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Optional, Sequence

from .matching import DEFAULT_IOU_GATE, iou
from .model import BoundingBox, VideoRecord

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

    Recall is non-decreasing down the ranking and p_interp(r) is the maximum
    precision at any recall >= r, hence non-increasing.
    """

    points: tuple[PRPoint, ...]


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
    if not (0.0 < iou_threshold < 1.0):
        raise ValueError("iou_threshold must lie in (0, 1)")
    order = sorted(range(len(pred)), key=lambda idx: -pred[idx][1])
    gt_taken = [False] * len(gt)
    flags = [False] * len(pred)
    for idx in order:
        box = pred[idx][0]
        best_iou = 0.0
        best_gt = -1
        for g_idx, g_box in enumerate(gt):
            if gt_taken[g_idx]:
                continue
            overlap = iou(g_box, box)
            if overlap > best_iou:
                best_iou = overlap
                best_gt = g_idx
        if best_gt >= 0 and best_iou >= iou_threshold:
            gt_taken[best_gt] = True
            flags[idx] = True
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


def average_precision(
    gt_records: Sequence[VideoRecord],
    pred_records: Sequence[VideoRecord],
    iou_threshold: float = DEFAULT_IOU_GATE,
) -> APResult:
    """Area under the interpolated precision-recall curve, pooled over videos.

    All predictions are ranked by descending score (ties broken by stable
    input order and flagged); walking down the ranking accumulates TP/FP from
    `tally_frame`'s greedy matching within each (video, keyframe). AP sums
    recall increments times the interpolated precision at the higher recall.
    """
    if not (0.0 < iou_threshold < 1.0):
        raise ValueError("iou_threshold must lie in (0, 1)")

    gt_boxes: dict[tuple[str, int], list[BoundingBox]] = {}
    total_gt = 0
    for record in gt_records:
        for obs in record.observations:
            gt_boxes.setdefault((record.video_id, obs.keyframe), []).append(obs.box)
            total_gt += 1

    ranked: list[tuple[str, int, BoundingBox, float]] = []
    for record in pred_records:
        for obs in record.observations:
            ranked.append((record.video_id, obs.keyframe, obs.box, obs.score))
    ranked.sort(key=lambda item: -item[3])
    had_ties = any(
        ranked[i][3] == ranked[i + 1][3] for i in range(len(ranked) - 1)
    )

    if total_gt == 0:
        tally = DetectionTally(tp=0, fp=len(ranked), fn=0)
        return APResult(
            ap=None,
            reason=AP_NO_GROUND_TRUTH,
            curve=PRCurve(points=()),
            tally=tally,
            had_score_ties=had_ties,
        )

    by_frame: dict[tuple[str, int], list[tuple[BoundingBox, float]]] = {}
    for video_id, keyframe, box, score in ranked:
        by_frame.setdefault((video_id, keyframe), []).append((box, score))
    # Each frame's group is in global rank order, which tally_frame's stable
    # sort keeps, so its flags are read back in ranking order.
    frame_flags = {
        key: iter(tally_frame(gt_boxes.get(key, ()), preds, iou_threshold)[1])
        for key, preds in by_frame.items()
    }
    cum_tp = 0
    cum_fp = 0
    raw: list[tuple[float, bool, float, float]] = []
    for video_id, keyframe, _, score in ranked:
        is_tp = next(frame_flags[(video_id, keyframe)])
        if is_tp:
            cum_tp += 1
        else:
            cum_fp += 1
        recall = cum_tp / total_gt
        precision = cum_tp / (cum_tp + cum_fp)
        raw.append((score, is_tp, recall, precision))

    interp = [0.0] * len(raw)
    running_max = 0.0
    for i in range(len(raw) - 1, -1, -1):
        running_max = max(running_max, raw[i][3])
        interp[i] = running_max

    points = tuple(
        PRPoint(
            rank=i + 1,
            score=raw[i][0],
            is_tp=raw[i][1],
            recall=raw[i][2],
            precision=raw[i][3],
            p_interp=interp[i],
        )
        for i in range(len(raw))
    )

    ap = 0.0
    prev_recall = 0.0
    for point in points:
        if point.recall > prev_recall:
            ap += (point.recall - prev_recall) * point.p_interp
            prev_recall = point.recall

    tally = DetectionTally(tp=cum_tp, fp=cum_fp, fn=total_gt - cum_tp)
    return APResult(
        ap=ap,
        reason=None,
        curve=PRCurve(points=points),
        tally=tally,
        had_score_ties=had_ties,
    )


def write_pr_curve(result: APResult, path: str) -> None:
    """Dump the ranked PR curve as CSV for offline inspection."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["rank", "score", "tp", "fp", "recall", "precision", "p_interp"])
        for point in result.curve.points:
            writer.writerow(
                [
                    point.rank,
                    repr(point.score),
                    int(point.is_tp),
                    int(not point.is_tp),
                    repr(point.recall),
                    repr(point.precision),
                    repr(point.p_interp),
                ]
            )
