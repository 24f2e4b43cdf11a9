"""Ties the three metric families together into per-video and aggregate reports.

Videos are evaluated independently (optionally by a bounded worker pool) and
then reduced in video_id order, so results never depend on scheduling. The
aggregate detection curve pools every prediction into one global ranking;
identification counts and matched action pairs sum across videos. Every
reported ratio can be recomputed from the tallies carried next to it.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .actions import hamming_loss, match_pairs, merge_pair_sets
from .detection import average_precision
from .identity import id_switches, idf1, mt_ml_from_pairs
from .matching import DEFAULT_IOU_GATE
from .model import DEFAULT_N_LABELS, VideoRecord
from .version import __version__

THREADS_ENV_VAR = "ASAD_BENCH_THREADS"
AGGREGATE_KEY = "__all__"


def worker_count() -> int:
    """Worker pool size: ASAD_BENCH_THREADS if set, else available parallelism."""
    raw = os.environ.get(THREADS_ENV_VAR)
    if raw is not None:
        try:
            value = int(raw)
        except ValueError as exc:
            raise ValueError(f"{THREADS_ENV_VAR} must be an integer, got {raw!r}") from exc
        if value < 1:
            raise ValueError(f"{THREADS_ENV_VAR} must be >= 1, got {value}")
        return value
    return os.cpu_count() or 1


@dataclass(frozen=True)
class MetricBlock:
    """All metric values and raw tallies for one video (or the aggregate)."""

    ap: Optional[float]
    ap_reason: Optional[str]
    hl: Optional[float]
    hl_reason: Optional[str]
    idf1: float
    idtp: int
    idfp: int
    idfn: int
    mt_count: int
    ml_count: int
    n_gt_tracklets: int
    mt_pct: float
    ml_pct: float
    id_switches: int
    tp: int
    fp: int
    fn: int
    n_matched_pairs: int
    wrong_label_bits: int
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class EvalReport:
    """Aggregate plus per-video metrics, with the configuration that made them."""

    config: dict
    aggregate: MetricBlock
    per_video: dict[str, MetricBlock] = field(default_factory=dict)


def _empty_record(video_id: str) -> VideoRecord:
    return VideoRecord(video_id=video_id, observations=())


def _evaluate_one(
    gt: VideoRecord,
    pred: VideoRecord,
    iou_threshold: float,
    n_labels: int,
    persistence: bool,
) -> tuple[MetricBlock, object]:
    flags: list[str] = []

    ap_result = average_precision([gt], [pred], iou_threshold)
    if ap_result.had_score_ties:
        flags.append("score_ties")
    if len(pred.observations) == 0:
        flags.append("no_predictions")
    if len(gt.observations) == 0:
        flags.append("no_ground_truth")

    idf1_value, id_counts = idf1(gt, pred, iou_threshold)
    if id_counts.vacuous:
        flags.append("identity_vacuous")
    pairs = match_pairs(gt, pred, iou_threshold)
    track_stats = mt_ml_from_pairs(gt, pairs)
    switches = id_switches(gt, pred, iou_threshold, persistence=persistence)
    hl_result = hamming_loss(pairs, n_labels)

    block = MetricBlock(
        ap=ap_result.ap,
        ap_reason=ap_result.reason,
        hl=hl_result.value,
        hl_reason=hl_result.reason,
        idf1=idf1_value,
        idtp=id_counts.idtp,
        idfp=id_counts.idfp,
        idfn=id_counts.idfn,
        mt_count=track_stats.mt_count,
        ml_count=track_stats.ml_count,
        n_gt_tracklets=track_stats.n_tracklets,
        mt_pct=track_stats.mt_pct,
        ml_pct=track_stats.ml_pct,
        id_switches=switches,
        tp=ap_result.tally.tp,
        fp=ap_result.tally.fp,
        fn=ap_result.tally.fn,
        n_matched_pairs=pairs.n_pairs,
        wrong_label_bits=hl_result.wrong_bits,
        flags=tuple(flags),
    )
    return block, pairs


def evaluate_records(
    gt_records: Sequence[VideoRecord],
    pred_records: Sequence[VideoRecord],
    iou_threshold: float = DEFAULT_IOU_GATE,
    n_labels: int = DEFAULT_N_LABELS,
    id_persistence: bool = True,
    config: Optional[dict] = None,
    max_workers: Optional[int] = None,
) -> EvalReport:
    """Score predictions against ground truth across all three metric families.

    Videos present on only one side are evaluated against an empty
    counterpart. The aggregate AP pools every prediction into one ranking;
    identification and action-pair tallies are exact sums of the per-video
    tallies.
    """
    gt_by_video = {record.video_id: record for record in gt_records}
    pred_by_video = {record.video_id: record for record in pred_records}
    if len(gt_by_video) != len(gt_records):
        raise ValueError("duplicate video_id among ground-truth records")
    if len(pred_by_video) != len(pred_records):
        raise ValueError("duplicate video_id among prediction records")
    video_ids = sorted(set(gt_by_video) | set(pred_by_video))

    aligned = [
        (
            gt_by_video.get(video_id, _empty_record(video_id)),
            pred_by_video.get(video_id, _empty_record(video_id)),
        )
        for video_id in video_ids
    ]

    workers = max_workers if max_workers is not None else worker_count()
    workers = max(1, min(workers, max(1, len(aligned))))
    if workers > 1 and len(aligned) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(
                pool.map(
                    lambda pair: _evaluate_one(
                        pair[0], pair[1], iou_threshold, n_labels, id_persistence
                    ),
                    aligned,
                )
            )
    else:
        results = [
            _evaluate_one(gt, pred, iou_threshold, n_labels, id_persistence)
            for gt, pred in aligned
        ]

    per_video = {
        video_id: block for video_id, (block, _) in zip(video_ids, results)
    }

    pooled_ap = average_precision(
        [pair[0] for pair in aligned], [pair[1] for pair in aligned], iou_threshold
    )
    pooled_pairs = merge_pair_sets(pair_set for _, pair_set in results)
    pooled_hl = hamming_loss(pooled_pairs, n_labels)

    idtp = sum(b.idtp for b in per_video.values())
    idfp = sum(b.idfp for b in per_video.values())
    idfn = sum(b.idfn for b in per_video.values())
    total_gt_obs = idtp + idfn
    total_pred_obs = idtp + idfp
    agg_flags: list[str] = []
    if total_gt_obs == 0 and total_pred_obs == 0:
        agg_idf1 = 1.0
        agg_flags.append("identity_vacuous")
    else:
        denom = 2 * idtp + idfp + idfn
        agg_idf1 = 2 * idtp / denom if denom else 0.0
    if pooled_ap.had_score_ties:
        agg_flags.append("score_ties")
    if total_pred_obs == 0:
        agg_flags.append("no_predictions")
    if total_gt_obs == 0:
        agg_flags.append("no_ground_truth")

    mt_count = sum(b.mt_count for b in per_video.values())
    ml_count = sum(b.ml_count for b in per_video.values())
    n_tracklets = sum(b.n_gt_tracklets for b in per_video.values())

    aggregate = MetricBlock(
        ap=pooled_ap.ap,
        ap_reason=pooled_ap.reason,
        hl=pooled_hl.value,
        hl_reason=pooled_hl.reason,
        idf1=agg_idf1,
        idtp=idtp,
        idfp=idfp,
        idfn=idfn,
        mt_count=mt_count,
        ml_count=ml_count,
        n_gt_tracklets=n_tracklets,
        mt_pct=100.0 * mt_count / n_tracklets if n_tracklets else 0.0,
        ml_pct=100.0 * ml_count / n_tracklets if n_tracklets else 0.0,
        id_switches=sum(b.id_switches for b in per_video.values()),
        tp=sum(b.tp for b in per_video.values()),
        fp=sum(b.fp for b in per_video.values()),
        fn=sum(b.fn for b in per_video.values()),
        n_matched_pairs=pooled_pairs.n_pairs,
        wrong_label_bits=pooled_hl.wrong_bits,
        flags=tuple(agg_flags),
    )

    resolved = {
        "tool": "asadeval",
        "version": __version__,
        "iou_threshold": iou_threshold,
        "n_labels": n_labels,
        "id_persistence": id_persistence,
        "ap_label": f"AP@{iou_threshold:g}",
        "hl_label": f"HL@{iou_threshold:g}",
    }
    if config:
        resolved.update(config)
    return EvalReport(config=resolved, aggregate=aggregate, per_video=per_video)
