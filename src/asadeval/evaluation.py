"""Ties the three metric families together into per-video and aggregate reports.

Videos are evaluated one at a time, in video_id order, and the aggregate is
reduced from their results in that order, so results never depend on the
order the records arrive in. Each video's IoUs are computed once, as the
`frame_ious` table that AP, IDF1, switches and the gated pairs read. The
aggregate detection curve merges the per-video ranked TP flags into one
global ranking without matching again, and the report carries that pooled
`APResult` (outside its JSON) for whoever writes the PR curve;
identification, MT/ML, switch and matched action-pair tallies sum across
videos. One builder makes every `MetricBlock`, per video and aggregate, so
every reported ratio can be recomputed from the tallies carried next to it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

from .actions import HammingResult, MatchedPairSet, hamming_loss, match_pairs_from_ious, merge_pair_sets
from .detection import APResult, curve_from_ranked, pool_rankings, rank_predictions
from .identity import IdMatchResult, MtMlResult, id_switches_from_ious, idf1_from_ious, mt_ml_from_pairs
from .matching import DEFAULT_IOU_GATE, check_gate, frame_ious
from .model import DEFAULT_N_LABELS, VideoRecord, aligned_records
from .version import __version__

AGGREGATE_KEY = "__all__"


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
    # The aggregate's pooled AP, curve included. Not serialized: a report
    # read back from JSON has None here.
    pooled_ap: Optional[APResult] = field(default=None, compare=False, repr=False)


class _VideoResult(NamedTuple):
    """One video's metric results, plus what the aggregate reduces from them."""

    ranked: list[tuple[float, bool]]
    pairs: MatchedPairSet
    ap: APResult
    ids: IdMatchResult
    tracks: MtMlResult
    switches: int
    hl: HammingResult


def _evaluate_one(
    gt: VideoRecord,
    pred: VideoRecord,
    iou_threshold: float,
    n_labels: int,
    persistence: bool,
) -> _VideoResult:
    ious = frame_ious(gt, pred)
    ranked = rank_predictions(pred, ious, iou_threshold)
    pairs = match_pairs_from_ious(gt, pred, ious, iou_threshold)
    return _VideoResult(
        ranked=ranked,
        pairs=pairs,
        ap=curve_from_ranked(ranked, len(gt.observations)),
        ids=idf1_from_ious(gt, pred, ious, iou_threshold),
        tracks=mt_ml_from_pairs(gt, pairs),
        switches=id_switches_from_ious(gt, pred, ious, pairs, iou_threshold, persistence),
        hl=hamming_loss(pairs, n_labels),
    )


def _metric_block(
    ap: APResult, ids: IdMatchResult, tracks: MtMlResult, switches: int, hl: HammingResult
) -> MetricBlock:
    """The one place a `MetricBlock` is made, for a video or the aggregate."""
    flag_conditions = (
        ("identity_vacuous", ids.vacuous),
        ("score_ties", ap.had_score_ties),
        ("no_predictions", ids.idtp + ids.idfp == 0),
        ("no_ground_truth", ids.idtp + ids.idfn == 0),
    )
    return MetricBlock(
        ap=ap.ap,
        ap_reason=ap.reason,
        hl=hl.value,
        hl_reason=hl.reason,
        idf1=ids.idf1,
        idtp=ids.idtp,
        idfp=ids.idfp,
        idfn=ids.idfn,
        mt_count=tracks.mt_count,
        ml_count=tracks.ml_count,
        n_gt_tracklets=tracks.n_tracklets,
        mt_pct=tracks.mt_pct,
        ml_pct=tracks.ml_pct,
        id_switches=switches,
        tp=ap.tally.tp,
        fp=ap.tally.fp,
        fn=ap.tally.fn,
        n_matched_pairs=hl.n_pairs,
        wrong_label_bits=hl.wrong_bits,
        flags=tuple(name for name, holds in flag_conditions if holds),
    )


def _aggregate_block(results: Sequence[_VideoResult], n_labels: int) -> tuple[MetricBlock, APResult]:
    """Reduce per-video results, in video_id order, to the aggregate block and its pooled AP."""
    ids = IdMatchResult(
        idtp=sum(r.ids.idtp for r in results),
        idfp=sum(r.ids.idfp for r in results),
        idfn=sum(r.ids.idfn for r in results),
        pairing=(),
        vacuous=all(r.ids.vacuous for r in results),
    )
    tracks = MtMlResult(
        mt_count=sum(r.tracks.mt_count for r in results),
        ml_count=sum(r.tracks.ml_count for r in results),
        n_tracklets=sum(r.tracks.n_tracklets for r in results),
        coverage=(),
    )
    # The pooled ranking of every prediction against every GT observation.
    pooled = curve_from_ranked(pool_rankings(r.ranked for r in results), ids.idtp + ids.idfn)
    return _metric_block(
        pooled,
        ids,
        tracks,
        sum(r.switches for r in results),
        hamming_loss(merge_pair_sets(r.pairs for r in results), n_labels),
    ), pooled


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
    counterpart. The aggregate is reduced from the per-video results: its AP
    pools every prediction into one ranking of the per-video TP flags (the
    report's ``pooled_ap``, equal to `average_precision` of the same
    records), and its identification, MT/ML, switch and action-pair
    tallies are exact sums of the per-video tallies. A gate outside (0, 1) or a video_id repeated on
    either side is a ValueError.

    ``max_workers`` is accepted and ignored: videos are always evaluated
    serially, since a thread pool gained nothing here. The keyword stays only
    because the committed benchmark still passes ``max_workers=1``.
    """
    check_gate(iou_threshold)
    aligned = aligned_records(gt_records, pred_records)
    results = [_evaluate_one(gt, pred, iou_threshold, n_labels, id_persistence) for gt, pred in aligned]
    per_video = {
        gt.video_id: _metric_block(r.ap, r.ids, r.tracks, r.switches, r.hl)
        for (gt, _), r in zip(aligned, results)
    }
    aggregate, pooled_ap = _aggregate_block(results, n_labels)

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
    return EvalReport(config=resolved, aggregate=aggregate, per_video=per_video, pooled_ap=pooled_ap)
