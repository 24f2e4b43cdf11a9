"""Ties the three metric families together into per-video and aggregate reports.

The videos are aligned in video_id order, and the aggregate is reduced from
their results in that order, so results never depend on the order the
records arrive in. `match_corpus` matches every keyframe once for the whole
corpus, batching the keyframes of all videos by shape, from the records'
column tables (`model._Table`), and each metric reader takes that one
object. The gated pairs and AP's TP flags are computed on first read,
across videos, as rows of the corpus's columns. The report reads the pairs as
table rows, with no pair objects: MT/ML counts each GT actor's covered rows
(`track_coverage`, which `mt_ml` calls too), and HL counts the paired rows'
label-set differences (`wrong_bits`), once `check_labels` has passed them.
Each video's AP comes from its slice of the corpus's prediction scores and
flags (`_ranked_ap`), with no curve; the aggregate detection curve ranks
both arrays whole, and the report carries that pooled `APResult` (outside
its JSON) for whoever writes the PR curve. Identification, MT/ML, switch
and matched action-pair tallies sum across videos. One builder makes every
`MetricBlock`, per video and aggregate, so every reported ratio can be
recomputed from the tallies carried next to it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from itertools import accumulate
from typing import Optional, Sequence

import numpy as np

from .actions import HammingResult, _hamming_result, check_labels, wrong_bits
from .detection import APResult, _APSummary, _ranked_ap, curve_from_ranked
from .identity import IdMatchResult, MtMlResult, id_counts, switch_counts, track_coverage
from .matching import DEFAULT_IOU_GATE, match_corpus
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


# Every int field of a block is a tally, and `_aggregate_block` makes the
# aggregate's the sum of the videos'.
SUMMED_TALLIES = tuple(f.name for f in fields(MetricBlock) if f.type == "int")


@dataclass(frozen=True)
class EvalReport:
    """Aggregate plus per-video metrics, with the configuration that made them."""

    config: dict
    aggregate: MetricBlock
    per_video: dict[str, MetricBlock] = field(default_factory=dict)
    # The aggregate's pooled AP, curve included. Not serialized: a report
    # read back from JSON has None here.
    pooled_ap: Optional[APResult] = field(default=None, compare=False, repr=False)


def _metric_block(
    ap: APResult | _APSummary, ids: IdMatchResult, tracks: MtMlResult, switches: int, hl: HammingResult
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


def _aggregate_block(
    blocks: Sequence[MetricBlock], scores: np.ndarray, flags: np.ndarray, n_labels: int
) -> tuple[MetricBlock, APResult]:
    """Reduce per-video blocks, in video_id order, and every prediction's score and flag to the aggregate and its AP."""

    def total(name: str) -> int:
        return sum(getattr(block, name) for block in blocks)

    # Every video is vacuous (no observation on either side) iff every count
    # is 0: idtp + idfn and idtp + idfp count the two sides' observations.
    idtp, idfp, idfn = total("idtp"), total("idfp"), total("idfn")
    ids = IdMatchResult(idtp, idfp, idfn, pairing=(), vacuous=idtp + idfp + idfn == 0)
    tracks = MtMlResult(total("mt_count"), total("ml_count"), total("n_gt_tracklets"), coverage=())
    # The pooled ranking of every prediction against every GT observation.
    pooled = curve_from_ranked(scores, flags, idtp + idfn)
    hl = _hamming_result(total("wrong_label_bits"), total("n_matched_pairs"), n_labels)
    return _metric_block(pooled, ids, tracks, total("id_switches"), hl), pooled


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
    pools every prediction into one ranking of the corpus's TP flags (the
    report's ``pooled_ap``, equal to `average_precision` of the same
    records), and its identification, MT/ML, switch and action-pair
    tallies are exact sums of the per-video tallies. A gate outside (0, 1),
    a video_id repeated on either side, or a label `check_labels` refuses is
    a ValueError. Each video's block equals that video's evaluated alone.

    ``max_workers`` is accepted and ignored: videos are always evaluated
    serially, since a thread pool gained nothing here. The keyword stays only
    because the committed benchmark still passes ``max_workers=1``.
    """
    aligned = aligned_records(gt_records, pred_records)
    corpus = match_corpus(aligned, iou_threshold)
    records = [record for pair in aligned for record in pair]
    check_labels([labels for record in records for labels in record._table.labels], n_labels,
                 lambda row: [obs for record in records for obs in record.observations][row])
    found = corpus.pair_rows
    covered = np.zeros(len(corpus.gt.actors), bool)
    covered[found.gt] = True
    wrong = list(accumulate(wrong_bits(corpus), initial=0))
    gt_rows, pred_rows, pair_bounds = corpus.gt.offsets.tolist(), corpus.pred.offsets.tolist(), corpus.video_pairs
    results = zip(aligned, id_counts(corpus), switch_counts(corpus, found, id_persistence))
    per_video = {}
    for v, ((gt, _), ids, switches) in enumerate(results):
        start, stop = pair_bounds[v], pair_bounds[v + 1]
        preds = slice(pred_rows[v], pred_rows[v + 1])
        per_video[gt.video_id] = _metric_block(
            _ranked_ap(corpus.pred.scores[preds], corpus.flags[preds], len(gt))[0],
            ids,
            track_coverage(gt, covered[gt_rows[v] : gt_rows[v + 1]]),
            switches,
            _hamming_result(wrong[stop] - wrong[start], stop - start, n_labels),
        )
    aggregate, pooled_ap = _aggregate_block(list(per_video.values()), corpus.pred.scores, corpus.flags, n_labels)

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
