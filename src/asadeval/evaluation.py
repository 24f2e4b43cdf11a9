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
flags (`_ranked_ap`); the aggregate's ranks both arrays whole, and the
report carries that pooled `APResult` (outside its JSON) for whoever writes
the PR curve. Every other aggregate tally is the sum of the videos'.

A block is made from its integer tallies, by one builder (`_metric_block`)
for a video and for the aggregate alike: IDF1, MT%, ML%, HL and the tally
flags follow from them, and only the AP value and its score-tie flag come
from the AP result. `io_formats.report_from_dict` calls the same builder to
check a report it reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from itertools import accumulate
from typing import Optional, Sequence

import numpy as np

from .actions import _hamming_result, check_labels, wrong_bits
from .detection import AP_NO_GROUND_TRUTH, APResult, _ranked_ap
from .identity import _idf1_value, _tracklet_pct, id_counts, switch_counts, track_coverage
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


# Every int field of a block is a tally, and the aggregate's is the sum of the videos'.
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
    ap: Optional[float], ap_reason: Optional[str], score_ties: bool, n_labels: int, **tallies: int
) -> MetricBlock:
    """The one place a `MetricBlock` is made, from its int ``tallies`` (`SUMMED_TALLIES`) and its AP.

    ``ap``, ``ap_reason`` and ``score_ties`` are the AP result's value,
    reason and ``had_score_ties``. Every other field follows from the
    tallies and, for HL, ``n_labels``; so do ``ap`` and ``ap_reason``
    where there is no ground truth (tp + fn == 0). IDF1, MT% and ML% take
    the formulas `IdMatchResult` and `MtMlResult` take (`identity._idf1_value`,
    `identity._tracklet_pct`), and HL the one `hamming_loss` takes.
    """
    idtp, idfp, idfn = tallies["idtp"], tallies["idfp"], tallies["idfn"]
    n_tracklets = tallies["n_gt_tracklets"]
    hl = _hamming_result(tallies["wrong_label_bits"], tallies["n_matched_pairs"], n_labels)
    flag_conditions = (
        ("identity_vacuous", 2 * idtp + idfp + idfn == 0),  # no observation on either side
        ("score_ties", score_ties),
        ("no_predictions", idtp + idfp == 0),
        ("no_ground_truth", idtp + idfn == 0),
    )
    has_gt = tallies["tp"] + tallies["fn"] > 0
    return MetricBlock(
        ap=ap if has_gt else None,
        ap_reason=ap_reason if has_gt else AP_NO_GROUND_TRUTH,
        hl=hl.value,
        hl_reason=hl.reason,
        idf1=_idf1_value(idtp, idfp, idfn),
        mt_pct=_tracklet_pct(tallies["mt_count"], n_tracklets),
        ml_pct=_tracklet_pct(tallies["ml_count"], n_tracklets),
        flags=tuple(name for name, holds in flag_conditions if holds),
        **tallies,
    )


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

    The report's ``config`` echoes the settings the evaluation used, then
    the items of ``config``; a ``config`` key naming one of those settings
    is a ValueError, so the echo cannot misstate them.

    ``max_workers`` is accepted and ignored: videos are always evaluated
    serially, since a thread pool gained nothing here. The keyword stays only
    because the committed benchmark still passes ``max_workers=1``.
    """
    resolved = {
        "tool": "asadeval",
        "version": __version__,
        "iou_threshold": iou_threshold,
        "n_labels": n_labels,
        "id_persistence": id_persistence,
        "ap_label": f"AP@{iou_threshold:g}",
        "hl_label": f"HL@{iou_threshold:g}",
    }
    clashes = sorted(resolved.keys() & (config or {}).keys())
    if clashes:
        raise ValueError(f"config key {clashes[0]!r} would overwrite a setting the evaluation used")
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
    results = zip(aligned, id_counts(corpus), switch_counts(corpus, id_persistence))
    per_video = {}
    for v, ((gt, _), ids, switches) in enumerate(results):
        start, stop = pair_bounds[v], pair_bounds[v + 1]
        preds = slice(pred_rows[v], pred_rows[v + 1])
        ap = _ranked_ap(corpus.pred.scores[preds], corpus.flags[preds], len(gt))
        tracks = track_coverage(gt, covered[gt_rows[v] : gt_rows[v + 1]])
        per_video[gt.video_id] = _metric_block(
            ap.ap, ap.reason, ap.had_score_ties, n_labels,
            tp=ap.tally.tp, fp=ap.tally.fp, fn=ap.tally.fn,
            idtp=ids.idtp, idfp=ids.idfp, idfn=ids.idfn,
            mt_count=tracks.mt_count, ml_count=tracks.ml_count, n_gt_tracklets=tracks.n_tracklets,
            id_switches=switches,
            n_matched_pairs=stop - start, wrong_label_bits=wrong[stop] - wrong[start],
        )
    totals = {name: sum(getattr(block, name) for block in per_video.values()) for name in SUMMED_TALLIES}
    # The pooled ranking of every prediction against every GT observation.
    pooled_ap = _ranked_ap(corpus.pred.scores, corpus.flags, totals["tp"] + totals["fn"])
    aggregate = _metric_block(pooled_ap.ap, pooled_ap.reason, pooled_ap.had_score_ties, n_labels, **totals)
    return EvalReport(
        config={**resolved, **(config or {})}, aggregate=aggregate, per_video=per_video, pooled_ap=pooled_ap
    )
