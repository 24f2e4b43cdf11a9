"""Actor-identification metrics: IDF1, mostly-tracked/lost, and ID switches.

IDF1 follows the identification-measure convention: a one-to-one pairing
between ground-truth identities and predicted identities is chosen to
maximize the number of correctly identified observations (IDTP), then
IDF1 = 2*IDTP / (2*IDTP + IDFP + IDFN). MT/ML classify each ground-truth
tracklet by the fraction of its keyframes that appear on the ground-truth
side of `match_pairs`' gated pairs (identity-agnostic; the same pairs HL
scores), with inclusive thresholds at 0.8 and 0.2. ID switches count changes
of the matched predicted identity between a ground-truth tracklet's
consecutive matched keyframes, with optional match persistence.

`id_counts` and `switch_counts` read a `match_corpus` result, one result
per video: `evaluate_records` calls them on the corpus's matching that all
families share, and `idf1` and `id_switches` on a corpus of one. Both read
the records' column tables (`model._Table`) at each shape chunk's rows:
IDF1's gated hits take one `np.nonzero` per chunk, mapped to actor codes,
and the switch counter reads each chunk's actor codes and gate hits as
lists. It has one route, with persistence or without: a keyframe where no
actor kept its match takes the corpus's gated pairs (`pair_rows`), which
the report reads anyway, and only a keyframe where some actors persisted
solves its residual. `track_coverage` counts each GT actor's rows that
the gated pairs cover, for `mt_ml` and the report alike.

Each ratio has one formula, here: `_idf1_value` (1.0 on a zero
denominator, where neither side has an observation) and `_tracklet_pct`
(0.0 where there is no tracklet). `IdMatchResult.idf1`, `MtMlResult.mt_pct`
and ``ml_pct`` call them on their counts, and `evaluation._metric_block`
on a block's tallies, so a report and the per-video functions cannot
disagree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matching import DEFAULT_IOU_GATE, _CorpusMatch, gated_cost, match_corpus, solve_assignment
from .model import VideoRecord, _check_no_repeat

MT_THRESHOLD = 0.8
ML_THRESHOLD = 0.2


def _idf1_value(idtp: int, idfp: int, idfn: int) -> float:
    """2*IDTP / (2*IDTP + IDFP + IDFN), and 1.0 where no observation is on either side (a zero denominator)."""
    denominator = 2 * idtp + idfp + idfn
    return 2 * idtp / denominator if denominator else 1.0


def _tracklet_pct(count: int, n_tracklets: int) -> float:
    """``count`` as a percentage of ``n_tracklets``, and 0.0 where there is no tracklet."""
    return 100.0 * count / n_tracklets if n_tracklets else 0.0


@dataclass(frozen=True)
class IdMatchResult:
    """Observation-level identification counts under the optimal identity pairing."""

    idtp: int
    idfp: int
    idfn: int
    pairing: tuple[tuple[int, int], ...]  # (gt_actor_id, pred_actor_id), overlap > 0 only
    vacuous: bool = False

    @property
    def idf1(self) -> float:
        """`_idf1_value` of the counts; 1.0 when vacuous (both sides empty)."""
        return 1.0 if self.vacuous else _idf1_value(self.idtp, self.idfp, self.idfn)


@dataclass(frozen=True)
class TrackCoverage:
    """Covered/total keyframes for one ground-truth tracklet."""

    actor_id: int
    covered: int
    total: int

    @property
    def ratio(self) -> float:
        return self.covered / self.total if self.total else 0.0


@dataclass(frozen=True)
class MtMlResult:
    mt_count: int
    ml_count: int
    n_tracklets: int
    coverage: tuple[TrackCoverage, ...]

    @property
    def mt_pct(self) -> float:
        return _tracklet_pct(self.mt_count, self.n_tracklets)

    @property
    def ml_pct(self) -> float:
        return _tracklet_pct(self.ml_count, self.n_tracklets)


def idf1(
    gt: VideoRecord,
    pred: VideoRecord,
    iou_threshold: float = DEFAULT_IOU_GATE,
) -> tuple[float, IdMatchResult]:
    """Ratio of correctly identified observations under the best identity pairing.

    An observation pair counts toward IDTP iff it shares a keyframe, the two
    identities are paired, and the boxes overlap at IoU >= threshold. The
    pairing maximizing IDTP is found by solving an assignment over the
    per-identity overlap counts; maximizing IDTP simultaneously minimizes
    misses plus false positives, because IDFN = gt_total - IDTP and
    IDFP = pred_total - IDTP.

    Empty vs empty is vacuously perfect (flagged); empty ground truth with
    predictions present scores 0.
    """
    (result,) = id_counts(match_corpus([(gt, pred)], iou_threshold))
    return result.idf1, result


def id_counts(corpus: _CorpusMatch) -> list[IdMatchResult]:
    """Each video's `idf1` counts, from the corpus's IoU chunks.

    Each chunk's gated hits take one `np.nonzero`; their rows map to actor
    codes through the corpus's columns, and one `np.unique` counts them per
    video and identity pair. `solve_assignment` pairs the identities
    with a gated hit (the rest add nothing to IDTP, and dropping them keeps
    most problems enumerable) on their negated integer counts, so IDTP is
    exact and ties take the lexicographically smallest assignment in
    ascending actor ids. A pairing of at most 3 identities with hits on one
    side and at most 10 on the other, such as a three-actor scene's, is thus
    enumerated without loading the solver; one of 4 or more on both sides takes
    the LSA route. Where each identity hits exactly one on the other side, as
    in a clean tracking, that route makes one solve and no sub-solve.
    """
    n_gt_ids = np.array([len(gt.actor_ids) for gt, _ in corpus.videos], np.int64)
    n_pred_ids = np.array([len(pred.actor_ids) for _, pred in corpus.videos], np.int64)
    # Video v's identity pairs are coded from starts[v], gt * n_pred_ids[v] + pred.
    starts = np.cumsum(np.append(0, n_gt_ids * n_pred_ids))
    hits = [np.zeros(0, dtype=np.int64)]
    for chunk in corpus.chunks:
        member, i, j = np.nonzero(chunk.ious >= corpus.gate)
        video = corpus.keys.video[chunk.index[member]]
        gt_actor = corpus.gt.actors[chunk.rows[member, i]]
        pred_actor = corpus.pred.actors[chunk.cols[member, j]]
        hits.append(starts[video] + gt_actor * n_pred_ids[video] + pred_actor)
    # Only the pairs that occur are counted, so memory follows the hit count.
    codes, overlaps = np.unique(np.concatenate(hits), return_counts=True)
    bounds = np.searchsorted(codes, starts).tolist()

    results = []
    blocks = zip(corpus.videos, starts.tolist(), n_pred_ids.tolist(), bounds, bounds[1:])
    for (gt, pred), start, n_pred, lo, hi in blocks:
        gt_code, pred_code = np.divmod(codes[lo:hi] - start, n_pred)
        hit_gt, rows = np.unique(gt_code, return_inverse=True)
        hit_pred, cols = np.unique(pred_code, return_inverse=True)
        counts = np.zeros((len(hit_gt), len(hit_pred)), np.int64)
        counts[rows, cols] = overlaps[lo:hi]

        paired = [(r, c) for r, c in solve_assignment(-counts, drop_gated=False).pairs if counts[r, c] > 0]
        idtp = sum(int(counts[r, c]) for r, c in paired)
        pairing = tuple((gt.actor_ids[hit_gt[r]], pred.actor_ids[hit_pred[c]]) for r, c in paired)
        total_gt, total_pred = len(gt), len(pred)
        vacuous = total_gt + total_pred == 0
        results.append(IdMatchResult(idtp, total_pred - idtp, total_gt - idtp, pairing, vacuous))
    return results


def track_coverage(gt: VideoRecord, covered: np.ndarray) -> MtMlResult:
    """MT/ML of ``gt``'s tracklets, a keyframe covered where ``covered`` (one bool per table row) holds.

    A duplicate (keyframe, actor_id) is a ValueError (`model._check_no_repeat`).
    """
    _check_no_repeat(gt)
    table = gt._table
    n_tracklets = len(gt.actor_ids)
    totals = np.bincount(table.actors, minlength=n_tracklets)
    hits = np.bincount(table.actors[covered], minlength=n_tracklets)
    ratios = hits / totals
    return MtMlResult(
        mt_count=int(np.count_nonzero(ratios >= MT_THRESHOLD)),
        ml_count=int(np.count_nonzero(ratios <= ML_THRESHOLD)),
        n_tracklets=n_tracklets,
        coverage=tuple(map(TrackCoverage, gt.actor_ids, hits.tolist(), totals.tolist())),
    )


def mt_ml(
    gt: VideoRecord,
    pred: VideoRecord,
    iou_threshold: float = DEFAULT_IOU_GATE,
) -> MtMlResult:
    """Mostly-tracked / mostly-lost classification of ground-truth tracklets.

    Coverage comes from `match_pairs`' gated pairs and is identity-agnostic:
    a keyframe counts as covered when the per-keyframe gated assignment pairs
    the tracklet's box with any predicted box. Thresholds are inclusive:
    ratio >= 0.8 is MT, ratio <= 0.2 is ML. `match_corpus` checks the gate.
    """
    corpus = match_corpus([(gt, pred)], iou_threshold)
    covered = np.zeros(len(gt), bool)
    covered[corpus.pair_rows.gt] = True
    return track_coverage(gt, covered)


def id_switches(
    gt: VideoRecord,
    pred: VideoRecord,
    iou_threshold: float = DEFAULT_IOU_GATE,
    persistence: bool = True,
) -> int:
    """Count matched-identity changes along each ground-truth tracklet.

    Keyframes are processed in order; with ``persistence`` (the default,
    matching the MOT16 convention) a ground-truth actor keeps its previously
    matched predicted identity whenever that identity is still present at the
    gate, before the remainder is assigned optimally. A switch is one event
    where a tracklet's matched predicted identity differs from the identity
    at its previous matched keyframe.
    """
    (count,) = switch_counts(match_corpus([(gt, pred)], iou_threshold), persistence)
    return count


def switch_counts(corpus: _CorpusMatch, persistence: bool) -> list[int]:
    """Each video's `id_switches`, from the corpus's IoU chunks: only their keyframes can match.

    Where nothing persisted at a keyframe, as everywhere without
    ``persistence``, the residual problem is that keyframe's full problem,
    so its pairs are read from the corpus's gated pairs (`pair_rows`)
    instead of solved again. Every other residual, where some actors
    persisted and others did not, is solved here. Actors are read as their
    codes in their record (`_Table`), equal where the ids are, once per
    chunk, as are gate hits.
    """
    gt_actors = [corpus.gt.actors[chunk.rows].tolist() for chunk in corpus.chunks]
    pred_actors = [corpus.pred.actors[chunk.cols].tolist() for chunk in corpus.chunks]
    hits = [(chunk.ious >= corpus.gate).tolist() for chunk in corpus.chunks]
    solved = corpus.pair_rows
    # Each solved pair as its (GT actor, predicted actor).
    known = list(zip(corpus.gt.actors[solved.gt].tolist(), corpus.pred.actors[solved.pred].tolist()))
    bounds = solved.bounds.tolist()
    counts = [0] * len(corpus.videos)
    last_match: dict[int, int] = {}
    video = -1
    for key, (v, chunk, slot) in enumerate(zip(*(column.tolist() for column in corpus.keys))):
        if v != video:
            last_match, video = {}, v
        g_frame, p_frame = gt_actors[chunk][slot], pred_actors[chunk][slot]
        matches: dict[int, int] = {}  # persisted pairs first, then the residual's
        claimed: set[int] = set()
        if persistence and last_match:
            hit = hits[chunk][slot]
            column_of = dict(zip(p_frame, range(len(p_frame))))  # a repeated id's last column
            for i, gt_actor in enumerate(g_frame):
                prev = last_match.get(gt_actor)
                j = column_of.get(prev)
                if j is not None and prev not in claimed and hit[i][j]:
                    matches[gt_actor] = prev
                    claimed.add(prev)

        if not matches:
            matches = dict(known[bounds[key] : bounds[key + 1]])
        elif len(matches) < len(g_frame) and len(claimed) < len(p_frame):  # else every row or every column is taken
            rows = [i for i, actor in enumerate(g_frame) if actor not in matches]
            cols = [j for j, actor in enumerate(p_frame) if actor not in claimed]
            if rows and cols:
                residual = gated_cost(corpus.chunks[chunk].ious[slot][rows][:, cols], corpus.gate)
                for r, c in solve_assignment(residual).pairs:
                    matches[g_frame[rows[r]]] = p_frame[cols[c]]

        for gt_actor, pred_actor in matches.items():
            prev = last_match.get(gt_actor)
            if prev is not None and prev != pred_actor:
                counts[v] += 1
            last_match[gt_actor] = pred_actor
    return counts
