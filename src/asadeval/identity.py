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
families share, and `idf1` and `id_switches` on a corpus of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .actions import MatchedPairSet, match_pairs
from .matching import DEFAULT_IOU_GATE, _CorpusMatch, gated_cost, match_corpus, solve_assignment
from .model import VideoRecord, build_tracklets

MT_THRESHOLD = 0.8
ML_THRESHOLD = 0.2


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
        """2*IDTP / (2*IDTP + IDFP + IDFN); 1.0 when vacuous (both sides empty)."""
        if self.vacuous:
            return 1.0
        denom = 2 * self.idtp + self.idfp + self.idfn
        return 2 * self.idtp / denom if denom else 0.0


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
        return 100.0 * self.mt_count / self.n_tracklets if self.n_tracklets else 0.0

    @property
    def ml_pct(self) -> float:
        return 100.0 * self.ml_count / self.n_tracklets if self.n_tracklets else 0.0


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
    """Each video's `idf1` counts, from the corpus's IoU tables.

    `solve_assignment` pairs the identities with a gated hit (the rest add
    nothing to IDTP, and dropping them keeps most problems enumerable) on
    their negated integer counts, so IDTP is exact and ties take the
    lexicographically smallest assignment in ascending actor ids. A pairing
    of at most 3 identities with hits on one side and at most 10 on the
    other, such as a three-actor scene's, is thus enumerated without
    importing scipy; one of 4 or more on both sides takes the LSA route,
    unless each identity hits exactly one on the other side, as in a clean
    tracking, whose pairing is those hits (`solve_assignment`'s sole optimum).
    """
    results = []
    for (gt, pred), ious in zip(corpus.videos, corpus.tables):
        gt_ids = gt.actor_ids
        pred_ids = pred.actor_ids
        gt_index = {actor: i for i, actor in enumerate(gt_ids)}
        pred_index = {actor: j for j, actor in enumerate(pred_ids)}

        # One count per gated hit, at flat index gt_index * n_pred + pred_index;
        # bincount adds up repeated indices.
        n_gt, n_pred = len(gt_ids), len(pred_ids)
        hits = [np.zeros(0, dtype=np.int64)]
        for keyframe, frame_iou in ious.items():
            rows = np.array([gt_index[o.actor_id] for o in gt.frames[keyframe]])
            cols = np.array([pred_index[o.actor_id] for o in pred.frames[keyframe]])
            hit_rows, hit_cols = np.nonzero(frame_iou >= corpus.gate)
            hits.append(rows[hit_rows] * n_pred + cols[hit_cols])
        overlap = np.bincount(np.concatenate(hits), minlength=n_gt * n_pred).reshape(n_gt, n_pred)
        hit_gt = np.flatnonzero(overlap.any(axis=1))
        hit_pred = np.flatnonzero(overlap.any(axis=0))
        counts = overlap[np.ix_(hit_gt, hit_pred)]

        paired = [(r, c) for r, c in solve_assignment(-counts, drop_gated=False).pairs if counts[r, c] > 0]
        idtp = sum(int(counts[r, c]) for r, c in paired)
        pairing = tuple((gt_ids[hit_gt[r]], pred_ids[hit_pred[c]]) for r, c in paired)
        total_gt, total_pred = len(gt.observations), len(pred.observations)
        vacuous = total_gt + total_pred == 0
        results.append(IdMatchResult(idtp, total_pred - idtp, total_gt - idtp, pairing, vacuous))
    return results


def mt_ml_from_pairs(gt: VideoRecord, pairs: MatchedPairSet) -> MtMlResult:
    """MT/ML of ``gt``'s tracklets, covered where they appear on the pairs' GT side."""
    covered = {(pair.gt.keyframe, pair.gt.actor_id) for pair in pairs.pairs}
    coverage: list[TrackCoverage] = []
    mt_count = 0
    ml_count = 0
    for actor_id, observations in build_tracklets(gt).items():
        hits = sum(1 for obs in observations if (obs.keyframe, actor_id) in covered)
        entry = TrackCoverage(actor_id=actor_id, covered=hits, total=len(observations))
        coverage.append(entry)
        if entry.ratio >= MT_THRESHOLD:
            mt_count += 1
        if entry.ratio <= ML_THRESHOLD:
            ml_count += 1
    return MtMlResult(
        mt_count=mt_count,
        ml_count=ml_count,
        n_tracklets=len(coverage),
        coverage=tuple(coverage),
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
    ratio >= 0.8 is MT, ratio <= 0.2 is ML. `match_pairs` checks the gate.
    """
    return mt_ml_from_pairs(gt, match_pairs(gt, pred, iou_threshold))


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
    corpus = match_corpus([(gt, pred)], iou_threshold)
    # With persistence, a keyframe's full problem is read only where nothing
    # persisted, so it is solved there, as that keyframe's residual.
    (count,) = switch_counts(corpus, [{}] if persistence else corpus.pairs, persistence)
    return count


def switch_counts(
    corpus: _CorpusMatch,
    solved: Sequence[Mapping[int, tuple[tuple[int, int], ...]]],
    persistence: bool,
) -> list[int]:
    """Each video's `id_switches`, from the corpus's IoU tables: only their keyframes can match.

    ``solved[v]`` maps keyframes of video ``v`` to their gated pairs, such as
    every keyframe's (the corpus's ``pairs``) in `evaluate_records`. Where
    nothing persisted at such a keyframe, the residual problem is that
    keyframe's full problem, so its pairs are read from ``solved`` instead
    of solved again. Every other residual is solved here: where some actors
    persisted and others did not, or where nothing persisted at a keyframe
    missing from ``solved``.
    """
    counts = []
    for (gt, pred), ious, known in zip(corpus.videos, corpus.tables, solved):
        last_match: dict[int, int] = {}
        switches = 0
        for keyframe, overlaps in ious.items():
            g_frame = gt.frames[keyframe]
            p_frame = pred.frames[keyframe]
            matches: dict[int, int] = {}  # persisted pairs first, then the residual's
            claimed: set[int] = set()
            if persistence:
                column_of = {o.actor_id: j for j, o in enumerate(p_frame)}
                for i, g_obs in enumerate(g_frame):
                    prev = last_match.get(g_obs.actor_id)
                    j = column_of.get(prev)
                    if j is not None and prev not in claimed and overlaps[i, j] >= corpus.gate:
                        matches[g_obs.actor_id] = prev
                        claimed.add(prev)

            if not matches and keyframe in known:
                residual_pairs = known[keyframe]
            else:
                rows = [i for i, o in enumerate(g_frame) if o.actor_id not in matches]
                cols = [j for j, o in enumerate(p_frame) if o.actor_id not in claimed]
                residual_pairs = ()
                if rows and cols:
                    residual = gated_cost(overlaps[np.ix_(rows, cols)], corpus.gate)
                    residual_pairs = [(rows[r], cols[c]) for r, c in solve_assignment(residual).pairs]
            for i, j in residual_pairs:
                matches[g_frame[i].actor_id] = p_frame[j].actor_id

            for gt_actor, pred_actor in matches.items():
                prev = last_match.get(gt_actor)
                if prev is not None and prev != pred_actor:
                    switches += 1
                last_match[gt_actor] = pred_actor
        counts.append(switches)
    return counts
