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

`idf1` and `id_switches` are `frame_ious` composed with their ``*_from_ious``
readers, which `evaluate_records` calls on the one table all families share.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .actions import MatchedPairSet, match_pairs
from .matching import DEFAULT_IOU_GATE, IouTable, frame_ious, gated_cost, solve_assignment
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
    result = idf1_from_ious(gt, pred, frame_ious(gt, pred), iou_threshold)
    return result.idf1, result


def idf1_from_ious(
    gt: VideoRecord, pred: VideoRecord, ious: IouTable, iou_threshold: float
) -> IdMatchResult:
    """`idf1`'s counts on the videos' `frame_ious` table."""
    total_gt = len(gt.observations)
    total_pred = len(pred.observations)
    gt_ids = gt.actor_ids
    pred_ids = pred.actor_ids
    gt_index = {actor: i for i, actor in enumerate(gt_ids)}
    pred_index = {actor: j for j, actor in enumerate(pred_ids)}

    overlap = np.zeros((len(gt_ids), len(pred_ids)), dtype=np.int64)
    for keyframe, frame_iou in ious.items():
        rows = np.array([gt_index[o.actor_id] for o in gt.frames[keyframe]])
        cols = np.array([pred_index[o.actor_id] for o in pred.frames[keyframe]])
        np.add.at(overlap, (rows[:, None], cols), frame_iou >= iou_threshold)

    pairing: list[tuple[int, int]] = []
    idtp = 0
    if overlap.size:
        rows, cols = linear_sum_assignment(overlap, maximize=True)
        for r, c in zip(rows, cols):
            count = int(overlap[r, c])
            if count > 0:
                idtp += count
                pairing.append((gt_ids[r], pred_ids[c]))
    vacuous = total_gt + total_pred == 0
    return IdMatchResult(idtp, total_pred - idtp, total_gt - idtp, tuple(sorted(pairing)), vacuous)


def mt_ml_from_pairs(gt: VideoRecord, pairs: MatchedPairSet) -> MtMlResult:
    """MT/ML of ``gt``'s tracklets, covered where they appear on the pairs' GT side."""
    covered = {(pair.gt.keyframe, pair.gt.actor_id) for pair in pairs.pairs}
    coverage: list[TrackCoverage] = []
    mt_count = 0
    ml_count = 0
    for tracklet in build_tracklets(gt):
        hits = sum(
            1 for obs in tracklet.observations if (obs.keyframe, obs.actor_id) in covered
        )
        entry = TrackCoverage(actor_id=tracklet.actor_id, covered=hits, total=len(tracklet))
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
    ratio >= 0.8 is MT, ratio <= 0.2 is ML.
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
    return id_switches_from_ious(gt, pred, frame_ious(gt, pred), iou_threshold, persistence)


def id_switches_from_ious(
    gt: VideoRecord, pred: VideoRecord, ious: IouTable, iou_threshold: float, persistence: bool
) -> int:
    """`id_switches` on the videos' `frame_ious` table: only its keyframes can match."""
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
                if j is not None and prev not in claimed and overlaps[i, j] >= iou_threshold:
                    matches[g_obs.actor_id] = prev
                    claimed.add(prev)

        rows = [i for i, o in enumerate(g_frame) if o.actor_id not in matches]
        cols = [j for j, o in enumerate(p_frame) if o.actor_id not in claimed]
        if rows and cols:
            residual = gated_cost(overlaps[np.ix_(rows, cols)], iou_threshold)
            for r, c in solve_assignment(residual).pairs:
                matches[g_frame[rows[r]].actor_id] = p_frame[cols[c]].actor_id

        for gt_actor, pred_actor in matches.items():
            prev = last_match.get(gt_actor)
            if prev is not None and prev != pred_actor:
                switches += 1
            last_match[gt_actor] = pred_actor
    return switches
