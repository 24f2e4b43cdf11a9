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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .actions import MatchedPairSet, match_pairs
from .matching import DEFAULT_IOU_GATE, build_cost_matrix, frame_ious, iou, solve_assignment
from .model import ActorObservation, VideoRecord, build_tracklets

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
    total_gt = len(gt.observations)
    total_pred = len(pred.observations)
    gt_ids = gt.actor_ids
    pred_ids = pred.actor_ids
    gt_index = {actor: i for i, actor in enumerate(gt_ids)}
    pred_index = {actor: j for j, actor in enumerate(pred_ids)}

    overlap = np.zeros((len(gt_ids), len(pred_ids)), dtype=np.int64)
    ious = frame_ious(
        {keyframe: [o.box for o in frame] for keyframe, frame in gt.frames.items()},
        {keyframe: [o.box for o in frame] for keyframe, frame in pred.frames.items()},
    )
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
    result = IdMatchResult(idtp, total_pred - idtp, total_gt - idtp, tuple(sorted(pairing)), vacuous)
    return result.idf1, result


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
    last_match: dict[int, int] = {}
    switches = 0
    for keyframe in sorted(set(gt.frames) | set(pred.frames)):
        g_frame = list(gt.frames.get(keyframe, ()))
        p_frame = list(pred.frames.get(keyframe, ()))
        matches: dict[int, int] = {}

        if persistence and g_frame and p_frame:
            by_pred_id: dict[int, ActorObservation] = {o.actor_id: o for o in p_frame}
            claimed: set[int] = set()
            persisted: set[int] = set()
            for g_obs in g_frame:
                prev = last_match.get(g_obs.actor_id)
                if prev is None or prev in claimed:
                    continue
                p_obs = by_pred_id.get(prev)
                if p_obs is not None and iou(g_obs.box, p_obs.box) >= iou_threshold:
                    matches[g_obs.actor_id] = prev
                    claimed.add(prev)
                    persisted.add(g_obs.actor_id)
            g_frame = [o for o in g_frame if o.actor_id not in persisted]
            p_frame = [o for o in p_frame if o.actor_id not in claimed]

        if g_frame and p_frame:
            problem = build_cost_matrix(
                [o.box for o in g_frame], [o.box for o in p_frame], gate=iou_threshold
            )
            for g_idx, p_idx in solve_assignment(problem).pairs:
                matches[g_frame[g_idx].actor_id] = p_frame[p_idx].actor_id

        for gt_actor, pred_actor in matches.items():
            prev = last_match.get(gt_actor)
            if prev is not None and prev != pred_actor:
                switches += 1
            last_match[gt_actor] = pred_actor
    return switches
