"""Shared builders for test fixtures, and the reference checks of the parser, of `iou_matrix` and of AP's greedy flags."""

from dataclasses import dataclass
from typing import Optional

from asadeval.model import DEFAULT_N_LABELS, ActorObservation, BoundingBox, VideoRecord

# Two comfortably disjoint boxes used all over the fixtures.
LEFT = (0.1, 0.1, 0.3, 0.3)
RIGHT = (0.6, 0.6, 0.8, 0.8)


def obs(video_id, keyframe, actor_id, box_coords, actions=(1,), score=1.0):
    return ActorObservation(
        video_id=video_id,
        keyframe=keyframe,
        box=BoundingBox(*box_coords),
        actor_id=actor_id,
        actions=frozenset(actions),
        score=score,
    )


def record(video_id, observations):
    return VideoRecord(video_id=video_id, observations=tuple(observations))


def track_obs(video_id, actor_id, keyframes, box_coords, actions=(1,), score=1.0):
    """The same box repeated across a range of keyframes."""
    return [obs(video_id, kf, actor_id, box_coords, actions, score) for kf in keyframes]


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection over union of two boxes; 0 when disjoint, symmetric.

    The oracle of `matching.iou_matrix`, which takes these float operations
    in this order.
    """
    ix1 = max(a.x1, b.x1)
    iy1 = max(a.y1, b.y1)
    ix2 = min(a.x2, b.x2)
    iy2 = min(a.y2, b.y2)
    iw = ix2 - ix1
    ih = iy2 - iy1
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    area_a = max(0.0, a.x2 - a.x1) * max(0.0, a.y2 - a.y1)
    area_b = max(0.0, b.x2 - b.x1) * max(0.0, b.y2 - b.y1)
    union = area_a + area_b - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def greedy_flags(overlaps, scores, iou_threshold: float) -> list[bool]:
    """One keyframe's TP flags, by the scalar loop: the oracle of `detection._greedy_flags`.

    Predictions (columns of the GT x prediction IoU matrix ``overlaps``) are
    visited in descending score, ties in column order; each claims the
    unclaimed row of highest IoU, the first of equal ones, if that IoU
    reaches the threshold.
    """
    # A claimed row is set to -1 in a copy so it never wins again; argmax keeps
    # the first of equal overlaps, as a strict ">" scan over the rows would.
    flags = [False] * len(scores)
    if overlaps.shape[0]:
        overlaps = overlaps.copy()
        for idx in sorted(range(len(scores)), key=lambda i: -scores[i]):
            best_gt = int(overlaps[:, idx].argmax())
            if overlaps[best_gt, idx] >= iou_threshold:
                overlaps[best_gt, :] = -1.0
                flags[idx] = True
    return flags


@dataclass(frozen=True)
class Violation:
    """A single invariant breach found by `validate_record`."""

    rule: str
    message: str
    keyframe: Optional[int] = None
    actor_id: Optional[int] = None

    def __str__(self) -> str:
        where = []
        if self.keyframe is not None:
            where.append(f"keyframe={self.keyframe}")
        if self.actor_id is not None:
            where.append(f"actor_id={self.actor_id}")
        suffix = f" ({', '.join(where)})" if where else ""
        return f"{self.rule}: {self.message}{suffix}"


def validate_record(
    record: VideoRecord,
    role: str = "pred",
    n_labels: int = DEFAULT_N_LABELS,
) -> list[Violation]:
    """Check every type invariant of a record; violations are data, not errors.

    The whole-record oracle of the rules `io_formats.parse_annotations`
    checks row by row.

    Args:
        record: the record to check.
        role: "gt" requires non-empty label sets and score 1.0 on every
            observation; "pred" allows empty label sets and any score in [0, 1].
        n_labels: size of the action-label universe.

    Returns:
        Empty list iff all invariants hold. Deterministic and independent of
        the order observations were supplied in (records canonicalize their
        observation order at construction).
    """
    if role not in ("gt", "pred"):
        raise ValueError(f"role must be 'gt' or 'pred', got {role!r}")
    violations: list[Violation] = []

    seen: dict[tuple[int, int], int] = {}
    for obs in record.observations:
        key = (obs.keyframe, obs.actor_id)
        seen[key] = seen.get(key, 0) + 1
    for (kf, actor_id), count in seen.items():
        if count > 1:
            violations.append(
                Violation(
                    rule="duplicate_identity",
                    message=f"{count} observations share one identity at a keyframe",
                    keyframe=kf,
                    actor_id=actor_id,
                )
            )

    for obs in record.observations:
        kf, actor_id, box = obs.keyframe, obs.actor_id, obs.box
        if obs.video_id != record.video_id:
            violations.append(
                Violation(
                    rule="video_id_mismatch",
                    message=f"observation video_id {obs.video_id!r} != record {record.video_id!r}",
                    keyframe=kf,
                    actor_id=actor_id,
                )
            )
        if kf < 0:
            violations.append(
                Violation("bad_keyframe", "keyframe must be >= 0", kf, actor_id)
            )
        if actor_id < 0:
            violations.append(
                Violation("bad_actor_id", "actor_id must be >= 0", kf, actor_id)
            )
        if not (box.x1 < box.x2 and box.y1 < box.y2):
            violations.append(
                Violation("degenerate_box", "box has non-positive extent", kf, actor_id)
            )
        if not all(0.0 <= value <= 1.0 for value in (box.x1, box.y1, box.x2, box.y2)):
            violations.append(
                Violation("box_out_of_range", "coordinates outside [0, 1]", kf, actor_id)
            )
        if not (0.0 <= obs.score <= 1.0):
            violations.append(
                Violation("bad_score", f"score {obs.score} outside [0, 1]", kf, actor_id)
            )
        if role == "gt":
            if not obs.actions:
                violations.append(
                    Violation("empty_actions", "ground truth requires a non-empty label set", kf, actor_id)
                )
            if obs.score != 1.0:
                violations.append(
                    Violation("gt_score", "ground-truth score must be 1.0", kf, actor_id)
                )
        for label in obs.actions:
            if not (1 <= label <= n_labels):
                violations.append(
                    Violation("bad_label", f"action label {label} outside [1, {n_labels}]", kf, actor_id)
                )
    return violations
