"""Multi-label action scoring over gated bipartite-matched actor pairs.

Occluding actors can overlap each other above the gate, so predicted and
ground-truth boxes are first paired one-to-one per keyframe by the optimal
gated assignment; pairs failing the gate are excluded. The Hamming loss then
averages per-label disagreement (XOR of the two boolean label vectors) over
all surviving pairs, so the reported quantity is HL@gate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .matching import DEFAULT_IOU_GATE, IouTable, frame_ious, gated_pairs
from .model import DEFAULT_N_LABELS, ActorObservation, VideoRecord

HL_NO_PAIRS = "no pairs at IoU >= gate"


@dataclass(frozen=True)
class MatchedPair:
    gt: ActorObservation
    pred: ActorObservation


@dataclass(frozen=True)
class MatchedPairSet:
    """Gate-surviving (ground truth, prediction) pairs across keyframes.

    Within a keyframe no observation appears in two pairs; every pair's
    boxes overlap at IoU >= gate.
    """

    pairs: tuple[MatchedPair, ...]

    @property
    def n_pairs(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class HammingResult:
    """HL value with the raw counts needed to recompute it.

    ``value`` is None (with ``reason``) when no pairs survived the gate;
    that is deliberately distinct from 0, which means every matched pair had
    identical label sets.
    """

    value: Optional[float]
    reason: Optional[str]
    wrong_bits: int
    n_pairs: int
    n_labels: int


def match_pairs(
    gt: VideoRecord,
    pred: VideoRecord,
    iou_threshold: float = DEFAULT_IOU_GATE,
) -> MatchedPairSet:
    """Pair ground truth with predictions per keyframe by gated assignment.

    All predictions participate regardless of confidence. Identity and scores
    play no role in the pairing; only geometry does. This is the one gated
    matching per keyframe: HL scores its pairs and MT/ML counts their GT side.
    """
    return match_pairs_from_ious(gt, pred, frame_ious(gt, pred), iou_threshold)


def match_pairs_from_ious(
    gt: VideoRecord, pred: VideoRecord, ious: IouTable, iou_threshold: float
) -> MatchedPairSet:
    """`match_pairs` on the videos' `frame_ious` table."""
    return MatchedPairSet(pairs=tuple(
        MatchedPair(gt=gt.frames[keyframe][g_idx], pred=pred.frames[keyframe][p_idx])
        for keyframe, frame_pairs in gated_pairs(ious, iou_threshold).items()
        for g_idx, p_idx in frame_pairs
    ))


def merge_pair_sets(pair_sets: Iterable[MatchedPairSet]) -> MatchedPairSet:
    """Concatenate per-video pair sets into one evaluation-wide set."""
    merged: list[MatchedPair] = []
    for pair_set in pair_sets:
        merged.extend(pair_set.pairs)
    return MatchedPairSet(pairs=tuple(merged))


def hamming_loss(
    pairs: MatchedPairSet, n_labels: int = DEFAULT_N_LABELS
) -> HammingResult:
    """Mean per-label XOR disagreement over all matched pairs.

    Each label present in exactly one of the two sets contributes one wrong
    bit; the loss is wrong_bits / (n_pairs * n_labels), in [0, 1].
    """
    if n_labels < 1:
        raise ValueError("n_labels must be positive")
    if pairs.n_pairs == 0:
        return HammingResult(
            value=None, reason=HL_NO_PAIRS, wrong_bits=0, n_pairs=0, n_labels=n_labels
        )
    wrong = sum(
        len(pair.gt.actions.symmetric_difference(pair.pred.actions))
        for pair in pairs.pairs
    )
    return HammingResult(
        value=wrong / (pairs.n_pairs * n_labels),
        reason=None,
        wrong_bits=wrong,
        n_pairs=pairs.n_pairs,
        n_labels=n_labels,
    )
