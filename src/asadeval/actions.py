"""Multi-label action scoring over gated bipartite-matched actor pairs.

Occluding actors can overlap each other above the gate, so predicted and
ground-truth boxes are first paired one-to-one per keyframe by the optimal
gated assignment; pairs failing the gate are excluded. The Hamming loss then
averages per-label disagreement (XOR of the two boolean label vectors) over
all surviving pairs, so the reported quantity is HL@gate. The pairs are a
`match_corpus` result's gated pairs, which `match_pairs` reads as
observations; MT/ML counts their GT side. A report counts
each pair's wrong bits from the label sets of its two rows, which the
records' column tables hold (`wrong_bits`), without building the pair or
observation objects; `hamming_loss` counts a `MatchedPairSet`'s pairs by
the same rule. Both refuse labels outside [1, n_labels] (`check_labels`).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from .matching import DEFAULT_IOU_GATE, _CorpusMatch, match_corpus
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
    found = match_corpus([(gt, pred)], iou_threshold).pair_rows  # a corpus of one: its rows are the records'
    return MatchedPairSet(pairs=tuple(
        MatchedPair(gt=gt.observations[i], pred=pred.observations[j])
        for i, j in zip(found.gt.tolist(), found.pred.tolist())
    ))


def wrong_bits(corpus: _CorpusMatch) -> list[int]:
    """The wrong label bits of each of the corpus's pairs (`pair_rows`), in its order.

    A pair's wrong bits are the size of its two label sets' symmetric
    difference, as in `hamming_loss`; the sets are the records' column
    tables' (`model._Table.labels`).
    """
    gt_labels = [labels for gt, _ in corpus.videos for labels in gt._table.labels]
    pred_labels = [labels for _, pred in corpus.videos for labels in pred._table.labels]
    found = corpus.pair_rows
    return [
        len(gt_labels[i].symmetric_difference(pred_labels[j]))
        for i, j in zip(found.gt.tolist(), found.pred.tolist())
    ]


def merge_pair_sets(pair_sets: Iterable[MatchedPairSet]) -> MatchedPairSet:
    """Concatenate per-video pair sets into one set; the committed benchmark imports it."""
    merged: list[MatchedPair] = []
    for pair_set in pair_sets:
        merged.extend(pair_set.pairs)
    return MatchedPairSet(pairs=tuple(merged))


def hamming_loss(pairs: MatchedPairSet, n_labels: int = DEFAULT_N_LABELS) -> HammingResult:
    """Mean per-label XOR disagreement over all matched pairs.

    Each label present in exactly one of the two sets contributes one wrong
    bit; the loss is wrong_bits / (n_pairs * n_labels), in [0, 1], once
    `check_labels` has passed every label.
    """
    rows = [obs for pair in pairs.pairs for obs in (pair.gt, pair.pred)]
    check_labels([obs.actions for obs in rows], n_labels, rows.__getitem__)
    wrong = sum(
        len(pair.gt.actions.symmetric_difference(pair.pred.actions))
        for pair in pairs.pairs
    )
    return _hamming_result(wrong, pairs.n_pairs, n_labels)


def check_labels(
    label_sets: Sequence[frozenset[int]], n_labels: int, observation: Callable[[int], ActorObservation]
) -> None:
    """ValueError unless ``n_labels`` >= 1 and each label is a `numbers.Integral`, not a bool, in [1, n_labels].

    The error names the first refused label and its row's video, keyframe
    and actor (``observation(row)``). Each distinct set object is checked
    once, and each distinct label of each type: {1} equals {True}.
    """
    if n_labels < 1:
        raise ValueError("n_labels must be positive")

    def refused(label) -> bool:
        return isinstance(label, bool) or not isinstance(label, numbers.Integral) or not 1 <= label <= n_labels

    distinct = {id(labels): labels for labels in label_sets}.values()
    if any(refused(label) for _, label in {(type(label), label) for labels in distinct for label in labels}):
        row, label = next((row, label) for row, labels in enumerate(label_sets) for label in labels if refused(label))
        obs = observation(row)
        raise ValueError(f"video {obs.video_id!r}, keyframe {obs.keyframe}, actor {obs.actor_id}: "
                         f"action label {label!r} is not an integer in [1, {n_labels}]")


def _hamming_result(wrong: int, n_pairs: int, n_labels: int) -> HammingResult:
    """The HL of ``wrong`` bits over ``n_pairs`` pairs of ``n_labels`` labels (`check_labels`); null with no pairs."""
    if n_pairs == 0:
        return HammingResult(
            value=None, reason=HL_NO_PAIRS, wrong_bits=0, n_pairs=0, n_labels=n_labels
        )
    return HammingResult(
        value=wrong / (n_pairs * n_labels),
        reason=None,
        wrong_bits=wrong,
        n_pairs=n_pairs,
        n_labels=n_labels,
    )
