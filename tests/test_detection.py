import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from asadeval.detection import (
    DetectionTally,
    PRPoint,
    average_precision,
    curve_from_ranked,
    pool_rankings,
    precision_recall,
    tally_frame,
)
from asadeval.model import BoundingBox, VideoRecord
from support import LEFT, RIGHT, obs, record

FAR = (0.05, 0.7, 0.25, 0.9)  # disjoint from LEFT and RIGHT


def sweep_ap(gt_records, pred_records, iou_threshold=0.5):
    """Brute-force oracle: evaluate a PR point at every score cutoff, then
    integrate the interpolated curve. Matching at each cutoff is its own
    greedy-by-score pass, independent of the ranked-accumulation code path.
    """

    def frame_iou(a, b):
        ix = max(0.0, min(a.box.x2, b.box.x2) - max(a.box.x1, b.box.x1))
        iy = max(0.0, min(a.box.y2, b.box.y2) - max(a.box.y1, b.box.y1))
        inter = ix * iy
        area = lambda o: (o.box.x2 - o.box.x1) * (o.box.y2 - o.box.y1)
        union = area(a) + area(b) - inter
        return inter / union if union > 0 else 0.0

    gt_frames = {}
    total_gt = 0
    for rec in gt_records:
        for o in rec.observations:
            gt_frames.setdefault((rec.video_id, o.keyframe), []).append(o)
            total_gt += 1
    preds = [
        (rec.video_id, o)
        for rec in pred_records
        for o in rec.observations
    ]
    cutoffs = sorted({o.score for _, o in preds}, reverse=True)

    points = []
    for cutoff in cutoffs:
        tp = 0
        n_kept = 0
        for key, gts in gt_frames.items():
            frame_preds = [
                o for vid, o in preds if (vid, o.keyframe) == key and o.score >= cutoff
            ]
            frame_preds.sort(key=lambda o: -o.score)
            taken = [False] * len(gts)
            for p in frame_preds:
                best, best_idx = 0.0, -1
                for idx, g in enumerate(gts):
                    if taken[idx]:
                        continue
                    overlap = frame_iou(g, p)
                    if overlap > best:
                        best, best_idx = overlap, idx
                if best_idx >= 0 and best >= iou_threshold:
                    taken[best_idx] = True
                    tp += 1
        n_kept = sum(1 for _, o in preds if o.score >= cutoff)
        recall = tp / total_gt
        precision = tp / n_kept if n_kept else 0.0
        points.append((recall, precision))

    ap = 0.0
    prev_recall = 0.0
    for recall, _ in sorted(points):
        if recall <= prev_recall:
            continue
        p_interp = max(p for r, p in points if r >= recall)
        ap += (recall - prev_recall) * p_interp
        prev_recall = recall
    return ap


def test_tally_frame_single_match():
    tally, flags = tally_frame([BoundingBox(*LEFT)], [(BoundingBox(*LEFT), 0.9)])
    assert (tally.tp, tally.fp, tally.fn) == (1, 0, 0)
    assert flags == [True]


def test_tally_frame_double_detection_penalized():
    box = BoundingBox(*LEFT)
    near = BoundingBox(0.1, 0.1, 0.3, 0.29)  # IoU well above 0.5
    tally, flags = tally_frame([box], [(box, 0.8), (near, 0.9)])
    assert (tally.tp, tally.fp, tally.fn) == (1, 1, 0)
    assert flags.count(True) == 1


def test_tally_frame_all_missed():
    tally, flags = tally_frame([BoundingBox(*LEFT), BoundingBox(*RIGHT)], [])
    assert (tally.tp, tally.fp, tally.fn) == (0, 0, 2)
    assert flags == []


def test_precision_recall_arithmetic():
    assert precision_recall(DetectionTally(tp=8, fp=2, fn=2)) == (0.8, 0.8)


def test_precision_recall_zero_denominators():
    assert precision_recall(DetectionTally(tp=0, fp=0, fn=3)) == (0.0, 0.0)
    assert precision_recall(DetectionTally(tp=5, fp=0, fn=0)) == (1.0, 1.0)


def test_ap_perfect_detector():
    gt = record("v", [obs("v", kf, 1, LEFT) for kf in range(5)])
    pred = record("v", [obs("v", kf, 1, LEFT, score=0.9) for kf in range(5)])
    result = average_precision([gt], [pred])
    assert result.ap == 1.0
    assert result.tally == DetectionTally(tp=5, fp=0, fn=0)


def test_ap_single_gt_high_scored_fp():
    gt = record("v", [obs("v", 0, 1, LEFT)])
    pred = record(
        "v",
        [
            obs("v", 0, 2, FAR, score=0.95),  # FP outranks the TP
            obs("v", 0, 1, LEFT, score=0.90),
        ],
    )
    result = average_precision([gt], [pred])
    assert result.ap == pytest.approx(0.5, abs=1e-12)
    assert result.ap == pytest.approx(sweep_ap([gt], [pred]), abs=1e-12)
    assert [(p.recall, p.precision) for p in result.curve.points] == [(0.0, 0.0), (1.0, 0.5)]


def test_ap_two_gt_interleaved_fp():
    gt = record("v", [obs("v", 0, 1, LEFT), obs("v", 1, 1, LEFT)])
    pred = record(
        "v",
        [
            obs("v", 0, 1, LEFT, score=0.9),   # TP
            obs("v", 0, 2, FAR, score=0.8),    # FP
            obs("v", 1, 1, LEFT, score=0.7),   # TP
        ],
    )
    result = average_precision([gt], [pred])
    expected = 0.5 * 1.0 + 0.5 * (2.0 / 3.0)
    assert result.ap == pytest.approx(expected, abs=1e-12)
    assert result.ap == pytest.approx(sweep_ap([gt], [pred]), abs=1e-12)
    # interpolated precision at full recall is 2/3
    assert result.curve.points[-1].p_interp == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_ap_no_ground_truth_reports_null():
    pred = record("v", [obs("v", 0, 1, LEFT, score=0.9)])
    result = average_precision([], [pred])
    assert result.ap is None
    assert result.reason == "no ground truth boxes"
    assert result.tally.fp == 1


def test_ap_rejects_repeated_videos():
    gt = record("v", [obs("v", 0, 1, LEFT)])
    pred = record("v", [obs("v", 0, 1, LEFT, score=0.9)])
    with pytest.raises(ValueError, match="duplicate video_id"):
        average_precision([gt], [pred, pred])
    with pytest.raises(ValueError, match="duplicate video_id"):
        average_precision([gt, gt], [pred])


def test_ap_matches_sweep_oracle_on_random_scenes():
    rng = np.random.default_rng(23)
    for _ in range(20):
        gt_obs, pred_obs = [], []
        actor = 1
        for kf in range(4):
            for _ in range(int(rng.integers(0, 4))):
                x1, y1 = rng.uniform(0, 0.7, size=2)
                w, h = rng.uniform(0.1, 0.3, size=2)
                coords = (x1, y1, min(x1 + w, 1.0), min(y1 + h, 1.0))
                gt_obs.append(obs("v", kf, actor, coords))
                actor += 1
                if rng.random() < 0.8:  # noisy copy of the gt box
                    dx = rng.uniform(-0.05, 0.05)
                    shifted = (
                        min(max(coords[0] + dx, 0.0), 0.99),
                        coords[1],
                        min(coords[2] + dx, 1.0),
                        coords[3],
                    )
                    pred_obs.append(obs("v", kf, actor, shifted, score=float(rng.random())))
                    actor += 1
            for _ in range(int(rng.integers(0, 3))):  # pure noise
                x1, y1 = rng.uniform(0, 0.7, size=2)
                pred_obs.append(
                    obs("v", kf, actor, (x1, y1, x1 + 0.1, y1 + 0.1), score=float(rng.random()))
                )
                actor += 1
        if not gt_obs:
            continue
        gt = record("v", gt_obs)
        pred = record("v", pred_obs)
        result = average_precision([gt], [pred])
        assert result.ap == pytest.approx(sweep_ap([gt], [pred]), abs=1e-12)


def _base_case():
    gt = record("v", [obs("v", 0, 1, LEFT), obs("v", 1, 1, LEFT)])
    pred = record(
        "v",
        [
            obs("v", 0, 1, LEFT, score=0.9),
            obs("v", 0, 2, FAR, score=0.8),
            obs("v", 1, 1, LEFT, score=0.7),
        ],
    )
    return gt, pred


def test_trailing_fp_does_not_change_ap():
    gt, pred = _base_case()
    base = average_precision([gt], [pred]).ap
    extended = record("v", list(pred.observations) + [obs("v", 1, 9, FAR, score=0.1)])
    assert average_precision([gt], [extended]).ap == pytest.approx(base, abs=1e-15)


def test_top_ranked_fp_never_increases_ap():
    gt, pred = _base_case()
    base = average_precision([gt], [pred]).ap
    extended = record("v", list(pred.observations) + [obs("v", 1, 9, FAR, score=0.99)])
    assert average_precision([gt], [extended]).ap <= base + 1e-15


def test_removing_a_tp_never_increases_ap():
    gt, pred = _base_case()
    base = average_precision([gt], [pred]).ap
    reduced = record("v", [o for o in pred.observations if o.score != 0.7])
    assert average_precision([gt], [reduced]).ap <= base + 1e-15


def test_interpolated_precision_non_increasing():
    rng = np.random.default_rng(3)
    gt = record("v", [obs("v", kf, 1, LEFT) for kf in range(6)])
    preds = []
    for kf in range(6):
        coords = LEFT if rng.random() < 0.6 else FAR
        preds.append(obs("v", kf, 2, coords, score=float(rng.random())))
    result = average_precision([gt], [record("v", preds)])
    interp = [p.p_interp for p in result.curve.points]
    assert all(interp[i] >= interp[i + 1] for i in range(len(interp) - 1))


def test_score_ties_flagged():
    gt = record("v", [obs("v", 0, 1, LEFT)])
    pred = record("v", [obs("v", 0, 1, LEFT, score=0.5), obs("v", 0, 2, FAR, score=0.5)])
    assert average_precision([gt], [pred]).had_score_ties


def test_pooled_ap_matches_within_video_and_keyframe():
    # Both videos have keyframe 0; the prediction in "b" sits on "a"'s box.
    gts = [record("a", [obs("a", 0, 1, LEFT)]), record("b", [obs("b", 0, 1, RIGHT)])]
    preds = [
        record("a", [obs("a", 0, 1, LEFT, score=0.8)]),
        record("b", [obs("b", 0, 1, LEFT, score=0.9)]),
    ]
    result = average_precision(gts, preds)
    assert [p.is_tp for p in result.curve.points] == [False, True]
    assert result.tally == DetectionTally(tp=1, fp=1, fn=1)
    assert result.ap == pytest.approx(sweep_ap(gts, preds), abs=1e-12)


def test_tied_scores_earlier_prediction_claims_the_box():
    near = (0.1, 0.1, 0.3, 0.29)  # IoU 0.95 with LEFT
    gt = record("v", [obs("v", 0, 1, LEFT)])
    # Actor 3 precedes actor 5 in (keyframe, actor_id) order, so it wins the
    # tie even though actor 5 overlaps the ground truth exactly.
    pred = record("v", [obs("v", 0, 5, LEFT, score=0.7), obs("v", 0, 3, near, score=0.7)])
    result = average_precision([gt], [pred])
    assert result.had_score_ties
    assert [p.is_tp for p in result.curve.points] == [True, False]
    assert result.tally == DetectionTally(tp=1, fp=1, fn=0)
    tally, flags = tally_frame(
        [BoundingBox(*LEFT)], [(BoundingBox(*near), 0.7), (BoundingBox(*LEFT), 0.7)]
    )
    assert flags == [True, False]
    assert tally == result.tally


def eager_curve(ranked, n_gt):
    """Reference: every PRPoint made up front, then AP summed over all of them."""
    cum_tp = 0
    raw = []
    for rank, (score, is_tp) in enumerate(ranked, start=1):
        cum_tp += is_tp
        raw.append((score, is_tp, cum_tp / n_gt, cum_tp / rank))
    interp = [0.0] * len(raw)
    running_max = 0.0
    for i in range(len(raw) - 1, -1, -1):
        running_max = max(running_max, raw[i][3])
        interp[i] = running_max
    points = [PRPoint(i + 1, *raw[i], p_interp=interp[i]) for i in range(len(raw))]
    ap = 0.0
    prev_recall = 0.0
    for point in points:
        if point.recall > prev_recall:
            ap += (point.recall - prev_recall) * point.p_interp
            prev_recall = point.recall
    return points, ap


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    st.lists(st.tuples(st.sampled_from([0.2, 0.5, 0.7, 0.9, 1.0]), st.booleans()), max_size=40),
    st.integers(0, 7),
)
@example([(0.9, False), (0.5, True), (0.5, False), (0.2, True)], 3)
def test_points_built_on_read_equal_the_eager_ones(flagged, missed):
    ranked = pool_rankings([flagged])
    n_tp = sum(is_tp for _, is_tp in ranked)
    result = curve_from_ranked(ranked, n_tp + missed)
    if n_tp + missed == 0:
        assert result.ap is None and result.curve.points == ()
        return
    points, ap = eager_curve(ranked, n_tp + missed)
    assert [repr(astuple(p)) for p in result.curve.points] == [repr(astuple(p)) for p in points]
    assert result.ap.hex() == ap.hex()
    assert result.tally == DetectionTally(tp=n_tp, fp=len(ranked) - n_tp, fn=missed)
