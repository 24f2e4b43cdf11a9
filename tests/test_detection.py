import csv
import itertools
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from asadeval import matching
from asadeval.detection import DetectionTally, _ranked_ap, average_precision
from asadeval.cli import EXIT_OK, main
from asadeval.io_formats import write_annotations
from asadeval.model import BoundingBox, VideoRecord
from support import LEFT, RIGHT, greedy_flags, iou_tables, obs, precision_recall, record, sweep_ap, tally_frame

FAR = (0.05, 0.7, 0.25, 0.9)  # disjoint from LEFT and RIGHT


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
    recall, precision, _ = result.curve.columns
    assert list(zip(recall.tolist(), precision.tolist())) == [(0.0, 0.0), (1.0, 0.5)]


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
    assert result.curve.columns[2][-1] == pytest.approx(2.0 / 3.0, abs=1e-12)


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


def random_scene(rng, vid, scores=None):
    """GT boxes on 4 keyframes, noisy copies of most of them and pure noise, scored at random or from ``scores``."""

    def score():
        return float(rng.random()) if scores is None else float(rng.choice(scores))

    gt_obs, pred_obs = [], []
    actor = 1
    for kf in range(4):
        for _ in range(int(rng.integers(0, 4))):
            x1, y1 = rng.uniform(0, 0.7, size=2)
            w, h = rng.uniform(0.1, 0.3, size=2)
            coords = (x1, y1, min(x1 + w, 1.0), min(y1 + h, 1.0))
            gt_obs.append(obs(vid, kf, actor, coords))
            actor += 1
            if rng.random() < 0.8:  # noisy copy of the gt box
                dx = rng.uniform(-0.05, 0.05)
                shifted = (
                    min(max(coords[0] + dx, 0.0), 0.99),
                    coords[1],
                    min(coords[2] + dx, 1.0),
                    coords[3],
                )
                pred_obs.append(obs(vid, kf, actor, shifted, score=score()))
                actor += 1
        for _ in range(int(rng.integers(0, 3))):  # pure noise
            x1, y1 = rng.uniform(0, 0.7, size=2)
            pred_obs.append(obs(vid, kf, actor, (x1, y1, x1 + 0.1, y1 + 0.1), score=score()))
            actor += 1
    return record(vid, gt_obs), record(vid, pred_obs)


def test_ap_matches_sweep_oracle_on_random_scenes():
    rng = np.random.default_rng(23)
    for _ in range(20):
        gt, pred = random_scene(rng, "v")
        if not gt.observations:
            continue
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
    interp = result.curve.columns[2].tolist()
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
    assert result.curve.flags.tolist() == [False, True]
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
    assert result.curve.flags.tolist() == [True, False]
    assert result.tally == DetectionTally(tp=1, fp=1, fn=0)
    tally, flags = tally_frame(
        [BoundingBox(*LEFT)], [(BoundingBox(*near), 0.7), (BoundingBox(*LEFT), 0.7)]
    )
    assert flags == [True, False]
    assert tally == result.tally


def eager_curve(ranked, n_gt):
    """Reference: every point's (rank, score, is_tp, recall, precision, p_interp), then AP summed over all of them."""
    cum_tp = 0
    raw = []
    for rank, (score, is_tp) in enumerate(ranked, start=1):
        cum_tp += is_tp
        raw.append((rank, score, is_tp, cum_tp / n_gt, cum_tp / rank))
    interp = [0.0] * len(raw)
    running_max = 0.0
    for i in range(len(raw) - 1, -1, -1):
        running_max = max(running_max, raw[i][4])
        interp[i] = running_max
    points = [(*raw[i], interp[i]) for i in range(len(raw))]
    ap = 0.0
    prev_recall = 0.0
    for _, _, _, recall, _, p_interp in points:
        if recall > prev_recall:
            ap += (recall - prev_recall) * p_interp
            prev_recall = recall
    return points, ap


def ranked_together(videos):
    """The videos' ``(score, is_tp)`` pairs concatenated, then stably sorted by descending score."""
    return sorted(itertools.chain.from_iterable(videos), key=lambda item: -item[0])


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    st.lists(
        st.lists(st.tuples(st.sampled_from([0.2, 0.5, 0.7, 0.9, 1.0]), st.booleans()), max_size=20),
        max_size=3,
    ),
    st.integers(0, 7),
)
@example([[(0.9, False), (0.5, True)], [(0.5, False), (0.2, True)]], 3)
def test_columns_and_ap_equal_the_eager_oracle(videos, missed):
    pooled = list(itertools.chain.from_iterable(videos))
    scores = np.array([score for score, _ in pooled], dtype=float)
    flags = np.array([is_tp for _, is_tp in pooled], dtype=bool)
    ranked = ranked_together(videos)
    n_tp = sum(is_tp for _, is_tp in ranked)
    result = _ranked_ap(scores, flags, n_tp + missed)
    curve = result.curve
    assert list(zip(curve.scores.tolist(), curve.flags.tolist())) == ranked
    assert not (curve.scores.flags.writeable or curve.flags.flags.writeable)
    if n_tp + missed == 0:
        assert result.ap is None and all(len(column) == 0 for column in result.curve.columns)
        return
    points, ap = eager_curve(ranked, n_tp + missed)
    columns = [column.tolist() for column in result.curve.columns]
    assert [repr(point[3:]) for point in points] == [repr(values) for values in zip(*columns)]
    assert result.ap.hex() == ap.hex()
    assert result.tally == DetectionTally(tp=n_tp, fp=len(ranked) - n_tp, fn=missed)


def test_written_pr_curve_recomputes_the_reported_ap(tmp_path):
    # Five videos whose scores tie within and across videos.
    rng = np.random.default_rng(5)
    gts, preds = [], []
    for video in range(5):
        gt, pred = random_scene(rng, f"v{video}", scores=(0.3, 0.6, 0.9))
        gts.append(gt)
        preds.append(pred)
    gt_path, pred_path = tmp_path / "gt.csv", tmp_path / "pred.csv"
    write_annotations(gts, str(gt_path), role="gt")
    write_annotations(preds, str(pred_path), role="pred")
    assert main(["evaluate", "--gt", str(gt_path), "--pred", str(pred_path), "--labels", "1",
                 "--report", str(tmp_path / "report.json"), "--pr-curve", str(tmp_path / "pr.csv")]) == EXIT_OK
    aggregate = json.loads((tmp_path / "report.json").read_text())["aggregate"]
    assert "score_ties" in aggregate["flags"]
    with open(tmp_path / "pr.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    points, ap = eager_curve([(float(row["score"]), row["tp"] == "1") for row in rows],
                             aggregate["tp"] + aggregate["fn"])
    assert ap.hex() == aggregate["ap"].hex()
    assert [(int(row["rank"]), float(row["recall"]), float(row["precision"]), float(row["p_interp"]))
            for row in rows] == [(rank, recall, precision, p_interp) for rank, _, _, recall, precision, p_interp in points]


# IoUs of a small palette, the gates among them, so overlaps tie and can sit on the gate.
IOU_PALETTE = (0.0, 0.3, 0.5, 0.7, 1.0)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    st.integers(1, 12), st.integers(0, 4), st.integers(0, 5),
    st.sampled_from((0.3, 0.5, 0.7)), st.randoms(use_true_random=False),
)
def test_batched_flags_equal_the_scalar_loop(count, n_gt, n_pred, gate, rnd):
    overlaps = np.array([rnd.choice(IOU_PALETTE) for _ in range(count * n_gt * n_pred)])
    overlaps = overlaps.reshape(count, n_gt, n_pred)
    scores = np.array([rnd.choice((0.2, 0.5, 0.9)) for _ in range(count * n_pred)]).reshape(count, n_pred)
    flags = matching._greedy_flags(overlaps, scores, gate)
    assert flags.shape == (count, n_pred)
    for stack, row_scores, row in zip(overlaps, scores, flags):
        assert row.tolist() == greedy_flags(stack, row_scores.tolist(), gate)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 40), st.integers(1, 3), st.integers(1, 4), st.sampled_from((0.3, 0.5, 0.7)),
       st.randoms(use_true_random=False))
def test_corpus_flags_equal_the_scalar_loop_across_chunks(n_keyframes, n_gt, n_pred, gate, rnd):
    # Keyframes of one shape spread over three videos, their boxes drawn from a
    # palette of three (duplicated boxes, equal overlaps) and their scores tied.
    # The IoU chunk bound is lowered to 4 keyframes, so batches run from one
    # keyframe to many chunks.
    palette = [(0.1, 0.1, 0.3, 0.3), (0.12, 0.1, 0.32, 0.3), (0.1, 0.15, 0.3, 0.35)]
    gts, preds = [], []
    for video in range(3):
        vid = f"v{video}"
        frames = range(video, n_keyframes, 3)
        gts.append(record(vid, [obs(vid, kf, a, rnd.choice(palette)) for kf in frames for a in range(n_gt)]))
        preds.append(record(vid, [
            obs(vid, kf, a, rnd.choice(palette), score=rnd.choice((0.5, 0.9)))
            for kf in frames for a in range(n_pred)
        ] + [obs(vid, n_keyframes + 1, 0, LEFT, score=0.9)]))
    aligned = list(zip(gts, preds))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(matching, "_IOU_BATCH_ENTRIES", 4 * n_gt * n_pred)
        corpus = matching.match_corpus(aligned, gate)
        flags = corpus.flags
    assert max(len(chunk.index) for chunk in corpus.chunks) <= 4
    offsets = corpus.pred.offsets.tolist()
    for v, ((gt, pred), table) in enumerate(zip(aligned, iou_tables(corpus))):
        video_flags = flags[offsets[v] : offsets[v + 1]]
        expected = []
        for kf, frame in pred.frames.items():
            scores = [o.score for o in frame]
            expected += greedy_flags(table[kf], scores, gate) if kf in table else [False] * len(frame)
        assert video_flags.tolist() == expected
