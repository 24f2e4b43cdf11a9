import pytest

from asadeval.evaluation import evaluate_records
from support import LEFT, RIGHT, obs, record, track_obs


def two_video_fixture():
    gt_a = record("a", track_obs("a", 1, range(5), LEFT))
    gt_b = record("b", track_obs("b", 1, range(5), RIGHT))
    pred_a = record("a", track_obs("a", 9, range(5), LEFT, score=0.9))
    pred_b = record("b", track_obs("b", 9, range(3), RIGHT, score=0.8))
    return [gt_a, gt_b], [pred_a, pred_b]


def test_multi_video_aggregate_sums_tallies():
    gts, preds = two_video_fixture()
    report = evaluate_records(gts, preds)
    assert set(report.per_video) == {"a", "b"}
    agg = report.aggregate
    for name in ("tp", "fp", "fn", "idtp", "idfp", "idfn", "id_switches",
                 "n_matched_pairs", "wrong_label_bits", "mt_count", "ml_count"):
        assert getattr(agg, name) == sum(
            getattr(block, name) for block in report.per_video.values()
        )
    assert agg.idf1 == 2 * agg.idtp / (2 * agg.idtp + agg.idfp + agg.idfn)


def test_max_workers_and_thread_env_var_change_nothing(monkeypatch):
    gts, preds = two_video_fixture()
    serial = evaluate_records(gts, preds)
    for max_workers in (1, 4):
        assert evaluate_records(gts, preds, max_workers=max_workers) == serial

    monkeypatch.setenv("ASAD_BENCH_THREADS", "many")
    assert evaluate_records(gts, preds) == serial


def test_video_only_in_predictions_counts_against():
    gt = record("a", track_obs("a", 1, range(4), LEFT))
    stray = record("b", track_obs("b", 2, range(4), RIGHT, score=0.9))
    matching = record("a", track_obs("a", 7, range(4), LEFT, score=0.9))
    report = evaluate_records([gt], [matching, stray])
    assert report.per_video["b"].fp == 4
    assert report.per_video["b"].idfp == 4
    assert report.per_video["b"].idf1 == 0.0
    assert "no_ground_truth" in report.per_video["b"].flags
    assert report.aggregate.idf1 < 1.0


def test_video_only_in_gt_counts_as_missed():
    gt_a = record("a", track_obs("a", 1, range(4), LEFT))
    gt_b = record("b", track_obs("b", 1, range(4), RIGHT))
    pred_a = record("a", track_obs("a", 7, range(4), LEFT, score=0.9))
    report = evaluate_records([gt_a, gt_b], [pred_a])
    assert report.per_video["b"].fn == 4
    assert report.per_video["b"].ml_count == 1
    assert "no_predictions" in report.per_video["b"].flags


def test_vacuous_empty_evaluation():
    report = evaluate_records([], [])
    assert report.aggregate.idf1 == 1.0
    assert report.aggregate.flags == ("identity_vacuous", "no_predictions", "no_ground_truth")
    assert report.aggregate.ap is None
    assert report.aggregate.hl is None


def test_duplicate_video_ids_rejected():
    gt = record("a", track_obs("a", 1, range(2), LEFT))
    with pytest.raises(ValueError, match="duplicate video_id"):
        evaluate_records([gt, gt], [])


def test_config_echo_carries_tool_metadata():
    gts, preds = two_video_fixture()
    report = evaluate_records(gts, preds, config={"cli_report": "x.json"})
    assert report.config["tool"] == "asadeval"
    assert report.config["version"]
    assert report.config["iou_threshold"] == 0.5
    assert report.config["cli_report"] == "x.json"


def test_persistence_flag_is_plumbed():
    base = (0.1, 0.1, 0.3, 0.3)
    nudged = (0.11, 0.1, 0.31, 0.3)
    gt = record("v", track_obs("v", 1, range(10), base))
    pred_obs = track_obs("v", 7, range(10), nudged) + [obs("v", 5, 9, base, score=0.9)]
    pred = record("v", pred_obs)
    sticky = evaluate_records([gt], [pred], id_persistence=True)
    loose = evaluate_records([gt], [pred], id_persistence=False)
    assert sticky.aggregate.id_switches == 0
    assert loose.aggregate.id_switches == 2
