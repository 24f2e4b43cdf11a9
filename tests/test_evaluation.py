import re

import numpy as np
import pytest

from asadeval.actions import hamming_loss, match_pairs
from asadeval.evaluation import evaluate_records
from asadeval.identity import id_switches, idf1, mt_ml
from asadeval.io_formats import parse_annotations, report_to_dict, write_annotations
from support import LEFT, RIGHT, obs, record, scalar_id_switches, track_obs


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


@pytest.mark.parametrize("key", ["tool", "version", "iou_threshold", "n_labels", "id_persistence", "ap_label", "hl_label"])
def test_config_may_not_overwrite_a_setting_the_evaluation_used(key):
    # The echo used to take the caller's value: iou_threshold 0.9 and
    # n_labels 3 beside AP@0.5, over an HL computed on 80 labels.
    gts, preds = two_video_fixture()
    with pytest.raises(ValueError, match=f"^config key '{key}' would overwrite a setting the evaluation used$"):
        evaluate_records(gts, preds, iou_threshold=0.5, n_labels=80, config={"cli_report": "x.json", key: 0.9})


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


# Degenerate inputs the metric readers must keep treating as they always did.


def test_a_repeated_gt_observation_is_refused_by_the_report_and_by_mt_ml():
    gt = record("v", [obs("v", 0, 1, LEFT), obs("v", 0, 1, RIGHT)])
    pred = record("v", [obs("v", 0, 5, LEFT, score=0.9)])
    message = "^duplicate \\(keyframe=0, actor_id=1\\) in video 'v'$"
    with pytest.raises(ValueError, match=message):
        evaluate_records([gt], [pred])
    with pytest.raises(ValueError, match=message):
        mt_ml(gt, pred)


def test_a_repeated_prediction_is_scored_as_two_boxes():
    gt = record("v", [obs("v", 0, 1, LEFT)])
    pred = record("v", [obs("v", 0, 1, LEFT, score=0.9), obs("v", 0, 1, RIGHT, score=0.8)])
    block = evaluate_records([gt], [pred]).per_video["v"]
    assert (block.idtp, block.idfp, block.idfn, round(block.idf1, 4)) == (1, 1, 0, 0.6667)
    assert block.id_switches == id_switches(gt, pred) == 0
    assert idf1(gt, pred)[0] == block.idf1


def test_a_repeated_predicted_id_persists_through_its_last_column():
    # Predicted id 7 appears twice at keyframe 1: its first box still covers
    # the actor, its last one does not. Persistence reads the last, so the
    # actor is matched afresh, to id 9's exact box: one switch. Reading the
    # first would keep id 7 and count none.
    near = (0.1, 0.1, 0.3, 0.34)  # IoU 0.04 / 0.048, about 0.83, with LEFT
    gt = record("v", [obs("v", 0, 1, LEFT), obs("v", 1, 1, LEFT)])
    pred = record("v", [
        obs("v", 0, 7, LEFT, score=0.9),
        obs("v", 1, 7, near, score=0.9),
        obs("v", 1, 7, RIGHT, score=0.9),
        obs("v", 1, 9, LEFT, score=0.9),
    ])
    assert id_switches(gt, pred) == scalar_id_switches(gt, pred) == 1
    assert evaluate_records([gt], [pred]).per_video["v"].id_switches == 1


def test_keyframes_and_actor_ids_past_int64_evaluate_as_small_ones(tmp_path):
    # The csv reader reads such a file, into Python-int columns.
    rows = {
        "gt": ["{v},{k},0.1,0.1,0.3,0.3,1,{a}", "{v},{k1},0.1,0.1,0.3,0.3,2,{a}"],
        "pred": ["{v},{k},0.1,0.1,0.3,0.3,1,{a},0.9", "{v},{k1},0.6,0.6,0.8,0.8,2,{a1},0.8"],
    }
    reports = []
    for keyframe, actor in ((0, 1), (2**70, 2**70)):
        parsed = {}
        for role, lines in rows.items():
            path = tmp_path / f"{role}.csv"
            header = "video_id,keyframe,x1,y1,x2,y2,action_id,actor_id" + (",score" if role == "pred" else "")
            cells = dict(v="v", k=keyframe, k1=keyframe + 1, a=actor, a1=actor + 1)
            path.write_text("\n".join([header] + [line.format(**cells) for line in lines]) + "\n")
            parsed[role] = parse_annotations(str(path), role=role, n_labels=4)
        assert parsed["gt"][0].observations[0].keyframe == keyframe
        reports.append(report_to_dict(evaluate_records(parsed["gt"], parsed["pred"], n_labels=4)))
    assert reports[0] == reports[1]


@pytest.mark.parametrize("gt_keyframes, pred_keyframes", [
    ((2**63 - 1,), (2**63,)),
    ((2**53 + 1,), (2**53, 2**63)),
])
def test_keyframes_that_int64_or_float64_would_merge_stay_distinct(tmp_path, gt_keyframes, pred_keyframes):
    # Int64 and uint64 arrays meet as float64, where these keyframes compare
    # equal; as ints they share no keyframe, so nothing matches.
    gt = record("v", [obs("v", kf, 1, LEFT) for kf in gt_keyframes])
    pred = record("v", [obs("v", kf, 1, LEFT, score=0.9) for kf in pred_keyframes])
    paths = {role: str(tmp_path / f"{role}.csv") for role in ("gt", "pred")}
    write_annotations([gt], paths["gt"], role="gt")
    write_annotations([pred], paths["pred"], role="pred")
    parsed = [parse_annotations(paths[role], role=role, n_labels=4) for role in ("gt", "pred")]
    for gts, preds in (([gt], [pred]), parsed):
        block = evaluate_records(gts, preds, n_labels=4).aggregate
        assert (block.tp, block.idtp, block.n_matched_pairs, block.mt_count) == (0, 0, 0, 0)
        assert block.fp == len(pred_keyframes) and block.fn == len(gt_keyframes)


def test_labels_outside_the_label_range_are_refused():
    # Labels past 64 and past 128 count once per side they are on where
    # n_labels covers them; negative, 0, bool and too-large labels are refused.
    gt_labels = [(3, 1), (70, 200), (5,), (6, 64, 65), (7, 2)]
    pred_labels = [(1,), (70, 129), (5, 9), (64, 128), (1, 3)]
    gt = record("v", [obs("v", kf, 1, LEFT, actions=labels) for kf, labels in enumerate(gt_labels)])
    pred = record("v", [obs("v", kf, 2, LEFT, actions=labels) for kf, labels in enumerate(pred_labels)])
    expected = sum(len(set(g) ^ set(p)) for g, p in zip(gt_labels, pred_labels))
    block = evaluate_records([gt], [pred], n_labels=200).per_video["v"]
    assert block.wrong_label_bits == hamming_loss(match_pairs(gt, pred), 200).wrong_bits == expected
    assert block.n_matched_pairs == len(gt_labels)
    with pytest.raises(ValueError, match=r"keyframe 1, actor 1: action label (70|200) is not an integer in \[1, 8\]"):
        evaluate_records([gt], [pred], n_labels=8)
    for bad in (-3, 0, True, 201):
        wrong = record("v", [obs("v", 0, 2, LEFT, actions=(2, bad))])
        message = re.escape(f"video 'v', keyframe 0, actor 2: action label {bad!r} is not an integer in [1, 200]")
        with pytest.raises(ValueError, match=message):
            evaluate_records([gt], [wrong], n_labels=200)
        with pytest.raises(ValueError, match=message):
            hamming_loss(match_pairs(gt, wrong), 200)


@pytest.mark.parametrize(
    "gt_labels, pred_labels, actor, refused",
    [
        (range(10, 20), (), 1, "1[0-9]"),  # counted, these 10 wrong bits would make hl 1.25
        ((1,), (0,), 2, "0"),  # counted, hl 0.25
        ((1,), (-3,), 2, "-3"),
        ((9,), (1,), 1, "9"),
        ((1,), (1.0,), 2, r"1\.0"),
        ((2,), (True,), 2, "True"),
    ],
    ids=["past_n_labels_unpaired", "zero", "negative", "past_n_labels", "float", "bool"],
)
def test_a_report_and_hamming_loss_refuse_a_label_outside_one_to_n_labels(gt_labels, pred_labels, actor, refused):
    gt = record("v", [obs("v", 4, 1, LEFT, actions=gt_labels)])
    pred = record("v", [obs("v", 4, 2, LEFT, actions=pred_labels, score=0.9)])
    message = rf"video 'v', keyframe 4, actor {actor}: action label {refused} is not an integer in \[1, 8\]"
    with pytest.raises(ValueError, match=message):
        evaluate_records([gt], [pred], n_labels=8)
    pairs = match_pairs(gt, pred)
    assert pairs.n_pairs == 1
    with pytest.raises(ValueError, match=message):
        hamming_loss(pairs, 8)
    # A non-positive label count is the first error.
    with pytest.raises(ValueError, match="n_labels must be positive"):
        evaluate_records([gt], [pred], n_labels=0)
    with pytest.raises(ValueError, match="n_labels must be positive"):
        hamming_loss(pairs, 0)


@pytest.mark.parametrize("label", [8, np.int64(8)])
def test_labels_up_to_n_labels_are_counted(label):
    gt = record("v", [obs("v", 4, 1, LEFT, actions=(label,))])
    pred = record("v", [obs("v", 4, 2, LEFT, actions=(1,), score=0.9)])
    block = evaluate_records([gt], [pred], n_labels=8).aggregate
    assert (block.wrong_label_bits, block.hl) == (2, 2 / 8)
    assert hamming_loss(match_pairs(gt, pred), 8).value == 2 / 8


def test_a_bool_label_beside_an_equal_integer_set_is_refused():
    # {True} == {1}: a check of distinct sets by equality would let it through.
    gt = record("v", [obs("v", kf, 1, LEFT, actions=(1,)) for kf in range(3)])
    pred = record("v", [obs("v", kf, 2, LEFT, actions=labels) for kf, labels in enumerate([(1,), (True,), (1,)])])
    with pytest.raises(ValueError, match="keyframe 1, actor 2: action label True is not"):
        evaluate_records([gt], [pred], n_labels=8)
    with pytest.raises(ValueError, match="keyframe 1, actor 2: action label True is not"):
        hamming_loss(match_pairs(gt, pred), 8)


def test_parsed_and_api_built_labels_meet_the_same_check(tmp_path):
    # The parser checks labels as `check_labels` does, and `evaluate_records`
    # checks every record's again, with the API's message.
    gt = record("a", [obs("a", kf, 1, LEFT, actions=(1, 5)) for kf in range(3)])
    pred = record("a", [obs("a", kf, 2, LEFT, actions=(5,), score=0.9) for kf in range(3)])
    paths = {role: str(tmp_path / f"{role}.csv") for role in ("gt", "pred")}
    write_annotations([gt], paths["gt"], role="gt")
    write_annotations([pred], paths["pred"], role="pred")
    [parsed_gt], [parsed_pred] = (parse_annotations(paths[role], role=role, n_labels=8) for role in ("gt", "pred"))
    assert evaluate_records([parsed_gt], [parsed_pred], n_labels=8) == evaluate_records([gt], [pred], n_labels=8)
    message = re.escape("video 'a', keyframe 0, actor 1: action label 5 is not an integer in [1, 4]")
    for gts, preds in (([gt], [pred]), ([parsed_gt], [parsed_pred])):
        with pytest.raises(ValueError, match=message):
            evaluate_records(gts, preds, n_labels=4)
        with pytest.raises(ValueError, match="n_labels must be positive"):
            evaluate_records(gts, preds, n_labels=0)
    # {True} == {1}: an API-built record's bool is refused beside parsed {1, 5} sets.
    bad = record("b", [obs("b", kf, 3, RIGHT, actions=labels) for kf, labels in enumerate([(1,), (True,)])])
    message = re.escape("video 'b', keyframe 1, actor 3: action label True is not an integer in [1, 8]")
    for gts, preds in (([gt, bad], [pred]), ([parsed_gt, bad], [parsed_pred])):
        with pytest.raises(ValueError, match=message):
            evaluate_records(gts, preds, n_labels=8)
