import numpy as np
import pytest

from asadeval.actions import hamming_loss, match_pairs, merge_pair_sets
from asadeval.model import BoundingBox
from support import LEFT, RIGHT, obs, record


def test_overlapping_actors_pair_one_to_one():
    # Two ground-truth actors overlapping each other above the gate, each
    # with a prediction sitting almost exactly on it. One-to-one assignment
    # must give each prediction its own actor instead of stacking both on one.
    g1 = (0.10, 0.10, 0.40, 0.50)
    g2 = (0.12, 0.10, 0.42, 0.50)  # IoU(g1, g2) well above 0.5
    p1 = (0.10, 0.10, 0.40, 0.49)
    p2 = (0.12, 0.10, 0.42, 0.51)
    gt = record("v", [obs("v", 0, 1, g1, actions=(1,)), obs("v", 0, 2, g2, actions=(2,))])
    pred = record("v", [obs("v", 0, 8, p1, actions=(1,)), obs("v", 0, 9, p2, actions=(2,))])
    pairs = match_pairs(gt, pred)
    assert pairs.n_pairs == 2
    matched = {(p.gt.actor_id, p.pred.actor_id) for p in pairs.pairs}
    assert matched == {(1, 8), (2, 9)}


def test_low_iou_prediction_excluded():
    gt = record("v", [obs("v", 0, 1, (0.0, 0.0, 0.2, 0.2))])
    pred = record("v", [obs("v", 0, 9, (0.1, 0.0, 0.3, 0.2))])  # IoU 1/3
    assert match_pairs(gt, pred).n_pairs == 0


def test_empty_side_contributes_no_pairs():
    gt = record("v", [obs("v", 0, 1, LEFT)])
    assert match_pairs(gt, record("v", [])).n_pairs == 0
    assert match_pairs(record("v", []), gt).n_pairs == 0


def test_score_cutoff_is_opt_in():
    gt = record("v", [obs("v", 0, 1, LEFT)])
    pred = record("v", [obs("v", 0, 9, LEFT, score=0.01)])
    assert match_pairs(gt, pred).n_pairs == 1


def two_pair_fixture(pred_actions_1=(1, 2), pred_actions_2=(3,)):
    gt = record(
        "v",
        [obs("v", 0, 1, LEFT, actions=(1, 2)), obs("v", 0, 2, RIGHT, actions=(3,))],
    )
    pred = record(
        "v",
        [
            obs("v", 0, 8, LEFT, actions=pred_actions_1, score=0.9),
            obs("v", 0, 9, RIGHT, actions=pred_actions_2, score=0.8),
        ],
    )
    return match_pairs(gt, pred)


def test_hamming_loss_zero_when_labels_match():
    result = hamming_loss(two_pair_fixture(), n_labels=80)
    assert result.value == 0.0
    assert result.wrong_bits == 0


def test_hamming_loss_single_wrong_bit():
    result = hamming_loss(two_pair_fixture(pred_actions_1=(1,)), n_labels=80)
    assert result.n_pairs == 2
    assert result.wrong_bits == 1
    assert result.value == 1 / 160
    assert result.value == 0.00625


def test_hamming_loss_maximal():
    all_labels = tuple(range(1, 81))
    gt = record("v", [obs("v", 0, 1, LEFT, actions=all_labels)])
    pred = record("v", [obs("v", 0, 9, LEFT, actions=())])
    pairs = match_pairs(gt, pred)
    # only 80 of the bits can disagree per pair when gt holds all of them
    assert hamming_loss(pairs, n_labels=80).value == 1.0


def test_hamming_loss_no_pairs_is_null():
    gt = record("v", [obs("v", 0, 1, LEFT)])
    result = hamming_loss(match_pairs(gt, record("v", [])), n_labels=80)
    assert result.value is None
    assert "no pairs" in result.reason


def test_flipping_one_more_bit_moves_loss_by_exact_step():
    base = hamming_loss(two_pair_fixture(pred_actions_1=(1,)), n_labels=80)
    more = hamming_loss(two_pair_fixture(pred_actions_1=()), n_labels=80)
    assert more.value - base.value == pytest.approx(1 / (2 * 80), abs=1e-18)


def test_loss_ignores_scores_and_ids():
    gt = record("v", [obs("v", 0, 1, LEFT, actions=(5,))])
    for actor_id, score in ((3, 0.1), (77, 0.999)):
        pred = record("v", [obs("v", 0, actor_id, LEFT, actions=(5,), score=score)])
        assert hamming_loss(match_pairs(gt, pred), 80).value == 0.0


def test_prediction_order_does_not_change_loss():
    rng = np.random.default_rng(77)
    gt_obs, pred_obs = [], []
    for kf in range(6):
        for slot in range(3):
            x = 0.05 + 0.3 * slot + float(rng.uniform(-0.02, 0.02))
            labels = tuple(int(l) for l in rng.choice(80, size=2, replace=False) + 1)
            gt_obs.append(obs("v", kf, slot + 1, (x, 0.1, x + 0.2, 0.4), actions=labels))
            pred_obs.append(
                obs("v", kf, slot + 50, (x + 0.01, 0.1, x + 0.21, 0.4),
                    actions=(labels[0],), score=float(rng.random()))
            )
    gt = record("v", gt_obs)
    forward = hamming_loss(match_pairs(gt, record("v", pred_obs)), 80)
    backward = hamming_loss(match_pairs(gt, record("v", list(reversed(pred_obs)))), 80)
    assert forward.value == backward.value


def test_merge_pair_sets_concatenates():
    a = two_pair_fixture()
    b = two_pair_fixture(pred_actions_1=(1,))
    merged = merge_pair_sets([a, b])
    assert merged.n_pairs == 4
    assert hamming_loss(merged, 80).value == 1 / 320
