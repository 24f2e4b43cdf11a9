"""Generated scenes checked against the brute-force and standalone paths."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asadeval.actions import match_pairs
from asadeval.detection import average_precision
from asadeval.evaluation import evaluate_records
from asadeval.identity import mt_ml
from support import obs, record
from test_detection import sweep_ap


@st.composite
def boxes(draw):
    # Coarse 1/20 grid so generated boxes coincide and overlap often.
    x1, y1 = draw(st.integers(0, 12)), draw(st.integers(0, 12))
    w, h = draw(st.integers(2, 8)), draw(st.integers(2, 8))
    return (x1 / 20, y1 / 20, (x1 + w) / 20, (y1 + h) / 20)


@st.composite
def scenes(draw):
    """One video: 0-4 keyframes of 0-4 GT boxes, copied/jittered and noise predictions."""
    gt_obs = []
    pred_boxes = []
    for kf in range(draw(st.integers(0, 4))):
        gt_boxes = draw(st.lists(boxes(), max_size=4))
        for actor, (x1, y1, x2, y2) in enumerate(gt_boxes):
            gt_obs.append(obs("v", kf, actor, (x1, y1, x2, y2)))
            for _ in range(draw(st.integers(0, 2))):
                dx = draw(st.integers(-2, 2)) / 100  # 0 makes an exact copy
                pred_boxes.append((kf, (max(x1 + dx, 0.0), y1, min(x2 + dx, 1.0), y2)))
        pred_boxes += [(kf, box) for box in draw(st.lists(boxes(), max_size=2))]
    ranks = draw(st.permutations(range(len(pred_boxes))))
    n = len(pred_boxes)
    pred_obs = [
        obs("v", kf, actor, box, score=(rank + 1) / (n + 1))
        for actor, ((kf, box), rank) in enumerate(zip(pred_boxes, ranks))
    ]
    return record("v", gt_obs), record("v", pred_obs)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(scenes())
def test_fast_paths_match_oracles_on_generated_scenes(scene):
    gt, pred = scene
    ap = average_precision([gt], [pred]).ap
    if gt.observations:
        assert ap == pytest.approx(sweep_ap([gt], [pred]), abs=1e-12)
    else:
        assert ap is None

    block = evaluate_records([gt], [pred]).per_video["v"]
    standalone = mt_ml(gt, pred)
    assert (block.mt_count, block.ml_count) == (standalone.mt_count, standalone.ml_count)
    assert block.n_matched_pairs == match_pairs(gt, pred).n_pairs
