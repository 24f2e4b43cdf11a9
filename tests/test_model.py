import numpy as np
import pytest

from asadeval.model import (
    ActorObservation,
    BoundingBox,
    VideoRecord,
    build_tracklets,
    validate_record,
)
from support import LEFT, RIGHT, obs, record


def test_duplicate_identity_is_one_violation():
    rec = record("v", [obs("v", 0, 3, LEFT), obs("v", 0, 3, RIGHT)])
    violations = validate_record(rec)
    assert len(violations) == 1
    assert violations[0].rule == "duplicate_identity"
    assert violations[0].keyframe == 0
    assert violations[0].actor_id == 3


def test_well_formed_record_has_no_violations():
    rec = record("v", [obs("v", 0, 1, LEFT), obs("v", 0, 2, RIGHT), obs("v", 1, 1, LEFT)])
    assert validate_record(rec) == []


def test_degenerate_box_is_flagged():
    bad = ActorObservation(
        video_id="v", keyframe=0, actor_id=1, box=BoundingBox(0.5, 0.1, 0.4, 0.3)
    )
    violations = validate_record(record("v", [bad]))
    assert any(v.rule == "degenerate_box" for v in violations)


def test_gt_role_requires_labels_and_unit_score():
    empty_labels = obs("v", 0, 1, LEFT, actions=())
    assert validate_record(record("v", [empty_labels]), role="pred") == []
    rules = {v.rule for v in validate_record(record("v", [empty_labels]), role="gt")}
    assert "empty_actions" in rules

    low_score = obs("v", 0, 1, LEFT, score=0.5)
    rules = {v.rule for v in validate_record(record("v", [low_score]), role="gt")}
    assert "gt_score" in rules


def test_out_of_range_label_and_score_flagged():
    bad = obs("v", 0, 1, LEFT, actions=(81,), score=1.5)
    rules = {v.rule for v in validate_record(record("v", [bad]), n_labels=80)}
    assert {"bad_label", "bad_score"} <= rules


def test_video_id_mismatch_flagged():
    rec = record("v", [obs("other", 0, 1, LEFT)])
    assert any(v.rule == "video_id_mismatch" for v in validate_record(rec))


def test_validation_is_order_independent():
    observations = [obs("v", kf, a, LEFT if a == 1 else RIGHT) for kf in range(4) for a in (1, 2)]
    forward = record("v", observations)
    backward = record("v", list(reversed(observations)))
    assert forward == backward
    assert validate_record(forward) == validate_record(backward)


def test_build_tracklets_three_actors_no_gaps():
    observations = []
    for actor in (1, 2, 3):
        for kf in range(10):
            observations.append(obs("v", kf, actor, LEFT))
    tracklets = build_tracklets(record("v", observations))
    assert [t.actor_id for t in tracklets] == [1, 2, 3]
    assert all(len(t) == 10 for t in tracklets)


def test_build_tracklets_preserves_gap_order():
    rec = record("v", [obs("v", 5, 1, LEFT), obs("v", 0, 1, LEFT), obs("v", 2, 1, LEFT)])
    (tracklet,) = build_tracklets(rec)
    assert tracklet.keyframes == (0, 2, 5)


def test_build_tracklets_empty_record():
    assert build_tracklets(record("v", [])) == []


def test_build_tracklets_rejects_duplicates():
    rec = record("v", [obs("v", 0, 1, LEFT), obs("v", 0, 1, RIGHT)])
    with pytest.raises(ValueError, match="duplicate"):
        build_tracklets(rec)


def test_tracklet_flattening_round_trip():
    observations = [
        obs("v", kf, actor, LEFT)
        for actor in (1, 4, 9)
        for kf in (0, 3, 7, 8)
    ]
    rec = record("v", observations)
    flattened = [o for t in build_tracklets(rec) for o in t.observations]
    assert sorted(flattened, key=lambda o: (o.keyframe, o.actor_id)) == list(rec.observations)


def test_record_groups_frames():
    rec = record("v", [obs("v", 2, 1, LEFT), obs("v", 0, 1, LEFT), obs("v", 0, 2, RIGHT)])
    assert list(rec.frames) == [0, 2]
    assert len(rec.frames[0]) == 2
    assert rec.actor_ids == (1, 2)


def test_value_objects_still_coerce_what_is_not_exactly_their_type():
    exact_box = BoundingBox(0.1, 0.2, 0.3, 1.0)
    box = BoundingBox(np.float64(0.1), 0.2, 0.3, True)
    assert [type(v) for v in (box.x1, box.y1, box.x2, box.y2)] == [float] * 4
    assert box == exact_box and hash(box) == hash(exact_box) and repr(box) == repr(exact_box)

    exact = ActorObservation("v", 3, exact_box, 1, frozenset({1, 2}), 0.5)
    variants = [
        ActorObservation("v", np.int64(3), box, 1, frozenset({1, 2}), 0.5),
        ActorObservation("v", 3, box, True, frozenset({1, 2}), 0.5),
        ActorObservation("v", 3, box, 1, [2, 1], 0.5),
        ActorObservation("v", 3, box, 1, frozenset({1, 2}), np.float64(0.5)),
    ]
    for o in variants:
        assert (type(o.keyframe), type(o.actor_id), type(o.actions), type(o.score)) == (
            int, int, frozenset, float)
        assert o == exact and hash(o) == hash(exact) and repr(o) == repr(exact)
    assert type(ActorObservation("v", 0, box, 1, score=1).score) is float
