import hashlib
import inspect
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asadeval import association
from asadeval.association import Detection, DetectionStream, _affinity, _unit_rows, track_offline, track_online
from asadeval.identity import id_switches
from asadeval.io_formats import write_annotations
from asadeval.matching import boxes_to_array, solve_assignment
from asadeval.model import BoundingBox
from asadeval.synthetic import ScenarioSpec, generate, scenario_preset
from support import record, reference_track_offline, reference_track_online, track_obs, validate_record


def det(x1, y1, x2, y2, appearance, score=0.9):
    return Detection(
        box=BoundingBox(x1, y1, x2, y2), score=score, appearance=np.asarray(appearance, dtype=float)
    )


def unit(dim, axis):
    vec = np.zeros(dim)
    vec[axis] = 1.0
    return vec


def make_stream(frames, dim=4, video_id="v"):
    """The stream of a ``{keyframe: detections}`` dict, through `DetectionStream.from_rows`."""
    rows = [
        (kf, (d.box.x1, d.box.y1, d.box.x2, d.box.y2), d.score, d.appearance)
        for kf, dets in frames.items()
        for d in dets
    ]
    return DetectionStream.from_rows(video_id, dim, rows)


def moving_actor_stream(n_keyframes=10, step=0.01, teleport_at=None):
    """One actor drifting right; optionally jumping across the frame."""
    frames = {}
    x = 0.1
    for kf in range(n_keyframes):
        if teleport_at is not None and kf == teleport_at:
            x = 0.7
        frames[kf] = (det(x, 0.4, x + 0.2, 0.6, unit(4, 0)),)
        x += step
    return make_stream(frames)


def test_parameter_validation():
    iou_weight = r"iou_weight must lie in \[0, 1\]"
    cases = [
        (track_online, {"iou_weight": 1.5}, iou_weight),
        (track_online, {"iou_weight": -0.1}, iou_weight),
        (track_online, {"match_threshold": 0.0}, r"match_threshold must lie in \(0, 1\]"),
        (track_online, {"match_threshold": 1.5}, r"match_threshold must lie in \(0, 1\]"),
        (track_online, {"max_gap": 0}, "max_gap must be >= 1"),
        (track_offline, {"iou_weight": 1.5}, iou_weight),
        (track_offline, {"merge_threshold": 0.0}, r"merge_threshold must lie in \(0, 1\]"),
        (track_offline, {"merge_threshold": 1.5}, r"merge_threshold must lie in \(0, 1\]"),
        (track_offline, {"max_gap": 0}, "max_gap must be >= 1"),
    ]
    for tracker, parameters, message in cases:
        with pytest.raises(ValueError, match=f"^{message}$"):
            tracker(moving_actor_stream(), **parameters)


def test_trackers_take_only_their_own_keywords():
    assert inspect.signature(track_online).parameters["iou_weight"].default == 0.7
    assert inspect.signature(track_offline).parameters["iou_weight"].default == 0.3
    stream = moving_actor_stream()
    with pytest.raises(TypeError, match="merge_threshold"):
        track_online(stream, merge_threshold=0.5)
    with pytest.raises(TypeError, match="match_threshold"):
        track_offline(stream, match_threshold=0.5)


def test_cosine_distance_basics():
    # At w = 0 the online cost 1 - affinity is the cosine distance alone.
    box = boxes_to_array([BoundingBox(0.1, 0.1, 0.3, 0.3)])

    def cost(u, v):
        return float(1.0 - _affinity(box, _unit_rows(u[None]), box, _unit_rows(v[None]), 0.0)[0, 0])

    assert cost(unit(4, 0), unit(4, 0)) == 0.0
    assert cost(unit(4, 0), unit(4, 1)) == 1.0
    assert cost(np.zeros(4), unit(4, 0)) == 1.0


def test_appearance_dim_mismatch_is_hard_error():
    frames = {0: (det(0.1, 0.1, 0.3, 0.3, [1.0, 0.0]),)}
    with pytest.raises(ValueError, match="dimensionality"):
        make_stream(frames, dim=4)


@pytest.mark.parametrize(
    "boxes, scores, embeddings, name",
    [
        ([[0.1, 0.1, 0.3, 0.3]], [0.9], [[1.0, 0.0]], "embeddings"),
        ([[0.1, 0.1, 0.3, 0.3]], [0.9], [1.0, 0.0, 0.0, 0.0], "embeddings"),
        ([[0.1, 0.1, 0.3, 0.3]], [0.9, 0.8], [[1.0, 0.0, 0.0, 0.0]], "scores"),
        ([[0.1, 0.1, 0.3, 0.3]] * 2, [0.9], [[1.0, 0.0, 0.0, 0.0]], "boxes"),
        ([0.1, 0.1, 0.3, 0.3], [0.9], [[1.0, 0.0, 0.0, 0.0]], "boxes"),
    ],
    ids=["narrow-embedding", "flat-embedding", "extra-score", "extra-box", "flat-box"],
)
def test_stream_shapes_are_checked_at_construction(boxes, scores, embeddings, name):
    # One row at keyframe 0 of dim 4; the narrow embedding used to be accepted
    # and written as a ragged row that the stream parser rejects.
    with pytest.raises(ValueError, match=f"^{name} of shape .* dimensionality 4"):
        DetectionStream("v", 4, (0,), boxes, scores, embeddings)


def test_stream_rows_are_grouped_by_ascending_keyframe_in_given_order():
    row_keyframes = [2**64 + 1, 5, 2**63, 5, 2**64 + 1, 0, 2**63 + 1, 5]
    n = len(row_keyframes)
    boxes = [[0.1, 0.1, 0.2 + i / 100, 0.3] for i in range(n)]
    embeddings = np.arange(n * 3, dtype=float).reshape(n, 3)
    stream = DetectionStream("v", 3, row_keyframes, boxes, np.linspace(0.5, 0.9, n), embeddings)
    order = [5, 1, 3, 7, 2, 6, 0, 4]
    assert stream.row_keyframes == tuple(row_keyframes[i] for i in order)
    assert all(type(kf) is int for kf in stream.row_keyframes)
    assert stream.keyframes == (0, 5, 2**63, 2**63 + 1, 2**64 + 1)
    assert stream.bounds == [0, 1, 4, 5, 6, 8]
    assert stream.boxes.tolist() == [boxes[i] for i in order]
    assert stream.scores.tobytes() == np.linspace(0.5, 0.9, n)[order].tobytes()
    assert stream.embeddings.tobytes() == embeddings[order].tobytes()
    assert [[d.box.x2 for d in stream.frames[kf]] for kf in stream.keyframes] == [
        [boxes[i][2] for i in order[start:stop]]
        for start, stop in zip(stream.bounds, stream.bounds[1:])
    ]
    assert len(stream.row_keyframes) == n
    assert not stream.embeddings.flags.writeable


def test_online_smooth_motion_keeps_one_id():
    stream = moving_actor_stream()
    out = track_online(stream)
    assert out.actor_ids == (1,)
    assert len(out.observations) == 10


def test_online_motion_only_breaks_at_shot_cut():
    stream = moving_actor_stream(teleport_at=5)
    out = track_online(stream, iou_weight=1.0)
    assert out.actor_ids == (1, 2)
    gt = record("v", track_obs("v", 1, range(10), (0.1, 0.4, 0.3, 0.6)))
    # against any single-actor gt with matching boxes the handover is >= 1 switch
    gt_obs = []
    x = 0.1
    for kf in range(10):
        if kf == 5:
            x = 0.7
        gt_obs += track_obs("v", 1, [kf], (x, 0.4, x + 0.2, 0.6))
        x += 0.01
    assert id_switches(record("v", gt_obs), out) >= 1


def test_online_appearance_only_survives_crossing():
    # Two actors swap sides; appearances are orthogonal, iou_weight 0.
    frames = {}
    for kf in range(9):
        xa = 0.1 + 0.075 * kf
        xb = 0.7 - 0.075 * kf
        frames[kf] = (
            det(xa, 0.4, xa + 0.2, 0.6, unit(4, 0)),
            det(xb, 0.4, xb + 0.2, 0.6, unit(4, 1)),
        )
    stream = make_stream(frames)
    out = track_online(stream, iou_weight=0.0)
    by_id = {}
    for obs in out.observations:
        by_id.setdefault(obs.actor_id, []).append(obs)
    assert len(by_id) == 2
    # each output identity sticks to one appearance, i.e. one actor's path
    for observations in by_id.values():
        xs = [o.box.x1 for o in observations]
        assert len(observations) == 9
        assert all(abs(b - a) <= 0.08 for a, b in zip(xs, xs[1:]))


def test_online_track_retires_after_gap():
    frames = {0: (det(0.1, 0.4, 0.3, 0.6, unit(4, 0)),)}
    # reappears 4 keyframes later at the same spot; max_gap 2 forces a new id
    frames[5] = (det(0.1, 0.4, 0.3, 0.6, unit(4, 0)),)
    out = track_online(make_stream(frames), max_gap=2)
    assert out.actor_ids == (1, 2)


def test_offline_bridges_shot_cut():
    stream = moving_actor_stream(teleport_at=5)
    out = track_offline(stream)
    assert out.actor_ids == (1,)


def test_offline_cannot_link_same_keyframe():
    # Identical boxes and appearances at one keyframe can never share an id.
    frames = {
        0: (
            det(0.1, 0.4, 0.3, 0.6, unit(4, 0)),
            det(0.1, 0.4, 0.3, 0.6, unit(4, 0)),
        )
    }
    out = track_offline(make_stream(frames))
    assert out.actor_ids == (1, 2)


def test_offline_empty_stream():
    out = track_offline(make_stream({}))
    assert len(out.observations) == 0


def test_outputs_validate_and_ids_are_unique_per_keyframe():
    spec = scenario_preset("camera-cut", seed=3)
    _, stream = generate(spec)
    for tracker in (track_online, track_offline):
        out = tracker(stream)
        assert validate_record(out, role="pred") == []
        seen = set()
        for obs in out.observations:
            key = (obs.keyframe, obs.actor_id)
            assert key not in seen
            seen.add(key)
        assert len(out.observations) == len(stream.row_keyframes)


def test_trackers_deterministic(tmp_path):
    spec = scenario_preset("camera-cut", seed=5)
    _, stream = generate(spec)
    for tracker in (track_online, track_offline):
        first = tracker(stream)
        second = tracker(stream)
        assert first == second
        path_a = tmp_path / "a.csv"
        path_b = tmp_path / "b.csv"
        write_annotations([first], str(path_a), role="pred")
        write_annotations([second], str(path_b), role="pred")
        assert path_a.read_bytes() == path_b.read_bytes()


def test_offline_ids_ordered_by_first_appearance():
    frames = {
        2: (det(0.6, 0.6, 0.8, 0.8, unit(4, 1)),),
        0: (det(0.1, 0.1, 0.3, 0.3, unit(4, 0)),),
    }
    out = track_offline(make_stream(frames), max_gap=1)
    first = [o for o in out.observations if o.keyframe == 0][0]
    assert first.actor_id == 1


@pytest.mark.parametrize(
    "tracker, digest",
    [
        (track_online,
         "eeaf5992bd61d3f0a479c6006e02c7b32615b07aed802bb1498303488647405d"),
        (track_offline,
         "2df2b3fc1f5546f31d36dfc2a984eb9a41704e9a16c617db4075538e7712ec48"),
    ],
    ids=["online", "offline"],
)
def test_tracker_output_is_pinned(tracker, digest, tmp_path):
    # Pins the solver's tie order inside the trackers: the written predictions
    # must stay byte-identical.
    spec = scenario_preset("camera-cut", seed=3, n_actors=12, n_keyframes=40, n_cuts=6, appearance_dim=16)
    _, stream = generate(spec)
    path = tmp_path / "pred.csv"
    write_annotations([tracker(stream)], str(path), role="pred")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_identical_tracks_tie_exactly():
    # n copies of one detection open n identical tracks; the next detection's
    # costs to them must be equal bits, so the assignment's lexicographic tie
    # break hands it to the first track, as the scalar reference does.
    rng = np.random.default_rng(4)
    for n in range(2, 10):
        for dim in (3, 8, 17, 64):
            first = det(0.1, 0.1, 0.3, 0.3, rng.standard_normal(dim))
            second = det(0.12, 0.1, 0.32, 0.3, first.appearance + 0.1 * rng.standard_normal(dim))
            stream = make_stream({0: (first,) * n, 1: (second,)}, dim)
            out = track_online(stream)
            assert out == reference_track_online(stream)
            assert out.observations[-1].actor_id == 1


def edited_stream(draw, max_step: int) -> DetectionStream:
    """A `generate` stream with some embeddings zeroed, detections duplicated and keyframes emptied.

    Keyframes are renumbered with gaps of 1 to ``max_step`` from a base that
    may lie past int64's range.
    """
    spec = ScenarioSpec(
        n_actors=draw(st.integers(1, 4)),
        n_keyframes=draw(st.integers(2, 12)),
        n_cuts=draw(st.integers(0, 1)),
        seed=draw(st.integers(0, 2**16)),
        appearance_dim=8,
        appearance_noise=draw(st.sampled_from([0.1, 0.5])),
    )
    _, stream = generate(spec)
    keyframe = draw(st.sampled_from([0, 2**63 - 8, 10**20]))
    frames = {}
    for original in stream.keyframes:
        keyframe += draw(st.integers(1, max_step))
        dets = []
        if draw(st.integers(0, 5)) > 0:
            for det in stream.frames[original]:
                if draw(st.integers(0, 4)) == 0:
                    det = Detection(det.box, det.score, np.zeros(spec.appearance_dim))
                dets.append(det)
                if draw(st.integers(0, 5)) == 0:
                    dets.append(det)
        frames[keyframe] = tuple(dets)
    return make_stream(frames, stream.dim, stream.video_id)


@st.composite
def online_cases(draw):
    """An `edited_stream` with gaps of 1 to 6, so tracks retire at every ``max_gap``."""
    stream = edited_stream(draw, max_step=6)
    parameters = {
        "iou_weight": draw(st.floats(0.0, 1.0)),
        "match_threshold": draw(st.floats(0.05, 0.95)),
        "max_gap": draw(st.integers(1, 4)),
    }
    return stream, parameters


# Embeddings stay continuous: quantised ones (say, multiples of 0.5) can put a
# real-valued cost exactly on match_threshold, where the two formulas' last-bit
# rounding lands on opposite sides of it and the outputs may legitimately differ.
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(online_cases())
def test_online_cost_matches_scalar_reference(case):
    stream, parameters = case
    expected_costs: list[np.ndarray] = []
    expected = reference_track_online(stream, **parameters, costs=expected_costs)
    costs: list[np.ndarray] = []

    def recording(cost, **kwargs):
        costs.append(cost)
        return solve_assignment(cost, **kwargs)

    with mock.patch.object(association, "solve_assignment", recording):
        out = track_online(stream, **parameters)
    assert out == expected
    assert len(costs) == len(expected_costs)
    for cost, reference in zip(costs, expected_costs):
        np.testing.assert_allclose(cost, reference, rtol=0.0, atol=1e-12)


@st.composite
def offline_cases(draw):
    """An `edited_stream` with gaps of 1 to 3."""
    stream = edited_stream(draw, max_step=3)
    parameters = {
        "iou_weight": draw(st.floats(0.0, 1.0)),
        "merge_threshold": draw(st.floats(0.05, 1.0)),
        "max_gap": draw(st.integers(1, 4)),
    }
    return stream, parameters


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(offline_cases())
def test_offline_matches_pair_reference(case):
    stream, parameters = case
    assert track_offline(stream, **parameters) == reference_track_offline(stream, **parameters)


def test_offline_equal_affinities_merge_in_pair_order():
    # At max_gap 2 the gap-2 affinity is appearance alone. Edges (0, 1), (0, 3)
    # and (1, 2) all score exactly 1; taken by (a, b), (0, 3) claims keyframe 3
    # before (1, 2) can, so detection 2 opens the second identity.
    both = [1.0, 1.0, 0.0, 0.0]
    frames = {
        1: (det(0.1, 0.1, 0.3, 0.3, unit(4, 1)),),
        2: (det(0.1, 0.1, 0.3, 0.3, both),),
        3: (det(0.1, 0.1, 0.3, 0.3, both), det(0.15, 0.1, 0.35, 0.3, unit(4, 1))),
    }
    stream = make_stream(frames)
    parameters = {"iou_weight": 1.0, "merge_threshold": 0.1, "max_gap": 2}
    out = track_offline(stream, **parameters)
    assert out == reference_track_offline(stream, **parameters)
    assert [(o.keyframe, o.box.x1, o.actor_id) for o in out.observations] == [
        (1, 0.1, 1), (2, 0.1, 1), (3, 0.15, 1), (3, 0.1, 2)
    ]


@st.composite
def reordered_streams(draw):
    """A `generate` stream, its rows rebuilt in a shuffled order, and each tracker's parameters.

    The shuffle interleaves the keyframes at random but keeps each
    keyframe's rows in their order.
    """
    spec = ScenarioSpec(
        n_actors=draw(st.integers(1, 4)),
        n_keyframes=draw(st.integers(2, 10)),
        n_cuts=draw(st.integers(0, 1)),
        seed=draw(st.integers(0, 2**16)),
        appearance_dim=8,
    )
    _, stream = generate(spec)
    columns = (stream.row_keyframes, stream.boxes.tolist(), stream.scores.tolist(), stream.embeddings)
    rows = list(zip(*columns))
    bounds = stream.bounds
    by_keyframe = {kf: iter(rows[a:b]) for kf, a, b in zip(stream.keyframes, bounds, bounds[1:])}
    slots = [rows[i][0] for i in draw(st.permutations(range(len(rows))))]
    shuffled = [next(by_keyframe[kf]) for kf in slots]
    weight, threshold, max_gap = st.floats(0.0, 1.0), st.floats(0.05, 1.0), st.integers(1, 4)
    online = {"iou_weight": draw(weight), "match_threshold": draw(threshold), "max_gap": draw(max_gap)}
    offline = {"iou_weight": draw(weight), "merge_threshold": draw(threshold), "max_gap": draw(max_gap)}
    return stream, DetectionStream.from_rows(stream.video_id, stream.dim, shuffled), online, offline


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(reordered_streams())
def test_trackers_see_row_order_only_within_a_keyframe(case):
    stream, shuffled, online, offline = case
    assert track_online(shuffled, **online) == track_online(stream, **online)
    assert track_offline(shuffled, **offline) == track_offline(stream, **offline)
