import numpy as np
import pytest

from asadeval.evaluation import evaluate_records
from asadeval.io_formats import write_detection_stream
from asadeval.model import validate_record
from asadeval.synthetic import Perturbation, ScenarioSpec, generate, perturb, scenario_preset
from support import LEFT, RIGHT, obs, record, track_obs


def quiet_spec(**overrides):
    params = dict(
        n_actors=1,
        n_keyframes=10,
        n_cuts=0,
        seed=4,
        appearance_noise=0.0,
        box_jitter=0.0,
        miss_rate=0.0,
        fp_rate=0.0,
        label_switch_rate=0.0,
    )
    params.update(overrides)
    return ScenarioSpec(**params)


def test_spec_validation():
    with pytest.raises(ValueError, match="n_actors"):
        ScenarioSpec(n_actors=0)
    with pytest.raises(ValueError, match="n_cuts"):
        ScenarioSpec(n_keyframes=10, n_cuts=10)
    with pytest.raises(ValueError, match="miss_rate"):
        ScenarioSpec(miss_rate=1.5)
    with pytest.raises(ValueError, match="n_labels"):
        ScenarioSpec(n_labels=0)
    with pytest.raises(ValueError, match="appearance_dim"):
        ScenarioSpec(appearance_dim=0)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize("name", ["appearance_noise", "box_jitter", "max_speed"])
def test_spec_noise_must_be_finite(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        ScenarioSpec(**{name: value})


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_perturbation_sigma_must_be_finite(value):
    with pytest.raises(ValueError, match="sigma must be finite"):
        Perturbation(kind="jitter_boxes", sigma=value)


def test_presets():
    assert scenario_preset("static", seed=1).n_cuts == 0
    assert scenario_preset("camera-cut", seed=1).n_cuts == 20
    assert scenario_preset("default", seed=1).n_cuts == 20
    with pytest.raises(ValueError, match="unknown scenario"):
        scenario_preset("imaginary")


def test_zero_noise_stream_equals_gt_boxes():
    gt, stream = generate(quiet_spec())
    assert len(gt.observations) == 10
    for obs_, (detection,) in zip(gt.observations, (stream.frames[kf] for kf in range(10))):
        assert detection.box == obs_.box


def test_generate_is_deterministic(tmp_path):
    spec = scenario_preset("camera-cut", seed=12)
    gt_a, stream_a = generate(spec)
    gt_b, stream_b = generate(spec)
    assert gt_a == gt_b
    path_a, path_b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_detection_stream(stream_a, str(path_a))
    write_detection_stream(stream_b, str(path_b))
    assert path_a.read_bytes() == path_b.read_bytes()


def test_generate_full_miss_rate_gives_empty_stream():
    gt, stream = generate(quiet_spec(miss_rate=1.0))
    assert stream.n_detections() == 0
    assert len(gt.observations) == 10


def test_generated_gt_validates_and_spans_all_keyframes():
    spec = scenario_preset("camera-cut", seed=2)
    gt, stream = generate(spec)
    assert validate_record(gt, role="gt", n_labels=spec.n_labels) == []
    for actor in gt.actor_ids:
        keyframes = [o.keyframe for o in gt.observations if o.actor_id == actor]
        assert keyframes == list(range(spec.n_keyframes))
    assert stream.dim == spec.appearance_dim


def test_cut_keyframes_rerandomize_positions():
    spec = quiet_spec(n_keyframes=40, n_cuts=8, seed=9, max_speed=0.005)
    gt, _ = generate(spec)
    jumps = 0
    positions = [o.box.x1 for o in gt.observations]
    for a, b in zip(positions, positions[1:]):
        if abs(b - a) > 3 * spec.max_speed:
            jumps += 1
    assert jumps >= 4  # most cuts visibly displace the actor


def test_perturbation_validation():
    with pytest.raises(ValueError, match="kind"):
        Perturbation(kind="melt")
    with pytest.raises(ValueError, match="rate"):
        Perturbation(kind="drop_detections", rate=2.0)
    with pytest.raises(ValueError, match="split_track"):
        Perturbation(kind="split_track")


def test_drop_zero_rate_is_identity():
    gt, _ = generate(quiet_spec())
    assert perturb(gt, Perturbation(kind="drop_detections", rate=0.0, seed=1)) == gt


def test_jitter_zero_sigma_is_identity():
    gt, _ = generate(quiet_spec())
    assert perturb(gt, Perturbation(kind="jitter_boxes", sigma=0.0, seed=1)) == gt


def test_split_track_midpoint_matches_identity_fixture():
    gt, _ = generate(quiet_spec())
    split = perturb(gt, Perturbation(kind="split_track", actor_id=1, keyframe=5))
    assert validate_record(split, role="pred") == []
    report = evaluate_records([gt], [split])
    assert report.aggregate.idf1 == pytest.approx(0.5, abs=1e-12)
    assert report.aggregate.id_switches == 1


def test_split_track_missing_actor_is_error():
    gt, _ = generate(quiet_spec())
    with pytest.raises(ValueError, match="not present"):
        perturb(gt, Perturbation(kind="split_track", actor_id=99, keyframe=5))


def test_swap_ids_of_coliving_tracks_adds_two_switches():
    gt = record("v", track_obs("v", 1, range(10), LEFT) + track_obs("v", 2, range(10), RIGHT))
    swapped = perturb(
        gt, Perturbation(kind="swap_ids", actor_id=1, other_actor_id=2, keyframe=5)
    )
    assert evaluate_records([gt], [swapped]).aggregate.id_switches == 2


def test_swap_ids_missing_actor_is_error():
    gt = record("v", track_obs("v", 1, range(4), LEFT))
    with pytest.raises(ValueError, match="not present"):
        perturb(gt, Perturbation(kind="swap_ids", actor_id=1, other_actor_id=3, keyframe=2))


def test_flip_labels_matches_hamming_fixture():
    gt = record(
        "v",
        [obs("v", 0, 1, LEFT, actions=(1, 2)), obs("v", 0, 2, RIGHT, actions=(3,))],
    )
    flipped = perturb(gt, Perturbation(kind="flip_labels", bits=1, seed=3, n_labels=80))
    report = evaluate_records([gt], [flipped], n_labels=80)
    assert report.aggregate.hl == 0.00625


def test_flip_labels_bit_budget_checked():
    gt = record("v", [obs("v", 0, 1, LEFT)])
    with pytest.raises(ValueError, match="exceed"):
        perturb(gt, Perturbation(kind="flip_labels", bits=81, n_labels=80))


def test_inject_fp_adds_fresh_ids():
    gt, _ = generate(quiet_spec())
    noisy = perturb(gt, Perturbation(kind="inject_fp", rate=1.0, seed=8))
    assert validate_record(noisy, role="pred") == []
    assert len(noisy.observations) == 2 * len(gt.observations)
    assert set(gt.actor_ids) < set(noisy.actor_ids)


def test_perturb_deterministic():
    gt, _ = generate(quiet_spec(n_keyframes=30))
    p = Perturbation(kind="drop_detections", rate=0.4, seed=21)
    assert perturb(gt, p) == perturb(gt, p)


def test_miss_rate_monotonicity_in_ap():
    means = []
    for rate in (0.0, 0.1, 0.3):
        values = []
        for seed in range(1, 11):
            spec = scenario_preset("static", seed=seed, n_keyframes=40)
            gt, _ = generate(spec)
            degraded = perturb(gt, Perturbation(kind="drop_detections", rate=rate, seed=seed))
            values.append(evaluate_records([gt], [degraded]).aggregate.ap)
        means.append(sum(values) / len(values))
    assert means[0] >= means[1] >= means[2]


def test_negative_seeds_rejected_naming_the_field():
    with pytest.raises(ValueError, match="^seed must be >= 0$"):
        ScenarioSpec(seed=-1)
    with pytest.raises(ValueError, match="^seed must be >= 0$"):
        Perturbation(kind="drop_detections", rate=0.5, seed=-1)
    assert ScenarioSpec(seed=0).seed == Perturbation(kind="drop_detections", seed=0).seed == 0
