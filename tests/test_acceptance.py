"""Acceptance suite: each criterion runs at its stated tolerance and prints
one pass/fail line. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import csv
import functools
import time

import numpy as np
import pytest

from asadeval.cli import main
from asadeval.evaluation import evaluate_records
from asadeval.io_formats import (
    parse_annotations,
    read_report,
    write_annotations,
    write_report,
)
from asadeval.matching import build_cost_matrix, solve_assignment
from asadeval.synthetic import Perturbation, generate, perturb, scenario_preset
from cost_kinds import random_boxes
from support import (
    LEFT, RIGHT, brute_force_idtp, brute_force_min_cost, obs, random_instance, random_record, record, sweep_ap,
    track_obs,
)


def criterion(number, title):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {number}] {title}: FAIL")
                raise
            print(f"[criterion {number}] {title}: PASS")

        return wrapper

    return decorate


@criterion(1, "zero-noise identity")
def test_criterion_1_zero_noise_identity():
    start = time.perf_counter()
    spec = scenario_preset("static", seed=7)
    gt, _ = generate(spec)
    report = evaluate_records([gt], [gt], n_labels=spec.n_labels)
    agg = report.aggregate
    assert abs(agg.ap - 1.0) <= 1e-12
    assert abs(agg.idf1 - 1.0) <= 1e-12
    assert abs(agg.mt_pct - 100.0) <= 1e-12
    assert abs(agg.ml_pct - 0.0) <= 1e-12
    assert agg.id_switches == 0
    assert abs(agg.hl - 0.0) <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s"


@criterion(2, "assignment equals exhaustive permutation minimum")
def test_criterion_2_assignment_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    for _ in range(200):
        n_gt = int(rng.integers(1, 8))
        n_pred = int(rng.integers(1, 8))
        cost = build_cost_matrix(random_boxes(rng, n_gt), random_boxes(rng, n_pred))
        solution = solve_assignment(cost)
        assert solution.total_cost == brute_force_min_cost(cost)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.2f}s"


@criterion(3, "hand-derived AP fixtures")
def test_criterion_3_ap_fixtures():
    far = (0.05, 0.7, 0.25, 0.9)

    gt1 = record("v", [obs("v", 0, 1, LEFT)])
    pred1 = record(
        "v",
        [obs("v", 0, 2, far, score=0.95), obs("v", 0, 1, LEFT, score=0.90)],
    )
    report1 = evaluate_records([gt1], [pred1])
    assert abs(report1.aggregate.ap - 0.5) <= 1e-9
    assert abs(sweep_ap([gt1], [pred1]) - 0.5) <= 1e-9

    gt2 = record("v", [obs("v", 0, 1, LEFT), obs("v", 1, 1, LEFT)])
    pred2 = record(
        "v",
        [
            obs("v", 0, 1, LEFT, score=0.9),
            obs("v", 0, 2, far, score=0.8),
            obs("v", 1, 1, LEFT, score=0.7),
        ],
    )
    expected = 5.0 / 6.0
    report2 = evaluate_records([gt2], [pred2])
    assert abs(report2.aggregate.ap - expected) <= 1e-9
    assert abs(sweep_ap([gt2], [pred2]) - expected) <= 1e-9


@criterion(4, "IDF1 identity-pairing oracle")
def test_criterion_4_idf1_oracle():
    from asadeval.identity import idf1

    rng = np.random.default_rng(404)
    for _ in range(100):
        gt, pred = random_instance(rng)
        _, counts = idf1(gt, pred)
        assert counts.idtp == brute_force_idtp(gt, pred)

    gt = record("v", track_obs("v", 1, range(10), LEFT))
    pred = record(
        "v", track_obs("v", 7, range(5), LEFT) + track_obs("v", 9, range(5, 10), LEFT)
    )
    value, _ = idf1(gt, pred)
    assert abs(value - 0.5) <= 1e-12


@criterion(5, "Hamming-loss linearity in flipped bits")
def test_criterion_5_hl_linearity():
    gt = record(
        "v",
        [obs("v", 0, 1, LEFT, actions=(1, 2)), obs("v", 0, 2, RIGHT, actions=(3,))],
    )
    n_pairs, n_labels = 2, 80
    for bits in (0, 1, 5, 160):
        flipped = perturb(
            gt, Perturbation(kind="flip_labels", bits=bits, seed=bits + 1, n_labels=n_labels)
        )
        report = evaluate_records([gt], [flipped], n_labels=n_labels)
        assert report.aggregate.n_matched_pairs == n_pairs
        assert report.aggregate.hl == bits / (n_pairs * n_labels)
    one_bit = perturb(gt, Perturbation(kind="flip_labels", bits=1, seed=2, n_labels=80))
    assert evaluate_records([gt], [one_bit], n_labels=80).aggregate.hl == 0.00625


@criterion(6, "MT/ML inclusive boundaries")
def test_criterion_6_mt_ml_boundaries():
    from asadeval.identity import mt_ml

    total = 100
    gt = record("v", track_obs("v", 1, range(total), LEFT))
    expectations = {20: "ML", 21: "neither", 79: "neither", 80: "MT"}
    for covered, expected in expectations.items():
        pred = record("v", track_obs("v", 5, range(covered), LEFT))
        result = mt_ml(gt, pred)
        label = "MT" if result.mt_count else ("ML" if result.ml_count else "neither")
        assert label == expected, f"ratio {covered / total} classified {label}"


@criterion(7, "directional online/offline association comparison")
def test_criterion_7_directional_bench(tmp_path):
    start = time.perf_counter()
    out = tmp_path / "bench"
    assert main(["bench", "--seeds", "10", "--out", str(out)]) == 0
    with open(out / "comparison.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 20
    online = {int(r["seed"]): r for r in rows if r["mode"] == "online"}
    offline = {int(r["seed"]): r for r in rows if r["mode"] == "offline"}

    mean_online = sum(float(r["idf1"]) for r in online.values()) / len(online)
    mean_offline = sum(float(r["idf1"]) for r in offline.values()) / len(offline)
    assert mean_offline - mean_online > 0.0

    switches_online = sum(int(r["id_switches"]) for r in online.values())
    switches_offline = sum(int(r["id_switches"]) for r in offline.values())
    assert switches_offline < switches_online

    for seed in online:
        assert float(offline[seed]["idf1"]) >= float(online[seed]["idf1"])
        assert int(offline[seed]["id_switches"]) <= int(online[seed]["id_switches"])
        # association never changes the detection boxes, so AP is identical
        assert offline[seed]["ap50"] == online[seed]["ap50"]

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.2f}s"


@criterion(8, "perturbation monotonicity")
def test_criterion_8_perturbation_monotonicity():
    means = []
    for rate in (0.0, 0.1, 0.3):
        values = []
        for seed in range(1, 11):
            gt, _ = generate(scenario_preset("static", seed=seed))
            degraded = perturb(
                gt, Perturbation(kind="drop_detections", rate=rate, seed=seed)
            )
            values.append(evaluate_records([gt], [degraded]).aggregate.ap)
        means.append(sum(values) / len(values))
    assert means[0] >= means[1] >= means[2]

    for seed in range(1, 11):
        gt, _ = generate(scenario_preset("static", seed=seed))
        assert evaluate_records([gt], [gt]).aggregate.id_switches == 0
        one_split = perturb(
            gt, Perturbation(kind="split_track", actor_id=1, keyframe=60)
        )
        assert evaluate_records([gt], [one_split]).aggregate.id_switches == 1
        two_splits = perturb(
            one_split, Perturbation(kind="split_track", actor_id=2, keyframe=60)
        )
        assert evaluate_records([gt], [two_splits]).aggregate.id_switches == 2

    coliving = record(
        "v", track_obs("v", 1, range(20), LEFT) + track_obs("v", 2, range(20), RIGHT)
    )
    swapped = perturb(
        coliving, Perturbation(kind="swap_ids", actor_id=1, other_actor_id=2, keyframe=10)
    )
    assert evaluate_records([coliving], [swapped]).aggregate.id_switches == 2


@criterion(9, "serialization round trips")
def test_criterion_9_round_trips(tmp_path):
    rng = np.random.default_rng(909)
    for index in range(50):
        role = "gt" if index % 2 == 0 else "pred"
        original = random_record(rng, f"clip_{index:03d}", role)
        path = tmp_path / f"rt_{index:03d}.csv"
        write_annotations([original], str(path), role=role)
        (parsed,) = parse_annotations(str(path), role=role)
        assert parsed == original

    gt, _ = generate(scenario_preset("camera-cut", seed=6, n_keyframes=30))
    degraded = perturb(gt, Perturbation(kind="drop_detections", rate=0.2, seed=3))
    report = evaluate_records([gt], [degraded])
    report_path = tmp_path / "report.json"
    write_report(report, str(report_path), fmt="json")
    assert read_report(str(report_path)) == report
