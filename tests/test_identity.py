import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linear_sum_assignment

from asadeval import identity, matching
from asadeval.actions import match_pairs
from asadeval.detection import average_precision
from asadeval.evaluation import evaluate_records
from asadeval.identity import id_switches, idf1, mt_ml
from asadeval.matching import gated_cost, solve_assignment
from asadeval.model import VideoRecord
from support import (
    LEFT, RIGHT, brute_force_idtp, obs, random_instance, record, scalar_id_switches, track_obs,
)


def test_idf1_perfect_up_to_relabeling():
    gt = record("v", track_obs("v", 1, range(10), LEFT) + track_obs("v", 2, range(10), RIGHT))
    pred = record("v", track_obs("v", 42, range(10), LEFT) + track_obs("v", 7, range(10), RIGHT))
    value, counts = idf1(gt, pred)
    assert value == 1.0
    assert (counts.idtp, counts.idfp, counts.idfn) == (20, 0, 0)
    assert counts.pairing == ((1, 42), (2, 7))


def test_idf1_equal_split_is_half():
    gt = record("v", track_obs("v", 1, range(10), LEFT))
    pred = record("v", track_obs("v", 7, range(5), LEFT) + track_obs("v", 9, range(5, 10), LEFT))
    value, counts = idf1(gt, pred)
    assert (counts.idtp, counts.idfp, counts.idfn) == (5, 5, 5)
    assert value == pytest.approx(0.5, abs=1e-15)


def test_idf1_one_shared_id_for_two_actors():
    length = 8
    gt = record(
        "v", track_obs("v", 1, range(length), LEFT) + track_obs("v", 2, range(length), RIGHT)
    )
    # the single predicted identity covers actor 1 exactly
    pred = record("v", track_obs("v", 7, range(length), LEFT))
    value, counts = idf1(gt, pred)
    assert counts.idtp == length
    assert value == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_idf1_empty_cases():
    empty = record("v", [])
    value, counts = idf1(empty, empty)
    assert value == 1.0 and counts.vacuous
    # Zero counts score 1.0 whether or not they are flagged, as a report block's do.
    assert identity.IdMatchResult(0, 0, 0, ()).idf1 == 1.0
    some = record("v", track_obs("v", 1, range(3), LEFT))
    assert idf1(empty, some)[0] == 0.0
    assert idf1(some, empty)[0] == 0.0


def test_idf1_invariant_under_relabeling_both_sides():
    rng = np.random.default_rng(31)
    gt, pred = random_instance(rng)
    base, _ = idf1(gt, pred)

    def relabel(rec, offset):
        mapping = {a: 1000 + offset * 100 + i for i, a in enumerate(rec.actor_ids)}
        return record(
            rec.video_id,
            [
                obs(o.video_id, o.keyframe, mapping[o.actor_id],
                    (o.box.x1, o.box.y1, o.box.x2, o.box.y2), tuple(o.actions), o.score)
                for o in rec.observations
            ],
        )

    assert idf1(relabel(gt, 1), pred)[0] == pytest.approx(base, abs=1e-15)
    assert idf1(gt, relabel(pred, 2))[0] == pytest.approx(base, abs=1e-15)


def test_idf1_oracle_equivalence():
    rng = np.random.default_rng(101)
    for _ in range(40):
        gt, pred = random_instance(rng)
        _, counts = idf1(gt, pred)
        assert counts.idtp == brute_force_idtp(gt, pred)


def records_with_overlap(overlap: np.ndarray) -> tuple[VideoRecord, VideoRecord]:
    """Records whose identity-overlap matrix is ``overlap`` (actor ids from 1).

    Entry (g, p) = c becomes c keyframes where GT actor g + 1 and predicted
    actor p + 1 share a box. Each actor also appears alone once, so an
    all-zero row or column is an identity without a gated hit.
    """
    n_gt, n_pred = overlap.shape
    gt_obs = [obs("v", g, g + 1, LEFT) for g in range(n_gt)]
    pred_obs = [obs("v", n_gt + p, p + 1, LEFT) for p in range(n_pred)]
    keyframes = itertools.count(n_gt + n_pred)
    for (g, p), count in np.ndenumerate(overlap):
        for kf in itertools.islice(keyframes, int(count)):
            gt_obs.append(obs("v", kf, g + 1, LEFT))
            pred_obs.append(obs("v", kf, p + 1, LEFT))
    return record("v", gt_obs), record("v", pred_obs)


def smallest_optimal_pairing(overlap: np.ndarray) -> tuple[tuple[int, int], ...]:
    """By enumeration: of the identities with a hit, the lexicographically smallest
    assignment of maximum total overlap, its positive pairs in actor ids."""
    rows = [g for g in range(overlap.shape[0]) if overlap[g].any()]
    cols = [p for p in range(overlap.shape[1]) if overlap[:, p].any()]
    k = min(len(rows), len(cols))
    best = min(
        (-sum(int(overlap[pair]) for pair in pairs), pairs)
        for chosen_rows in itertools.combinations(rows, k)
        for chosen_cols in itertools.permutations(cols, k)
        for pairs in [sorted(zip(chosen_rows, chosen_cols))]
    )[1]
    return tuple((g + 1, p + 1) for g, p in best if overlap[g, p] > 0)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(arrays(np.int64, st.tuples(st.integers(1, 6), st.integers(1, 6)),
              elements=st.sampled_from([0, 0, 1, 2, 3])))
@example(np.zeros((3, 2), dtype=np.int64))
@example(np.array([[0, 1], [1, 2]]))  # both diagonals total 2
@example(np.array([[1, 0, 1], [0, 0, 0], [1, 0, 1]]))
@example(np.array([[2, 1, 1, 0, 1], [1, 2, 1, 1, 0], [1, 1, 2, 0, 1], [0, 1, 1, 2, 1], [1, 0, 1, 1, 2]]))
def test_idf1_pairing_is_the_smallest_optimum(overlap):
    # Tied counts and identities without hits; 4 or more identities with hits
    # a side take the LSA route, fewer are enumerated.
    gt, pred = records_with_overlap(overlap)
    _, counts = idf1(gt, pred)
    assert counts.idtp == brute_force_idtp(gt, pred) == sum(overlap[g - 1, p - 1] for g, p in counts.pairing)
    assert counts.pairing == smallest_optimal_pairing(overlap)


@pytest.mark.parametrize("gate", [0.0, 1.0, 1.5, -0.5, float("nan")])
@pytest.mark.parametrize("metric", [
    idf1, mt_ml, id_switches, match_pairs,
    pytest.param(lambda gt, pred, gate: average_precision([gt], [pred], gate), id="average_precision"),
    pytest.param(lambda gt, pred, gate: evaluate_records([gt], [pred], gate), id="evaluate_records"),
])
def test_per_family_functions_check_the_gate(metric, gate):
    # With gate 0.0 these disjoint boxes used to count as a hit (IDF1 1.0).
    gt = record("v", [obs("v", 0, 1, LEFT)])
    pred = record("v", [obs("v", 0, 7, RIGHT)])
    with pytest.raises(ValueError, match=r"iou_threshold must lie in \(0, 1\)"):
        metric(gt, pred, gate)


@pytest.mark.parametrize("metric, unread", [
    pytest.param(idf1, ("pair_rows", "flags"), id="idf1"),
    pytest.param(lambda gt, pred: average_precision([gt], [pred]), ("pair_rows",), id="average_precision"),
    pytest.param(match_pairs, ("flags",), id="match_pairs"),
    pytest.param(mt_ml, ("flags",), id="mt_ml"),
    pytest.param(lambda gt, pred: id_switches(gt, pred, persistence=True), ("flags",), id="id_switches"),
])
def test_per_family_functions_read_only_the_members_they_need(metric, unread, monkeypatch):
    # A corpus's gated pairs and AP flags are computed on first read, so a
    # function that reads neither solves no keyframe and runs no greedy matching.
    def raising(name):
        def read(corpus):
            raise AssertionError(f"_CorpusMatch.{name} was read")
        return property(read)

    for name in unread:
        monkeypatch.setattr(matching._CorpusMatch, name, raising(name))
    rng = np.random.default_rng(5)
    for _ in range(10):
        metric(*random_instance(rng))


def test_mt_ml_boundaries_inclusive():
    total = 100
    gt = record("v", track_obs("v", 1, range(total), LEFT))
    for covered, expect_mt, expect_ml in ((20, False, True), (21, False, False),
                                          (79, False, False), (80, True, False)):
        pred = record("v", track_obs("v", 5, range(covered), LEFT))
        result = mt_ml(gt, pred)
        assert result.coverage[0].covered == covered
        assert (result.mt_count == 1) is expect_mt
        assert (result.ml_count == 1) is expect_ml


def test_mt_ml_percentages():
    gt = record(
        "v",
        track_obs("v", 1, range(10), LEFT) + track_obs("v", 2, range(10), RIGHT),
    )
    pred = record("v", track_obs("v", 9, range(10), LEFT))  # covers actor 1 only
    result = mt_ml(gt, pred)
    assert result.n_tracklets == 2
    assert result.mt_count == 1 and result.ml_count == 1
    assert result.mt_pct == 50.0 and result.ml_pct == 50.0
    assert result.mt_pct + result.ml_pct <= 100.0


def test_mt_ml_coverage_ignores_identity():
    gt = record("v", track_obs("v", 1, range(10), LEFT))
    # a different predicted id per keyframe still covers every keyframe
    pred = record("v", [obs("v", kf, 100 + kf, LEFT, score=0.9) for kf in range(10)])
    result = mt_ml(gt, pred)
    assert result.coverage[0].ratio == 1.0
    assert result.mt_count == 1


def test_id_switches_single_handover():
    gt = record("v", track_obs("v", 1, range(10), LEFT))
    pred = record("v", track_obs("v", 7, range(5), LEFT) + track_obs("v", 9, range(5, 10), LEFT))
    assert id_switches(gt, pred) == 1


def test_id_switches_zero_for_perfect_tracking():
    gt = record("v", track_obs("v", 1, range(10), LEFT) + track_obs("v", 2, range(10), RIGHT))
    pred = record("v", track_obs("v", 5, range(10), LEFT) + track_obs("v", 6, range(10), RIGHT))
    assert id_switches(gt, pred) == 0


def test_id_switches_swap_counts_twice():
    gt = record("v", track_obs("v", 1, range(10), LEFT) + track_obs("v", 2, range(10), RIGHT))
    pred_obs = (
        track_obs("v", 5, range(5), LEFT)
        + track_obs("v", 6, range(5), RIGHT)
        + track_obs("v", 6, range(5, 10), LEFT)
        + track_obs("v", 5, range(5, 10), RIGHT)
    )
    assert id_switches(gt, record("v", pred_obs)) == 2


def test_id_switches_persist_across_gaps():
    gt = record("v", track_obs("v", 1, range(10), LEFT))
    # prediction vanishes for keyframes 4-6 but returns with the same id
    pred = record("v", track_obs("v", 3, [0, 1, 2, 3, 7, 8, 9], LEFT))
    assert id_switches(gt, pred) == 0


def test_id_switches_fragmentation_into_k_pieces():
    length = 12
    gt = record("v", track_obs("v", 1, range(length), LEFT))
    for k in (2, 3, 4):
        pieces = []
        bounds = [length * i // k for i in range(k + 1)]
        for piece, (start, end) in enumerate(zip(bounds, bounds[1:]), start=1):
            pieces += track_obs("v", 100 + piece, range(start, end), LEFT)
        assert id_switches(gt, record("v", pieces)) == k - 1


def test_id_switches_persistence_flag():
    # Prediction id 7 stays glued to the actor; id 9 appears nearby with a
    # slightly better box at keyframe 5. Persistence keeps 7, so no switch.
    base = (0.1, 0.1, 0.3, 0.3)
    nudged = (0.11, 0.1, 0.31, 0.3)
    gt = record("v", track_obs("v", 1, range(10), base))
    pred_obs = track_obs("v", 7, range(10), nudged) + [obs("v", 5, 9, base, score=0.9)]
    pred = record("v", pred_obs)
    assert id_switches(gt, pred, persistence=True) == 0
    assert id_switches(gt, pred, persistence=False) == 2  # jumps to 9 and back


def test_switches_without_persistence_reuse_the_gated_pairs(monkeypatch):
    # Every keyframe's residual is then its full problem, which match_pairs solved.
    # IDF1's pairing solves too, so only residuals (built by gated_cost) are counted.
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return gated_cost(*args, **kwargs)

    monkeypatch.setattr(identity, "gated_cost", counting)
    rng = np.random.default_rng(21)
    for _ in range(20):
        gt, pred = random_instance(rng)
        block = evaluate_records([gt], [pred], id_persistence=False).per_video["v"]
        assert block.id_switches == scalar_id_switches(gt, pred, persistence=False)
    assert calls == []


def test_switches_solve_only_where_an_actor_did_not_persist(monkeypatch):
    # Three jittered actors; predicted ids 1 and 2 swap boxes from keyframe 6 on.
    # Keyframe 0 (nothing to persist yet) takes its pairs from the corpus's one
    # batched solve, and keyframe 6 (ids 1 and 2 lost their boxes, id 3 kept
    # its own) solves a residual; every other keyframe persists every actor.
    residual_solves, batched_reads = [], []

    def counting(*args, **kwargs):
        residual_solves.append(args)
        return solve_assignment(*args, **kwargs)

    solve_corpus = matching._CorpusMatch.pair_rows.func

    def counting_corpus(corpus):
        batched_reads.append(corpus)
        return solve_corpus(corpus)

    monkeypatch.setattr(matching._CorpusMatch, "pair_rows", property(counting_corpus))
    monkeypatch.setattr(identity, "solve_assignment", counting)
    rng = np.random.default_rng(6)
    corners = {1: LEFT, 2: RIGHT, 3: (0.6, 0.1, 0.8, 0.3)}

    def jittered(kf, actor, box_of):
        dx, dy = rng.uniform(-0.01, 0.01, size=2)
        x1, y1, x2, y2 = corners[box_of]
        return obs("v", kf, actor, (x1 + dx, y1 + dy, x2 + dx, y2 + dy))

    swap = {1: 2, 2: 1, 3: 3}
    gt = record("v", [jittered(kf, a, a) for kf in range(12) for a in corners])
    pred = record(
        "v", [jittered(kf, a, swap[a] if kf >= 6 else a) for kf in range(12) for a in corners]
    )
    assert id_switches(gt, pred) == scalar_id_switches(gt, pred) == 2
    assert (len(batched_reads), len(residual_solves)) == (1, 1)



def test_clean_five_actor_tracking_pairs_identities_in_one_solve(monkeypatch):
    # Five actors on every keyframe, apart from each other; predicted ids are the
    # actor ids plus 10, so the 5 x 5 counts hold one hit per row and column,
    # a pairing too large to enumerate whose only optimum is those hits.
    calls = []

    def counting(cost):
        calls.append(cost.shape)
        return linear_sum_assignment(cost)

    monkeypatch.setattr(matching, "linear_sum_assignment", counting)
    boxes = [(0.02 + 0.19 * a, 0.2, 0.17 + 0.19 * a, 0.6) for a in range(5)]
    gt = record("v", [obs("v", kf, a, boxes[a]) for kf in range(6) for a in range(5)])
    pred = record("v", [obs("v", kf, a + 10, boxes[a], score=0.9) for kf in range(6) for a in range(5)])
    score, result = idf1(gt, pred)
    assert score == 1.0 and result.idtp == brute_force_idtp(gt, pred) == 30
    assert result.pairing == tuple((a, a + 10) for a in range(5))
    assert calls == [(5, 5)]
