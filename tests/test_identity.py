import itertools

import numpy as np
import pytest

from asadeval import actions, identity
from asadeval.evaluation import evaluate_records
from asadeval.identity import id_switches, idf1, mt_ml
from asadeval.matching import build_cost_matrix, gated_pairs, iou, solve_assignment
from asadeval.model import VideoRecord
from support import LEFT, RIGHT, obs, record, track_obs


def brute_force_idtp(gt: VideoRecord, pred: VideoRecord, iou_threshold=0.5) -> int:
    """Exhaustive enumeration over all injective identity pairings."""
    gt_ids = gt.actor_ids
    pred_ids = pred.actor_ids
    if not gt_ids or not pred_ids:
        return 0
    overlap = {}
    for g in gt_ids:
        for p in pred_ids:
            count = 0
            for kf, g_frame in gt.frames.items():
                p_frame = pred.frames.get(kf, ())
                g_obs = [o for o in g_frame if o.actor_id == g]
                p_obs = [o for o in p_frame if o.actor_id == p]
                if g_obs and p_obs and iou(g_obs[0].box, p_obs[0].box) >= iou_threshold:
                    count += 1
            overlap[(g, p)] = count
    best = 0
    if len(gt_ids) <= len(pred_ids):
        for chosen in itertools.permutations(pred_ids, len(gt_ids)):
            best = max(best, sum(overlap[(g, p)] for g, p in zip(gt_ids, chosen)))
    else:
        for chosen in itertools.permutations(gt_ids, len(pred_ids)):
            best = max(best, sum(overlap[(g, p)] for g, p in zip(chosen, pred_ids)))
    return best


def scalar_id_switches(gt: VideoRecord, pred: VideoRecord, iou_threshold=0.5, persistence=True) -> int:
    """Reference switch count: scalar IoUs and a fresh cost matrix per keyframe."""
    last_match: dict[int, int] = {}
    switches = 0
    for keyframe in sorted(set(gt.frames) | set(pred.frames)):
        g_frame = list(gt.frames.get(keyframe, ()))
        p_frame = list(pred.frames.get(keyframe, ()))
        matches: dict[int, int] = {}
        if persistence and g_frame and p_frame:
            by_pred_id = {o.actor_id: o for o in p_frame}
            claimed: set[int] = set()
            persisted: set[int] = set()
            for g_obs in g_frame:
                prev = last_match.get(g_obs.actor_id)
                if prev is None or prev in claimed:
                    continue
                p_obs = by_pred_id.get(prev)
                if p_obs is not None and iou(g_obs.box, p_obs.box) >= iou_threshold:
                    matches[g_obs.actor_id] = prev
                    claimed.add(prev)
                    persisted.add(g_obs.actor_id)
            g_frame = [o for o in g_frame if o.actor_id not in persisted]
            p_frame = [o for o in p_frame if o.actor_id not in claimed]
        if g_frame and p_frame:
            problem = build_cost_matrix(
                [o.box for o in g_frame], [o.box for o in p_frame], gate=iou_threshold
            )
            for g_idx, p_idx in solve_assignment(problem).pairs:
                matches[g_frame[g_idx].actor_id] = p_frame[p_idx].actor_id
        for gt_actor, pred_actor in matches.items():
            prev = last_match.get(gt_actor)
            if prev is not None and prev != pred_actor:
                switches += 1
            last_match[gt_actor] = pred_actor
    return switches


def random_instance(rng: np.random.Generator) -> tuple[VideoRecord, VideoRecord]:
    n_gt = int(rng.integers(1, 7))
    n_pred = int(rng.integers(1, 7))
    n_kf = int(rng.integers(1, 13))
    cells = [(0.05 + 0.3 * c, 0.05 + 0.3 * r) for r in range(3) for c in range(3)]

    def random_obs(video, kf, actor):
        # boxes snap near a 3x3 grid of cells so overlaps happen often
        cx, cy = cells[int(rng.integers(0, len(cells)))]
        dx, dy = rng.uniform(-0.05, 0.05, size=2)
        x1, y1 = max(cx + dx, 0.0), max(cy + dy, 0.0)
        return obs(video, kf, actor, (x1, y1, min(x1 + 0.2, 1.0), min(y1 + 0.2, 1.0)))

    gt_obs = [
        random_obs("v", kf, actor)
        for actor in range(1, n_gt + 1)
        for kf in range(n_kf)
        if rng.random() < 0.8
    ]
    pred_obs = [
        random_obs("v", kf, actor)
        for actor in range(1, n_pred + 1)
        for kf in range(n_kf)
        if rng.random() < 0.8
    ]
    return record("v", gt_obs), record("v", pred_obs)


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
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return solve_assignment(*args, **kwargs)

    monkeypatch.setattr(identity, "solve_assignment", counting)
    rng = np.random.default_rng(21)
    for _ in range(20):
        gt, pred = random_instance(rng)
        block = evaluate_records([gt], [pred], id_persistence=False).per_video["v"]
        assert block.id_switches == scalar_id_switches(gt, pred, persistence=False)
    assert calls == []


def test_switches_solve_only_where_an_actor_did_not_persist(monkeypatch):
    # Three jittered actors; predicted ids 1 and 2 swap boxes from keyframe 6 on.
    # Only keyframe 0 (nothing to persist yet) and keyframe 6 (ids 1 and 2 lost
    # their boxes) leave a residual; every other keyframe persists every actor.
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return solve_assignment(*args, **kwargs)

    def counting_tables(*args, **kwargs):
        calls.append(args)
        return gated_pairs(*args, **kwargs)

    monkeypatch.setattr(actions, "gated_pairs", counting_tables)
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
    assert len(calls) == 2
