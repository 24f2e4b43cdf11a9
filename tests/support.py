"""Shared builders for test fixtures, and the test oracles.

The oracles are the reference checks of the parser, of the CSV writer
(``csv.writer``), of `iou_matrix`, of AP (its greedy flags, one keyframe's
tally with precision and recall, and the cutoff sweep), of a record's
tracklets, of the assignment solver (brute force), of IDTP (brute force),
of the switch count (scalar) and of the two trackers (one scalar cost per
pair online, one `_affinity` call per keyframe pair offline).
`generate_reference` and `perturb_reference` are the synthetic generator's
and perturbations' object-building loops, one `ActorObservation` per row
and one branch per perturbation kind, calling `synthetic`'s own helpers, so
that only the loops are compared. Random instance and record builders that
several test modules draw from live here too.
"""

import csv
import itertools
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from asadeval import synthetic
from asadeval.association import (
    DEFAULT_MATCH_THRESHOLD,
    DEFAULT_MAX_GAP,
    DEFAULT_MERGE_THRESHOLD,
    OFFLINE_IOU_WEIGHT,
    ONLINE_IOU_WEIGHT,
    DetectionStream,
    _UnionFind,
    _affinity,
    _unit_rows,
)
from asadeval.detection import DetectionTally
from asadeval.matching import boxes_to_array, build_cost_matrix, solve_assignment
from asadeval.model import DEFAULT_N_LABELS, ActorObservation, BoundingBox, VideoRecord

# Two comfortably disjoint boxes used all over the fixtures.
LEFT = (0.1, 0.1, 0.3, 0.3)
RIGHT = (0.6, 0.6, 0.8, 0.8)


def obs(video_id, keyframe, actor_id, box_coords, actions=(1,), score=1.0):
    return ActorObservation(
        video_id=video_id,
        keyframe=keyframe,
        box=BoundingBox(*box_coords),
        actor_id=actor_id,
        actions=frozenset(actions),
        score=score,
    )


def record(video_id, observations):
    return VideoRecord(video_id=video_id, observations=tuple(observations))


def track_obs(video_id, actor_id, keyframes, box_coords, actions=(1,), score=1.0):
    """The same box repeated across a range of keyframes."""
    return [obs(video_id, kf, actor_id, box_coords, actions, score) for kf in keyframes]


def write_csv_reference(path, columns, rows) -> None:
    """The oracle of `io_formats._write_rows`: ``csv.writer``'s header and rows, under the one cell rule.

    A float, a numpy float included, is written as the repr of the Python
    float and None as an empty cell; ``csv.writer`` writes any other cell by
    its str and quotes it where it must.
    """
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([
                repr(float(cell)) if isinstance(cell, (float, np.floating)) else "" if cell is None else cell
                for cell in row
            ])


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection over union of two boxes; 0 when disjoint, symmetric.

    The oracle of `matching.iou_matrix`, which takes these float operations
    in this order.
    """
    ix1 = max(a.x1, b.x1)
    iy1 = max(a.y1, b.y1)
    ix2 = min(a.x2, b.x2)
    iy2 = min(a.y2, b.y2)
    iw = ix2 - ix1
    ih = iy2 - iy1
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    area_a = max(0.0, a.x2 - a.x1) * max(0.0, a.y2 - a.y1)
    area_b = max(0.0, b.x2 - b.x1) * max(0.0, b.y2 - b.y1)
    union = area_a + area_b - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def greedy_flags(overlaps, scores, iou_threshold: float) -> list[bool]:
    """One keyframe's TP flags, by the scalar loop: the oracle of `matching._greedy_flags`.

    Predictions (columns of the GT x prediction IoU matrix ``overlaps``) are
    visited in descending score, ties in column order; each claims the
    unclaimed row of highest IoU, the first of equal ones, if that IoU
    reaches the threshold.
    """
    # A claimed row is set to -1 in a copy so it never wins again; argmax keeps
    # the first of equal overlaps, as a strict ">" scan over the rows would.
    flags = [False] * len(scores)
    if overlaps.shape[0]:
        overlaps = overlaps.copy()
        for idx in sorted(range(len(scores)), key=lambda i: -scores[i]):
            best_gt = int(overlaps[:, idx].argmax())
            if overlaps[best_gt, idx] >= iou_threshold:
                overlaps[best_gt, :] = -1.0
                flags[idx] = True
    return flags


def tally_frame(gt, pred, iou_threshold: float = 0.5) -> tuple[DetectionTally, list[bool]]:
    """One keyframe's TP/FP/FN tally and per-prediction TP flags, in input order: AP's matching, by scalars.

    ``gt`` holds the keyframe's boxes and ``pred`` its ``(box, score)``
    predictions; the flags are `greedy_flags` of their pairwise `iou`.
    """
    overlaps = np.array([[iou(box, other) for other, _ in pred] for box in gt]).reshape(len(gt), len(pred))
    flags = greedy_flags(overlaps, [score for _, score in pred], iou_threshold)
    tp = sum(flags)
    return DetectionTally(tp=tp, fp=len(pred) - tp, fn=len(gt) - tp), flags


def precision_recall(tally: DetectionTally) -> tuple[float, float]:
    """Precision and recall of a tally; 0 where no predictions or no ground truth make a denominator 0."""
    precision = tally.tp / (tally.tp + tally.fp) if tally.tp + tally.fp > 0 else 0.0
    recall = tally.tp / (tally.tp + tally.fn) if tally.tp + tally.fn > 0 else 0.0
    return precision, recall


def build_tracklets(record: VideoRecord) -> dict[int, tuple[ActorObservation, ...]]:
    """Each actor's keyframe-ordered observations, by ascending actor_id; gaps are permitted.

    A (keyframe, actor_id) the record holds twice is a ValueError, worded
    as `model._check_no_repeat` words it.
    """
    per_actor: dict[int, list[ActorObservation]] = {}
    for o in record.observations:  # in (keyframe, actor_id) order
        tracklet = per_actor.setdefault(o.actor_id, [])
        if tracklet and tracklet[-1].keyframe == o.keyframe:
            raise ValueError(f"duplicate (keyframe={o.keyframe}, actor_id={o.actor_id}) in video {record.video_id!r}")
        tracklet.append(o)
    return {actor_id: tuple(per_actor[actor_id]) for actor_id in sorted(per_actor)}


def brute_force_min_cost(cost: np.ndarray) -> float:
    """Exhaustive permutation enumeration of all size-min(r,c) assignments."""
    return brute_force_lex_pairs(cost)[1]


def brute_force_lex_pairs(cost: np.ndarray) -> tuple[list[tuple[int, int]], float]:
    """The smallest sorted pair list among the minimum-fsum assignments, and that minimum.

    Enumerates every assignment of size min(rows, cols).
    """
    n_rows, n_cols = cost.shape
    if n_rows <= n_cols:
        assignments = [list(enumerate(cols)) for cols in itertools.permutations(range(n_cols), n_rows)]
    else:
        assignments = [
            sorted(zip(rows, range(n_cols))) for rows in itertools.permutations(range(n_rows), n_cols)
        ]
    totals = [math.fsum(float(cost[pair]) for pair in pairs) for pairs in assignments]
    best = min(totals)
    return min(pairs for pairs, total in zip(assignments, totals) if total == best), best


def sweep_ap(gt_records, pred_records, iou_threshold=0.5):
    """Brute-force oracle: evaluate a PR point at every score cutoff, then
    integrate the interpolated curve. Matching at each cutoff is its own
    greedy-by-score pass, independent of the ranked-accumulation code path.
    """

    def frame_iou(a, b):
        ix = max(0.0, min(a.box.x2, b.box.x2) - max(a.box.x1, b.box.x1))
        iy = max(0.0, min(a.box.y2, b.box.y2) - max(a.box.y1, b.box.y1))
        inter = ix * iy
        area = lambda o: (o.box.x2 - o.box.x1) * (o.box.y2 - o.box.y1)
        union = area(a) + area(b) - inter
        return inter / union if union > 0 else 0.0

    gt_frames = {}
    total_gt = 0
    for rec in gt_records:
        for o in rec.observations:
            gt_frames.setdefault((rec.video_id, o.keyframe), []).append(o)
            total_gt += 1
    preds = [
        (rec.video_id, o)
        for rec in pred_records
        for o in rec.observations
    ]
    cutoffs = sorted({o.score for _, o in preds}, reverse=True)

    points = []
    for cutoff in cutoffs:
        tp = 0
        n_kept = 0
        for key, gts in gt_frames.items():
            frame_preds = [
                o for vid, o in preds if (vid, o.keyframe) == key and o.score >= cutoff
            ]
            frame_preds.sort(key=lambda o: -o.score)
            taken = [False] * len(gts)
            for p in frame_preds:
                best, best_idx = 0.0, -1
                for idx, g in enumerate(gts):
                    if taken[idx]:
                        continue
                    overlap = frame_iou(g, p)
                    if overlap > best:
                        best, best_idx = overlap, idx
                if best_idx >= 0 and best >= iou_threshold:
                    taken[best_idx] = True
                    tp += 1
        n_kept = sum(1 for _, o in preds if o.score >= cutoff)
        recall = tp / total_gt
        precision = tp / n_kept if n_kept else 0.0
        points.append((recall, precision))

    ap = 0.0
    prev_recall = 0.0
    for recall, _ in sorted(points):
        if recall <= prev_recall:
            continue
        p_interp = max(p for r, p in points if r >= recall)
        ap += (recall - prev_recall) * p_interp
        prev_recall = recall
    return ap


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


def cosine_distance(u: np.ndarray, v: np.ndarray) -> float:
    """1 - cosine similarity, clipped to [0, 1]; zero vectors are maximally far."""
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        return 1.0
    sim = float(np.dot(u, v)) / (nu * nv)
    return float(min(1.0, max(0.0, 1.0 - sim)))


@dataclass
class _RefTrack:
    track_id: int
    last_box: BoundingBox
    last_seen: int
    appearance_sum: np.ndarray
    count: int


def reference_track_online(
    stream: DetectionStream,
    iou_weight: float = ONLINE_IOU_WEIGHT,
    match_threshold: float = DEFAULT_MATCH_THRESHOLD,
    max_gap: int = DEFAULT_MAX_GAP,
    costs=None,
) -> VideoRecord:
    """The per-pair scalar online tracker; appends each keyframe's cost matrix to ``costs``."""
    tracks: list[_RefTrack] = []
    next_id = 1
    observations: list[ActorObservation] = []
    for keyframe in stream.keyframes:
        detections = stream.frames[keyframe]
        active = [t for t in tracks if keyframe - t.last_seen <= max_gap]

        assigned: dict[int, int] = {}
        if active and detections:
            cost = np.empty((len(active), len(detections)))
            for i, track in enumerate(active):
                mean_app = track.appearance_sum / track.count
                for j, det in enumerate(detections):
                    box_term = 1.0 - iou(track.last_box, det.box)
                    app_term = cosine_distance(mean_app, det.appearance)
                    cost[i, j] = iou_weight * box_term + (1.0 - iou_weight) * app_term
            if costs is not None:
                costs.append(cost)
            solution = solve_assignment(cost, drop_gated=False)
            for i, j in solution.pairs:
                if cost[i, j] <= match_threshold:
                    assigned[j] = i

        for j, det in enumerate(detections):
            if j in assigned:
                track = active[assigned[j]]
                track.last_box = det.box
                track.last_seen = keyframe
                track.appearance_sum = track.appearance_sum + det.appearance
                track.count += 1
                track_id = track.track_id
            else:
                track_id = next_id
                next_id += 1
                tracks.append(
                    _RefTrack(track_id, det.box, keyframe, det.appearance.astype(float).copy(), 1)
                )
            observations.append(
                ActorObservation(
                    stream.video_id, keyframe, det.box, track_id, frozenset(), det.score
                )
            )
    return VideoRecord(video_id=stream.video_id, observations=tuple(observations))


def reference_track_offline(
    stream: DetectionStream,
    iou_weight: float = OFFLINE_IOU_WEIGHT,
    merge_threshold: float = DEFAULT_MERGE_THRESHOLD,
    max_gap: int = DEFAULT_MAX_GAP,
) -> VideoRecord:
    """The offline tracker with one `_affinity` call per (keyframe, later keyframe) pair."""
    flat = [(kf, det) for kf in stream.keyframes for det in stream.frames[kf]]
    if not flat:
        return VideoRecord(video_id=stream.video_id, observations=())

    keyframes = [kf for kf, _ in flat]
    boxes = boxes_to_array([d.box for _, d in flat])
    unit = _unit_rows(np.array([d.appearance for _, d in flat], dtype=float))

    bounds = np.cumsum([0] + [len(stream.frames[kf]) for kf in stream.keyframes]).tolist()
    frames = list(zip(stream.keyframes, map(slice, bounds, bounds[1:])))

    edges: list[tuple[float, int, int]] = []
    for a_pos, (kf_a, rows) in enumerate(frames):
        for kf_b, cols in frames[a_pos + 1 :]:
            gap = kf_b - kf_a
            if gap > max_gap:
                break
            if max_gap == 1:
                decay = 1.0
            else:
                decay = (max_gap - gap) / (max_gap - 1)
            affinity = _affinity(
                boxes[rows], unit[rows], boxes[cols], unit[cols], iou_weight * decay
            )
            i, j = np.nonzero(affinity >= merge_threshold)
            edges.extend(
                zip(affinity[i, j].tolist(), (i + rows.start).tolist(), (j + cols.start).tolist())
            )

    edges.sort(key=lambda e: (-e[0], e[1], e[2]))
    clusters = _UnionFind(keyframes)
    for _, a, b in edges:
        clusters.union(a, b)

    members: dict[int, list[int]] = {}
    for idx in range(len(flat)):
        members.setdefault(clusters.find(idx), []).append(idx)
    roots = sorted(members, key=lambda root: min(members[root]))
    observations = [
        ActorObservation(stream.video_id, flat[idx][0], flat[idx][1].box, actor_id, frozenset(),
                         flat[idx][1].score)
        for actor_id, root in enumerate(roots, start=1)
        for idx in members[root]
    ]
    return VideoRecord(video_id=stream.video_id, observations=tuple(observations))


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


def random_record(rng: np.random.Generator, video_id: str, role: str) -> VideoRecord:
    observations = []
    for actor in range(1, int(rng.integers(1, 5)) + 1):
        for kf in sorted(rng.choice(20, size=int(rng.integers(1, 6)), replace=False)):
            x1 = float(rng.uniform(0, 0.6))
            y1 = float(rng.uniform(0, 0.6))
            w = float(rng.uniform(0.05, 0.35))
            h = float(rng.uniform(0.05, 0.35))
            if role == "pred" and rng.random() < 0.2:
                actions = frozenset()
            else:
                actions = frozenset(
                    int(l) + 1 for l in rng.choice(80, size=int(rng.integers(1, 4)), replace=False)
                )
            score = 1.0 if role == "gt" else float(rng.random())
            observations.append(
                obs(
                    video_id,
                    int(kf),
                    actor,
                    (x1, y1, min(x1 + w, 1.0), min(y1 + h, 1.0)),
                    actions=tuple(actions),
                    score=score,
                )
            )
    return record(video_id, observations)


@dataclass(frozen=True)
class Violation:
    """A single invariant breach found by `validate_record`."""

    rule: str
    message: str
    keyframe: Optional[int] = None
    actor_id: Optional[int] = None

    def __str__(self) -> str:
        where = []
        if self.keyframe is not None:
            where.append(f"keyframe={self.keyframe}")
        if self.actor_id is not None:
            where.append(f"actor_id={self.actor_id}")
        suffix = f" ({', '.join(where)})" if where else ""
        return f"{self.rule}: {self.message}{suffix}"


def validate_record(
    record: VideoRecord,
    role: str = "pred",
    n_labels: int = DEFAULT_N_LABELS,
) -> list[Violation]:
    """Check every type invariant of a record; violations are data, not errors.

    The whole-record oracle of the rules `io_formats.parse_annotations`
    checks row by row.

    Args:
        record: the record to check.
        role: "gt" requires non-empty label sets and score 1.0 on every
            observation; "pred" allows empty label sets and any score in [0, 1].
        n_labels: size of the action-label universe.

    Returns:
        Empty list iff all invariants hold. Deterministic and independent of
        the order observations were supplied in (records canonicalize their
        observation order at construction).
    """
    if role not in ("gt", "pred"):
        raise ValueError(f"role must be 'gt' or 'pred', got {role!r}")
    violations: list[Violation] = []

    seen: dict[tuple[int, int], int] = {}
    for obs in record.observations:
        key = (obs.keyframe, obs.actor_id)
        seen[key] = seen.get(key, 0) + 1
    for (kf, actor_id), count in seen.items():
        if count > 1:
            violations.append(
                Violation(
                    rule="duplicate_identity",
                    message=f"{count} observations share one identity at a keyframe",
                    keyframe=kf,
                    actor_id=actor_id,
                )
            )

    for obs in record.observations:
        kf, actor_id, box = obs.keyframe, obs.actor_id, obs.box
        if obs.video_id != record.video_id:
            violations.append(
                Violation(
                    rule="video_id_mismatch",
                    message=f"observation video_id {obs.video_id!r} != record {record.video_id!r}",
                    keyframe=kf,
                    actor_id=actor_id,
                )
            )
        if kf < 0:
            violations.append(
                Violation("bad_keyframe", "keyframe must be >= 0", kf, actor_id)
            )
        if actor_id < 0:
            violations.append(
                Violation("bad_actor_id", "actor_id must be >= 0", kf, actor_id)
            )
        if not (box.x1 < box.x2 and box.y1 < box.y2):
            violations.append(
                Violation("degenerate_box", "box has non-positive extent", kf, actor_id)
            )
        if not all(0.0 <= value <= 1.0 for value in (box.x1, box.y1, box.x2, box.y2)):
            violations.append(
                Violation("box_out_of_range", "coordinates outside [0, 1]", kf, actor_id)
            )
        if not (0.0 <= obs.score <= 1.0):
            violations.append(
                Violation("bad_score", f"score {obs.score} outside [0, 1]", kf, actor_id)
            )
        if role == "gt":
            if not obs.actions:
                violations.append(
                    Violation("empty_actions", "ground truth requires a non-empty label set", kf, actor_id)
                )
            if obs.score != 1.0:
                violations.append(
                    Violation("gt_score", "ground-truth score must be 1.0", kf, actor_id)
                )
        for label in obs.actions:
            if not (1 <= label <= n_labels):
                violations.append(
                    Violation("bad_label", f"action label {label} outside [1, {n_labels}]", kf, actor_id)
                )
    return violations


def assert_same_table(table, other) -> None:
    """Two records' column tables (`model._Table`) hold equal, read-only arrays of one dtype and shape.

    Their label sets must repr alike, so iterate in one order.
    """
    assert table.keyframes == other.keyframes
    assert repr(table.labels) == repr(other.labels)
    for name in ("bounds", "frame_codes", "actors", "boxes", "scores"):
        mine, theirs = getattr(table, name), getattr(other, name)
        assert (mine.dtype, mine.shape) == (theirs.dtype, theirs.shape), name
        assert np.array_equal(mine, theirs), name
        assert not mine.flags.writeable and not theirs.flags.writeable, name


def frames_reference(record: VideoRecord) -> dict[int, tuple[ActorObservation, ...]]:
    """``record.frames`` without the column table: its observations grouped one by one, in order, by keyframe."""
    grouped: dict[int, list[ActorObservation]] = {}
    for observation in record.observations:
        grouped.setdefault(observation.keyframe, []).append(observation)
    return {keyframe: tuple(observations) for keyframe, observations in grouped.items()}


def corpus_frames(corpus) -> list[tuple[int, int]]:
    """Each key of a `match_corpus` result as ``(video position, keyframe)``, in corpus order."""
    frames = []
    for v, chunk, slot in zip(*(column.tolist() for column in corpus.keys)):
        table = corpus.videos[v][0]._table
        first = corpus.chunks[chunk].rows[slot, 0]
        frames.append((v, table.keyframes[table.frame_codes[first - corpus.gt.offsets[v]]]))
    return frames


def iou_tables(corpus) -> list[dict[int, np.ndarray]]:
    """Each video's keyframes with boxes on both sides, ascending, mapped to their IoU matrices."""
    frames = corpus_frames(corpus)
    tables = [{} for _ in corpus.videos]
    for chunk in corpus.chunks:
        for key, overlaps in zip(chunk.index.tolist(), chunk.ious):
            v, keyframe = frames[key]
            tables[v][keyframe] = overlaps
    return [dict(sorted(table.items())) for table in tables]


def frame_pairs(corpus) -> list[dict[int, tuple[tuple[int, int], ...]]]:
    """Each video's gated pairs (the corpus's `pair_rows`) by keyframe, as (row, col) pairs of its IoU matrix."""
    found, keys = corpus.pair_rows, corpus.keys
    pairs = [{} for _ in corpus.videos]
    for key, (v, keyframe) in enumerate(corpus_frames(corpus)):
        chunk = corpus.chunks[keys.chunk[key]]
        gt_first, pred_first = chunk.rows[keys.slot[key], 0], chunk.cols[keys.slot[key], 0]
        rows = range(found.bounds[key], found.bounds[key + 1])
        pairs[v][keyframe] = tuple((int(found.gt[x] - gt_first), int(found.pred[x] - pred_first)) for x in rows)
    return pairs


def generate_reference(spec) -> tuple[VideoRecord, DetectionStream]:
    """`synthetic.generate` as one loop that builds an `ActorObservation` and a `BoundingBox` per GT row."""
    rng = np.random.default_rng(spec.seed)
    n = spec.n_actors

    bases = synthetic._sample_appearance_bases(rng, n, spec.appearance_dim)
    widths = rng.uniform(spec.min_box_size, spec.max_box_size, size=n)
    heights = rng.uniform(spec.min_box_size, spec.max_box_size, size=n)
    half_w = widths / 2.0
    half_h = heights / 2.0
    labels = [synthetic._sample_labels(rng, spec.n_labels) for _ in range(n)]

    if spec.n_cuts > 0:
        cuts = set(
            int(x)
            for x in rng.choice(
                np.arange(1, spec.n_keyframes), size=spec.n_cuts, replace=False
            )
        )
    else:
        cuts = set()

    cx, cy, vx, vy = synthetic._spawn(rng, half_w, half_h, spec.max_speed)
    noise_scale = spec.appearance_noise / math.sqrt(spec.appearance_dim)

    gt_observations: list[ActorObservation] = []
    rows: list[tuple] = []
    for keyframe in range(spec.n_keyframes):
        if keyframe in cuts:
            cx, cy, vx, vy = synthetic._spawn(rng, half_w, half_h, spec.max_speed)
        elif keyframe > 0:
            for a in range(n):
                cx[a], vx[a] = synthetic._reflect(cx[a], vx[a], half_w[a])
                cy[a], vy[a] = synthetic._reflect(cy[a], vy[a], half_h[a])

        for a in range(n):
            if keyframe > 0 and rng.random() < spec.label_switch_rate:
                labels[a] = synthetic._sample_labels(rng, spec.n_labels)
            box = BoundingBox(
                cx[a] - half_w[a], cy[a] - half_h[a], cx[a] + half_w[a], cy[a] + half_h[a]
            )
            gt_observations.append(
                ActorObservation(
                    video_id=spec.video_id,
                    keyframe=keyframe,
                    box=box,
                    actor_id=a + 1,
                    actions=labels[a],
                    score=1.0,
                )
            )
            missed = rng.random() < spec.miss_rate
            if not missed:
                det_box = synthetic._jittered_box(
                    rng, float(cx[a]), float(cy[a]), widths[a], heights[a], spec.box_jitter
                )
                score = float(rng.uniform(0.5, 1.0))
                embedding = bases[a] + noise_scale * rng.standard_normal(spec.appearance_dim)
                rows.append((keyframe, det_box, score, embedding / np.linalg.norm(embedding)))

        for _ in range(n):
            if rng.random() < spec.fp_rate:
                w = float(rng.uniform(spec.min_box_size, spec.max_box_size))
                h = float(rng.uniform(spec.min_box_size, spec.max_box_size))
                fcx = float(rng.uniform(w / 2.0, 1.0 - w / 2.0))
                fcy = float(rng.uniform(h / 2.0, 1.0 - h / 2.0))
                score = float(rng.uniform(0.5, 1.0))
                embedding = rng.standard_normal(spec.appearance_dim)
                box = (fcx - w / 2.0, fcy - h / 2.0, fcx + w / 2.0, fcy + h / 2.0)
                rows.append((keyframe, box, score, embedding / np.linalg.norm(embedding)))

    record = VideoRecord(video_id=spec.video_id, observations=tuple(gt_observations))
    return record, DetectionStream.from_rows(spec.video_id, spec.appearance_dim, rows)


def perturb_reference(gt: VideoRecord, p) -> VideoRecord:
    """`synthetic.perturb` with one branch per kind and its false-positive boxes drawn inline."""
    rng = np.random.default_rng(p.seed)
    observations = list(gt.observations)

    if p.kind == "drop_detections":
        observations = [obs for obs in observations if not (rng.random() < p.rate)]

    elif p.kind == "jitter_boxes":
        jittered = []
        for obs in observations:
            if p.sigma == 0.0:
                jittered.append(obs)
                continue
            box = obs.box
            new_box = synthetic._jittered_box(
                rng,
                (box.x1 + box.x2) / 2.0,
                (box.y1 + box.y2) / 2.0,
                box.width,
                box.height,
                p.sigma,
            )
            jittered.append(replace(obs, box=BoundingBox(*new_box)))
        observations = jittered

    elif p.kind == "split_track":
        if p.actor_id not in {obs.actor_id for obs in observations}:
            raise ValueError(f"split_track: actor_id {p.actor_id} not present")
        new_id = max(obs.actor_id for obs in observations) + 1
        observations = [
            replace(obs, actor_id=new_id)
            if obs.actor_id == p.actor_id and obs.keyframe >= p.keyframe
            else obs
            for obs in observations
        ]

    elif p.kind == "swap_ids":
        present = {obs.actor_id for obs in observations}
        for actor in (p.actor_id, p.other_actor_id):
            if actor not in present:
                raise ValueError(f"swap_ids: actor_id {actor} not present")
        swapped = []
        for obs in observations:
            if obs.keyframe >= p.keyframe and obs.actor_id == p.actor_id:
                swapped.append(replace(obs, actor_id=p.other_actor_id))
            elif obs.keyframe >= p.keyframe and obs.actor_id == p.other_actor_id:
                swapped.append(replace(obs, actor_id=p.actor_id))
            else:
                swapped.append(obs)
        observations = swapped

    elif p.kind == "flip_labels":
        universe = len(observations) * p.n_labels
        if p.bits > universe:
            raise ValueError(
                f"flip_labels: {p.bits} bits exceed the {universe}-bit label universe"
            )
        if p.bits > 0:
            positions = rng.choice(universe, size=p.bits, replace=False)
            flips: dict[int, set[int]] = {}
            for position in sorted(int(x) for x in positions):
                obs_idx, label = divmod(position, p.n_labels)
                flips.setdefault(obs_idx, set()).add(label + 1)
            for obs_idx, labels in flips.items():
                obs = observations[obs_idx]
                observations[obs_idx] = replace(
                    obs, actions=obs.actions.symmetric_difference(labels)
                )

    elif p.kind == "inject_fp":
        next_id = max((obs.actor_id for obs in observations), default=0) + 1
        extra: list[ActorObservation] = []
        for keyframe in sorted({obs.keyframe for obs in observations}):
            if rng.random() < p.rate:
                w = float(rng.uniform(0.05, 0.15))
                h = float(rng.uniform(0.05, 0.15))
                fcx = float(rng.uniform(w / 2.0, 1.0 - w / 2.0))
                fcy = float(rng.uniform(h / 2.0, 1.0 - h / 2.0))
                label = int(rng.integers(1, p.n_labels + 1))
                extra.append(
                    ActorObservation(
                        video_id=gt.video_id,
                        keyframe=keyframe,
                        box=BoundingBox(
                            fcx - w / 2.0, fcy - h / 2.0, fcx + w / 2.0, fcy + h / 2.0
                        ),
                        actor_id=next_id,
                        actions=frozenset({label}),
                        score=float(rng.uniform(0.5, 1.0)),
                    )
                )
                next_id += 1
        observations.extend(extra)

    return VideoRecord(video_id=gt.video_id, observations=tuple(observations))
