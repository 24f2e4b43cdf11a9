"""Generated scenes checked against the brute-force and standalone paths."""

import contextlib
import functools
import io
import json
import re
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from asadeval import association
from asadeval.actions import match_pairs
from asadeval.association import DetectionStream
from asadeval.cli import main
from asadeval.detection import average_precision
from asadeval.evaluation import evaluate_records
from asadeval.identity import idf1, mt_ml
from asadeval.io_formats import (
    GT_COLUMNS, PRED_COLUMNS, FormatError, parse_annotations, parse_detection_stream, report_from_dict, report_to_dict,
)
from asadeval.model import ActorObservation, BoundingBox, VideoRecord
from asadeval.synthetic import Perturbation, ScenarioSpec, generate, perturb, scenario_preset
from csv_mutations import KINDS, N_LABELS, mutate, raw_input, valid_inputs
from support import (
    LEFT, RIGHT, assert_same_table, brute_force_idtp, frames_reference, generate_reference, obs, perturb_reference,
    record, scalar_id_switches, sweep_ap, track_obs, validate_record,
)


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


@st.composite
def corpora(draw):
    """1-3 videos of 1-4 keyframes, each on the GT side, the prediction side or both.

    Scores come from a small set so that predictions of different videos tie,
    and predicted identities repeat across keyframes so IDs can switch. A
    video's GT boxes come from a small palette, and a keyframe may repeat the
    previous one's boxes under reshuffled predicted identities, so that some
    matches persist while others switch.
    """
    gts, preds = [], []
    for video_id in ("a", "b", "c")[: draw(st.integers(1, 3))]:
        gt_obs, pred_obs = [], []
        palette = draw(st.lists(boxes(), min_size=1, max_size=3))
        for kf in range(draw(st.integers(1, 4))):
            if not (kf and draw(st.booleans())):
                gt_boxes = draw(st.lists(st.sampled_from(palette), max_size=3))
                pred_boxes = draw(st.lists(st.sampled_from(gt_boxes), max_size=3)) if gt_boxes else []
                pred_boxes += draw(st.lists(boxes(), max_size=2))
            gt_obs += [obs(video_id, kf, actor, box) for actor, box in enumerate(gt_boxes)]
            actors = draw(st.permutations(range(len(pred_boxes))))
            pred_obs += [
                obs(video_id, kf, actor, box, actions=draw(st.sets(st.integers(1, 3), max_size=2)),
                    score=draw(st.sampled_from((0.25, 0.5, 0.75))))
                for actor, box in zip(actors, pred_boxes)
            ]
        side = draw(st.sampled_from(("both", "gt", "pred")))
        if side != "pred":
            gts.append(record(video_id, gt_obs))
        if side != "gt":
            preds.append(record(video_id, pred_obs))
    return gts, preds


@st.composite
def shuffled_corpora(draw):
    """A corpus from `corpora` with its GT and prediction lists each permuted."""
    gts, preds = draw(corpora())
    return draw(st.permutations(gts)), draw(st.permutations(preds))


# Two videos whose only predictions tie at 0.9: a false positive in "a" and a
# true positive in "b", handed over in reverse video_id order.
TIED_ACROSS_VIDEOS = (
    [record("a", [obs("a", 0, 0, LEFT)]), record("b", [obs("b", 0, 0, LEFT)])],
    [record("b", [obs("b", 0, 0, LEFT, score=0.9)]), record("a", [obs("a", 0, 0, RIGHT, score=0.9)])],
)


SUMMED = ("idtp", "idfp", "idfn", "mt_count", "ml_count", "n_gt_tracklets", "id_switches",
          "n_matched_pairs", "wrong_label_bits")


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(shuffled_corpora())
@example(TIED_ACROSS_VIDEOS)
def test_aggregate_is_a_reduce_of_the_videos(corpus):
    gts, preds = corpus
    report = evaluate_records(gts, preds, n_labels=3)
    agg = report.aggregate
    pooled = average_precision(gts, preds)
    assert (agg.ap, agg.tp, agg.fp, agg.fn) == (
        pooled.ap, pooled.tally.tp, pooled.tally.fp, pooled.tally.fn
    )
    assert ("score_ties" in agg.flags) == pooled.had_score_ties
    for name in SUMMED:
        assert getattr(agg, name) == sum(getattr(b, name) for b in report.per_video.values())
    if len(report.per_video) == 1:
        assert [agg] == list(report.per_video.values())


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(corpora())
def test_every_report_reads_back(corpus):
    gts, preds = corpus
    report = evaluate_records(gts, preds, n_labels=3)
    assert report_from_dict(json.loads(json.dumps(report_to_dict(report)))) == report


@settings(max_examples=75, deadline=None, derandomize=True, database=None)
@given(corpora())
def test_switches_and_idtp_match_scalar_references(corpus):
    gts, preds = corpus
    gt_by_video = {r.video_id: r for r in gts}
    pred_by_video = {r.video_id: r for r in preds}
    for persistence in (True, False):
        report = evaluate_records(gts, preds, id_persistence=persistence)
        for video_id, block in report.per_video.items():
            gt = gt_by_video.get(video_id, VideoRecord(video_id))
            pred = pred_by_video.get(video_id, VideoRecord(video_id))
            assert block.id_switches == scalar_id_switches(gt, pred, persistence=persistence)
            assert block.idtp == brute_force_idtp(gt, pred)


@st.composite
def generated_corpora(draw):
    """2-5 `synthetic.generate` videos of 1-3 actors over 2-5 keyframes.

    Predictions are jittered, thinned copies of the ground truth plus false
    positives, scored 0.5 or 0.9 so that they tie. Videos of one actor count
    share keyframe shapes, which the evaluation batches across videos. A
    video may keep one side only, or have its predictions on keyframes its
    ground truth does not have.
    """
    gts, preds = [], []
    for index in range(draw(st.integers(2, 5))):
        video_id = f"v{index}"
        spec = scenario_preset(
            "static", seed=draw(st.integers(0, 999)), video_id=video_id,
            n_actors=draw(st.integers(1, 3)), n_keyframes=draw(st.integers(2, 5)), appearance_dim=4,
        )
        gt, _ = generate(spec)
        seed = draw(st.integers(0, 999))
        pred = perturb(gt, Perturbation("jitter_boxes", sigma=0.02, seed=seed))
        pred = perturb(pred, Perturbation("drop_detections", rate=0.1, seed=seed))
        pred = perturb(pred, Perturbation("inject_fp", rate=0.2, seed=seed))
        shift = draw(st.sampled_from((0, 0, 0, 100)))  # 100: no keyframe in common
        pred = record(video_id, [
            replace(o, keyframe=o.keyframe + shift, score=draw(st.sampled_from((0.5, 0.9))))
            for o in pred.observations
        ])
        side = draw(st.sampled_from(("both", "both", "gt", "pred")))
        if side != "pred":
            gts.append(gt)
        if side != "gt":
            preds.append(pred)
    return gts, preds


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.one_of(corpora(), generated_corpora()), st.sampled_from((0.3, 0.5, 0.7)), st.booleans())
@example(([], []), 0.5, True)
@example(TIED_ACROSS_VIDEOS, 0.5, False)
def test_each_video_block_is_that_video_evaluated_alone(corpus, gate, persistence):
    # Keyframes are batched across the corpus; no video's results may depend on the others.
    gts, preds = corpus
    report = evaluate_records(gts, preds, iou_threshold=gate, id_persistence=persistence)
    gt_by_video = {r.video_id: r for r in gts}
    pred_by_video = {r.video_id: r for r in preds}
    assert set(report.per_video) == gt_by_video.keys() | pred_by_video.keys()
    for video_id, block in report.per_video.items():
        alone = evaluate_records(
            [gt_by_video[video_id]] if video_id in gt_by_video else [],
            [pred_by_video[video_id]] if video_id in pred_by_video else [],
            iou_threshold=gate, id_persistence=persistence,
        )
        assert alone.aggregate == block
        # The per-video functions give the block's ratios: each is one formula.
        g, p = (side.get(video_id, VideoRecord(video_id)) for side in (gt_by_video, pred_by_video))
        tracks = mt_ml(g, p, gate)
        assert (idf1(g, p, gate)[0], tracks.mt_pct, tracks.ml_pct) == (block.idf1, block.mt_pct, block.ml_pct)
    pooled = average_precision(gts, preds, gate)
    assert report.pooled_ap.curve == pooled.curve
    assert report.pooled_ap == pooled


@st.composite
def annotation_files(draw):
    """``(n_labels, {role: CSV text})``: a corpus's GT and prediction files, rows shuffled.

    GT observations hold 1-3 labels, predictions 0-2 (written as action 0
    for none); with 80 or 200 labels, labels run past 64 and past 128. Keyframes and actor ids are small or, in some files,
    past int64 or on both sides of its end, which the csv reader reads into
    Python-int columns. Videos may be on one side only, and a side may hold
    no row at all.
    """
    n_labels = draw(st.sampled_from((8, 80, 200)))
    offset = draw(st.sampled_from((0, 0, 2**63 - 3, 2**70)))
    texts = {}
    for role, columns in (("gt", GT_COLUMNS), ("pred", PRED_COLUMNS)):
        rows = []
        for video_id in draw(st.lists(st.sampled_from("abc"), unique=True, max_size=3)):
            for keyframe in draw(st.sets(st.integers(0, 5), max_size=4)):
                for actor in draw(st.sets(st.integers(0, 4), max_size=3)):
                    location = [video_id, offset + keyframe, *draw(boxes())]
                    score = [draw(st.sampled_from((0.25, 0.5, 0.9)))] if role == "pred" else []
                    labels = draw(st.sets(st.integers(1, n_labels), min_size=role == "gt", max_size=3))
                    for label in draw(st.permutations(sorted(labels) or [0])):
                        rows.append(",".join(map(str, location + [label, offset + actor] + score)))
        texts[role] = "\n".join([",".join(columns), *draw(st.permutations(rows))]) + "\n"
    return n_labels, texts


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(annotation_files())
def test_a_parsed_records_table_is_the_one_its_observations_build(case):
    # The parser seeds each record's column table; a record built from the same
    # observations builds its own. The two must agree, and so must their reports.
    n_labels, texts = case
    parsed = {}
    with tempfile.TemporaryDirectory() as directory:
        for role, text in texts.items():
            path = Path(directory) / f"{role}.csv"
            path.write_text(text)
            parsed[role] = parse_annotations(str(path), role=role, n_labels=n_labels)
    rebuilt = {role: [VideoRecord(r.video_id, r.observations) for r in records] for role, records in parsed.items()}
    for role, records in parsed.items():
        for seeded, built in zip(records, rebuilt[role]):
            assert "_table" in vars(seeded) and "_table" not in vars(built)
            assert_same_table(seeded._table, built._table)
            assert seeded.actor_ids == built.actor_ids
    reports = [
        report_to_dict(evaluate_records(side["gt"], side["pred"], n_labels=n_labels, id_persistence=persistence))
        for persistence in (True, False) for side in (parsed, rebuilt)
    ]
    assert reports[0] == reports[1] and reports[2] == reports[3]


def assert_lazy_record_equals(lazy, eager):
    """A record holding only its table (``lazy``) equals ``eager``, built from observations, in every reading."""
    assert "observations" not in vars(lazy) and "observations" in vars(eager)
    assert (len(lazy), lazy.actor_ids) == (len(eager), eager.actor_ids)
    assert "observations" not in vars(lazy)  # len and actor_ids read the table
    assert repr(lazy.frames) == repr(eager.frames)
    assert lazy == eager and hash(lazy) == hash(eager) and repr(lazy) == repr(eager)
    # Both records cut their frames from their tables alike, so each is also
    # checked against the grouping of its observations.
    for built in (lazy, eager):
        assert list(built.frames) == sorted(built.frames)
        assert repr(built.frames) == repr(frames_reference(built))


def eager_records(text: str, role: str) -> list[VideoRecord]:
    """The records of an annotation text built through the API, each label set from its action ids in file order."""
    rows: dict[tuple, list[list[str]]] = {}
    for line in text.splitlines()[1:]:
        cells = line.split(",")
        rows.setdefault((cells[0], int(cells[1]), int(cells[7])), []).append(cells)
    videos: dict[str, list[ActorObservation]] = {}
    for (video_id, keyframe, actor), cells in rows.items():
        action_ids = tuple(int(row[6]) for row in cells)
        score = float(cells[0][8]) if role == "pred" else 1.0
        box = BoundingBox(*map(float, cells[0][2:6]))
        labels = frozenset(set(action_ids) - {0})  # the parser's set, from its rows in file order
        videos.setdefault(video_id, []).append(ActorObservation(video_id, keyframe, box, actor, labels, score))
    # Reversed, so that VideoRecord's own sort puts them in order.
    return [VideoRecord(video_id, tuple(observations[::-1])) for video_id, observations in sorted(videos.items())]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(annotation_files())
def test_a_parsed_record_equals_the_record_built_from_its_observations(case):
    # Multi-label rows come in any order, a prediction may carry action 0, and
    # ids may pass int64. The quoted copy is read by the csv reader.
    n_labels, texts = case
    with tempfile.TemporaryDirectory() as directory:
        for role, text in texts.items():
            expected = eager_records(text, role)
            for copy in (text, re.sub(r"^(\w),", r'"\1",', text, flags=re.MULTILINE)):
                path = Path(directory) / f"{role}.csv"
                path.write_text(copy)
                parsed = parse_annotations(str(path), role=role, n_labels=n_labels)
                assert len(parsed) == len(expected)
                for lazy, eager in zip(parsed, expected):
                    assert_lazy_record_equals(lazy, eager)


@st.composite
def detection_streams(draw):
    """A stream of 0-4 keyframes of 0-3 detections each, rows in any order, keyframes maybe past int64."""
    offset = draw(st.sampled_from((0, 0, 2**63 - 3, 2**70)))
    rows = [
        (offset + keyframe, draw(boxes()), draw(st.sampled_from((0.25, 0.5, 0.9))),
         draw(st.lists(st.sampled_from((0.0, 0.5, 1.0)), min_size=2, max_size=2)))
        for keyframe in draw(st.sets(st.integers(0, 6), max_size=4))
        for _ in range(draw(st.integers(0, 3)))
    ]
    return DetectionStream.from_rows("s", 2, draw(st.permutations(rows)))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(detection_streams())
@example(DetectionStream.from_rows("s", 2, []))  # an empty record
def test_a_tracked_record_equals_the_record_built_from_its_rows(stream):
    # The eager record is each stream row, in the stream's order, with the
    # identity the tracker gave it and no labels, sorted by VideoRecord.
    for tracker in (association.track_online, association.track_offline):
        identities = []
        with pytest.MonkeyPatch.context() as patch:
            tracked = association._tracked
            patch.setattr(association, "_tracked", lambda s, ids: identities.append(ids) or tracked(s, ids))
            lazy = tracker(stream, max_gap=2)
        rows = zip(stream.row_keyframes, stream.boxes.tolist(), identities[0], stream.scores.tolist())
        eager = VideoRecord("s", tuple(
            ActorObservation("s", keyframe, BoundingBox(*box), actor, frozenset(), score)
            for keyframe, box, actor, score in rows
        ))
        assert_lazy_record_equals(lazy, eager)


valid_files = functools.cache(valid_inputs)


@st.composite
def fuzzed_files(draw):
    """``(kind, bytes)``: a mutated valid gt, pred or stream file, or raw bytes."""
    kind = draw(st.sampled_from(KINDS + ("raw",)))
    rng = draw(st.randoms(use_true_random=False))
    return kind, raw_input(rng, valid_files()) if kind == "raw" else mutate(valid_files()[kind], rng)


def assert_records_or_located_errors(parse, path):
    """Returns what ``parse`` returns, or None if it raised a FormatError naming where."""
    try:
        return parse()
    except FormatError as exc:
        located = re.compile(re.escape(path) + r"(:\d+:|: video )")
        assert exc.errors and all(located.match(error) for error in exc.errors), exc.errors
        return None


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(fuzzed_files())
def test_malformed_files_give_records_or_located_errors(case):
    kind, data = case
    with tempfile.TemporaryDirectory() as directory:
        paths = {name: str(Path(directory) / f"{name}.csv") for name in KINDS}
        for name, valid in valid_files().items():
            Path(paths[name]).write_bytes(valid)
        path = str(Path(directory) / "fuzzed.csv")
        Path(path).write_bytes(data)

        for role in ("gt", "pred"):
            for n_labels in N_LABELS:
                parse = functools.partial(parse_annotations, path, role=role, n_labels=n_labels)
                for parsed in assert_records_or_located_errors(parse, path) or []:
                    assert validate_record(parsed, role=role, n_labels=n_labels) == []
        assert_records_or_located_errors(functools.partial(parse_detection_stream, path), path)

        commands = []
        if kind != "stream":
            gt, pred = (paths["gt"], path) if kind == "pred" else (path, paths["pred"])
            commands.append(["evaluate", "--gt", gt, "--pred", pred])
        if kind in ("stream", "raw"):
            out = str(Path(directory) / "tracked.csv")
            commands += [["track", "--detections", path, "--mode", mode, "--out", out]
                         for mode in ("online", "offline")]
        for command in commands:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                assert main(command) in (0, 2), command


# Labels that share a slot of a small set's hash table, so that a label
# set's iteration order, and so its repr, follows the order it was built in.
SYNTH_LABELS = (1, 2, 9, 10, 17)
SYNTH_N_LABELS = 20


def parsed_record(rows) -> VideoRecord:
    """The record `parse_annotations` reads from ``rows``, each label set written as its rows in their order."""
    lines = [",".join(PRED_COLUMNS)]
    for keyframe, actor, box, labels, score in rows:
        for label in labels or (0,):
            lines.append(",".join(map(str, ("v", keyframe, *box, label, actor, score))))
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "pred.csv"
        path.write_text("\n".join(lines) + "\n")
        records = parse_annotations(str(path), role="pred", n_labels=SYNTH_N_LABELS)
    return records[0] if records else VideoRecord("v")


@st.composite
def source_records(draw):
    """A generated GT record, or 0-10 rows built through the API or parsed, ids and keyframes maybe past int64."""
    source = draw(st.sampled_from(("generated", "api", "parsed")))
    if source == "generated":
        n_keyframes = draw(st.integers(2, 8))
        return generate(ScenarioSpec(
            seed=draw(st.integers(0, 2**32)), n_actors=draw(st.integers(1, 4)), n_keyframes=n_keyframes,
            n_cuts=draw(st.integers(0, n_keyframes - 1)), n_labels=SYNTH_N_LABELS,
        ))[0]
    offset = draw(st.sampled_from((0, 0, 2**63 - 3, 2**70)))
    keys = draw(st.lists(st.tuples(st.integers(0, 4), st.integers(1, 4)), max_size=10, unique=True))
    rows = [
        (offset + keyframe, offset + actor, draw(boxes()),
         draw(st.lists(st.sampled_from(SYNTH_LABELS), unique=True, max_size=3)), draw(st.sampled_from((0.25, 0.5, 1.0))))
        for keyframe, actor in keys
    ]
    if source == "parsed":
        return parsed_record(rows)
    return record("v", [obs("v", keyframe, actor, box, labels, score) for keyframe, actor, box, labels, score in rows])


@st.composite
def perturbation_cases(draw):
    """A source record and a perturbation of any kind, its ids and keyframes drawn from the record's and past them."""
    gt = draw(source_records())
    ids = sorted({*gt.actor_ids, 0, max(gt.actor_ids, default=0) + 1})
    keyframes = sorted({0, *(o.keyframe for o in gt.observations)})
    keyframes.append(keyframes[-1] + 1)
    return gt, Perturbation(
        draw(st.sampled_from(Perturbation._KINDS)),
        rate=draw(st.sampled_from((0.0, 0.3, 1.0))),
        sigma=draw(st.sampled_from((0.0, 0.02, 0.5, 3.0))),
        actor_id=draw(st.sampled_from(ids)),
        other_actor_id=draw(st.sampled_from(ids)),
        keyframe=draw(st.sampled_from(keyframes)),
        bits=draw(st.integers(0, len(gt) * SYNTH_N_LABELS + 1)),
        seed=draw(st.integers(0, 2**32)),
        n_labels=SYNTH_N_LABELS,
    )


def outcome(function, *args):
    """The ``repr`` of what ``function`` returns, or the type and message of the exception it raises."""
    try:
        return repr(function(*args))
    except ValueError as exc:
        return type(exc), str(exc)


TWO_TRACKS = record("v", track_obs("v", 1, range(4), LEFT, actions=(9, 1)) + track_obs("v", 2, range(4), RIGHT))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(perturbation_cases())
@example((TWO_TRACKS, Perturbation("split_track", actor_id=1, keyframe=0)))
@example((TWO_TRACKS, Perturbation("split_track", actor_id=2, keyframe=4)))  # past the last keyframe
@example((TWO_TRACKS, Perturbation("swap_ids", actor_id=2, other_actor_id=2, keyframe=1)))
@example((TWO_TRACKS, Perturbation("swap_ids", actor_id=1, other_actor_id=3, keyframe=1)))
@example((TWO_TRACKS, Perturbation("inject_fp", rate=1.0, seed=5, n_labels=SYNTH_N_LABELS)))
@example((VideoRecord("v"), Perturbation("split_track", actor_id=1, keyframe=0)))
@example((VideoRecord("v"), Perturbation("inject_fp", rate=1.0)))
@example((VideoRecord("v"), Perturbation("flip_labels", bits=1)))
def test_perturb_equals_the_reference_loops(case):
    gt, p = case
    assert outcome(perturb, gt, p) == outcome(perturb_reference, gt, p)


def generated(function, spec) -> tuple:
    """The ``repr`` of ``function``'s record and its stream's fields and array bytes, or the exception raised."""
    try:
        gt, stream = function(spec)
    except ValueError as exc:
        return type(exc), str(exc)
    arrays = (stream.boxes, stream.scores, stream.embeddings)
    return repr(gt), stream.video_id, stream.dim, stream.row_keyframes, [(a.shape, a.tobytes()) for a in arrays]


@st.composite
def scenario_specs(draw):
    n_keyframes = draw(st.integers(2, 8))
    rates = st.sampled_from((0.0, 0.0, 0.3, 1.0, 1.0))
    return ScenarioSpec(
        video_id="g", seed=draw(st.integers(0, 2**32)), n_actors=draw(st.integers(1, 5)), n_keyframes=n_keyframes,
        n_cuts=draw(st.sampled_from((0, draw(st.integers(0, n_keyframes - 1))))),
        appearance_dim=draw(st.sampled_from((2, 8, 16))), box_jitter=draw(st.sampled_from((0.0, 0.01, 0.6))),
        miss_rate=draw(rates), fp_rate=draw(rates), label_switch_rate=draw(rates),
        n_labels=draw(st.sampled_from((1, 3, SYNTH_N_LABELS, 80))),
    )


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(scenario_specs())
@example(ScenarioSpec(n_actors=3, n_keyframes=10, n_cuts=0))
@example(ScenarioSpec(n_actors=3, n_keyframes=10, n_cuts=4, miss_rate=1.0, fp_rate=1.0, label_switch_rate=1.0))
def test_generate_equals_the_reference_loop(spec):
    assert generated(generate, spec) == generated(generate_reference, spec)
    try:
        gt, _ = generate(spec)
    except ValueError:
        return
    # The generator builds its table directly; it is the one its observations build.
    assert "observations" not in vars(gt)
    assert_same_table(gt._table, VideoRecord(gt.video_id, generate_reference(spec)[0].observations)._table)
