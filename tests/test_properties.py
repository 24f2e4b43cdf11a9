"""Generated scenes checked against the brute-force and standalone paths."""

import contextlib
import functools
import io
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from asadeval.actions import match_pairs
from asadeval.cli import main
from asadeval.detection import average_precision
from asadeval.evaluation import evaluate_records
from asadeval.identity import mt_ml
from asadeval.io_formats import FormatError, parse_annotations, parse_detection_stream
from asadeval.model import VideoRecord, validate_record
from csv_mutations import KINDS, N_LABELS, mutate, raw_input, valid_inputs
from support import LEFT, RIGHT, obs, record
from test_detection import sweep_ap
from test_identity import brute_force_idtp, scalar_id_switches


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
