"""Check that this checkout's evaluation agrees with another checkout's on generated corpora.

    git archive HEAD~1 | tar -x -C /tmp/parent
    python tools/check_eval_parity.py /tmp/parent/src [--corpora 300] [--seed 0]

Both copies of `asadeval` are imported into this one process, the other one
under another package name. Corpus ``i`` holds 1 to 8 videos, each a
`synthetic.generate` scene of 1 to 6 actors over 2 to 16 keyframes, with 0
to 15 camera cuts, and with the scene's detection stream. Some video ids
hold a comma, a quote, a line break or a non-ASCII character, which a CSV
cell must quote or keep as it is. Its prediction is the ground truth perturbed with
`synthetic.perturb` (jittered and dropped boxes, injected false positives,
swapped and split identities, flipped labels, every label in [1,
`N_LABELS`]), plus duplicated boxes under
fresh identities, and rescored from a few values so that scores tie within
and across videos. Some videos keep only one side. Many videos thus share
keyframe shapes, which the evaluation batches across the corpus. Each corpus
is built twice from the same draws: with this checkout's `generate` and
`perturb`, then with the other checkout's; every record's ``repr`` (the GT
as generated too, before its labels are mapped into [1, `N_LABELS`]) and
every stream's fields and array bytes must match, so a change in the generator's
draws or in a perturbation counts as a difference. The checks below then
read this checkout's corpus. Both copies
evaluate every corpus at gates 0.3, 0.5 and 0.7, with ID persistence on and
off; the `report_to_dict` JSON, the `write_pr_curve` bytes and the
`write_report` CSV bytes must match exactly, or else the exception's type
and message. So must the bytes each copy's `write_annotations` writes for
the corpus's GT and predictions, and its `write_detection_stream` for each
stream. At each gate, both copies
also run the public per-family functions on every video of the corpus:
`idf1`, `mt_ml`, `id_switches` with persistence on and off, `match_pairs`
with `hamming_loss` of its pairs, and `average_precision` of the video
alone; their results must match as plain values, an AP's curve as its
ranked rows (`ap_values`). Each corpus is checked
twice: as generated, so that this checkout builds each record's column table
from its observations, and after this checkout's `write_annotations` and
each checkout's `parse_annotations`, so that the parser seeds the tables.
A corpus this checkout's writer refuses is counted and checked as generated
only.
Prints the first differences and a summary, and exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import tempfile
from collections import Counter
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

import asadeval  # noqa: E402
from asadeval import io_formats  # noqa: E402
from other_checkout import load_other  # noqa: E402

GATES = (0.3, 0.5, 0.7)
SCORES = (0.25, 0.5, 0.75, 0.9, 1.0)
N_LABELS = 8
SHOWN_DIFFERENCES = 20
VIDEO_IDS = ("v{}", "v,{}", 'v"{}', "v\r\n{}", "é\t{}")


def prediction(rng: np.random.Generator, gt, package):
    """``gt`` perturbed by ``package``, with some boxes duplicated and every score drawn from `SCORES`."""
    seed = int(rng.integers(2**31))

    def perturbed(record, kind, **parameters):
        return package.synthetic.perturb(record, package.Perturbation(kind, seed=seed, **parameters))

    pred = perturbed(gt, "jitter_boxes", sigma=float(rng.uniform(0, 0.03)))
    pred = perturbed(pred, "drop_detections", rate=float(rng.uniform(0, 0.3)))
    pred = perturbed(pred, "inject_fp", rate=float(rng.uniform(0, 0.5)), n_labels=N_LABELS)
    if len(pred.actor_ids) >= 2:
        a, b = (int(x) for x in rng.choice(pred.actor_ids, size=2, replace=False))
        pred = perturbed(pred, "swap_ids", actor_id=a, other_actor_id=b, keyframe=int(rng.choice(list(pred.frames))))
    if pred.observations:
        split = pred.observations[int(rng.integers(len(pred.observations)))]
        pred = perturbed(pred, "split_track", actor_id=split.actor_id, keyframe=split.keyframe)
    observations = list(pred.observations)
    fresh = max((o.actor_id for o in observations), default=0) + 1
    for index in np.flatnonzero(rng.random(len(observations)) < 0.1).tolist():
        observations.append(replace(observations[index], actor_id=fresh))
        fresh += 1
    scores = rng.choice(SCORES, size=len(observations)).tolist()
    pred = package.VideoRecord(gt.video_id, tuple(replace(o, score=s) for o, s in zip(observations, scores)))
    return perturbed(pred, "flip_labels", bits=int(rng.integers(0, len(observations) + 1)), n_labels=N_LABELS)


def corpus(rng: np.random.Generator, package=asadeval):
    """The GT and prediction records of 1 to 8 videos ``package`` generates, their streams, and their GT as generated.

    A video may keep one side only.
    """
    gts, preds, streams, generated = [], [], [], []
    for index in range(int(rng.integers(1, 9))):
        n_keyframes = int(rng.integers(2, 17))
        spec = package.synthetic.scenario_preset(
            "camera-cut",
            seed=int(rng.integers(2**31)),
            video_id=VIDEO_IDS[index % len(VIDEO_IDS)].format(index),
            n_actors=int(rng.integers(1, 7)),
            n_keyframes=n_keyframes,
            n_cuts=int(rng.integers(0, n_keyframes)),
        )
        gt, stream = package.synthetic.generate(spec)
        generated.append(gt)
        streams.append(stream)
        gt = package.VideoRecord(gt.video_id, tuple(
            replace(o, actions=frozenset(a % N_LABELS + 1 for a in o.actions)) for o in gt.observations
        ))
        side = rng.choice(("both", "both", "both", "gt", "pred"))
        if side != "pred":
            gts.append(gt)
        if side != "gt":
            preds.append(prediction(rng, gt, package))
    return gts, preds, streams, generated


def built(gts, preds, streams, generated) -> tuple:
    """Each record's ``repr``, and each stream's fields and array bytes."""
    arrays = [(s.video_id, s.dim, s.row_keyframes, *(a.tobytes() for a in (s.boxes, s.scores, s.embeddings))) for s in streams]
    return [repr(record) for record in generated + gts + preds], arrays


def converted(package, records):
    """``records`` rebuilt from ``package``'s own classes."""
    return [
        package.VideoRecord(record.video_id, tuple(
            package.ActorObservation(
                o.video_id, o.keyframe, package.BoundingBox(o.box.x1, o.box.y1, o.box.x2, o.box.y2),
                o.actor_id, o.actions, o.score,
            )
            for o in record.observations
        ))
        for record in records
    ]


def converted_streams(package, streams):
    """``streams`` rebuilt from ``package``'s own class."""
    return [
        package.DetectionStream(s.video_id, s.dim, s.row_keyframes, s.boxes, s.scores, s.embeddings)
        for s in streams
    ]


def written(io, gts, preds, streams, directory: str) -> list[tuple]:
    """("written", file name, bytes) of each of ``io``'s writes in ``directory``, or ("raised", type, message).

    The writes are `write_annotations` of ``gts`` to gt.csv and of
    ``preds`` to pred.csv, then `write_detection_stream` of each stream.
    """
    writes = [
        (f"{role}.csv", partial(io.write_annotations, records, role=role))
        for role, records in (("gt", gts), ("pred", preds))
    ]
    writes += [(f"stream{i}.csv", partial(io.write_detection_stream, stream)) for i, stream in enumerate(streams)]
    results = []
    for name, write in writes:
        path = Path(directory) / name
        try:
            write(str(path))
            results.append(("written", name, path.read_bytes()))
        except ValueError as exc:
            results.append(("raised", type(exc).__name__, str(exc)))
    return results


def family_values(package, gt, pred, gate: float) -> tuple:
    """The public per-family functions on one ``(gt, pred)`` video at ``gate``, as plain values."""
    score, ids = package.idf1(gt, pred, gate)
    pairs = package.match_pairs(gt, pred, gate)
    return (
        score,
        dataclasses.astuple(ids),
        dataclasses.astuple(package.mt_ml(gt, pred, gate)),
        [package.id_switches(gt, pred, gate, persistence) for persistence in (True, False)],
        [(pair.gt.keyframe, pair.gt.actor_id, pair.pred.actor_id) for pair in pairs.pairs],
        dataclasses.astuple(package.hamming_loss(pairs, N_LABELS)),
        ap_values(package.average_precision([gt], [pred], gate)),
    )


def ap_values(result) -> tuple:
    """An `APResult` as plain values, its curve as ranked ``(score, is_tp)`` rows, whichever way a checkout holds them.

    A curve holds either a ``ranked`` tuple of rows or ``scores`` and
    ``flags`` arrays. A ``ranked`` curve kept no rows without ground truth,
    and a written curve has none then either, so such a curve is compared
    as no rows.
    """
    curve = result.curve
    if hasattr(curve, "ranked"):
        rows = list(curve.ranked)
    else:
        rows = list(zip(curve.scores.tolist(), curve.flags.tolist()))
    return (
        result.ap, result.reason, rows if curve.n_gt else [], curve.n_gt,
        dataclasses.astuple(result.tally), result.had_score_ties,
    )


def round_trip(io, directory: str) -> list:
    """``io``'s `parse_annotations` of the files `write_annotations` wrote in ``directory``, at `N_LABELS`."""
    return [io.parse_annotations(str(Path(directory) / f"{role}.csv"), role, N_LABELS) for role in ("gt", "pred")]


def outcomes(package, io, gts, preds, path: str) -> list[tuple]:
    """Each gate's ("report", JSON, PR-curve bytes, CSV bytes) per persistence, then ("video", id, values) per video.

    ``gts`` and ``preds`` are records of ``package``'s own classes. An
    evaluation or a video that raises gives ("raised", type, message) instead.
    """
    sides = [{record.video_id: record for record in records} for records in (gts, preds)]
    videos = [
        tuple(side.get(video_id, package.VideoRecord(video_id)) for side in sides)
        for video_id in sorted(sides[0].keys() | sides[1].keys())
    ]
    table = Path(path).with_name("report.csv")
    results = []
    for gate in GATES:
        for persistence in (True, False):
            try:
                report = package.evaluate_records(
                    gts, preds, iou_threshold=gate, n_labels=N_LABELS, id_persistence=persistence
                )
                io.write_pr_curve(report.pooled_ap, path)
                io.write_report(report, str(table), fmt="csv")
                text = json.dumps(io.report_to_dict(report), sort_keys=True)
                results.append(("report", text, Path(path).read_bytes(), table.read_bytes()))
            except Exception as exc:  # a crash is an outcome to compare, not a stop
                results.append(("raised", type(exc).__name__, str(exc)))
        for gt, pred in videos:
            try:
                results.append(("video", gt.video_id, family_values(package, gt, pred, gate)))
            except Exception as exc:
                results.append(("raised", type(exc).__name__, str(exc)))
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other_src", type=Path, help="the src directory of the other checkout")
    parser.add_argument("--corpora", type=int, default=300, help="number of corpora (default 300)")
    parser.add_argument("--seed", type=int, default=0, help="seed of the corpora (default 0)")
    args = parser.parse_args(argv)
    other, other_io = load_other(args.other_src.resolve(), "io_formats")

    rng = np.random.default_rng(args.seed)
    tally: Counter = Counter()
    differences = 0
    with tempfile.TemporaryDirectory() as directory:
        path = str(Path(directory) / "pr.csv")
        for index in range(args.corpora):
            state = rng.bit_generator.state
            gts, preds, streams, generated = corpus(rng)
            again = np.random.default_rng()
            again.bit_generator.state = state
            generator_differs = built(gts, preds, streams, generated) != built(*corpus(again, other))
            tally["generated alike"] += not generator_differs
            sides = []
            for package, io in ((other, other_io), (asadeval, io_formats)):  # this checkout's files last
                records = converted(package, gts), converted(package, preds)
                files = written(io, *records, converted_streams(package, streams), directory)
                sides.append(outcomes(package, io, *records, path) + files)
            there, here = sides
            tally["videos"] += len({r.video_id for r in gts + preds})
            tally["predictions"] += sum(len(r) for r in preds)
            if any(result[0] == "raised" for result in files[:2]):  # this checkout's gt.csv and pred.csv
                tally["refused"] += 1
            else:
                tally["round trips"] += 1
                here += outcomes(asadeval, io_formats, *round_trip(io_formats, directory), path)
                there += outcomes(other, other_io, *round_trip(other_io, directory), path)
            tally.update(result[0] for result in here)
            if here != there or generator_differs:
                differences += 1
                if differences <= SHOWN_DIFFERENCES:
                    print(f"corpus {index} differs")
                    if generator_differs:
                        print("  the other checkout's generate and perturb build it otherwise")
                    for mine, theirs in zip(here, there):
                        if mine != theirs:
                            print(f"  here:  {mine!r:.300}\n  other: {theirs!r:.300}")
    print(
        f"{args.corpora} corpora ({tally['videos']} videos, {tally['predictions']} predictions), "
        f"{tally['generated alike']} built alike by the other checkout's generator; "
        f"{len(GATES) * 2} evaluations per corpus, side and source: {tally['report']} reports and "
        f"{tally['video']} per-video family checks, {tally['raised']} raised; {tally['written']} CSV files "
        f"written (annotations and streams); {tally['round trips']} corpora "
        f"also read back from written files, {tally['refused']} refused by the writer; {differences} corpora differ"
    )
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
