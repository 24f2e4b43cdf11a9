"""Check that this checkout's solver, evaluation and CSV parsers agree with another checkout's.

    git archive HEAD~1 | tar -x -C /tmp/parent
    python tools/check_parity.py /tmp/parent/src [--problems 100000] [--corpora 300] [--inputs 50000] [--seed 0]

Both copies of `asadeval` are imported into this one process, the other one
under another package name (`load_other`). Three checks then run in turn,
each on inputs drawn from its own generator seeded with ``--seed``:
`check_solver` on ``--problems`` generated cost matrices, `check_evaluation`
on ``--corpora`` generated corpora, and `check_parsers` on ``--inputs``
mutated CSV files; a count of 0 skips its check. Each prints its first
differences and a summary line. The exit status is 1 on any difference in
any check, or on any ``RuntimeWarning`` from this checkout's solver, and 0
otherwise.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import importlib.util
import itertools
import json
import random
import sys
import tempfile
import warnings
from collections import Counter
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO / "src"), str(REPO / "tests")]

import asadeval  # noqa: E402
from asadeval import association, io_formats, matching, model  # noqa: E402
from cost_kinds import KINDS as COST_KINDS, crowded_boxes_cost, tie_heavy_cost  # noqa: E402
from csv_mutations import KINDS as CSV_KINDS, N_LABELS as CSV_N_LABELS, mutate, raw_input, valid_inputs  # noqa: E402

SHOWN_DIFFERENCES = 20


def load_other(src: Path):
    """The `asadeval` in ``src``, imported as the package ``asadeval_other``, with the submodules the checks read."""
    package = src / "asadeval"
    spec = importlib.util.spec_from_file_location(
        "asadeval_other", package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules["asadeval_other"] = module
    spec.loader.exec_module(module)
    for name in ("matching", "io_formats", "association", "model"):
        importlib.import_module(f"asadeval_other.{name}")
    return module


def count_difference(tally: Counter, heading: str, here: list, there: list, width=None) -> None:
    """Count one more differing item in ``tally``; for the first `SHOWN_DIFFERENCES`, print why.

    That is ``heading``, then each pair of outcomes that differ, as their
    ``repr`` cut to ``width`` characters (whole if None).
    """
    tally["differ"] += 1
    if tally["differ"] <= SHOWN_DIFFERENCES:
        print(heading)
        for mine, theirs in zip(here, there):
            if mine != theirs:
                print(f"  here:  {repr(mine)[:width]}\n  other: {repr(theirs)[:width]}")


# The solver: `solve_assignment` on generated cost matrices.

SHAPES = tuple(itertools.product(range(1, 13), repeat=2))
EXTREMES = np.array([1e308, -1e308, 1e300, -1e300])


def problem(rng: np.random.Generator, kind: str, shape: tuple[int, int]) -> np.ndarray:
    if kind == "large":
        return crowded_boxes_cost(rng, *(int(side) for side in rng.integers(9, 61, size=2)))
    if kind != "extreme":
        return tie_heavy_cost(rng, kind, *shape)
    cost = tie_heavy_cost(rng, "grid", *shape)
    where = rng.random(shape) < 0.3
    cost[where] = rng.choice(EXTREMES, size=int(where.sum()))
    return cost


def solver_outcomes(module, cost: np.ndarray) -> tuple[list[tuple], int]:
    """("solved", pairs, total bits) or ("raised", type, message), with drop_gated true then false.

    Also returns the number of ``RuntimeWarning``s the two solves emitted.
    """
    results = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        for drop_gated in (True, False):
            try:
                solution = module.solve_assignment(cost.copy(), drop_gated)
                results.append(("solved", solution.pairs, float(solution.total_cost).hex()))
            except Exception as exc:  # a crash is an outcome to compare, not a stop
                results.append(("raised", type(exc).__name__, str(exc)))
    return results, sum(issubclass(warning.category, RuntimeWarning) for warning in caught)


def check_solver(other, problems: int, seed: int) -> int:
    """Solve generated problems with both checkouts; the number that differ plus this checkout's warnings.

    Problem ``i`` has the shape ``SHAPES[i % 144]``, every shape from 1 x 1
    to 12 x 12 equally often, so both sides of the enumeration's boundary
    (2 or 3 pairs, at most 10 rows and columns) are met: 2 x 9 to 3 x 10
    inside it and 2 x 11 to 3 x 12 just past it. Its kind is drawn from
    `tests/cost_kinds.py`, or is "extreme": a grid matrix with some entries
    set to +-1e308 or +-1e300, where sums can overflow, or is "large": a
    `crowded_boxes_cost` keyframe of 9-60 rows and 9-60 columns, drawn in
    place of the problem's shape, where the tie search meets gated pairs and
    duplicated boxes at the scale of a crowded video. Both copies solve
    every problem with ``drop_gated`` true and false; the pairs and the
    ``total_cost`` bits must match exactly, or else the exception's type and
    message. Each side's ``RuntimeWarning``s (numpy overflow and
    invalid-value warnings) are recorded and counted.
    """
    rng = np.random.default_rng(seed)
    kinds = COST_KINDS + ("extreme", "large")
    tally: Counter = Counter()
    for index in range(problems):
        kind = kinds[rng.integers(len(kinds))]
        cost = problem(rng, kind, SHAPES[index % len(SHAPES)])
        shape = cost.shape
        here, warned_here = solver_outcomes(matching, cost)
        there, warned_there = solver_outcomes(other.matching, cost)
        tally[kind] += 1
        tally["warnings here"] += warned_here
        tally["warnings other"] += warned_there
        tally["enumerated"] += matching._enumerable(shape)
        tally.update(result[0] for result in here)
        if here != there:
            heading = f"problem {index} ({kind}, {shape[0]}x{shape[1]}) differs: {cost.tolist()!r}"
            count_difference(tally, heading, here, there)
    print(
        f"{problems} problems ({', '.join(f'{k} {tally[k]}' for k in kinds)}; "
        f"{tally['enumerated']} of an enumerated shape), {2 * problems} solves per side: "
        f"{tally['solved']} solved, {tally['raised']} raised; {tally['differ']} problems differ; "
        f"RuntimeWarnings: {tally['warnings here']} here, {tally['warnings other']} other"
    )
    return tally["differ"] + tally["warnings here"]


# The evaluation: generated corpora, scored and written.

GATES = (0.3, 0.5, 0.7)
SCORES = (0.25, 0.5, 0.75, 0.9, 1.0)
CORPUS_N_LABELS = 8
VIDEO_IDS = ("v{}", "v,{}", 'v"{}', "v\r\n{}", "é\t{}")


def prediction(rng: np.random.Generator, gt, package):
    """``gt`` perturbed by ``package``, with some boxes duplicated and every score drawn from `SCORES`."""
    seed = int(rng.integers(2**31))

    def perturbed(record, kind, **parameters):
        return package.synthetic.perturb(record, package.Perturbation(kind, seed=seed, **parameters))

    pred = perturbed(gt, "jitter_boxes", sigma=float(rng.uniform(0, 0.03)))
    pred = perturbed(pred, "drop_detections", rate=float(rng.uniform(0, 0.3)))
    pred = perturbed(pred, "inject_fp", rate=float(rng.uniform(0, 0.5)), n_labels=CORPUS_N_LABELS)
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
    return perturbed(pred, "flip_labels", bits=int(rng.integers(0, len(observations) + 1)), n_labels=CORPUS_N_LABELS)


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
            replace(o, actions=frozenset(a % CORPUS_N_LABELS + 1 for a in o.actions)) for o in gt.observations
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
        dataclasses.astuple(package.hamming_loss(pairs, CORPUS_N_LABELS)),
        ap_values(package.average_precision([gt], [pred], gate)),
    )


def ap_values(result) -> tuple:
    """An `APResult` as plain values, its curve as ranked ``(score, is_tp)`` rows.

    A curve without ground truth is compared as no rows, as it is written.
    """
    curve = result.curve
    rows = list(zip(curve.scores.tolist(), curve.flags.tolist()))
    return (
        result.ap, result.reason, rows if curve.n_gt else [], curve.n_gt,
        dataclasses.astuple(result.tally), result.had_score_ties,
    )


def round_trip(io, directory: str) -> list:
    """``io``'s `parse_annotations` of the files `write_annotations` wrote in ``directory``, at `CORPUS_N_LABELS`."""
    return [io.parse_annotations(str(Path(directory) / f"{role}.csv"), role, CORPUS_N_LABELS) for role in ("gt", "pred")]


def evaluation_outcomes(package, io, gts, preds, path: str) -> list[tuple]:
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
                    gts, preds, iou_threshold=gate, n_labels=CORPUS_N_LABELS, id_persistence=persistence
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


def check_evaluation(other, corpora: int, seed: int) -> int:
    """Evaluate generated corpora with both checkouts; the number of corpora that differ.

    Corpus ``i`` holds 1 to 8 videos, each a `synthetic.generate` scene of 1
    to 6 actors over 2 to 16 keyframes, with 0 to 15 camera cuts, and with
    the scene's detection stream. Some video ids hold a comma, a quote, a
    line break or a non-ASCII character, which a CSV cell must quote or keep
    as it is. Its prediction is the ground truth perturbed with
    `synthetic.perturb` (jittered and dropped boxes, injected false
    positives, swapped and split identities, flipped labels, every label in
    [1, `CORPUS_N_LABELS`]), plus duplicated boxes under fresh identities,
    and rescored from a few values so that scores tie within and across
    videos. Some videos keep only one side. Many videos thus share keyframe
    shapes, which the evaluation batches across the corpus.

    Each corpus is built twice from the same draws: with this checkout's
    `generate` and `perturb`, then with the other checkout's; every record's
    ``repr`` (the GT as generated too, before its labels are mapped into
    [1, `CORPUS_N_LABELS`]) and every stream's fields and array bytes must
    match, so a change in the generator's draws or in a perturbation counts
    as a difference. The checks below then read this checkout's corpus.

    Both copies evaluate every corpus at gates 0.3, 0.5 and 0.7, with ID
    persistence on and off; the `report_to_dict` JSON, the `write_pr_curve`
    bytes and the `write_report` CSV bytes must match exactly, or else the
    exception's type and message. So must the bytes each copy's
    `write_annotations` writes for the corpus's GT and predictions, and its
    `write_detection_stream` for each stream. At each gate, both copies also
    run the public per-family functions on every video of the corpus:
    `idf1`, `mt_ml`, `id_switches` with persistence on and off,
    `match_pairs` with `hamming_loss` of its pairs, and `average_precision`
    of the video alone; their results must match as plain values, an AP's
    curve as its ranked rows (`ap_values`). Each corpus is checked twice: as
    generated, so that this checkout builds each record's column table from
    its observations, and after this checkout's `write_annotations` and each
    checkout's `parse_annotations`, so that the parser seeds the tables. A
    corpus this checkout's writer refuses is counted and checked as
    generated only.
    """
    rng = np.random.default_rng(seed)
    tally: Counter = Counter()
    with tempfile.TemporaryDirectory() as directory:
        path = str(Path(directory) / "pr.csv")
        for index in range(corpora):
            state = rng.bit_generator.state
            gts, preds, streams, generated = corpus(rng)
            again = np.random.default_rng()
            again.bit_generator.state = state
            generator_differs = built(gts, preds, streams, generated) != built(*corpus(again, other))
            tally["generated alike"] += not generator_differs
            sides = []
            for package, io in ((other, other.io_formats), (asadeval, io_formats)):  # this checkout's files last
                records = converted(package, gts), converted(package, preds)
                files = written(io, *records, converted_streams(package, streams), directory)
                sides.append(evaluation_outcomes(package, io, *records, path) + files)
            there, here = sides
            tally["videos"] += len({r.video_id for r in gts + preds})
            tally["predictions"] += sum(len(r) for r in preds)
            if any(result[0] == "raised" for result in files[:2]):  # this checkout's gt.csv and pred.csv
                tally["refused"] += 1
            else:
                tally["round trips"] += 1
                here += evaluation_outcomes(asadeval, io_formats, *round_trip(io_formats, directory), path)
                there += evaluation_outcomes(other, other.io_formats, *round_trip(other.io_formats, directory), path)
            tally.update(result[0] for result in here)
            if here != there or generator_differs:
                heading = f"corpus {index} differs"
                if generator_differs:
                    heading += "\n  the other checkout's generate and perturb build it otherwise"
                count_difference(tally, heading, here, there, width=300)
    print(
        f"{corpora} corpora ({tally['videos']} videos, {tally['predictions']} predictions), "
        f"{tally['generated alike']} built alike by the other checkout's generator; "
        f"{len(GATES) * 2} evaluations per corpus, side and source: {tally['report']} reports and "
        f"{tally['video']} per-video family checks, {tally['raised']} raised; {tally['written']} CSV files "
        f"written (annotations and streams); {tally['round trips']} corpora "
        f"also read back from written files, {tally['refused']} refused by the writer; {tally['differ']} corpora differ"
    )
    return tally["differ"]


# The parsers: mutated CSV files, parsed, written back and tracked.

# The `model._Table` columns both checkouts' tables hold; set once the other is loaded.
SHARED_COLUMNS: list[str] = []


def canonical(result) -> str:
    """An exact text form of parsed records or of a parsed stream.

    Records are read through their length, actor ids and `SHARED_COLUMNS`
    before ``repr`` reads their observations, and then their ``frames``.
    """
    if isinstance(result, list):
        tables = [
            (len(record), record.actor_ids, [
                column.tolist() if hasattr(column, "tolist") else column
                for column in map(record._table.__getattribute__, SHARED_COLUMNS)
            ])
            for record in result
        ]
        return repr((tables, result)) + repr([record.frames for record in result])
    arrays = (result.boxes.tolist(), result.scores.tolist(), result.embeddings.tolist())
    return repr((result.video_id, result.dim, result.row_keyframes, *arrays))


def parsed_records(io, path: str, role: str, n_labels: int) -> tuple[str]:
    return (canonical(io.parse_annotations(path, role=role, n_labels=n_labels)),)


def parsed_stream(io, tracking, path: str) -> tuple:
    """A parsed stream's text, then the bytes it and both trackers' records write, and those records' text."""
    stream = io.parse_detection_stream(path)
    output = str(Path(path).with_name("output.csv"))
    io.write_detection_stream(stream, output)
    written = [Path(output).read_bytes()]
    for tracker in (tracking.track_online, tracking.track_offline):
        record = tracker(stream)
        io.write_annotations([record], output, role="pred")
        written += [Path(output).read_bytes(), canonical([record])]
    return (canonical(stream), *written)


def parser_outcomes(io, tracking, path: str) -> list[tuple]:
    """Every parser's outcome on ``path``: ("records", ...), ("errors", list) or ("raised", ...).

    Records come as their text; a stream as its text, its written bytes and both trackers'.
    """
    parses = [
        partial(parsed_records, io, path, role, n_labels)
        for role in ("gt", "pred")
        for n_labels in CSV_N_LABELS
    ]
    parses.append(partial(parsed_stream, io, tracking, path))
    results = []
    for parse in parses:
        try:
            results.append(("records", *parse()))
        except io.FormatError as exc:
            results.append(("errors", exc.errors))
        except Exception as exc:  # a crash is an outcome to compare, not a stop
            results.append(("raised", type(exc).__name__, str(exc)))
    return results


def array_pass_reads(path: str) -> int:
    """How many of this checkout's parses of ``path`` its numpy reader reads, of those `parser_outcomes` makes.

    A parse counts when `_read_arrays` does not decline the file, whether the
    cells it returns then make records or a `FormatError`. Whether it declines
    depends on the header's schema, not on the label universe, so one read
    per role stands for that role's parses under every `CSV_N_LABELS`.
    """
    roles = [partial(io_formats._annotation_dtype, path, role) for role in ("gt", "pred")]
    annotations = sum(io_formats._read_arrays(path, dtype_of) is not None for dtype_of in roles)
    stream = io_formats._read_arrays(path, partial(io_formats._stream_dtype, path)) is not None
    return annotations * len(CSV_N_LABELS) + stream


def check_parsers(other, inputs: int, seed: int) -> int:
    """Parse mutated CSV files with both checkouts; the number of inputs that differ.

    Each input is a mutated valid file or raw bytes (see
    `tests/csv_mutations.py`), written once and parsed by both copies with
    `parse_annotations` as gt and as pred for every label universe in
    `CSV_N_LABELS`, and with `parse_detection_stream`. Outcomes must match
    exactly: records compared first by their length, actor ids and the
    columns of their tables (`model._Table`) that both checkouts' tables
    hold, then by ``repr`` (the two imports define distinct classes), which
    builds the observations of a record that builds them on first read, then
    by the ``repr`` of their ``frames``; a stream's keyframes, boxes, scores
    and embeddings as exact lists; and a `FormatError`'s list of messages. A
    parsed stream is also written back with `write_detection_stream` and
    tracked by `track_online` and `track_offline` at their default
    parameters: the bytes of the stream and of both trackers'
    `write_annotations` output must match too, and so must the tracked
    records, compared as parsed records are. Any other exception is compared
    by type and message, and counted. The summary also counts the parses
    whose file this checkout's numpy reader (`io_formats._read_arrays`) read
    rather than declined, records or a `FormatError` alike, so that
    agreement shows which reader it covered.
    """
    SHARED_COLUMNS[:] = [name for name in model._Table._fields if name in other.model._Table._fields]
    rng = random.Random(seed)
    valid = valid_inputs()
    tally: Counter = Counter()
    with tempfile.TemporaryDirectory() as directory:
        path = str(Path(directory) / "input.csv")
        for index in range(inputs):
            kind = rng.choice(CSV_KINDS + ("raw",))
            data = raw_input(rng, valid) if kind == "raw" else mutate(valid[kind], rng)
            Path(path).write_bytes(data)
            here = parser_outcomes(io_formats, association, path)
            there = parser_outcomes(other.io_formats, other.association, path)
            tally[kind] += 1
            tally.update(result[0] for result in here)
            tally["streams"] += here[-1][0] == "records"
            tally["by arrays"] += array_pass_reads(path)
            if here != there:
                count_difference(tally, f"input {index} ({kind}) differs: {data!r}", here, there)
    parses = sum(tally[k] for k in ("records", "errors", "raised"))
    print(
        f"{inputs} inputs ({', '.join(f'{k} {tally[k]}' for k in CSV_KINDS + ('raw',))}), "
        f"{parses} parses per side: {tally['records']} records, {tally['errors']} error lists, "
        f"{tally['raised']} other exceptions ({tally['by arrays']} read by this checkout's numpy reader); "
        f"{tally['streams']} streams written and tracked; "
        f"{tally['differ']} inputs differ"
    )
    return tally["differ"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other_src", type=Path, help="the src directory of the other checkout")
    parser.add_argument("--problems", type=int, default=100000, help="number of solver problems (default 100000)")
    parser.add_argument("--corpora", type=int, default=300, help="number of evaluated corpora (default 300)")
    parser.add_argument("--inputs", type=int, default=50000, help="number of parsed inputs (default 50000)")
    parser.add_argument("--seed", type=int, default=0, help="seed of every check's inputs (default 0)")
    args = parser.parse_args(argv)
    other = load_other(args.other_src.resolve())
    checks = ((check_solver, args.problems), (check_evaluation, args.corpora), (check_parsers, args.inputs))
    failures = sum(check(other, count, args.seed) for check, count in checks if count)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
