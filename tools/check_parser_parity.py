"""Check that this checkout's CSV parsers agree with another checkout's on mutated inputs.

    git archive HEAD~1 | tar -x -C /tmp/parent
    python tools/check_parser_parity.py /tmp/parent/src [--inputs 50000] [--seed 0]

Both copies of `asadeval` are imported into this one process, the other one
under another package name. Each input is a mutated valid file or raw bytes
(see `tests/csv_mutations.py`), written once and parsed by both copies with
`parse_annotations` as gt and as pred for every label universe in
`N_LABELS`, and with `parse_detection_stream`. Outcomes must match exactly:
records compared first by their length, actor ids and the columns of their
tables (`model._Table`) that both checkouts' tables hold, then by ``repr``
(the two imports define distinct classes), which builds the observations of
a record that builds them on first read, then by the ``repr`` of their
``frames``; a stream's keyframes, boxes, scores
and embeddings as exact lists; and a `FormatError`'s list of messages. A
parsed stream is also written back with `write_detection_stream` and tracked
by `track_online` and `track_offline` at their default parameters: the bytes
of the stream and of both trackers' `write_annotations` output must match
too, and so must the tracked records, compared as parsed records are. Any
other exception is compared by type and message, and counted. The summary
also counts the parses whose file this checkout's numpy reader
(`io_formats._read_arrays`) read rather than declined, records or a
`FormatError` alike, so that agreement shows which reader it covered.
Prints the first differences and a summary, and exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import functools
import random
import sys
import tempfile
from collections import Counter
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO / "src"), str(REPO / "tests")]

from asadeval import association, io_formats, model  # noqa: E402
from csv_mutations import KINDS, N_LABELS, mutate, raw_input, valid_inputs  # noqa: E402
from other_checkout import load_other  # noqa: E402

SHOWN_DIFFERENCES = 20


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


def outcomes(io, tracking, path: str) -> list[tuple]:
    """Every parser's outcome on ``path``: ("records", ...), ("errors", list) or ("raised", ...).

    Records come as their text; a stream as its text, its written bytes and both trackers'.
    """
    parses = [
        functools.partial(parsed_records, io, path, role, n_labels)
        for role in ("gt", "pred")
        for n_labels in N_LABELS
    ]
    parses.append(functools.partial(parsed_stream, io, tracking, path))
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
    """How many of this checkout's parses of ``path`` its numpy reader reads, of those `outcomes` makes.

    A parse counts when `_read_arrays` does not decline the file, whether the
    cells it returns then make records or a `FormatError`. Whether it declines
    depends on the header's schema, not on the label universe, so one read
    per role stands for that role's parses under every `N_LABELS`.
    """
    roles = [functools.partial(io_formats._annotation_dtype, path, role) for role in ("gt", "pred")]
    annotations = sum(io_formats._read_arrays(path, dtype_of) is not None for dtype_of in roles)
    stream = io_formats._read_arrays(path, functools.partial(io_formats._stream_dtype, path)) is not None
    return annotations * len(N_LABELS) + stream


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other_src", type=Path, help="the src directory of the other checkout")
    parser.add_argument("--inputs", type=int, default=50000, help="number of inputs (default 50000)")
    parser.add_argument("--seed", type=int, default=0, help="seed of the mutations (default 0)")
    args = parser.parse_args(argv)
    _, other_io, other_tracking, other_model = load_other(
        args.other_src.resolve(), "io_formats", "association", "model"
    )
    SHARED_COLUMNS[:] = [name for name in model._Table._fields if name in other_model._Table._fields]

    rng = random.Random(args.seed)
    valid = valid_inputs()
    tally: Counter = Counter()
    differences = 0
    with tempfile.TemporaryDirectory() as directory:
        path = str(Path(directory) / "input.csv")
        for index in range(args.inputs):
            kind = rng.choice(KINDS + ("raw",))
            data = raw_input(rng, valid) if kind == "raw" else mutate(valid[kind], rng)
            Path(path).write_bytes(data)
            here = outcomes(io_formats, association, path)
            there = outcomes(other_io, other_tracking, path)
            tally[kind] += 1
            tally.update(result[0] for result in here)
            tally["streams"] += here[-1][0] == "records"
            tally["by arrays"] += array_pass_reads(path)
            if here != there:
                differences += 1
                if differences <= SHOWN_DIFFERENCES:
                    print(f"input {index} ({kind}) differs: {data!r}")
                    for mine, theirs in zip(here, there):
                        if mine != theirs:
                            print(f"  here:  {mine!r}\n  other: {theirs!r}")
    parses = sum(tally[k] for k in ("records", "errors", "raised"))
    print(
        f"{args.inputs} inputs ({', '.join(f'{k} {tally[k]}' for k in KINDS + ('raw',))}), "
        f"{parses} parses per side: {tally['records']} records, {tally['errors']} error lists, "
        f"{tally['raised']} other exceptions ({tally['by arrays']} read by this checkout's numpy reader); "
        f"{tally['streams']} streams written and tracked; "
        f"{differences} inputs differ"
    )
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
