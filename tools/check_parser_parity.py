"""Check that this checkout's CSV parsers agree with another checkout's on mutated inputs.

    git archive HEAD~1 | tar -x -C /tmp/parent
    python tools/check_parser_parity.py /tmp/parent/src [--inputs 50000] [--seed 0]

Both copies of `asadeval` are imported into this one process, the other one
under another package name. Each input is a mutated valid file or raw bytes
(see `tests/csv_mutations.py`), written once and parsed by both copies with
`parse_annotations` as gt and as pred for every label universe in
`N_LABELS`, and with `parse_detection_stream`. Outcomes must match exactly:
records compared by ``repr`` (the two imports define distinct classes), a
stream's embeddings as exact float lists, and a `FormatError`'s list of
messages. Any other exception is compared by type and message, and counted.
Prints the first differences and a summary, and exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import importlib.util
import random
import sys
import tempfile
from collections import Counter
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO / "src"), str(REPO / "tests")]

from asadeval import io_formats  # noqa: E402
from csv_mutations import KINDS, N_LABELS, mutate, raw_input, valid_inputs  # noqa: E402

SHOWN_DIFFERENCES = 20


def load_other(src: Path):
    """`io_formats` of the `asadeval` in ``src``, imported as the package ``asadeval_other``."""
    package = src / "asadeval"
    spec = importlib.util.spec_from_file_location(
        "asadeval_other", package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules["asadeval_other"] = module
    spec.loader.exec_module(module)
    return importlib.import_module("asadeval_other.io_formats")


def canonical(result) -> str:
    """An exact text form of parsed records or of a parsed stream."""
    if isinstance(result, list):
        return repr(result)
    frames = {
        kf: [(repr(d.box), repr(d.score), d.appearance.tolist()) for d in dets]
        for kf, dets in result.frames.items()
    }
    return repr((result.video_id, result.dim, frames))


def outcomes(io, path: str) -> list[tuple]:
    """Every parser's outcome on ``path``: ("records", text), ("errors", list) or ("raised", ...)."""
    parses = [
        functools.partial(io.parse_annotations, path, role=role, n_labels=n_labels)
        for role in ("gt", "pred")
        for n_labels in N_LABELS
    ]
    parses.append(functools.partial(io.parse_detection_stream, path))
    results = []
    for parse in parses:
        try:
            results.append(("records", canonical(parse())))
        except io.FormatError as exc:
            results.append(("errors", exc.errors))
        except Exception as exc:  # a crash is an outcome to compare, not a stop
            results.append(("raised", type(exc).__name__, str(exc)))
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other_src", type=Path, help="the src directory of the other checkout")
    parser.add_argument("--inputs", type=int, default=50000, help="number of inputs (default 50000)")
    parser.add_argument("--seed", type=int, default=0, help="seed of the mutations (default 0)")
    args = parser.parse_args(argv)
    other = load_other(args.other_src.resolve())

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
            here, there = outcomes(io_formats, path), outcomes(other, path)
            tally[kind] += 1
            tally.update(result[0] for result in here)
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
        f"{tally['raised']} other exceptions; {differences} inputs differ"
    )
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
