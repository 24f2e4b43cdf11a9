"""Mutated CSV inputs for the parsers: the fuzz property and the parity tool share them.

`valid_inputs` writes one small valid file of each kind (ground truth,
predictions, detection stream) from a generated scene. `mutate` applies one
to four edits to such a file: insert a token at a byte offset, overwrite one
cell with a token, delete a span of bytes, copy a line to another place, or
shuffle the data rows.
`raw_input` is random bytes, after a valid header or on their own.
"""

from __future__ import annotations

import random
import tempfile
from dataclasses import replace
from pathlib import Path

from asadeval.io_formats import write_annotations, write_detection_stream
from asadeval.synthetic import Perturbation, generate, perturb, scenario_preset

KINDS = ("gt", "pred", "stream")
# Label universes the annotation parsers run with: the scene's labels lie in
# [1, 3], so 80 and 3 accept them and 1 rejects some.
N_LABELS = (80, 3, 1)
TOKENS = (
    b",", b"\n", b"\r\n", b'"', b"", b" ", b"nan", b"inf", b"1e400", b"\x00", b"\xff",
    b"-1", b"0", b"1", b"81", b"0.5", b"1.5", b"e0", b"v",
    b"9" * 131073,  # one byte past csv's default field size limit
    # Number syntax that `int` or `float` and numpy's reader may take differently:
    b"1_0", b"+.5", b"5.", b" 0.5 ", b"-0.0", b"1e-400", b"infinity", b"007",
    str(2**63).encode(), "\u0663".encode(),  # past int64; an Arabic-Indic 3
    b"\r", b"\x1c", "\ufeff".encode(),  # a lone CR, a separator byte, a BOM
)


def valid_inputs() -> dict[str, bytes]:
    """One small valid file of each kind in `KINDS`, as bytes."""
    spec = scenario_preset(
        "camera-cut", seed=2, n_actors=3, n_keyframes=4, n_cuts=1, n_labels=3, appearance_dim=4
    )
    gt, stream = generate(spec)
    pred = perturb(gt, Perturbation("jitter_boxes", sigma=0.02, seed=1))
    pred = perturb(pred, Perturbation("inject_fp", rate=0.5, seed=2, n_labels=3))
    observations = list(pred.observations)
    observations[0] = replace(observations[0], actions=frozenset(), score=0.75)
    pred = replace(pred, observations=tuple(observations))
    with tempfile.TemporaryDirectory() as directory:
        paths = {kind: str(Path(directory) / f"{kind}.csv") for kind in KINDS}
        write_annotations([gt], paths["gt"], role="gt")
        write_annotations([pred], paths["pred"], role="pred")
        write_detection_stream(stream, paths["stream"])
        return {kind: Path(path).read_bytes() for kind, path in paths.items()}


def mutate(data: bytes, rng: random.Random) -> bytes:
    for _ in range(rng.randint(1, 4)):
        edit = rng.randrange(5)
        if edit == 0:
            at = rng.randint(0, len(data))
            data = data[:at] + rng.choice(TOKENS) + data[at:]
        elif edit == 1:
            lines = data.split(b"\n")
            line = rng.randrange(len(lines))
            cells = lines[line].split(b",")
            cells[rng.randrange(len(cells))] = rng.choice(TOKENS)
            lines[line] = b",".join(cells)
            data = b"\n".join(lines)
        elif edit == 2:
            at = rng.randint(0, len(data))
            data = data[:at] + data[at + rng.randint(1, 12):]
        elif edit == 3:
            lines = data.split(b"\n")
            lines.insert(rng.randint(1, len(lines)), rng.choice(lines))
            data = b"\n".join(lines)
        else:
            header, *rows = data.split(b"\n")
            rng.shuffle(rows)
            data = b"\n".join([header, *rows])
    return data


def raw_input(rng: random.Random, valid: dict[str, bytes]) -> bytes:
    data = rng.randbytes(rng.randint(0, 64))
    if rng.random() < 0.5:
        header = valid[rng.choice(KINDS)].split(b"\n")[0]
        data = header + b"\n" + data
    return data
