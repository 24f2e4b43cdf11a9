"""Seeded inputs and the CLI passes of the three benchmark workloads.

Inputs come only from the scenario generator (`synthetic.generate` and
`synthetic.perturb`) and from this file's own code, never from a tracker or
a metric, so a change to a tracker or a metric cannot change what the
evaluation workloads read. Prediction identities are assigned here by an
IoU argmax against the ground truth of the same keyframe.

Run as a script, this file writes one workload's inputs and prints, as JSON,
the seconds from the start of `import asadeval` until the files are on disk:

    python3 asadbench/workloads.py --workload eval-crowded --seed 0 --out DIR
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

# Set-up time counts from here: numpy is imported on asadeval's behalf.
_IMPORT_START = time.perf_counter()

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# A detection inherits the identity of the ground-truth box it overlaps most
# when that overlap reaches this IoU; otherwise it is a false positive.
LABEL_IOU = 0.5
N_LABELS = 80


class ProgramMissing(RuntimeError):
    """The checkout holds no asadeval source to benchmark."""


def import_program():
    """Import asadeval from this checkout's `src`, never from elsewhere."""
    if not (SRC / "asadeval" / "__init__.py").is_file():
        raise ProgramMissing(f"no asadeval source under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import asadeval

    if Path(asadeval.__file__).resolve().parent != (SRC / "asadeval").resolve():
        raise ProgramMissing(f"asadeval imported from {asadeval.__file__}, not {SRC}")
    return asadeval


@dataclass(frozen=True)
class Shape:
    videos: int  # detection streams, for the track workload
    actors: int
    keyframes: int
    dim: int

    @property
    def cuts(self) -> int:
        # The camera-cut preset's density: 20 cuts in 300 keyframes.
        return max(1, round(self.keyframes * 20 / 300))


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "eval" or "track"
    shapes: dict  # scale name -> Shape


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("eval-crowded", "eval", {"full": Shape(1, 40, 60, 64), "toy": Shape(1, 6, 12, 16)}),
        Workload("eval-corpus", "eval", {"full": Shape(64, 3, 30, 16), "toy": Shape(3, 3, 12, 16)}),
        Workload("track-cut", "track", {"full": Shape(4, 20, 40, 64), "toy": Shape(2, 5, 16, 16)}),
    )
}


def _boxes(items) -> np.ndarray:
    return np.array([[o.box.x1, o.box.y1, o.box.x2, o.box.y2] for o in items], dtype=float).reshape(-1, 4)


def _pairwise_iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    ix = np.minimum(a[:, None, 2], b[None, :, 2]) - np.maximum(a[:, None, 0], b[None, :, 0])
    iy = np.minimum(a[:, None, 3], b[None, :, 3]) - np.maximum(a[:, None, 1], b[None, :, 1])
    inter = np.clip(ix, 0.0, None) * np.clip(iy, 0.0, None)
    area_a = (a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1])
    area_b = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
    return inter / (area_a[:, None] + area_b[None, :] - inter)


def _predictions(ad, gt, stream, rng: np.random.Generator):
    """Prediction record: detection boxes and scores, identities by IoU argmax.

    Each ground-truth actor is claimed by at most one detection per keyframe,
    highest overlap first; claimed detections copy the actor's labels, and
    every other detection is a false positive with a fresh identity and one
    random label.
    """
    next_fp_id = max(gt.actor_ids) + 1
    observations = []
    for keyframe in stream.keyframes:
        detections = stream.frames[keyframe]
        g_frame = gt.frames.get(keyframe, ())
        owner: dict[int, int] = {}
        if g_frame:
            overlaps = _pairwise_iou(_boxes(g_frame), _boxes(detections))
            best = overlaps.argmax(axis=0)
            candidates = sorted(
                ((-overlaps[g, d], d, int(g)) for d, g in enumerate(best) if overlaps[g, d] >= LABEL_IOU)
            )
            taken: set[int] = set()
            for _, d, g in candidates:
                if g not in taken:
                    taken.add(g)
                    owner[d] = g
        for d, det in enumerate(detections):
            if d in owner:
                actor = g_frame[owner[d]]
                actor_id, actions = actor.actor_id, actor.actions
            else:
                actor_id, actions = next_fp_id, frozenset({int(rng.integers(1, N_LABELS + 1))})
                next_fp_id += 1
            observations.append(
                ad.ActorObservation(
                    video_id=gt.video_id,
                    keyframe=keyframe,
                    box=det.box,
                    actor_id=actor_id,
                    actions=actions,
                    score=det.score,
                )
            )
    return ad.VideoRecord(video_id=gt.video_id, observations=tuple(observations))


def _corrupt(ad, pred, n_actors: int, n_keyframes: int, rng: np.random.Generator):
    """Seeded identity swaps and splits, then label flips, via `perturb`.

    One swap and one split per actor: the cost of the assignment tie search
    depends on which actors an event hits, so many events keep that cost
    steady from seed to seed.
    """
    for kind in ("swap_ids", "split_track"):
        for _ in range(n_actors):
            present = [a for a in pred.actor_ids if a <= n_actors]
            a, b = (int(x) for x in rng.choice(present, size=2, replace=False))
            keyframe = int(rng.integers(1, n_keyframes))
            if kind == "swap_ids":
                p = ad.Perturbation(kind=kind, actor_id=a, other_actor_id=b, keyframe=keyframe)
            else:
                p = ad.Perturbation(kind=kind, actor_id=a, keyframe=keyframe)
            pred = ad.perturb(pred, p)
    flips = ad.Perturbation(
        kind="flip_labels",
        bits=len(pred.observations) // 10,
        seed=int(rng.integers(2**31)),
        n_labels=N_LABELS,
    )
    return ad.perturb(pred, flips)


def count_rows(path: Path) -> int:
    """Data rows of a CSV file: its lines less the header."""
    with open(path, "rb") as handle:
        return sum(1 for _ in handle) - 1


def _write_eval_inputs(ad, shape: Shape, seed: int, out: Path) -> dict:
    gt_records, pred_records = [], []
    for index in range(shape.videos):
        rng = np.random.default_rng([seed, index])
        spec = ad.scenario_preset(
            "camera-cut",
            seed=int(rng.integers(2**31)),
            video_id=f"v{index:03d}",
            n_actors=shape.actors,
            n_keyframes=shape.keyframes,
            n_cuts=shape.cuts,
            appearance_dim=shape.dim,
        )
        gt, stream = ad.generate(spec)
        pred = _predictions(ad, gt, stream, rng)
        gt_records.append(gt)
        pred_records.append(_corrupt(ad, pred, shape.actors, shape.keyframes, rng))
    ad.write_annotations(gt_records, str(out / "gt.csv"), role="gt")
    ad.write_annotations(pred_records, str(out / "pred.csv"), role="pred")
    return {
        "gt_observations": sum(len(r.observations) for r in gt_records),
        "pred_observations": sum(len(r.observations) for r in pred_records),
        "gt_tracklets": sum(len(r.actor_ids) for r in gt_records),
    }


def _write_track_inputs(shape: Shape, seed: int, out: Path) -> dict:
    """One `asadeval synth` directory per stream.

    Tracker cost follows how many identities the online tracker opens, which
    varies by about a tenth between seeds for one stream; several
    independent streams per run average that out.
    """
    from asadeval.cli import main

    detections = 0
    for index in range(shape.videos):
        rng = np.random.default_rng([seed, index])
        stream_dir = out / f"v{index:03d}"
        argv = [
            "synth", "--scenario", "camera-cut", "--seed", str(int(rng.integers(2**31))),
            "--video-id", stream_dir.name, "--out", str(stream_dir),
            "--actors", str(shape.actors), "--keyframes", str(shape.keyframes),
            "--cuts", str(shape.cuts), "--dim", str(shape.dim),
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        if code != 0:
            raise RuntimeError(f"asadeval synth exited with {code}")
        detections += count_rows(stream_dir / "detections.csv")
    return {"detections": detections}


def stream_dirs(work: Path) -> list[Path]:
    """The track workload's per-stream directories, in order."""
    return sorted(path.parent for path in work.glob("*/detections.csv"))


def write_inputs(workload: Workload, scale: str, seed: int, out: Path) -> dict:
    """Write a workload's inputs into `out` and describe them in inputs.json."""
    ad = import_program()
    shape = workload.shapes[scale]
    out.mkdir(parents=True, exist_ok=True)
    if workload.kind == "eval":
        info = _write_eval_inputs(ad, shape, seed, out)
        info["rows_per_pass"] = count_rows(out / "gt.csv") + count_rows(out / "pred.csv")
    else:
        info = _write_track_inputs(shape, seed, out)
        info["rows_per_pass"] = 2 * info["detections"]
    info.update(workload=workload.name, scale=scale, seed=seed, shape=vars(shape))
    (out / "inputs.json").write_text(json.dumps(info, indent=2, sort_keys=True) + "\n")
    return info


def pass_commands(workload: Workload, work: Path) -> list[list[str]]:
    """The asadeval CLI invocations that make up one pass."""
    if workload.kind == "track":
        return [
            ["track", "--detections", str(d / "detections.csv"), "--mode", mode,
             "--out", str(d / f"{mode}.csv")]
            for d in stream_dirs(work) for mode in ("online", "offline")
        ]
    argv = ["evaluate", "--gt", str(work / "gt.csv"), "--pred", str(work / "pred.csv"),
            "--labels", str(N_LABELS), "--report", str(work / "report.json")]
    if workload.name == "eval-corpus":
        argv += ["--per-video", "--pr-curve", str(work / "pr.csv")]
    return [argv]


def pass_outputs(workload: Workload, work: Path) -> list[Path]:
    if workload.kind == "track":
        return [d / f"{mode}.csv" for d in stream_dirs(work) for mode in ("online", "offline")]
    return [work / "report.json"]


def output_digest(workload: Workload, work: Path) -> str:
    """Digest of a pass's outputs: report aggregate blocks or tracker CSV bytes."""
    digest = hashlib.sha256()
    for path in pass_outputs(workload, work):
        if workload.kind == "track":
            digest.update(path.read_bytes())
        else:
            aggregate = json.loads(path.read_text())["aggregate"]
            digest.update(json.dumps(aggregate, sort_keys=True).encode())
    return digest.hexdigest()


def _setup_main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Write one workload's inputs.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--scale", default="full", choices=["full", "toy"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    write_inputs(WORKLOADS[args.workload], args.scale, args.seed, Path(args.out))
    print(json.dumps({"setup_s": time.perf_counter() - _IMPORT_START}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(_setup_main())
    except ProgramMissing as exc:
        print(f"asadbench: {exc}", file=sys.stderr)
        sys.exit(2)
