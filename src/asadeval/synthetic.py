"""Seeded desk-scale scenario generation and controlled corruption.

Actors move with constant velocity inside the unit square, reflecting at the
borders. Shot cuts re-randomize every actor's position and velocity at the
cut keyframe while appearance embeddings persist, which is exactly the
regime where motion continuity stops being a usable association cue. The
detector model jitters boxes, drops detections, and injects false positives.

All randomness flows from a single explicit seed through numpy's default
PCG64 generator; the algorithm identifier is recorded in scenario manifests
so fixtures stay reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .association import Detection, DetectionStream
from .model import DEFAULT_N_LABELS, ActorObservation, BoundingBox, VideoRecord

GENERATOR_ALGORITHM = "numpy-default-rng-pcg64"

# Pairwise |cosine| bound enforced between base appearance vectors.
APPEARANCE_MAX_COSINE = 0.3
_MIN_BOX_EXTENT = 0.02
_MAX_LABELS_PER_ACTOR = 3


@dataclass(frozen=True)
class ScenarioSpec:
    """Full description of one synthetic scenario; reproducible given seed."""

    video_id: str = "synthetic"
    n_actors: int = 5
    n_keyframes: int = 120
    n_cuts: int = 20
    seed: int = 0
    appearance_dim: int = 16
    appearance_noise: float = 0.1
    box_jitter: float = 0.01
    miss_rate: float = 0.05
    fp_rate: float = 0.05
    label_switch_rate: float = 0.02
    n_labels: int = DEFAULT_N_LABELS
    min_box_size: float = 0.10
    max_box_size: float = 0.18
    max_speed: float = 0.015

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.n_actors < 1:
            raise ValueError("n_actors must be >= 1")
        if self.n_keyframes < 2:
            raise ValueError("n_keyframes must be >= 2")
        if not (0 <= self.n_cuts <= self.n_keyframes - 1):
            raise ValueError("n_cuts must lie in [0, n_keyframes - 1]")
        for name in ("n_labels", "appearance_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("miss_rate", "fp_rate", "label_switch_rate"):
            value = getattr(self, name)
            if not (0.0 <= value <= 1.0):
                raise ValueError(f"{name} must lie in [0, 1]")
        for name in ("appearance_noise", "box_jitter", "max_speed"):
            if not (0.0 <= getattr(self, name) < math.inf):
                raise ValueError(f"{name} must be finite and >= 0")
        if not (0.0 < self.min_box_size <= self.max_box_size <= 0.5):
            raise ValueError("box size range must satisfy 0 < min <= max <= 0.5")


SCENARIO_PRESETS = {
    "default": {"n_cuts": 20},
    "camera-cut": {"n_cuts": 20},
    "static": {"n_cuts": 0},
}


def scenario_preset(name: str, seed: int = 0, **overrides) -> ScenarioSpec:
    """Named benchmark scenarios; "default" is the camera-cut comparison."""
    if name not in SCENARIO_PRESETS:
        raise ValueError(
            f"unknown scenario {name!r}; expected one of {sorted(SCENARIO_PRESETS)}"
        )
    params: dict = dict(SCENARIO_PRESETS[name])
    params.update(overrides)
    return ScenarioSpec(seed=seed, **params)


def _sample_appearance_bases(
    rng: np.random.Generator, n: int, dim: int, max_tries: int = 200
) -> np.ndarray:
    """Unit vectors with pairwise |cos| <= APPEARANCE_MAX_COSINE, by rejection."""
    bases: list[np.ndarray] = []
    for _ in range(n):
        for _ in range(max_tries):
            vec = rng.standard_normal(dim)
            vec /= np.linalg.norm(vec)
            if all(abs(float(vec @ other)) <= APPEARANCE_MAX_COSINE for other in bases):
                bases.append(vec)
                break
        else:
            raise ValueError(
                f"could not sample {n} separated appearance vectors in "
                f"{dim} dimensions; raise appearance_dim"
            )
    return np.stack(bases)


def _sample_labels(rng: np.random.Generator, n_labels: int) -> frozenset[int]:
    count = int(rng.integers(1, _MAX_LABELS_PER_ACTOR + 1))
    count = min(count, n_labels)
    return frozenset(int(x) + 1 for x in rng.choice(n_labels, size=count, replace=False))


def _reflect(center: float, velocity: float, half: float) -> tuple[float, float]:
    lo, hi = half, 1.0 - half
    center += velocity
    if center < lo:
        center = lo + (lo - center)
        velocity = -velocity
    if center > hi:
        center = hi - (center - hi)
        velocity = -velocity
    return min(max(center, lo), hi), velocity


def _spawn(
    rng: np.random.Generator, half_w: np.ndarray, half_h: np.ndarray, max_speed: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    n = len(half_w)
    cx = rng.uniform(half_w, 1.0 - half_w)
    cy = rng.uniform(half_h, 1.0 - half_h)
    vx = rng.uniform(-max_speed, max_speed, size=n)
    vy = rng.uniform(-max_speed, max_speed, size=n)
    return cx, cy, vx, vy


def _jittered_box(
    rng: np.random.Generator, cx: float, cy: float, w: float, h: float, sigma: float
) -> BoundingBox:
    """Noisy copy of a box: center and extent jittered, clamped to stay valid."""
    jcx = float(cx + rng.normal(0.0, sigma))
    jcy = float(cy + rng.normal(0.0, sigma))
    jw = max(float(w + rng.normal(0.0, sigma)), _MIN_BOX_EXTENT)
    jh = max(float(h + rng.normal(0.0, sigma)), _MIN_BOX_EXTENT)
    jcx = min(max(jcx, jw / 2.0), 1.0 - jw / 2.0)
    jcy = min(max(jcy, jh / 2.0), 1.0 - jh / 2.0)
    return BoundingBox(jcx - jw / 2.0, jcy - jh / 2.0, jcx + jw / 2.0, jcy + jh / 2.0)


def generate(spec: ScenarioSpec) -> tuple[VideoRecord, DetectionStream]:
    """Ground truth plus a noisy detection stream for one scenario.

    Ground truth holds n_actors tracklets spanning every keyframe with
    persistent multi-label action sets; the stream holds jittered boxes with
    confidence scores and noisy appearance embeddings, minus misses and plus
    false positives. Deterministic given the spec.
    """
    rng = np.random.default_rng(spec.seed)
    n = spec.n_actors

    bases = _sample_appearance_bases(rng, n, spec.appearance_dim)
    widths = rng.uniform(spec.min_box_size, spec.max_box_size, size=n)
    heights = rng.uniform(spec.min_box_size, spec.max_box_size, size=n)
    half_w = widths / 2.0
    half_h = heights / 2.0
    labels = [_sample_labels(rng, spec.n_labels) for _ in range(n)]

    if spec.n_cuts > 0:
        cuts = set(
            int(x)
            for x in rng.choice(
                np.arange(1, spec.n_keyframes), size=spec.n_cuts, replace=False
            )
        )
    else:
        cuts = set()

    cx, cy, vx, vy = _spawn(rng, half_w, half_h, spec.max_speed)
    noise_scale = spec.appearance_noise / math.sqrt(spec.appearance_dim)

    gt_observations: list[ActorObservation] = []
    frames: dict[int, list[Detection]] = {}
    for keyframe in range(spec.n_keyframes):
        if keyframe in cuts:
            cx, cy, vx, vy = _spawn(rng, half_w, half_h, spec.max_speed)
        elif keyframe > 0:
            for a in range(n):
                cx[a], vx[a] = _reflect(cx[a], vx[a], half_w[a])
                cy[a], vy[a] = _reflect(cy[a], vy[a], half_h[a])

        detections: list[Detection] = []
        for a in range(n):
            if keyframe > 0 and rng.random() < spec.label_switch_rate:
                labels[a] = _sample_labels(rng, spec.n_labels)
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
                det_box = _jittered_box(
                    rng, float(cx[a]), float(cy[a]), widths[a], heights[a], spec.box_jitter
                )
                score = float(rng.uniform(0.5, 1.0))
                embedding = bases[a] + noise_scale * rng.standard_normal(spec.appearance_dim)
                embedding = embedding / np.linalg.norm(embedding)
                detections.append(Detection(box=det_box, score=score, appearance=embedding))

        for _ in range(n):
            if rng.random() < spec.fp_rate:
                w = float(rng.uniform(spec.min_box_size, spec.max_box_size))
                h = float(rng.uniform(spec.min_box_size, spec.max_box_size))
                fcx = float(rng.uniform(w / 2.0, 1.0 - w / 2.0))
                fcy = float(rng.uniform(h / 2.0, 1.0 - h / 2.0))
                score = float(rng.uniform(0.5, 1.0))
                embedding = rng.standard_normal(spec.appearance_dim)
                embedding = embedding / np.linalg.norm(embedding)
                detections.append(
                    Detection(
                        box=BoundingBox(fcx - w / 2.0, fcy - h / 2.0, fcx + w / 2.0, fcy + h / 2.0),
                        score=score,
                        appearance=embedding,
                    )
                )
        if detections:
            frames[keyframe] = tuple(detections)

    record = VideoRecord(video_id=spec.video_id, observations=tuple(gt_observations))
    stream = DetectionStream(video_id=spec.video_id, dim=spec.appearance_dim, frames=frames)
    return record, stream


@dataclass(frozen=True)
class Perturbation:
    """One specific corruption applied to a record to fabricate a prediction.

    Kinds and their parameters:
      drop_detections  rate        drop each observation with probability rate
      jitter_boxes     sigma       jitter box centers and extents
      split_track      actor_id, keyframe   give the tail a fresh identity
      swap_ids         actor_id, other_actor_id, keyframe   swap two identities
                                   from the given keyframe on
      flip_labels      bits        toggle that many distinct label bits
      inject_fp        rate        per keyframe, add a spurious observation
                                   with probability rate
    """

    kind: str
    rate: float = 0.0
    sigma: float = 0.0
    actor_id: Optional[int] = None
    other_actor_id: Optional[int] = None
    keyframe: Optional[int] = None
    bits: int = 0
    seed: int = 0
    n_labels: int = DEFAULT_N_LABELS

    _KINDS = (
        "drop_detections",
        "jitter_boxes",
        "split_track",
        "swap_ids",
        "flip_labels",
        "inject_fp",
    )

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown perturbation kind {self.kind!r}")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.kind in ("drop_detections", "inject_fp") and not (0.0 <= self.rate <= 1.0):
            raise ValueError("rate must lie in [0, 1]")
        if self.kind == "jitter_boxes" and not (0.0 <= self.sigma < math.inf):
            raise ValueError("sigma must be finite and >= 0")
        if self.kind == "split_track" and (self.actor_id is None or self.keyframe is None):
            raise ValueError("split_track requires actor_id and keyframe")
        if self.kind == "swap_ids" and (
            self.actor_id is None or self.other_actor_id is None or self.keyframe is None
        ):
            raise ValueError("swap_ids requires actor_id, other_actor_id, and keyframe")
        if self.kind == "flip_labels" and self.bits < 0:
            raise ValueError("bits must be >= 0")


def perturb(gt: VideoRecord, p: Perturbation) -> VideoRecord:
    """Apply exactly one corruption; everything untouched stays bit-identical."""
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
            new_box = _jittered_box(
                rng,
                (box.x1 + box.x2) / 2.0,
                (box.y1 + box.y2) / 2.0,
                box.width,
                box.height,
                p.sigma,
            )
            jittered.append(replace(obs, box=new_box))
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
