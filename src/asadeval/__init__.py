"""Evaluation engine and data-association harness for actor-identified
spatiotemporal action detection.

Scores predictions against ground truth on spatial detection (AP at an IoU
gate), actor identification (IDF1, MT, ML, ID switches), and multi-label
action classification (Hamming loss over gated matched pairs), and ships two
baseline trackers plus a seeded synthetic benchmark comparing them.
"""

from .actions import HammingResult, MatchedPair, MatchedPairSet, hamming_loss, match_pairs
from .association import Detection, DetectionStream, track_offline, track_online
from .detection import APResult, DetectionTally, PRCurve, average_precision
from .evaluation import EvalReport, MetricBlock, evaluate_records
from .identity import IdMatchResult, MtMlResult, TrackCoverage, id_switches, idf1, mt_ml
from .io_formats import (
    FormatError,
    parse_annotations,
    parse_detection_stream,
    read_report,
    write_annotations,
    write_detection_stream,
    write_report,
)
from .matching import Assignment, build_cost_matrix, solve_assignment
from .model import ActorObservation, BoundingBox, VideoRecord
from .synthetic import Perturbation, ScenarioSpec, generate, perturb, scenario_preset
from .version import __version__

__all__ = [
    "__version__",
    "ActorObservation",
    "APResult",
    "Assignment",
    "BoundingBox",
    "Detection",
    "DetectionStream",
    "DetectionTally",
    "EvalReport",
    "FormatError",
    "HammingResult",
    "IdMatchResult",
    "MatchedPair",
    "MatchedPairSet",
    "MetricBlock",
    "MtMlResult",
    "Perturbation",
    "PRCurve",
    "ScenarioSpec",
    "TrackCoverage",
    "VideoRecord",
    "average_precision",
    "build_cost_matrix",
    "evaluate_records",
    "generate",
    "hamming_loss",
    "id_switches",
    "idf1",
    "match_pairs",
    "mt_ml",
    "parse_annotations",
    "parse_detection_stream",
    "perturb",
    "read_report",
    "scenario_preset",
    "solve_assignment",
    "track_offline",
    "track_online",
    "write_annotations",
    "write_detection_stream",
    "write_report",
]
