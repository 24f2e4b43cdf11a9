"""Bit-exact parsing and serialization of the interchange CSV/JSON formats.

Three CSV schemas are defined (all UTF-8, LF or CRLF, header required):

* annotations: ``video_id,keyframe,x1,y1,x2,y2,action_id,actor_id`` with a
  trailing ``score`` column for predictions only. One row per
  (observation, action) pair; multi-label observations span several rows
  that must agree exactly on geometry and score. ``action_id`` 0 marks a
  prediction row with no action labels and must be the observation's only
  row.
* detection streams: ``video_id,keyframe,x1,y1,x2,y2,score,e0..e{D-1}``
  with the embedding width D fixed by the header; one video per file.
* bench tables: ``seed,mode,ap50,hl50,idf1,mt_pct,ml_pct,id_switches``.

Reports serialize to JSON (exact round trip) or flattened CSV. Floats are
written with ``repr`` so parsing reproduces them bit-exactly; parsing is
locale independent (decimal point only).
"""

from __future__ import annotations

import csv
import json
import math
from contextlib import contextmanager
from dataclasses import asdict, fields
from pathlib import Path
from typing import Iterator, Optional, Sequence

import numpy as np

from .association import Detection, DetectionStream
from .evaluation import AGGREGATE_KEY, EvalReport, MetricBlock
from .model import (
    DEFAULT_N_LABELS,
    ActorObservation,
    BoundingBox,
    VideoRecord,
    validate_record,
)
from .synthetic import GENERATOR_ALGORITHM, ScenarioSpec
from .version import __version__

REPORT_SCHEMA = "asadeval-report-v1"
MANIFEST_SCHEMA = "asadeval-scenario-v1"
GT_COLUMNS = ["video_id", "keyframe", "x1", "y1", "x2", "y2", "action_id", "actor_id"]
PRED_COLUMNS = GT_COLUMNS + ["score"]
STREAM_FIXED_COLUMNS = ["video_id", "keyframe", "x1", "y1", "x2", "y2", "score"]
BENCH_COLUMNS = ["seed", "mode", "ap50", "hl50", "idf1", "mt_pct", "ml_pct", "id_switches"]
NO_ACTION_MARKER = 0
_MAX_REPORTED_ERRORS = 50


class FormatError(ValueError):
    """A file violated its declared schema; carries one message per problem."""

    def __init__(self, errors: Sequence[str]):
        self.errors = list(errors)[:_MAX_REPORTED_ERRORS]
        super().__init__("\n".join(self.errors))


@contextmanager
def _csv_reader(path: str) -> Iterator:
    """A csv.reader over a UTF-8 file; bad bytes or csv syntax raise a line-numbered FormatError."""
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            yield reader
        except csv.Error as exc:
            raise FormatError([f"{path}:{reader.line_num}: {exc}"]) from None
        except UnicodeDecodeError:
            # The text layer decodes ahead of the csv reader, so find the line afresh.
            for line_no, line in enumerate(Path(path).read_bytes().split(b"\n"), start=1):
                try:
                    line.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise FormatError([f"{path}:{line_no}: invalid UTF-8: {exc}"]) from None
            raise


def _parse_int(text: str, minimum: Optional[int] = None) -> int:
    value = int(text)
    if minimum is not None and value < minimum:
        raise ValueError(f"must be >= {minimum}")
    return value


def _parse_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("must be finite")
    return value


def _parse_fraction(text: str) -> float:
    value = _parse_float(text)
    if not (0.0 <= value <= 1.0):
        raise ValueError("must lie in [0, 1]")
    return value


def _check_role(role: str) -> None:
    if role not in ("gt", "pred"):
        raise ValueError(f"role must be 'gt' or 'pred', got {role!r}")


def parse_annotations(
    path: str,
    role: str,
    n_labels: int = DEFAULT_N_LABELS,
) -> list[VideoRecord]:
    """Parse an annotation CSV into validated records, one per video.

    Rows sharing (video_id, keyframe, actor_id) merge into one multi-label
    observation and must agree exactly on geometry (and score). Every
    problem is reported with its line number; any problem aborts the parse.
    """
    _check_role(role)
    expected = PRED_COLUMNS if role == "pred" else GT_COLUMNS
    errors: list[str] = []
    groups: dict[tuple[str, int, int], dict] = {}

    with _csv_reader(path) as reader:
        header = next(reader, None)
        if header is None:
            raise FormatError([f"{path}:1: empty file, expected header {','.join(expected)}"])
        if [cell.strip() for cell in header] != expected:
            raise FormatError(
                [
                    f"{path}:1: bad header for role={role}: expected "
                    f"{','.join(expected)}, got {','.join(header)}"
                ]
            )
        for row in reader:
            line_no = reader.line_num
            if not row:
                continue
            if len(row) != len(expected):
                errors.append(
                    f"{path}:{line_no}: expected {len(expected)} columns, got {len(row)}"
                )
                continue
            try:
                video_id = row[0]
                if not video_id:
                    raise ValueError("video_id: must be non-empty")
                keyframe = _parse_int(row[1], minimum=0)
                x1 = _parse_fraction(row[2])
                y1 = _parse_fraction(row[3])
                x2 = _parse_fraction(row[4])
                y2 = _parse_fraction(row[5])
                if not (x1 < x2 and y1 < y2):
                    raise ValueError("degenerate box: requires x1 < x2 and y1 < y2")
                action_id = _parse_int(row[6], minimum=0)
                if action_id == NO_ACTION_MARKER:
                    if role == "gt":
                        raise ValueError(
                            "action_id 0 (no labels) is not allowed in ground truth"
                        )
                elif not (1 <= action_id <= n_labels):
                    raise ValueError(f"action_id {action_id} outside [1, {n_labels}]")
                actor_id = _parse_int(row[7], minimum=0)
                score = _parse_fraction(row[8]) if role == "pred" else 1.0
            except ValueError as exc:
                errors.append(f"{path}:{line_no}: {exc}")
                continue

            key = (video_id, keyframe, actor_id)
            box = (x1, y1, x2, y2)
            group = groups.get(key)
            if group is None:
                groups[key] = {
                    "box": box,
                    "score": score,
                    "actions": set() if action_id == NO_ACTION_MARKER else {action_id},
                    "marker": action_id == NO_ACTION_MARKER,
                    "line": line_no,
                }
                continue
            if group["box"] != box:
                errors.append(
                    f"{path}:{line_no}: geometry conflicts with line {group['line']} "
                    f"for (video_id={video_id}, keyframe={keyframe}, actor_id={actor_id})"
                )
                continue
            if group["score"] != score:
                errors.append(
                    f"{path}:{line_no}: score conflicts with line {group['line']}"
                )
                continue
            if group["marker"] or action_id == NO_ACTION_MARKER:
                errors.append(
                    f"{path}:{line_no}: action_id 0 must be the observation's only row"
                )
                continue
            if action_id in group["actions"]:
                errors.append(f"{path}:{line_no}: duplicate action_id {action_id}")
                continue
            group["actions"].add(action_id)

    if errors:
        raise FormatError(errors)

    by_video: dict[str, list[ActorObservation]] = {}
    for (video_id, keyframe, actor_id), group in groups.items():
        x1, y1, x2, y2 = group["box"]
        by_video.setdefault(video_id, []).append(
            ActorObservation(
                video_id=video_id,
                keyframe=keyframe,
                box=BoundingBox(x1, y1, x2, y2),
                actor_id=actor_id,
                actions=frozenset(group["actions"]),
                score=group["score"],
            )
        )

    records = [
        VideoRecord(video_id=video_id, observations=tuple(observations))
        for video_id, observations in sorted(by_video.items())
    ]
    for record in records:
        for violation in validate_record(record, role=role, n_labels=n_labels):
            errors.append(f"{path}: video {record.video_id!r}: {violation}")
    if errors:
        raise FormatError(errors)
    return records


def write_annotations(records: Sequence[VideoRecord], path: str, role: str) -> None:
    """Serialize records in canonical row order (video, keyframe, actor, action)."""
    _check_role(role)
    expected = PRED_COLUMNS if role == "pred" else GT_COLUMNS
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(expected)
        for record in sorted(records, key=lambda r: r.video_id):
            for obs in record.observations:
                if obs.actions:
                    action_ids = sorted(obs.actions)
                elif role == "pred":
                    action_ids = [NO_ACTION_MARKER]
                else:
                    raise ValueError(
                        f"ground-truth observation without labels at video "
                        f"{record.video_id!r} keyframe {obs.keyframe}"
                    )
                for action_id in action_ids:
                    row = [
                        record.video_id,
                        obs.keyframe,
                        repr(obs.box.x1),
                        repr(obs.box.y1),
                        repr(obs.box.x2),
                        repr(obs.box.y2),
                        action_id,
                        obs.actor_id,
                    ]
                    if role == "pred":
                        row.append(repr(obs.score))
                    writer.writerow(row)


def parse_detection_stream(path: str) -> DetectionStream:
    """Parse a detection-stream CSV; one video per file, fixed embedding width."""
    errors: list[str] = []
    with _csv_reader(path) as reader:
        header = next(reader, None)
        if header is None:
            raise FormatError([f"{path}:1: empty file, expected a stream header"])
        header = [cell.strip() for cell in header]
        if header[: len(STREAM_FIXED_COLUMNS)] != STREAM_FIXED_COLUMNS:
            raise FormatError(
                [
                    f"{path}:1: bad header: expected it to start with "
                    f"{','.join(STREAM_FIXED_COLUMNS)}"
                ]
            )
        embedding_names = header[len(STREAM_FIXED_COLUMNS) :]
        dim = len(embedding_names)
        if dim == 0 or embedding_names != [f"e{i}" for i in range(dim)]:
            raise FormatError(
                [f"{path}:1: embedding columns must be e0..e{{D-1}}, got {embedding_names}"]
            )

        video_id: Optional[str] = None
        rows: list[tuple[int, Detection]] = []
        for row in reader:
            line_no = reader.line_num
            if not row:
                continue
            if len(row) != len(header):
                errors.append(
                    f"{path}:{line_no}: expected {len(header)} columns, got {len(row)} "
                    f"(ragged embedding width)"
                )
                continue
            try:
                if not row[0]:
                    raise ValueError("video_id: must be non-empty")
                if video_id is None:
                    video_id = row[0]
                elif row[0] != video_id:
                    raise ValueError(
                        f"multiple videos in one stream file ({video_id!r} and {row[0]!r})"
                    )
                keyframe = _parse_int(row[1], minimum=0)
                x1 = _parse_fraction(row[2])
                y1 = _parse_fraction(row[3])
                x2 = _parse_fraction(row[4])
                y2 = _parse_fraction(row[5])
                if not (x1 < x2 and y1 < y2):
                    raise ValueError("degenerate box: requires x1 < x2 and y1 < y2")
                score = _parse_fraction(row[6])
                embedding = np.array(
                    [_parse_float(cell) for cell in row[7:]], dtype=float
                )
            except ValueError as exc:
                errors.append(f"{path}:{line_no}: {exc}")
                continue
            rows.append(
                (keyframe, Detection(box=BoundingBox(x1, y1, x2, y2), score=score, appearance=embedding))
            )

    if errors:
        raise FormatError(errors)

    frames: dict[int, list[Detection]] = {}
    for keyframe, detection in rows:  # stable within keyframe regardless of file order
        frames.setdefault(keyframe, []).append(detection)
    return DetectionStream(
        video_id=video_id or "",
        dim=dim,
        frames={kf: tuple(dets) for kf, dets in sorted(frames.items())},
    )


def write_detection_stream(stream: DetectionStream, path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(STREAM_FIXED_COLUMNS + [f"e{i}" for i in range(stream.dim)])
        for keyframe in stream.keyframes:
            for det in stream.frames[keyframe]:
                writer.writerow(
                    [
                        stream.video_id,
                        keyframe,
                        repr(det.box.x1),
                        repr(det.box.y1),
                        repr(det.box.x2),
                        repr(det.box.y2),
                        repr(det.score),
                    ]
                    + [repr(float(v)) for v in det.appearance]
                )


def _block_to_dict(block: MetricBlock) -> dict:
    data = asdict(block)
    data["flags"] = list(block.flags)
    return data


def _block_from_dict(data: dict) -> MetricBlock:
    kwargs = {f.name: data[f.name] for f in fields(MetricBlock)}
    kwargs["flags"] = tuple(kwargs["flags"])
    return MetricBlock(**kwargs)


def report_to_dict(report: EvalReport) -> dict:
    return {
        "schema": REPORT_SCHEMA,
        "config": dict(report.config),
        "aggregate": _block_to_dict(report.aggregate),
        "videos": [
            {"video_id": video_id, **_block_to_dict(block)}
            for video_id, block in sorted(report.per_video.items())
        ],
    }


def report_from_dict(data: dict) -> EvalReport:
    if data.get("schema") != REPORT_SCHEMA:
        raise FormatError([f"unexpected report schema {data.get('schema')!r}"])
    per_video = {
        entry["video_id"]: _block_from_dict(entry) for entry in data["videos"]
    }
    return EvalReport(
        config=dict(data["config"]),
        aggregate=_block_from_dict(data["aggregate"]),
        per_video=per_video,
    )


def write_report(report: EvalReport, path: str, fmt: str = "json") -> None:
    """Write a report as stable JSON or as a flattened CSV table.

    The JSON form round-trips exactly through `read_report`. A null metric
    (e.g. HL with no matched pairs) stays null and carries its reason; it is
    never collapsed to 0.
    """
    if fmt == "json":
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(report_to_dict(report), handle, indent=2, sort_keys=True)
            handle.write("\n")
    elif fmt == "csv":
        columns = ["video_id"] + [f.name for f in fields(MetricBlock)]
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(columns)
            rows = [(AGGREGATE_KEY, report.aggregate)] + sorted(report.per_video.items())
            for video_id, block in rows:
                data = _block_to_dict(block)
                row = [video_id]
                for name in columns[1:]:
                    value = data[name]
                    if value is None:
                        row.append("")
                    elif name == "flags":
                        row.append(";".join(value))
                    elif isinstance(value, float):
                        row.append(repr(value))
                    else:
                        row.append(value)
                writer.writerow(row)
    else:
        raise ValueError(f"unknown report format {fmt!r}")


def read_report(path: str) -> EvalReport:
    with open(path, encoding="utf-8") as handle:
        return report_from_dict(json.load(handle))


def write_scenario_manifest(spec: ScenarioSpec, path: str) -> None:
    manifest = {
        "schema": MANIFEST_SCHEMA,
        "tool": "asadeval",
        "version": __version__,
        "generator": GENERATOR_ALGORITHM,
        "spec": asdict(spec),
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")


def sidecar_n_labels(annotation_path: str) -> Optional[int]:
    """n_labels from a manifest.json beside the annotation file, if present."""
    manifest_path = Path(annotation_path).parent / "manifest.json"
    if not manifest_path.is_file():
        return None
    try:
        with open(manifest_path, encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError):
        return None
    if isinstance(data.get("n_labels"), int):
        return data["n_labels"]
    spec = data.get("spec")
    if isinstance(spec, dict) and isinstance(spec.get("n_labels"), int):
        return spec["n_labels"]
    return None


def write_bench_table(rows: Sequence[dict], path: str) -> None:
    """Two-row-per-seed online/offline comparison table."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(BENCH_COLUMNS)
        for row in rows:
            writer.writerow(
                [
                    row["seed"],
                    row["mode"],
                    _bench_cell(row["ap50"]),
                    _bench_cell(row["hl50"]),
                    _bench_cell(row["idf1"]),
                    _bench_cell(row["mt_pct"]),
                    _bench_cell(row["ml_pct"]),
                    row["id_switches"],
                ]
            )


def _bench_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)
