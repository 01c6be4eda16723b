"""Text checkpoints for map fields, and float columns as CSV.

Floats are written as 17-significant-digit decimals, which round-trip
float64 exactly; checkpoints are therefore lossless and diff-able.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .errors import (
    CheckpointParseError,
    CheckpointVersionError,
    EmptyTrace,
    SpecMismatch,
)
from .fields import MapField
from .flow import FlowTrace
from .meshes import SourceMesh, build_source
from .targets import EmbeddedTarget, build_target

FORMAT_VERSION = 1
TRACE_COLUMNS = ["t", "energy", "grad_norm_l2", "dist_to_limit", "dt"]


def fmt(x: float) -> str:
    return f"{float(x):.17g}"


def save_checkpoint(f: MapField, metadata: dict, path: str) -> None:
    """Writes what json.dump(..., sort_keys=True, indent=1) writes for these fields,
    floats as ``fmt`` strings, and a newline; the values block is one %-format."""
    head = json.dumps({
        "format_version": FORMAT_VERSION,
        "mesh": f.mesh.spec,
        "target": f.target.spec(),
        "metadata": {
            k: (fmt(v) if isinstance(v, float) else v) for k, v in metadata.items()
        },
        "values": 0,  # the last key in sorted order: its value ends the text
    }, sort_keys=True, indent=1)
    rows, cols = f.values.shape
    row = "  [\n" + ",\n".join(['   "%.17g"'] * cols) + "\n  ]"  # "%.17g" % x == fmt(x)
    values = "[\n" + ",\n".join([row] * rows) % tuple(f.values.ravel().tolist()) + "\n ]"
    with open(path, "w") as fh:
        fh.write(head[: -len("0\n}")] + values + "\n}\n")


def load_checkpoint(
    path: str,
    mesh: SourceMesh | None = None,
    target: EmbeddedTarget | None = None,
) -> tuple[MapField, dict]:
    """Inverse of save_checkpoint; validates version, specs, and on-target."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CheckpointParseError(f"{path}: {exc}") from exc
    if not isinstance(payload, dict) or "format_version" not in payload:
        raise CheckpointParseError(f"{path}: missing format_version")
    if payload["format_version"] != FORMAT_VERSION:
        raise CheckpointVersionError(
            f"{path}: version {payload['format_version']} != {FORMAT_VERSION}"
        )
    try:
        mesh_spec = payload["mesh"]
        target_spec = payload["target"]
        values = np.array(
            [[float(x) for x in row] for row in payload["values"]], dtype=float
        )
        metadata = dict(payload["metadata"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointParseError(f"{path}: {exc}") from exc
    if mesh is not None and mesh.spec != mesh_spec:
        raise SpecMismatch(f"mesh spec {mesh_spec} != scenario {mesh.spec}")
    if target is not None and target.spec() != target_spec:
        raise SpecMismatch(f"target spec {target_spec} != scenario {target.spec()}")
    try:
        mesh = mesh if mesh is not None else build_source(mesh_spec)
        target = target if target is not None else build_target(target_spec)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise CheckpointParseError(f"{path}: bad mesh or target spec: {exc!r}") from exc
    return MapField(values, target, mesh), metadata


def write_columns(path: str, names: list[str], columns: list[np.ndarray]) -> None:
    """CSV of equal-length float columns under a header of their names."""
    row = ",".join(["%.17g"] * len(names))  # "%.17g" % x == fmt(x)
    text = "\n".join([",".join(names)] + [row] * len(columns[0]))
    with open(path, "w") as fh:
        fh.write(text % tuple(np.column_stack(columns).ravel().tolist()) + "\n")


def read_columns(path: str, names: list[str]) -> list[np.ndarray]:
    """Inverse of write_columns for a file written under ``names``."""
    with open(path) as fh:
        lines = [ln for ln in fh.read().splitlines() if ln]
    if not lines or lines[0] != ",".join(names):
        raise CheckpointParseError(f"{path}: bad header, expected {','.join(names)}")
    try:
        table = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    except ValueError as exc:
        raise CheckpointParseError(f"{path}: {exc}") from exc
    if table.size == 0 or table.shape[1] != len(names):
        raise CheckpointParseError(f"{path}: no rows of {len(names)} values")
    return list(table.T)


def export_trace(trace: FlowTrace, path: str) -> None:
    """trace.csv: the trace's columns under TRACE_COLUMNS."""
    if len(trace.t) == 0:
        raise EmptyTrace("cannot export a trace with no samples")
    write_columns(path, TRACE_COLUMNS, [getattr(trace, name) for name in TRACE_COLUMNS])


def read_trace(path: str) -> FlowTrace:
    """The columns of a trace.csv as a FlowTrace; the run's record is not in the file."""
    return FlowTrace(*read_columns(path, TRACE_COLUMNS))


def write_json(obj: dict, path: str) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")
