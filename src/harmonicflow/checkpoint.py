"""Text checkpoints for map fields and CSV trace export.

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
TRACE_HEADER = "t,energy,grad_norm_l2,dist_to_limit,dt"


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


def export_trace(trace: FlowTrace, path: str) -> None:
    """CSV with header t,energy,grad_norm_l2,dist_to_limit,dt."""
    if not trace.samples:
        raise EmptyTrace("cannot export a trace with no samples")
    lines = [TRACE_HEADER]
    for s in trace.samples:
        lines.append(
            ",".join(fmt(v) for v in (s.t, s.energy, s.grad_norm_l2,
                                      s.dist_to_limit, s.dt))
        )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_trace(path: str) -> dict[str, np.ndarray]:
    with open(path) as fh:
        lines = [ln for ln in fh.read().splitlines() if ln]
    if not lines or lines[0] != TRACE_HEADER:
        raise CheckpointParseError(f"{path}: bad trace header")
    cols = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    if cols.size == 0:
        raise CheckpointParseError(f"{path}: no samples")
    names = TRACE_HEADER.split(",")
    return {name: cols[:, i] for i, name in enumerate(names)}


def write_json(obj: dict, path: str) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")
