"""Vertex-indexed maps into a target; a tangent field along one is its (V, n) array."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import ShapeMismatch
from .meshes import SourceMesh, row_dots, sobolev_norm, stack_chunks
from .targets import EmbeddedTarget, UnitSphere


def _unchecked(cls, **fields):
    """An instance of the dataclass ``cls`` built without running its checks."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


@dataclass(eq=False)
class MapField:
    """Map f : M -> N stored as per-vertex ambient coordinates.

    The constructor checks the shape and that every value is on the target;
    ``MapField.project`` builds pi(x), which is on the target by construction.
    """

    values: np.ndarray
    target: EmbeddedTarget
    mesh: SourceMesh

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.mesh.vertex_count, self.target.ambient_dim):
            raise ShapeMismatch(
                f"map values {self.values.shape} != "
                f"({self.mesh.vertex_count}, {self.target.ambient_dim})"
            )
        self.target.require_on_target(self.values)

    @classmethod
    def project(cls, x: np.ndarray, target: EmbeddedTarget, mesh: SourceMesh) -> MapField:
        """The map pi(x), vertexwise; not re-checked."""
        values = target.project_to_target(x)
        return _unchecked(cls, values=values, target=target, mesh=mesh)


# ---------------------------------------------------------------------------
# constructors for the scenario initial maps

def constant_map(mesh: SourceMesh, target: EmbeddedTarget, point=None) -> MapField:
    """Constant map at the projection of ``point`` (default: the target's base point)."""
    point = np.asarray(target.base_point() if point is None else point, dtype=float)
    if point.shape != (target.ambient_dim,):
        raise ShapeMismatch(f"point has shape {point.shape}; the target lies in "
                            f"R^{target.ambient_dim}")
    y = target.project_to_target(point)
    return MapField(np.tile(y, (mesh.vertex_count, 1)), target, mesh)


def identity_sphere_map(mesh: SourceMesh, target: EmbeddedTarget) -> MapField:
    """Identity S^2 -> S^2 on an icosphere mesh."""
    if mesh.kind != "icosphere" or target != UnitSphere(3):
        raise ShapeMismatch("identity map needs an icosphere mesh and S^2 target")
    return MapField(mesh.points.copy(), target, mesh)


def degree_circle_map(mesh: SourceMesh, target: EmbeddedTarget, k: int) -> MapField:
    """Degree-k map of the circle onto a great circle of a unit sphere,
    theta -> (cos k theta, sin k theta, 0, ..., 0)."""
    if mesh.kind != "circle" or not isinstance(target, UnitSphere):
        raise ShapeMismatch("degree map needs a circle mesh and a sphere target")
    t = mesh.points[:, 0]
    values = np.zeros((mesh.vertex_count, target.ambient_dim))
    values[:, 0], values[:, 1] = np.cos(k * t), np.sin(k * t)
    return MapField(values, target, mesh)


def tangent_stacks(f: MapField, rng: np.random.Generator, count: int, radius: float,
                   low: float, norm: tuple[int, float]) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """``count`` seeded fields over the mesh's modes projected to the tangent planes
    along f, each scaled to W^{k,p} norm radius * uniform(low, 1), a zero draw skipped.
    Yields (stack, norms) a (V, S, n) stack of stack_chunks at a time: one modes
    product and one projection per stack, and only the yielded arrays held."""
    k, p = norm
    mesh, n = f.mesh, f.target.ambient_dim
    shape = (mesh.modes.shape[1], n)
    for chunk in stack_chunks(mesh, n, int(count)):
        size = chunk.stop - chunk.start
        coeffs, w = np.empty((size, *shape)), np.empty(size)
        for s in range(size):
            coeffs[s], w[s] = rng.standard_normal(shape), rng.uniform(low, 1.0)
        raw = mesh.modes @ coeffs.transpose(1, 0, 2).reshape(shape[0], -1)  # (V, S n)
        u = f.target.tangent_project(f.values[:, None, :], raw.reshape(len(raw), size, n))
        del raw
        n_u = sobolev_norm(mesh, u, k, p)
        keep = n_u > 0.0  # a zero field is skipped, not counted
        u = u[:, keep] * (radius * w[keep] / n_u[keep])[:, None]
        yield u, radius * w[keep]


def random_tangent_field(f: MapField, rng: np.random.Generator) -> np.ndarray:
    """Ambient field over the mesh's modes projected to the tangent planes along f, (V, n)."""
    raw = f.mesh.modes @ rng.standard_normal((f.mesh.modes.shape[1], f.target.ambient_dim))
    return f.target.tangent_project(f.values, raw)


def perturbed_constant_map(
    mesh: SourceMesh,
    target: EmbeddedTarget,
    amplitude: float,
    rng: np.random.Generator,
    point=None,
) -> MapField:
    """Constant map pushed off by a random tangent field of given sup amplitude."""
    f0 = constant_map(mesh, target, point)
    u = random_tangent_field(f0, rng)
    sup = np.sqrt(np.max(row_dots(u, u)))
    scale = amplitude / sup if sup > 0 else 0.0
    return MapField.project(f0.values + scale * u, target, mesh)
