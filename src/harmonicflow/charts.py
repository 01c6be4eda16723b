"""Charts on the space of maps, u -> pi(f + u) and its inverse, on (V, S, n) stacks."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ChartRadiusExceeded
from .fields import MapField, _unchecked, tangent_stacks
from .meshes import row_dots, sobolev_norm
from .rng import stream

__all__ = ["chart_push", "chart_pull", "push", "pull", "bilipschitz_estimate", "ChartReport"]


def push(f: MapField, u: np.ndarray) -> np.ndarray:
    """Phi_f(u) = pi(f + u), vertexwise, for a (V, S, n) stack of tangent fields u
    along f, each with |u|_inf below the chart radius."""
    delta = f.target.chart_radius()
    sup = np.sqrt(np.max(row_dots(u, u), axis=0))
    if np.any(sup >= delta):
        raise ChartRadiusExceeded(f"|u|_inf = {np.max(sup):.3e} >= {delta:.3e}")
    return f.target.project_to_target(f.values[:, None, :] + u)


def pull(f: MapField, f1: np.ndarray) -> np.ndarray:
    """The tangent stack u with pi(f + u) = f1 for a (V, S, n) stack f1, vertex by
    vertex: the point of the normal segment through f1 in f + T_f N (targets.py)."""
    y = f.values[:, None, :]
    d = y - f1
    if np.sqrt(np.max(row_dots(d, d))) >= f.target.chart_radius():
        raise ChartRadiusExceeded("maps too far apart to share a chart")
    u = f.target.chart_inverse(y, f1)
    f.target.require_tangent(y, u)
    return u


def chart_push(f: MapField, u: np.ndarray) -> MapField:
    """Phi_f(u) = pi(f + u), vertexwise, for one (V, n) tangent field u."""
    return _unchecked(MapField, values=push(f, u[:, None])[:, 0], target=f.target, mesh=f.mesh)


def chart_pull(f: MapField, f1: MapField) -> np.ndarray:
    """The (V, n) tangent field u with pi(f + u) = f1 (see ``pull``)."""
    return pull(f, f1.values[:, None])[:, 0]


@dataclass
class ChartReport:
    c4_estimate: float
    max_roundtrip_error: float
    sample_count: int
    radius_used: float


def bilipschitz_estimate(
    f: MapField,
    radius: float,
    samples: int,
    norm: tuple[int, float] = (1, 2.0),
    seed: int = 0,
) -> ChartReport:
    """Empirical two-sided chart constant over seeded random tangent fields.

    For each sample, compares |u|_{W^{k,p}} with |f - Phi_f(u)|_{W^{k,p}};
    the estimate is max(max ratio, 1/min ratio) >= 1.
    """
    delta = f.target.chart_radius()
    if radius >= delta:
        raise ChartRadiusExceeded(f"radius {radius:.3e} >= {delta:.3e}")
    k, p = norm
    ratios, max_rt = [np.empty(0)], 0.0
    for u, n_u in tangent_stacks(f, stream(seed, "chart-bilipschitz"), samples, radius, 0.1, norm):
        sup = np.sqrt(np.max(row_dots(u, u), axis=0))
        shrink = np.where(sup >= delta, 0.5 * delta / sup, 1.0)
        u *= shrink[:, None]
        n_u *= shrink  # |u| after scaling, by homogeneity
        f1 = push(f, u)
        n_d = sobolev_norm(f.mesh, f.values[:, None, :] - f1, k, p)
        used = n_d != 0.0
        if used.any():
            err = pull(f, f1[:, used]) - u[:, used]
            max_rt = max(max_rt, float(np.sqrt(np.max(row_dots(err, err)))))
            ratios.append(n_u[used] / n_d[used])
    ratios = np.concatenate(ratios)
    c4 = max(np.max(ratios), 1.0 / np.min(ratios)) if ratios.size else 1.0
    return ChartReport(c4_estimate=float(c4), max_roundtrip_error=float(max_rt),
                       sample_count=int(ratios.size), radius_used=float(radius))
