"""Coordinate charts on the space of maps: u -> pi(f + u) and its inverse."""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import ChartRadiusExceeded
from .fields import MapField, TangentField, random_tangent_field
from .meshes import sobolev_norm
from .rng import stream

__all__ = ["chart_push", "chart_pull", "bilipschitz_estimate", "ChartReport"]


def chart_push(f: MapField, u: TangentField) -> MapField:
    """Phi_f(u) = pi(f + u), vertexwise."""
    delta = f.target.chart_radius()
    if u.linf() >= delta:
        raise ChartRadiusExceeded(f"|u|_inf = {u.linf():.3e} >= {delta:.3e}")
    return MapField.project(f.values + u.values, f.target, f.mesh)


def chart_pull(f: MapField, f1: MapField) -> TangentField:
    """Tangent u with pi(f + u) = f1, vertex by vertex in closed form: the point
    of the normal segment through f1 that lies in f + T_f N (targets.py)."""
    if np.max(np.linalg.norm(f.values - f1.values, axis=1)) >= f.target.chart_radius():
        raise ChartRadiusExceeded("maps too far apart to share a chart")
    return TangentField(f.target.chart_inverse(f.values, f1.values), f)


@dataclass
class ChartReport:
    c4_estimate: float
    max_roundtrip_error: float
    sample_count: int
    radius_used: float

    def to_json_dict(self) -> dict:
        return asdict(self)


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
    rng = stream(seed, "chart-bilipschitz")
    mesh = f.mesh
    max_ratio = 0.0
    min_ratio = np.inf
    max_rt = 0.0
    used = 0
    for _ in range(int(samples)):
        u = random_tangent_field(f, rng)
        n_u = sobolev_norm(mesh, u.values, k, p)
        if n_u == 0.0:
            continue
        u.values *= radius * rng.uniform(0.1, 1.0) / n_u
        if u.linf() >= delta:
            u.values *= 0.5 * delta / u.linf()
        f1 = chart_push(f, u)
        n_u = sobolev_norm(mesh, u.values, k, p)
        n_d = sobolev_norm(mesh, f.values - f1.values, k, p)
        if n_d == 0.0:
            continue
        ratio = n_u / n_d
        max_ratio = max(max_ratio, ratio)
        min_ratio = min(min_ratio, ratio)
        back = chart_pull(f, f1)
        max_rt = max(max_rt, float(np.max(np.linalg.norm(back.values - u.values, axis=1))))
        used += 1
    c4 = max(max_ratio, 1.0 / min_ratio) if used else 1.0
    return ChartReport(
        c4_estimate=float(c4),
        max_roundtrip_error=float(max_rt),
        sample_count=used,
        radius_used=float(radius),
    )
