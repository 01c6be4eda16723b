"""Projected negative gradient flow of the energy.

Explicit Euler with per-vertex reprojection, f' = pi(f - dt M(f)), under an
energy-decrease acceptance rule: a candidate c is kept only if
dE = 1/2 (c - f).(K f + K c), exact for the quadratic energy, is at most
1e-12, otherwise dt is halved.  K c is the next tension's numerator, so each
candidate costs one sparse product.  dt is also halved while dt |M|_inf
reaches the chart radius; the flow ends with ``step_collapse`` once dt falls
below dt_min.  Five consecutive acceptances grow dt by 1.25x, capped at
100 dt0; radius halvings keep the streak.  dt0 and the cap are clamped to
0.95 of the stability limit 2/lambda_G, lambda_G the Gershgorin bound of
K/area: beyond it the slack lets steps that no longer converge pass.  Trace
energies are back-filled from one D-sum at the final map, E_n = E_{n+1} - dE_n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ChartRadiusExceeded, InsufficientSamples
from .fields import MapField, TangentField
from .meshes import row_dots, sobolev_norm
from .energy import energy

__all__ = ["FlowControl", "FlowSample", "FlowTrace", "run_flow", "dissipation_check"]

ENERGY_SLACK = 1e-12
GROW_FACTOR = 1.25
GROW_AFTER = 5
GROW_CAP = 100.0
STABLE_FRACTION = 0.95  # of the explicit stability limit 2/lambda_G


@dataclass
class FlowControl:
    dt0: float = 1e-4
    dt_min: float = 1e-12
    max_steps: int = 200_000
    max_time: float = math.inf
    grad_tol: float = 1e-9
    checkpoint_every: int = 100
    dist_norm: tuple[int, float] = (1, 2.0)


@dataclass
class FlowSample:
    t: float
    energy: float
    grad_norm_l2: float
    dist_to_limit: float  # nan until filled in after the run
    dt: float             # step that produced this state (0 for the initial one)


@dataclass
class FlowTrace:
    samples: list[FlowSample] = field(default_factory=list)
    terminated_by: str = ""
    checkpoints: list[tuple[int, np.ndarray]] = field(default_factory=list)
    final_values: np.ndarray | None = None
    candidates: int = 0
    energy_rejections: int = 0
    radius_halvings: int = 0

    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.samples])

    def energies(self) -> np.ndarray:
        return np.array([s.energy for s in self.samples])

    def grad_norms(self) -> np.ndarray:
        return np.array([s.grad_norm_l2 for s in self.samples])


def run_flow(f0: MapField, control: FlowControl | None = None) -> FlowTrace:
    """Adaptive explicit flow; sample i is the state after i accepted steps."""
    ctl = control or FlowControl()
    if not ctl.dt0 > 0:  # NaN fails too
        raise ChartRadiusExceeded("dt0 must be positive")
    trace = FlowTrace()
    f = f0
    K, area = f0.mesh.stiffness, f0.mesh.area
    # Gershgorin: lambda_max(K/area) <= lambda_G = max_i sum_j |K_ij| / area_i
    lam_g = float(np.max(np.add.reduceat(np.abs(K.data), K.indptr[:-1]) / area))
    dt_cap = min(ctl.dt0 * GROW_CAP, STABLE_FRACTION * 2.0 / lam_g)
    dt = min(ctl.dt0, dt_cap)
    t = 0.0
    streak = 0
    last_dt = 0.0
    increments: list[float] = []  # dE of each accepted step
    kf = K @ f.values
    delta = f0.target.chart_radius()

    while True:
        m = TangentField.project(kf / area[:, None], f)  # M(f) = dpi(f) Delta f
        r = row_dots(m.values, m.values)  # one pass gives |M|_L2 and |M|_inf
        gn = math.sqrt(float(np.dot(area, r)))
        trace.samples.append(FlowSample(t, math.nan, gn, math.nan, last_dt))
        accepted = len(increments)
        if ctl.checkpoint_every > 0 and accepted % ctl.checkpoint_every == 0:
            trace.checkpoints.append((accepted, f.values.copy()))

        if gn <= ctl.grad_tol:
            trace.terminated_by = "grad_norm_below"
            break
        if accepted >= ctl.max_steps:
            trace.terminated_by = "max_steps"
            break
        if t >= ctl.max_time:
            trace.terminated_by = "max_time"
            break

        sup = math.sqrt(float(r.max()))
        while dt > 0 and dt >= ctl.dt_min:
            if dt * sup >= delta:  # keep the displacement inside the chart radius
                trace.radius_halvings += 1
                dt *= 0.5
                continue
            trace.candidates += 1
            candidate = MapField.project(f.values - dt * m.values, f.target, f.mesh)
            kc = K @ candidate.values
            d_e = 0.5 * float(np.vdot(candidate.values - f.values, kf + kc))
            if d_e <= ENERGY_SLACK:
                f, kf = candidate, kc
                increments.append(d_e)
                t += dt
                last_dt = dt
                streak += 1
                if streak >= GROW_AFTER:
                    dt = min(dt * GROW_FACTOR, dt_cap)
                    streak = 0
                break
            trace.energy_rejections += 1
            streak = 0
            dt *= 0.5
        else:  # no step accepted before dt fell below dt_min
            trace.terminated_by = "step_collapse"
            break

    e = energy(f)  # the one D-sum; a forward sum of increments would drift
    for s, d_e in zip(reversed(trace.samples), [*reversed(increments), 0.0]):
        s.energy = e
        e -= d_e
    _fill_distances(trace, f, ctl)
    trace.final_values = f.values
    return trace


def _fill_distances(trace: FlowTrace, f_final: MapField, ctl: FlowControl) -> None:
    """Distance to the limit in the configured norm, at checkpointed steps."""
    k, p = ctl.dist_norm
    for step, values in trace.checkpoints:
        # sample i is the state after i accepted steps
        diff = values - f_final.values
        trace.samples[step].dist_to_limit = sobolev_norm(f_final.mesh, diff, k, p)


def dissipation_check(trace: FlowTrace) -> float:
    """Max relative residual of dE/dt = -|M|^2 over interior trace samples."""
    if len(trace.samples) < 3:
        raise InsufficientSamples("need at least 3 samples")
    t = trace.times()
    e = trace.energies()
    g2 = trace.grad_norms() ** 2
    worst = 0.0
    for i in range(1, len(t) - 1):
        dt_span = t[i + 1] - t[i - 1]
        if dt_span <= 0:
            continue
        dedt = (e[i + 1] - e[i - 1]) / dt_span
        resid = abs(dedt + g2[i])
        if resid == 0.0:
            continue
        scale = max(g2[i], abs(dedt))
        if scale == 0.0:
            continue  # stationary: 0/0 counts as zero residual
        worst = max(worst, resid / scale)
    return worst
