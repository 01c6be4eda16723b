"""Projected negative gradient flow of the energy.

Explicit Euler with per-vertex reprojection, f' = pi(f - dt M(f)), under an
energy-decrease acceptance rule: a step is kept only if the energy does not
increase (up to 1e-12 absolute slack), otherwise dt is halved.  dt is also
halved while dt |M|_inf reaches the chart radius; the flow ends with
``step_collapse`` once dt falls below dt_min.  Five consecutive acceptances
grow dt by 1.25x, capped at 100 dt0; radius halvings keep the streak.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ChartRadiusExceeded, InsufficientSamples
from .fields import MapField, TangentField
from .meshes import row_dots, sobolev_norm
from .energy import energy, tension

__all__ = ["FlowControl", "FlowSample", "FlowTrace", "run_flow", "dissipation_check"]

ENERGY_SLACK = 1e-12
GROW_FACTOR = 1.25
GROW_AFTER = 5
GROW_CAP = 100.0


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

    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.samples])

    def energies(self) -> np.ndarray:
        return np.array([s.energy for s in self.samples])

    def grad_norms(self) -> np.ndarray:
        return np.array([s.grad_norm_l2 for s in self.samples])


def _step_with(f: MapField, m: TangentField, dt: float) -> MapField:
    """pi(f - dt M), the projected Euler step; run_flow guards dt |M|_inf."""
    return MapField.project(f.values - dt * m.values, f.target, f.mesh)


def run_flow(f0: MapField, control: FlowControl | None = None) -> FlowTrace:
    """Adaptive explicit flow; sample i is the state after i accepted steps."""
    ctl = control or FlowControl()
    if not ctl.dt0 > 0:  # NaN fails too
        raise ChartRadiusExceeded("dt0 must be positive")
    trace = FlowTrace()
    f = f0
    t = 0.0
    dt = ctl.dt0
    dt_cap = ctl.dt0 * GROW_CAP
    streak = 0
    accepted = 0
    last_dt = 0.0
    e_cur = energy(f)
    delta = f0.target.chart_radius()

    while True:
        m = tension(f)
        r = row_dots(m.values, m.values)  # one pass gives |M|_L2 and |M|_inf
        gn = math.sqrt(float(np.dot(f.mesh.area, r)))
        trace.samples.append(FlowSample(t, e_cur, gn, float("nan"), last_dt))
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
                dt *= 0.5
                continue
            candidate = _step_with(f, m, dt)
            e_new = energy(candidate)
            if e_new <= e_cur + ENERGY_SLACK:
                f = candidate
                e_cur = e_new
                t += dt
                last_dt = dt
                accepted += 1
                streak += 1
                if streak >= GROW_AFTER:
                    dt = min(dt * GROW_FACTOR, dt_cap)
                    streak = 0
                break
            streak = 0
            dt *= 0.5
        else:  # no step accepted before dt fell below dt_min
            trace.terminated_by = "step_collapse"
            break

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
