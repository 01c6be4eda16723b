"""Projected negative gradient flow of the energy.

Explicit Euler with per-vertex reprojection, f' = pi(f - dt M(f)), under an
energy-decrease acceptance rule: a candidate c is kept only if
dE = 1/2 (c - f).(K f + K c), exact for the quadratic energy, is at most
1e-12, otherwise dt is halved.  K c is the next tension's numerator, so each
candidate costs one sparse product.  dt is also halved while dt |M|_inf
reaches the chart radius; the flow ends with ``step_collapse`` once dt falls
below dt_min.  The first step is min(dt0, stable), stable = 0.95 of the
explicit stability limit 2/lambda_max, lambda_max = mesh.spectral_radius the
largest eigenvalue of K/area: beyond it the slack lets steps that no longer
converge pass.  Five consecutive acceptances grow dt by 1.25x up to stable;
radius halvings keep the streak.  A first step below dt_min is a
configuration error.

The trace is trace.csv's five columns, built once after the loop.  Its
energies are back-filled from one D-sum at the final map, E_n = E_{n+1} - dE_n,
and dist_to_limit is filled at the checkpointed steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .fields import MapField
from .meshes import row_dots, sobolev_norm
from .energy import energy

__all__ = ["FlowControl", "FlowTrace", "first_step", "run_flow"]

ENERGY_SLACK = 1e-12
GROW_FACTOR = 1.25
GROW_AFTER = 5
STABLE_FRACTION = 0.95  # of the explicit stability limit 2/lambda_max(K/area)


@dataclass
class FlowControl:
    dt0: float = 1e-4
    dt_min: float = 1e-12
    max_steps: int = 200_000
    max_time: float = math.inf
    grad_tol: float = 1e-9
    checkpoint_every: int = 100
    dist_k: int = 1  # dist_to_limit is the W^{dist_k, dist_p} norm
    dist_p: float = 2.0


@dataclass
class FlowTrace:
    """trace.csv's columns, row i the state after i accepted steps, and the run's record."""

    t: np.ndarray
    energy: np.ndarray
    grad_norm_l2: np.ndarray
    dist_to_limit: np.ndarray  # nan except at checkpointed steps
    dt: np.ndarray             # step that produced the row's state (0 for the initial one)
    terminated_by: str = ""
    checkpoints: list[tuple[int, MapField]] = field(default_factory=list)
    final: MapField | None = None
    candidates: int = 0
    energy_rejections: int = 0
    radius_halvings: int = 0
    dt_stable: float = math.nan  # the clamp dt grows up to


def first_step(mesh, control: FlowControl) -> tuple[float, float]:
    """(min(dt0, stable), stable); a first step below dt_min is a ConfigError."""
    stable = STABLE_FRACTION * 2.0 / mesh.spectral_radius
    dt = min(control.dt0, stable)
    if not dt >= control.dt_min:  # NaN and non-positive dt0 fail too
        raise ConfigError(f"[flow] dt_min = {control.dt_min} is above the first step {dt} = "
                          f"min(dt0 = {control.dt0}, 0.95 of the stability limit = {stable})")
    return dt, stable


def run_flow(f0: MapField, control: FlowControl | None = None) -> FlowTrace:
    """Adaptive explicit flow; row i of the trace is the state after i accepted steps."""
    ctl = control or FlowControl()
    dt, stable = first_step(f0.mesh, ctl)
    f, K, area = f0, f0.mesh.stiffness, f0.mesh.area
    t, streak = 0.0, 0
    candidates = rejections = halvings = 0
    times, grad_norms, dts = [], [], [0.0]
    increments: list[float] = []  # dE of each accepted step
    checkpoints: list[tuple[int, MapField]] = []
    kf = K @ f.values
    delta = f0.target.chart_radius()

    while True:
        m = f.target.tangent_project(f.values, kf / area[:, None])  # M(f) = dpi(f) Delta f
        r = row_dots(m, m)  # one pass gives |M|_L2 and |M|_inf
        gn = math.sqrt(float(np.dot(area, r)))
        times.append(t)
        grad_norms.append(gn)
        accepted = len(increments)
        if ctl.checkpoint_every > 0 and accepted % ctl.checkpoint_every == 0:
            checkpoints.append((accepted, f))  # each accepted f is a fresh array

        if gn <= ctl.grad_tol:
            terminated_by = "grad_norm_below"
            break
        if accepted >= ctl.max_steps:
            terminated_by = "max_steps"
            break
        if t >= ctl.max_time:
            terminated_by = "max_time"
            break

        sup = math.sqrt(float(r.max()))
        while dt > 0 and dt >= ctl.dt_min:
            if dt * sup >= delta:  # keep the displacement inside the chart radius
                halvings += 1
                dt *= 0.5
                continue
            candidates += 1
            candidate = MapField.project(f.values - dt * m, f.target, f.mesh)
            kc = K @ candidate.values
            d_e = 0.5 * float(np.vdot(candidate.values - f.values, kf + kc))
            if d_e <= ENERGY_SLACK:
                f, kf = candidate, kc
                increments.append(d_e)
                t += dt
                dts.append(dt)
                streak += 1
                if streak >= GROW_AFTER:
                    dt = min(dt * GROW_FACTOR, stable)
                    streak = 0
                break
            rejections += 1
            streak = 0
            dt *= 0.5
        else:  # no step accepted before dt fell below dt_min
            terminated_by = "step_collapse"
            break

    # the one D-sum; a forward sum of increments would drift
    energies = np.subtract.accumulate([energy(f), *reversed(increments)])[::-1]
    dist = np.full(len(times), math.nan)
    dist[[step for step, _ in checkpoints]] = [
        sobolev_norm(f.mesh, c.values - f.values, ctl.dist_k, ctl.dist_p) for _, c in checkpoints
    ]
    return FlowTrace(np.array(times), energies, np.array(grad_norms), dist, np.array(dts),
                     terminated_by, checkpoints, f, candidates, rejections, halvings, stable)
