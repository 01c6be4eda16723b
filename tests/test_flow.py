import math

import numpy as np
import pytest

from harmonicflow import (
    FlowControl,
    MapField,
    build_circle,
    constant_map,
    degree_circle_map,
    dissipation_check,
    energy,
    perturbed_constant_map,
    run_flow,
    tension,
)
from harmonicflow.errors import ChartRadiusExceeded, InsufficientSamples
from harmonicflow.flow import FlowSample, FlowTrace, _step_with
from harmonicflow.targets import EmbeddedTarget
from harmonicflow.meshes import l2_norm
from harmonicflow.rng import stream


def test_step_leaves_constant_map_fixed(ico2, s2):
    f = constant_map(ico2, s2)
    out = _step_with(f, tension(f), 0.01)
    assert np.max(np.abs(out.values - f.values)) <= 1e-12


def test_step_leaves_circle_identity_fixed(circle256, s1):
    f = degree_circle_map(circle256, s1, 1)
    out = _step_with(f, tension(f), 0.01)
    assert np.max(np.abs(out.values - f.values)) <= 1e-8


def test_step_decreases_energy_near_constant(ico2, s2):
    f = perturbed_constant_map(ico2, s2, 0.1, stream(1, "flow"))
    assert energy(_step_with(f, tension(f), 0.01)) < energy(f)


def test_step_radius_guard(ico2, s2):
    f = perturbed_constant_map(ico2, s2, 0.1, stream(2, "flow"))
    sup = tension(f).linf()
    assert 1.0 >= s2.chart_radius()  # dt0 = 1 / sup starts outside the radius
    tr = run_flow(f, FlowControl(dt0=1.0 / sup, max_steps=1))
    assert len(tr.samples) == 2
    assert tr.samples[1].dt * sup < s2.chart_radius()


def test_run_flow_terminates_immediately_at_constant(ico2, s2):
    tr = run_flow(constant_map(ico2, s2), FlowControl(grad_tol=1e-9))
    assert tr.terminated_by == "grad_norm_below"
    assert len(tr.samples) == 1


def test_run_flow_converges_in_constant_basin(ico2, s2):
    f0 = perturbed_constant_map(ico2, s2, 0.1, stream(3, "flow"))
    tr = run_flow(f0, FlowControl(dt0=1e-5, grad_tol=1e-9))
    assert tr.terminated_by == "grad_norm_below"
    assert tr.energies()[-1] <= 1e-8
    # the limit is a constant map
    fin = tr.final_values
    assert np.max(np.linalg.norm(fin - fin.mean(axis=0), axis=1)) <= 1e-6


def test_trace_invariants(ico2, s2):
    f0 = perturbed_constant_map(ico2, s2, 0.1, stream(4, "flow"))
    tr = run_flow(f0, FlowControl(dt0=1e-5, max_steps=500))
    t = tr.times()
    e = tr.energies()
    assert np.all(np.diff(t) > 0)
    assert np.all(np.diff(e) <= 1e-12)


def test_small_energy_degree_zero_circle_goes_constant(s1):
    # low-energy regime: no topology forces the flow away from constants
    mesh = build_circle(64)
    f0 = perturbed_constant_map(mesh, s1, 0.2, stream(5, "flow"))
    tr = run_flow(f0, FlowControl(dt0=1e-4, grad_tol=1e-10))
    assert tr.terminated_by == "grad_norm_below"
    assert tr.energies()[-1] <= 1e-10


def test_flow_equivariant_under_target_rotation(ico2, s2):
    th = 0.3
    Q = np.array(
        [[math.cos(th), -math.sin(th), 0], [math.sin(th), math.cos(th), 0], [0, 0, 1.0]]
    )
    f = perturbed_constant_map(ico2, s2, 0.2, stream(6, "flow"))
    fq = MapField(f.values @ Q.T, s2, ico2)
    a = _step_with(f, tension(f), 1e-3).values @ Q.T
    b = _step_with(fq, tension(fq), 1e-3).values
    assert np.max(np.abs(a - b)) <= 1e-12


def test_step_collapse_termination(ico2, s2):
    f0 = perturbed_constant_map(ico2, s2, 0.1, stream(7, "flow"))
    # dt0 too large to ever be accepted, and no room to halve
    ctl = FlowControl(dt0=0.2, dt_min=0.15, max_steps=10)
    tr = run_flow(f0, ctl)
    assert tr.terminated_by == "step_collapse"


def test_radius_guard_at_dt_min_is_step_collapse(ico2, s2):
    f0 = perturbed_constant_map(ico2, s2, 0.1, stream(7, "flow"))
    # halving 4 -> 2 drops below dt_min while 2 |M|_inf is still outside the radius
    assert 2.0 * tension(f0).linf() >= s2.chart_radius()
    tr = run_flow(f0, FlowControl(dt0=4.0, dt_min=3.0))
    assert tr.terminated_by == "step_collapse"
    assert len(tr.samples) == 1


@pytest.mark.parametrize("dt0", [0.0, -1e-3, math.nan])
def test_run_flow_rejects_non_positive_dt0(ico2, s2, dt0):
    f0 = perturbed_constant_map(ico2, s2, 0.1, stream(7, "flow"))
    with pytest.raises(ChartRadiusExceeded):
        run_flow(f0, FlowControl(dt0=dt0))


def test_run_flow_makes_no_per_candidate_checks(ico2, s2, monkeypatch):
    f0 = perturbed_constant_map(ico2, s2, 0.1, stream(12, "flow"))
    calls = []
    for name in ("require_on_target", "require_tangent"):
        original = getattr(EmbeddedTarget, name)

        def counted(self, *args, _name=name, _original=original):
            calls.append(_name)
            return _original(self, *args)

        monkeypatch.setattr(EmbeddedTarget, name, counted)
    tr = run_flow(f0, FlowControl(dt0=1e-5, max_steps=20))
    assert len(tr.samples) - 1 == 20
    assert calls == []  # every candidate and tension is built by a projection


def test_max_steps_termination(ico2, s2):
    f0 = perturbed_constant_map(ico2, s2, 0.1, stream(8, "flow"))
    tr = run_flow(f0, FlowControl(dt0=1e-5, max_steps=5))
    assert tr.terminated_by == "max_steps"
    assert len(tr.samples) - 1 == 5


def test_max_time_termination(ico2, s2):
    f0 = perturbed_constant_map(ico2, s2, 0.1, stream(9, "flow"))
    tr = run_flow(f0, FlowControl(dt0=1e-4, max_time=5e-4, max_steps=10_000))
    assert tr.terminated_by == "max_time"


def test_dist_to_limit_filled_at_checkpoints(ico2, s2):
    f0 = perturbed_constant_map(ico2, s2, 0.1, stream(10, "flow"))
    tr = run_flow(f0, FlowControl(dt0=1e-5, max_steps=250, checkpoint_every=100))
    dists = np.array([s.dist_to_limit for s in tr.samples])
    filled = np.isfinite(dists)
    assert filled.sum() == len(tr.checkpoints)
    # distance to the limit shrinks along the flow
    vals = dists[filled]
    assert vals[-1] <= vals[0]


# ---------------------------------------------------------------------------
# dissipation identity

def fixed_dt_trace(f, dt, steps):
    tr = FlowTrace()
    t = 0.0
    for _ in range(steps):
        m = tension(f)
        tr.samples.append(
            FlowSample(t, energy(f), l2_norm(f.mesh, m.values), float("nan"), dt)
        )
        f = _step_with(f, m, dt)
        t += dt
    return tr


def test_dissipation_stationary_trace_is_zero(ico2, s2):
    tr = fixed_dt_trace(constant_map(ico2, s2), 1e-3, 5)
    assert dissipation_check(tr) == 0.0


def test_dissipation_small_and_first_order(ico2, s2):
    f0 = perturbed_constant_map(ico2, s2, 0.1, stream(11, "flow"))
    r_coarse = dissipation_check(fixed_dt_trace(f0, 4e-3, 60))
    r_fine = dissipation_check(fixed_dt_trace(f0, 2e-3, 120))
    assert r_coarse <= 0.05
    assert 1.5 <= r_coarse / r_fine <= 3.0


def test_dissipation_needs_three_samples(ico2, s2):
    tr = fixed_dt_trace(constant_map(ico2, s2), 1e-3, 2)
    with pytest.raises(InsufficientSamples):
        dissipation_check(tr)
