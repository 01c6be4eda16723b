import dataclasses
import math

import numpy as np
import pytest

from harmonicflow import (
    FlowControl,
    MapField,
    build_circle,
    constant_map,
    degree_circle_map,
    energy,
    identity_sphere_map,
    perturbed_constant_map,
    random_tangent_field,
    run_flow,
    tension,
)
import harmonicflow.flow as flow_module
from harmonicflow.errors import ConfigError
from harmonicflow.flow import FlowTrace
from harmonicflow.targets import EmbeddedTarget, TorusOfRevolution
from harmonicflow.meshes import l2_norm
from harmonicflow.rng import stream

from oracles import InsufficientSamples, dissipation_check, linf


def _step_with(f, m, dt):
    """pi(f - dt M), run_flow's projected Euler step."""
    return MapField.project(f.values - dt * m, f.target, f.mesh)


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


def rough_map(mesh, target, seed):
    """pi of a Gaussian per vertex: |M|_inf of about 40 on ico2, where the
    stability clamp keeps dt below 0.016."""
    x = stream(seed, "flow").standard_normal((mesh.vertex_count, target.ambient_dim))
    return MapField.project(x, target, mesh)


def test_step_radius_guard(ico2, s2):
    f = rough_map(ico2, s2, 16)
    sup = linf(tension(f))
    assert 0.015 * sup >= s2.chart_radius()  # dt0 starts outside the radius
    tr = run_flow(f, FlowControl(dt0=0.015, max_steps=1))
    assert len(tr.t) == 2
    assert tr.radius_halvings == 1
    assert tr.dt[1] * sup < s2.chart_radius()


def test_run_flow_terminates_immediately_at_constant(ico2, s2):
    f0 = constant_map(ico2, s2)
    tr = run_flow(f0, FlowControl(grad_tol=1e-9))
    assert tr.terminated_by == "grad_norm_below"
    assert len(tr.t) == 1
    assert tr.final is f0  # no step accepted: the flow ends where it began


def test_run_flow_converges_in_constant_basin(ico2, s2):
    f0 = perturbed_constant_map(ico2, s2, 0.1, stream(3, "flow"))
    tr = run_flow(f0, FlowControl(dt0=1e-5, grad_tol=1e-9))
    assert tr.terminated_by == "grad_norm_below"
    assert tr.energy[-1] <= 1e-8
    # the limit is a constant map
    fin = tr.final.values
    assert np.max(np.linalg.norm(fin - fin.mean(axis=0), axis=1)) <= 1e-6


def test_trace_invariants(ico2, s2):
    f0 = perturbed_constant_map(ico2, s2, 0.1, stream(4, "flow"))
    tr = run_flow(f0, FlowControl(dt0=1e-5, max_steps=500))
    assert np.all(np.diff(tr.t) > 0)
    assert np.all(np.diff(tr.energy) <= 1e-12)
    assert np.array_equal(np.cumsum(tr.dt), tr.t)  # t accumulates the accepted steps


def test_small_energy_degree_zero_circle_goes_constant(s1):
    # low-energy regime: no topology forces the flow away from constants
    mesh = build_circle(64)
    f0 = perturbed_constant_map(mesh, s1, 0.2, stream(5, "flow"))
    tr = run_flow(f0, FlowControl(dt0=1e-4, grad_tol=1e-10))
    assert tr.terminated_by == "grad_norm_below"
    assert tr.energy[-1] <= 1e-10


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


def test_step_collapse_termination(ico2, s2, monkeypatch):
    f0 = perturbed_constant_map(ico2, s2, 0.1, stream(7, "flow"))
    # an energy test no candidate passes: 1e-3, 5e-4, 2.5e-4 and 1.25e-4 are
    # rejected, and the next halving falls below dt_min
    monkeypatch.setattr(flow_module, "ENERGY_SLACK", -math.inf)
    tr = run_flow(f0, FlowControl(dt0=1e-3, dt_min=1e-4, max_steps=10))
    assert tr.terminated_by == "step_collapse"
    assert len(tr.t) == 1
    assert (tr.candidates, tr.energy_rejections, tr.radius_halvings) == (4, 4, 0)


def test_radius_guard_at_dt_min_is_step_collapse(ico2, s2):
    f0 = rough_map(ico2, s2, 16)
    # the guard halves 0.015 below dt_min before any candidate is tried
    assert 0.015 * linf(tension(f0)) >= s2.chart_radius()
    tr = run_flow(f0, FlowControl(dt0=0.015, dt_min=0.01))
    assert tr.terminated_by == "step_collapse"
    assert len(tr.t) == 1
    assert (tr.radius_halvings, tr.candidates) == (1, 0)


@pytest.mark.parametrize("dt0", [0.0, -1e-3, math.nan])
def test_run_flow_rejects_non_positive_dt0(ico2, s2, dt0):
    f0 = perturbed_constant_map(ico2, s2, 0.1, stream(7, "flow"))
    with pytest.raises(ConfigError, match="dt_min"):
        run_flow(f0, FlowControl(dt0=dt0))


def test_run_flow_rejects_dt_min_above_first_step(ico2, s2):
    # the first step is min(dt0, 0.95 * 2/lambda_G) = 1e-3: no step could be tried
    f0 = perturbed_constant_map(ico2, s2, 0.1, stream(7, "flow"))
    with pytest.raises(ConfigError, match=r"dt_min = 0\.05 .*dt0 = 0\.001.*stability limit"):
        run_flow(f0, FlowControl(dt0=1e-3, dt_min=0.05))


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
    assert len(tr.t) - 1 == 20
    assert calls == []  # every candidate and tension is built by a projection


def test_max_steps_termination(ico2, s2):
    f0 = perturbed_constant_map(ico2, s2, 0.1, stream(8, "flow"))
    tr = run_flow(f0, FlowControl(dt0=1e-5, max_steps=5))
    assert tr.terminated_by == "max_steps"
    assert len(tr.t) - 1 == 5


def test_max_time_termination(ico2, s2):
    f0 = perturbed_constant_map(ico2, s2, 0.1, stream(9, "flow"))
    tr = run_flow(f0, FlowControl(dt0=1e-4, max_time=5e-4, max_steps=10_000))
    assert tr.terminated_by == "max_time"


def test_dist_to_limit_filled_at_checkpoints(ico2, s2):
    f0 = perturbed_constant_map(ico2, s2, 0.1, stream(10, "flow"))
    tr = run_flow(f0, FlowControl(dt0=1e-5, max_steps=250, checkpoint_every=100))
    filled = np.isfinite(tr.dist_to_limit)
    assert np.flatnonzero(filled).tolist() == [step for step, _ in tr.checkpoints]
    # distance to the limit shrinks along the flow
    vals = tr.dist_to_limit[filled]
    assert vals[-1] <= vals[0]


def test_dt_stays_below_stability_limit_at_rounding_floor():
    # circle64 into the torus of revolution, from the parallel at tube angle 2.8:
    # once E - E_inf is below the energy slack only dt < 2/lambda_max keeps
    # |M| from climbing back up (to 5.6e-5 with dt grown to 1e-2)
    mesh, tgt = build_circle(64), TorusOfRevolution(2.0, 0.5)
    theta, a = mesh.points[:, 0], 2.8
    rho = tgt.major_radius + tgt.minor_radius * math.cos(a)
    z = np.full_like(theta, tgt.minor_radius * math.sin(a))
    f0 = MapField(np.stack([rho * np.cos(theta), rho * np.sin(theta), z], axis=1), tgt, mesh)
    tr = run_flow(f0, FlowControl(dt0=1e-4, grad_tol=1e-14, max_time=40,
                                  checkpoint_every=0))
    g = tr.grad_norm_l2
    assert np.max(g / np.minimum.accumulate(g)) <= 10.0


# ---------------------------------------------------------------------------
# energy by increments

@pytest.mark.parametrize("h", [1e-6, 1e-4, 1e-2, 1e-1])
@pytest.mark.parametrize("start", ["perturbed_constant", "identity"])
def test_energy_increment_is_exact(ico2, s2, start, h):
    # dE = 1/2 (c - f).(K f + K c), the flow's acceptance test, against two D-sums
    f = (perturbed_constant_map(ico2, s2, 0.1, stream(13, "flow"))
         if start == "perturbed_constant" else identity_sphere_map(ico2, s2))
    kf = ico2.stiffness @ f.values
    for seed in range(15):
        u = random_tangent_field(f, stream(seed, "increment"))
        c = MapField.project(f.values + h * u / np.max(np.linalg.norm(u, axis=1)), s2, ico2)
        d_e = 0.5 * np.vdot(c.values - f.values, kf + ico2.stiffness @ c.values)
        assert abs(d_e - (energy(c) - energy(f))) <= 1e-14 * energy(f)


def test_trace_energies_match_checkpoint_d_sums(ico3, s2):
    # back-filled from one D-sum at the final map, E_n = E_{n+1} - dE_n
    f0 = perturbed_constant_map(ico3, s2, 0.1, stream(1, "initial-map"))
    tr = run_flow(f0, FlowControl(dt0=1e-5, grad_tol=1e-9, checkpoint_every=15))
    e0 = energy(f0)
    assert len(tr.checkpoints) > 90
    for step, f in tr.checkpoints:
        e = energy(f)
        err = abs(tr.energy[step] - e)
        assert err <= 1e-15 * e0 and err <= 1e-7 * e


class CountingProducts:
    """A sparse matrix that counts its products ``A @ x``."""

    def __init__(self, matrix):
        self.matrix, self.products = matrix, 0

    def __matmul__(self, x):
        self.products += 1
        return self.matrix @ x

    def __getattr__(self, name):
        return getattr(self.matrix, name)


def test_run_flow_makes_one_stiffness_product_per_candidate(ico2, s2):
    K, D = CountingProducts(ico2.stiffness), CountingProducts(ico2.diff)
    mesh = dataclasses.replace(ico2, stiffness=K, diff=D)
    mesh.__dict__["spectral_radius"] = ico2.spectral_radius  # count the flow's products, not the clamp's solve
    f0 = rough_map(mesh, s2, 16)
    tr = run_flow(f0, FlowControl(dt0=0.015, max_steps=300, checkpoint_every=0))
    assert tr.candidates >= len(tr.t) - 1 == 300
    assert tr.radius_halvings > 0
    assert (K.products, D.products) == (tr.candidates + 1, 1)


# ---------------------------------------------------------------------------
# dissipation identity

def fixed_dt_trace(f, dt, steps):
    rows, t = [], 0.0
    for _ in range(steps):
        m = tension(f)
        rows.append((t, energy(f), l2_norm(f.mesh, m), math.nan, dt))
        f = _step_with(f, m, dt)
        t += dt
    return FlowTrace(*np.array(rows).T)


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
