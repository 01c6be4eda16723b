import numpy as np
import pytest

from harmonicflow import (
    CliffordTorus,
    MapField,
    TorusOfRevolution,
    bilipschitz_estimate,
    build_flat_torus,
    chart_pull,
    chart_push,
    constant_map,
    identity_sphere_map,
    random_tangent_field,
)
from harmonicflow.errors import ChartRadiusExceeded
from harmonicflow.rng import stream

from oracles import linf, sphere_chart_inverse


def scaled_tangent(f, seed, sup):
    u = random_tangent_field(f, stream(seed, "chart-test"))
    u *= sup / linf(u)
    return u


def test_push_zero_is_identity(ico2, s2):
    f = identity_sphere_map(ico2, s2)
    u = np.zeros_like(f.values)
    out = chart_push(f, u)
    assert np.max(np.abs(out.values - f.values)) <= 1e-12


def test_push_constant_at_pole_closed_form(ico2, s2):
    f = constant_map(ico2, s2, np.array([0.0, 0.0, 1.0]))
    eps = 0.3
    u = np.tile([eps, 0.0, 0.0], (ico2.vertex_count, 1))
    out = chart_push(f, u)
    expect = np.array([eps, 0.0, 1.0]) / np.sqrt(1 + eps**2)
    assert np.max(np.abs(out.values - expect)) <= 1e-14


def test_pull_same_map_is_zero(ico2, s2):
    f = identity_sphere_map(ico2, s2)
    u = chart_pull(f, f)
    assert np.max(np.abs(u)) <= 1e-12


def test_pull_matches_sphere_closed_form(ico2, s2):
    f = identity_sphere_map(ico2, s2)
    u = scaled_tangent(f, 1, 0.2)
    f1 = chart_push(f, u)
    got = chart_pull(f, f1)
    oracle = sphere_chart_inverse(f.values, f1.values)
    assert np.max(np.linalg.norm(got - oracle, axis=1)) <= 1e-14


@pytest.mark.parametrize("target_kind", ["sphere", "torus_rev", "torus_rev_inner", "clifford"])
def test_roundtrip_both_ways(target_kind, ico2, s2):
    if target_kind == "sphere":
        f = identity_sphere_map(ico2, s2)
    elif target_kind.startswith("torus_rev"):  # outer or inner (saddle) equator
        x = 2.5 if target_kind == "torus_rev" else 1.5
        f = constant_map(ico2, TorusOfRevolution(2.0, 0.5), np.array([x, 0.0, 0.0]))
    else:
        mesh = build_flat_torus(12, 12)
        t = mesh.points[:, 0]
        v = mesh.points[:, 1]
        vals = np.stack([np.cos(t), np.sin(t), np.cos(v), np.sin(v)], axis=1)
        f = MapField(vals, CliffordTorus(2), mesh)
    for frac in (0.5, 0.99):  # of the chart radius, up to its edge
        u = scaled_tangent(f, 2, frac * f.target.chart_radius())
        f1 = chart_push(f, u)
        back = chart_pull(f, f1)
        assert np.max(np.linalg.norm(back - u, axis=1)) <= 1e-14
        again = chart_push(f, back)
        assert np.max(np.linalg.norm(again.values - f1.values, axis=1)) <= 1e-14


def test_push_radius_guard(ico2, s2):
    f = constant_map(ico2, s2)
    u = scaled_tangent(f, 3, 0.6)  # >= delta0/2 = 0.5
    with pytest.raises(ChartRadiusExceeded):
        chart_push(f, u)


def test_pull_radius_guard(ico2, s2):
    f = constant_map(ico2, s2, np.array([0.0, 0.0, 1.0]))
    g = constant_map(ico2, s2, np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ChartRadiusExceeded):
        chart_pull(f, g)


def test_c4_approaches_one_at_small_radius(ico2, s2):
    f = identity_sphere_map(ico2, s2)
    rep = bilipschitz_estimate(f, 1e-4, 16, seed=3)
    assert rep.c4_estimate <= 1.0 + 1e-2
    assert rep.c4_estimate >= 1.0
    assert rep.sample_count == 16


def test_c4_bounded_by_two_at_working_radius(ico2, s2):
    f = identity_sphere_map(ico2, s2)
    rep = bilipschitz_estimate(f, 0.1 * s2.tubular_radius(), 32, seed=3)
    assert rep.c4_estimate <= 2.0
    assert rep.max_roundtrip_error <= 1e-9


def test_c4_monotone_in_radius(ico2, s2):
    f = identity_sphere_map(ico2, s2)
    estimates = [
        bilipschitz_estimate(f, r, 16, seed=5).c4_estimate
        for r in (1e-3, 1e-2, 1e-1)
    ]
    assert estimates[0] <= estimates[1] + 1e-9
    assert estimates[1] <= estimates[2] + 1e-9


def test_bilipschitz_radius_guard(ico2, s2):
    f = constant_map(ico2, s2)
    with pytest.raises(ChartRadiusExceeded):
        bilipschitz_estimate(f, 0.5, 4)


def test_constant_map_geodesic_ratio_closed_form(ico2, s2):
    # constant tangent of length s at the pole: |u| / |f - pi(f + u)| follows
    # the chordal formula |f - f1|^2 = 2 (1 - 1/sqrt(1+s^2))
    f = constant_map(ico2, s2, np.array([0.0, 0.0, 1.0]))
    s = 0.3
    u = np.tile([s, 0.0, 0.0], (ico2.vertex_count, 1))
    f1 = chart_push(f, u)
    num = np.linalg.norm(u[0])
    den = np.linalg.norm(f.values[0] - f1.values[0])
    expect = s / np.sqrt(2.0 * (1.0 - 1.0 / np.sqrt(1 + s * s)))
    assert num / den == pytest.approx(expect, rel=1e-12)
