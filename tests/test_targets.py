import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmonicflow import CliffordTorus, MapField, TangentField, TorusOfRevolution, UnitSphere
from harmonicflow.errors import (
    InvalidSpec,
    NonTangentInput,
    NotOnTarget,
    OutsideTubularNeighborhood,
)

from oracles import brute_force_torus_projection, fd_jacobian, fd_second_directional

ALL_TARGETS = [UnitSphere(3), UnitSphere(2), CliffordTorus(2), TorusOfRevolution(2.0, 0.5)]


def random_on_target(target, rng, count=1):
    x = rng.standard_normal((count, target.ambient_dim))
    if target.kind == "torus_rev":
        # seed points near the torus so the projection is single-valued
        base = np.array([2.0, 0.0, 0.5])
        x = base + 0.2 * x
    return target.project_to_target(x)


# ---------------------------------------------------------------------------
# projection

def test_sphere_projection_radial():
    s = UnitSphere(3)
    assert np.allclose(s.project_to_target(np.array([2.0, 0, 0])), [1, 0, 0])


def test_sphere_projection_fixes_on_target_point():
    s = UnitSphere(3)
    x = np.array([0.6, 0.8, 0.0])
    assert np.allclose(s.project_to_target(x), x, atol=1e-15)


# the last coordinate is the torus's z: z = inf passes both medial margins
@pytest.mark.parametrize("bad,coord", [
    pytest.param(bad, coord, id=f"{bad}{'' if coord == 0 else '-last'}")
    for coord in (0, -1) for bad in (np.nan, np.inf, -np.inf)
])
@pytest.mark.parametrize("target", ALL_TARGETS, ids=lambda t: t.kind + str(t.ambient_dim))
def test_projection_rejects_non_finite(target, bad, coord):
    x = random_on_target(target, np.random.default_rng(0), count=4)
    x[2, coord] = bad
    with pytest.raises(OutsideTubularNeighborhood):
        target.project_to_target(x)


# finite, but |x|^2 overflows: a radius of inf would pass 1e-12 and divide x to 0
@pytest.mark.parametrize("target,x", [
    pytest.param(UnitSphere(3), [1e200, 0, 0], id="sphere"),
    pytest.param(TorusOfRevolution(2.0, 0.5), [1e200, 0, 0], id="torus_rev"),
    pytest.param(CliffordTorus(2), [1e200, 0, 1, 0], id="clifford"),
])
def test_projection_rejects_overflowing_point(target, x):
    with np.errstate(over="ignore"), pytest.raises(OutsideTubularNeighborhood):
        target.project_to_target(np.array(x))


@pytest.mark.parametrize("target", ALL_TARGETS, ids=lambda t: t.kind + str(t.ambient_dim))
def test_projection_constructors_equal_checked_path(ico2, target):
    rng = np.random.default_rng(1)
    f = MapField(random_on_target(target, rng, ico2.vertex_count), target, ico2)
    x = f.values + 0.05 * rng.standard_normal(f.values.shape)
    g = MapField.project(x, target, ico2)
    checked = MapField(target.project_to_target(x), target, ico2)
    assert (g.target, g.mesh) == (target, ico2)
    assert np.array_equal(g.values, checked.values)
    v = rng.standard_normal(f.values.shape)
    u = TangentField.project(v, f)
    assert u.base is f
    assert np.array_equal(u.values, TangentField(target.tangent_project(f.values, v), f).values)


def test_torus_projection_example_and_brute_force():
    t = TorusOfRevolution(2.0, 0.5)
    x = np.array([3.0, 0.0, 0.0])
    y = t.project_to_target(x)
    assert np.allclose(y, [2.5, 0, 0], atol=1e-12)
    assert np.allclose(y, brute_force_torus_projection(x, 2.0, 0.5), atol=1e-4)


def test_torus_projection_random_matches_brute_force():
    t = TorusOfRevolution(2.0, 0.5)
    rng = np.random.default_rng(3)
    for _ in range(5):
        x = np.array([2.0, 0.0, 0.4]) + 0.25 * rng.standard_normal(3)
        assert np.allclose(
            t.project_to_target(x),
            brute_force_torus_projection(x, 2.0, 0.5),
            atol=1e-5,
        )


def test_clifford_projection_per_factor():
    c = CliffordTorus(2)
    y = c.project_to_target(np.array([2.0, 0.0, 0.0, 1.5]))
    assert np.allclose(y, [1, 0, 0, 1])


def test_projection_rejects_degenerate_points():
    # rejected before any division by a zero radius: no RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(OutsideTubularNeighborhood):
            UnitSphere(3).project_to_target(np.zeros(3))
        with pytest.raises(OutsideTubularNeighborhood):
            CliffordTorus(2).project_to_target(np.array([1.0, 0.0, 0.0, 0.0]))
        with pytest.raises(OutsideTubularNeighborhood):
            # on the symmetry axis: nearest point not unique
            TorusOfRevolution(2.0, 0.5).project_to_target(np.array([0.0, 0.0, 0.3]))
        with pytest.raises(OutsideTubularNeighborhood):
            # on the core circle
            TorusOfRevolution(2.0, 0.5).project_to_target(np.array([2.0, 0.0, 0.0]))


def test_projection_roundtrip_identity_on_target():
    rng = np.random.default_rng(0)
    for target in ALL_TARGETS:
        y = random_on_target(target, rng, 100)
        again = target.project_to_target(y)
        assert np.max(np.linalg.norm(again - y, axis=-1)) <= 1e-12


def test_tube_sampling_projects_onto_target():
    # every sampled point inside the tube projects to residual <= 1e-12
    rng = np.random.default_rng(1)
    for target in ALL_TARGETS:
        y = random_on_target(target, rng, 50)
        offsets = rng.standard_normal(y.shape)
        offsets /= np.linalg.norm(offsets, axis=-1, keepdims=True)
        x = y + 0.9 * target.tubular_radius() * rng.uniform(0, 1, (50, 1)) * offsets
        x = x[target.distance(x) < target.tubular_radius()]
        proj = target.project_to_target(x)
        assert np.max(target.distance(proj)) <= 1e-12


# ---------------------------------------------------------------------------
# tubular radius

def test_tubular_radii():
    assert UnitSphere(4).tubular_radius() == 1.0
    assert CliffordTorus(3).tubular_radius() == 1.0
    assert TorusOfRevolution(2.0, 0.5).tubular_radius() == 0.5
    # the axis limits the radius when the tube is fat
    assert TorusOfRevolution(1.2, 0.8).tubular_radius() == pytest.approx(0.4)


def test_two_sided_normal_consistency():
    # y +- s*normal projects back to y for s below the tubular radius
    rng = np.random.default_rng(2)
    t = TorusOfRevolution(2.0, 0.5)
    y = random_on_target(t, rng, 40)
    P = t.tangent_projector(y)
    normal_dir = np.eye(3) - P  # rank one: columns span the normal line
    nu = normal_dir[..., 0]
    bad = np.linalg.norm(nu, axis=-1) < 0.5
    nu[bad] = normal_dir[bad][..., 1]
    nu /= np.linalg.norm(nu, axis=-1, keepdims=True)
    for s in (0.2, 0.4):
        for sign in (1.0, -1.0):
            back = t.project_to_target(y + sign * s * 0.99 * nu)
            assert np.max(np.linalg.norm(back - y, axis=-1)) <= 1e-9


# ---------------------------------------------------------------------------
# tangent projector

def test_projector_pole_example():
    s = UnitSphere(3)
    P = s.tangent_projector(np.array([0.0, 0.0, 1.0]))
    assert np.allclose(P, np.diag([1.0, 1.0, 0.0]))


def test_projector_is_i_minus_yyt_on_sphere():
    s = UnitSphere(3)
    rng = np.random.default_rng(4)
    y = random_on_target(s, rng, 20)
    P = s.tangent_projector(y)
    expect = np.eye(3) - np.einsum("vi,vj->vij", y, y)
    assert np.array_equal(P, expect)


def test_projector_matches_fd_jacobian_torus():
    t = TorusOfRevolution(2.0, 0.5)
    y = t.project_to_target(np.array([2.5, 0.0, 0.0]))
    J = fd_jacobian(t._project, y, h=1e-6)
    J = 0.5 * (J + J.T)
    assert np.allclose(J, t.tangent_projector(y), atol=1e-8)
    assert np.allclose(np.sort(np.linalg.eigvalsh(t.tangent_projector(y))), [0, 1, 1], atol=1e-12)


def test_projector_idempotent_symmetric_rank():
    rng = np.random.default_rng(5)
    for target in ALL_TARGETS:
        y = random_on_target(target, rng, 1000)
        P = target.tangent_projector(y)
        PP = np.einsum("vij,vjk->vik", P, P)
        assert np.max(np.linalg.norm(PP - P, axis=(1, 2))) <= 1e-10
        assert np.max(np.linalg.norm(P - P.transpose(0, 2, 1), axis=(1, 2))) <= 1e-10
        trace = np.einsum("vii->v", P)
        assert np.allclose(trace, target.intrinsic_dim, atol=1e-9)


def test_projector_kills_normals_fixes_tangents():
    rng = np.random.default_rng(6)
    for target in ALL_TARGETS:
        y = random_on_target(target, rng, 50)
        P = target.tangent_projector(y)
        z = rng.standard_normal(y.shape)
        tangent = np.einsum("vij,vj->vi", P, z)
        normal = z - tangent
        assert np.max(np.abs(np.einsum("vij,vj->vi", P, tangent) - tangent)) <= 1e-12
        assert np.max(np.abs(np.einsum("vij,vj->vi", P, normal))) <= 1e-12
        # the closed form dpi(y) v that P is built from
        t = target.tangent_project(y, z)
        size = np.linalg.norm(z, axis=-1)
        assert np.all(np.linalg.norm(t - tangent, axis=-1) <= 1e-15 * size)
        assert np.max(np.abs(target.tangent_project(y, t) - t)) <= 1e-12
        assert np.max(np.abs(target.tangent_project(y, normal))) <= 1e-12
        # batched: y (V, 1, n) broadcast against k vectors per vertex (V, k, n)
        frames = rng.standard_normal((y.shape[0], 3, target.ambient_dim))
        batched = target.tangent_project(y[:, None, :], frames)
        assert batched.shape == frames.shape
        for j in range(3):
            assert np.array_equal(batched[:, j], target.tangent_project(y, frames[:, j]))


def test_projector_requires_on_target():
    with pytest.raises(NotOnTarget):
        UnitSphere(3).tangent_projector(np.array([1.1, 0.0, 0.0]))


@pytest.mark.parametrize("target", ALL_TARGETS, ids=lambda t: t.kind)
def test_require_on_target_rejects_non_finite(target):
    y = random_on_target(target, np.random.default_rng(3), count=4)
    for bad in (np.nan, np.inf):
        y_bad = y.copy()
        y_bad[2, 0] = bad
        with pytest.raises(NotOnTarget):
            target.require_on_target(y_bad)


# ---------------------------------------------------------------------------
# second fundamental form and projection Hessian

def test_sphere_sff_is_inner_product_times_point():
    s = UnitSphere(3)
    rng = np.random.default_rng(7)
    y = random_on_target(s, rng, 30)
    P = s.tangent_projector(y)
    v = np.einsum("vij,vj->vi", P, rng.standard_normal(y.shape))
    w = np.einsum("vij,vj->vi", P, rng.standard_normal(y.shape))
    A = s.second_fundamental_form(y, v, w)
    expect = np.sum(v * w, axis=-1, keepdims=True) * y
    assert np.max(np.linalg.norm(A - expect, axis=-1)) <= 1e-12


def test_sff_zero_on_zero_vector():
    s = UnitSphere(3)
    y = np.array([0.0, 0.0, 1.0])
    v = np.array([1.0, 0.0, 0.0])
    assert np.allclose(s.second_fundamental_form(y, v, np.zeros(3)), 0.0)


def test_sff_orthogonal_tangents_at_pole():
    s = UnitSphere(3)
    out = s.second_fundamental_form(
        np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])
    )
    assert np.allclose(out, 0.0, atol=1e-15)


def hessian_batch(target, rng):
    """Points on the target with direction pairs (v, w): random points; on the
    torus of revolution also both equators and the tube's top and bottom; on
    the Clifford torus also one pair confined to each circle factor."""
    y = random_on_target(target, rng, 12)
    if target.kind == "torus_rev":
        R, r = target.major_radius, target.minor_radius
        y = np.concatenate([y, [
            [R + r, 0, 0], [0, -(R + r), 0],  # outer equator
            [R - r, 0, 0], [0, R - r, 0],  # inner equator
            [R, 0, r], [0, -R, -r],  # top and bottom of the tube
        ]])
    v = rng.standard_normal(y.shape)
    w = rng.standard_normal(y.shape)
    if target.kind == "clifford_torus":
        factor = np.repeat(np.eye(target.circle_count), 2, axis=1)  # (m, 2m)
        y = np.concatenate([y, y[: len(factor)]])
        v = np.concatenate([v, factor * v[: len(factor)]])
        w = np.concatenate([w, factor * w[: len(factor)]])
    return y, v, w


def test_hessian_of_projection_matches_fd_all_targets():
    rng = np.random.default_rng(8)
    for target in ALL_TARGETS:
        y, v, w = hessian_batch(target, rng)
        d2 = target.ambient_hessian_of_projection(y, v, w)
        fd = fd_second_directional(target._project, y, v, w, h=1e-4)
        scale = np.maximum(1.0, np.linalg.norm(d2, axis=-1))
        assert np.all(np.linalg.norm(d2 - fd, axis=-1) <= 1e-6 * scale), target


def test_sff_equals_minus_projection_hessian_fd():
    # sign contract: A(v, w) = -d2pi(v, w) on tangent inputs, FD oracle
    rng = np.random.default_rng(9)
    for target in ALL_TARGETS:
        y, v, w = hessian_batch(target, rng)
        v, w = target.tangent_project(y, v), target.tangent_project(y, w)
        A = target.second_fundamental_form(y, v, w)
        fd = fd_second_directional(target._project, y, v, w, h=1e-4)
        scale = np.maximum(1.0, np.linalg.norm(A, axis=-1))
        assert np.all(np.linalg.norm(fd + A, axis=-1) <= 1e-6 * scale), target


def test_sff_normal_valued_and_symmetric_bilinear():
    rng = np.random.default_rng(10)
    for target in ALL_TARGETS:
        y = random_on_target(target, rng, 25)
        P = target.tangent_projector(y)
        v = np.einsum("vij,vj->vi", P, rng.standard_normal(y.shape))
        w = np.einsum("vij,vj->vi", P, rng.standard_normal(y.shape))
        A_vw = target.second_fundamental_form(y, v, w)
        A_wv = target.second_fundamental_form(y, w, v)
        assert np.max(np.linalg.norm(np.einsum("vij,vj->vi", P, A_vw), axis=-1)) <= 1e-9
        assert np.max(np.linalg.norm(A_vw - A_wv, axis=-1)) <= 1e-12
        A_2v = target.second_fundamental_form(y, 2.0 * v, w)
        assert np.max(np.linalg.norm(A_2v - 2.0 * A_vw, axis=-1)) <= 1e-12


def test_sphere_normal_direction_hessian_is_zero():
    s = UnitSphere(3)
    y = np.array([0.0, 1.0, 0.0])
    d2 = s.ambient_hessian_of_projection(y, y, y)
    fd = fd_second_directional(s._project, y, y, y, h=1e-4)
    assert np.linalg.norm(d2) <= 1e-12
    assert np.linalg.norm(fd) <= 1e-6


def test_sff_rejects_non_tangent_input():
    s = UnitSphere(3)
    y = np.array([0.0, 0.0, 1.0])
    with pytest.raises(NonTangentInput):
        s.second_fundamental_form(y, np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]))


# ---------------------------------------------------------------------------
# construction validation

def test_invalid_target_parameters():
    with pytest.raises(InvalidSpec):
        TorusOfRevolution(0.5, 0.5)
    with pytest.raises(InvalidSpec):
        TorusOfRevolution(np.inf, 0.5)
    with pytest.raises(InvalidSpec):
        UnitSphere(1)


@settings(max_examples=30, deadline=None)
@given(
    x=st.lists(st.floats(-3, 3), min_size=3, max_size=3),
    y=st.lists(st.floats(-3, 3), min_size=3, max_size=3),
)
def test_sphere_projection_idempotent_property(x, y):
    s = UnitSphere(3)
    p = np.array(x) + np.array([2.0, 0, 0])  # keep away from the origin
    if np.linalg.norm(p) < 1e-3:
        return
    proj = s.project_to_target(p)
    assert abs(np.linalg.norm(proj) - 1.0) <= 1e-12
    assert np.linalg.norm(s.project_to_target(proj) - proj) <= 1e-12
