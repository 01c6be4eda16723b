import math

import numpy as np
import pytest

from harmonicflow import (
    MapField,
    TangentField,
    build_circle,
    constant_map,
    degree_circle_map,
    energy,
    gradient_pairing_check,
    grad_l2_norm,
    hessian_apply,
    hessian_matrix,
    hessian_spectrum,
    identity_sphere_map,
    perturbed_constant_map,
    random_tangent_field,
    tension,
    tension_fixed_chart,
    tension_via_sff,
)
from harmonicflow.errors import NonTangentInput, OffTarget
from harmonicflow.fields import map_sup_distance
from harmonicflow.meshes import l2_inner, l2_norm, random_scalar_field
from harmonicflow.rng import stream


def near_identity_map(mesh, s2, amplitude=0.2, seed=7):
    idm = identity_sphere_map(mesh, s2)
    u = random_tangent_field(idm, stream(seed, "near-identity"))
    scale = amplitude / u.linf()
    vals = s2.project_to_target(idm.values + scale * u.values)
    return MapField(vals, s2, mesh)


# ---------------------------------------------------------------------------
# field validation

def test_map_field_rejects_off_target(ico2, s2):
    vals = np.tile(np.array([0.0, 0.0, 1.01]), (ico2.vertex_count, 1))
    with pytest.raises(OffTarget):
        MapField(vals, s2, ico2)


def test_map_field_rejects_nan_value(ico2, s2):
    vals = constant_map(ico2, s2).values.copy()
    vals[5, 1] = np.nan  # max(dist) > tol is False for NaN: must still fail
    with pytest.raises(OffTarget):
        MapField(vals, s2, ico2)


def test_tangent_field_rejects_non_tangent(ico2, s2):
    f = constant_map(ico2, s2)
    with pytest.raises(NonTangentInput):
        TangentField(f.values.copy(), f)  # the position field is normal, not tangent


# ---------------------------------------------------------------------------
# energy

def test_energy_constant_map_zero(ico3, s2):
    assert energy(constant_map(ico3, s2)) <= 1e-20


def test_energy_identity_sphere(ico4, s2):
    e = energy(identity_sphere_map(ico4, s2))
    assert abs(e - 4 * math.pi) / (4 * math.pi) <= 5e-3
    # |d id|^2 = 2 at every vertex, so E(id) is the mesh area
    assert e == pytest.approx(ico4.total_area, rel=1e-12)


def test_energy_degree_k_circle(circle256, s1):
    for k in (1, 2, 3, 4):
        e = energy(degree_circle_map(circle256, s1, k))
        assert abs(e - math.pi * k * k) <= 1e-3


@pytest.mark.parametrize("mesh_name", ["circle256", "torus16", "ico3"])
def test_energy_is_half_dirichlet_form(request, s2, mesh_name):
    # 2 E(f) = sum_c f_c . K f_c for a random O(1) map: D^T D = K on every mesh
    mesh = request.getfixturevalue(mesh_name)
    rng = stream(3, "test-energy-form")
    vals = np.stack([random_scalar_field(mesh, rng) for _ in range(3)], axis=1)
    f = MapField.project(vals, s2, mesh)
    dirichlet = float(np.sum(f.values * (mesh.stiffness @ f.values)))
    assert 2.0 * energy(f) == pytest.approx(dirichlet, rel=1e-12)


def test_energy_resolves_tiny_gaps(ico3, s2):
    # E(pi(c + eps u)) = eps^2 * 1/2 sum u.Ku + O(eps^4) near a constant c.
    # The edge-difference form meets this to ~1e-15 at eps = 1e-8; the
    # algebraically equal 1/2 sum f.Kf cancels O(1) terms and is off by O(1).
    c = constant_map(ico3, s2)
    u = random_tangent_field(c, stream(0, "energy-resolution")).values
    eps = 1e-8
    f_eps = MapField(s2.project_to_target(c.values + eps * u), s2, ico3)
    quad = 0.5 * float(np.sum(u * (ico3.stiffness @ u)))
    assert abs(energy(f_eps) / (eps**2 * quad) - 1.0) <= 1e-6


# ---------------------------------------------------------------------------
# tension

def test_tension_constant_map_vanishes(ico3, s2):
    m = tension(constant_map(ico3, s2))
    assert l2_norm(ico3, m.values) <= 1e-12


def test_tension_identity_circle_discretely_harmonic(circle256, s1):
    f = degree_circle_map(circle256, s1, 1)
    assert grad_l2_norm(f) <= 1e-10


def test_tension_degree_k_circle_harmonic(circle256, s1):
    for k in (2, 3):
        assert grad_l2_norm(degree_circle_map(circle256, s1, k)) <= 1e-9


def test_tension_identity_sphere_refines(ico3, ico4, s2):
    n3 = grad_l2_norm(identity_sphere_map(ico3, s2))
    n4 = grad_l2_norm(identity_sphere_map(ico4, s2))
    assert n4 <= n3 / 1.8  # measured rate is better than first order


def test_tension_output_is_tangent(ico3, s2):
    f = near_identity_map(ico3, s2)
    m = tension(f)  # tangent by construction (TangentField.project); check the bound
    P = s2.tangent_projector(f.values)
    resid = np.einsum("vij,vj->vi", P, m.values) - m.values
    assert np.max(np.linalg.norm(resid, axis=1)) <= 1e-12


# ---------------------------------------------------------------------------
# tension via the second fundamental form

def test_tension_via_sff_constant_map(ico3, s2):
    m = tension_via_sff(constant_map(ico3, s2))
    assert l2_norm(ico3, m) <= 1e-12


def test_tension_via_sff_sphere_reduction(ico3, s2):
    # for the sphere, A(Pd, Pd) = |Pd|^2 f: rebuild the contraction by hand
    f = near_identity_map(ico3, s2)
    K = ico3.stiffness.tocoo()
    off = K.row != K.col
    rows, cols, w = K.row[off], K.col[off], -K.data[off]
    d = f.values[cols] - f.values[rows]
    P = s2.tangent_projector(f.values[rows])
    td = np.einsum("eij,ej->ei", P, d)
    contraction = np.zeros(ico3.vertex_count)
    np.add.at(contraction, rows, 0.5 * w * np.sum(td * td, axis=1))
    contraction /= ico3.area
    lap = (ico3.stiffness @ f.values) / ico3.area[:, None]
    expect = lap - contraction[:, None] * f.values
    got = tension_via_sff(f)
    assert np.max(np.abs(got - expect)) <= 1e-12


def test_tension_formula_equivalence_refines(ico3, ico4, s2):
    rels = []
    for mesh in (ico3, ico4):
        f = near_identity_map(mesh, s2)
        t1 = tension(f).values
        t2 = tension_via_sff(f)
        rels.append(l2_norm(mesh, t1 - t2) / l2_norm(mesh, t1))
    assert rels[1] <= 1e-2
    assert rels[1] < rels[0]


# ---------------------------------------------------------------------------
# gradient pairing

def test_pairing_zero_direction(ico2, s2):
    f = constant_map(ico2, s2)
    u = TangentField(np.zeros_like(f.values), f)
    assert gradient_pairing_check(f, u, 1e-4) == 0.0


def test_pairing_constant_map_both_sides_vanish(ico2, s2):
    f = constant_map(ico2, s2)
    u = random_tangent_field(f, stream(1, "pair"))
    assert gradient_pairing_check(f, u, 1e-4) <= 1e-10


def test_pairing_second_order_with_floor(ico3, s2):
    f = near_identity_map(ico3, s2)
    u = random_tangent_field(f, stream(2, "pair"))
    scale = l2_norm(ico3, u.values) * grad_l2_norm(f)
    residuals = [gradient_pairing_check(f, u, h) / scale for h in (1e-3, 1e-4, 1e-5)]
    assert residuals[-1] <= 1e-6
    # second-order decay until the floor
    assert 30 <= residuals[0] / residuals[1] <= 300
    assert residuals[2] <= residuals[1]


# ---------------------------------------------------------------------------
# Hessian

def test_hessian_apply_constant_map_is_plane_laplacian(ico2, s2):
    f = constant_map(ico2, s2)
    v = random_tangent_field(f, stream(3, "hess"))
    hv = hessian_apply(f, v)
    lap = (ico2.stiffness @ v.values) / ico2.area[:, None]
    # second term dies with Delta f = 0; tangent plane is fixed so P lap = lap
    assert np.max(np.abs(hv.values - lap)) <= 1e-12


def test_hessian_apply_constant_section_in_kernel(ico2, s2):
    f = constant_map(ico2, s2)
    c = np.tile(np.array([1.0, 0.0, 0.0]), (ico2.vertex_count, 1))  # tangent at pole
    hv = hessian_apply(f, TangentField(c, f))
    assert np.max(np.abs(hv.values)) <= 1e-12


def test_hessian_apply_killing_field_refines(ico2, ico3, s2):
    norms = []
    for mesh in (ico2, ico3):
        idm = identity_sphere_map(mesh, s2)
        w = np.array([0.3, -0.5, 0.8])
        kf = np.cross(np.broadcast_to(w, idm.values.shape), idm.values)
        norms.append(l2_norm(mesh, hessian_apply(idm, TangentField(kf, idm)).values))
    assert norms[1] < norms[0] / 1.5


def test_hessian_matrix_circle_constant_spectrum(s1):
    mesh = build_circle(64)
    op = hessian_matrix(constant_map(mesh, s1))
    spec = hessian_spectrum(op)
    vals = np.array(spec.eigenvalues)
    assert spec.kernel_dim == 1
    expect = [0.0, 1.0, 1.0, 4.0, 4.0, 9.0, 9.0]
    assert np.allclose(vals[:7], expect, atol=2e-2)
    assert op.asymmetry_rel <= 1e-12


def test_hessian_matrix_sphere_constant_spectrum(ico3, s2):
    op = hessian_matrix(constant_map(ico3, s2))
    spec = hessian_spectrum(op)
    vals = np.array(spec.eigenvalues)
    assert spec.kernel_dim == 2
    assert np.allclose(vals[2:8], 2.0, atol=5e-2)
    assert spec.gap_ratio >= 10


def test_hessian_fd_consistency(ico2, s2):
    f = perturbed_constant_map(ico2, s2, 0.15, stream(9, "fd"))
    v = random_tangent_field(f, stream(10, "fd-v"))
    w = random_tangent_field(f, stream(11, "fd-w"))
    pair = l2_inner(ico2, w.values, hessian_apply(f, v).values)

    def e_at(s, t):
        g = s2.project_to_target(f.values + s * v.values + t * w.values)
        return energy(MapField(g, s2, ico2))

    resid = []
    for step in (1e-3, 1e-4):
        fd = (
            e_at(step, step) - e_at(step, -step) - e_at(-step, step) + e_at(-step, -step)
        ) / (4 * step * step)
        resid.append(abs(fd - pair) / abs(pair))
    assert resid[0] <= 1e-3
    assert resid[1] <= 1e-5
    assert 30 <= resid[0] / resid[1] <= 300


def test_hessian_symmetric_at_critical_points(ico3, s2, circle256, s1):
    for f in (constant_map(ico3, s2), degree_circle_map(circle256, s1, 1)):
        op = hessian_matrix(f)
        assert op.asymmetry_rel <= 1e-6


def test_hessian_spectrum_kernel_tolerance_override(ico2, s2):
    op = hessian_matrix(constant_map(ico2, s2))
    spec = hessian_spectrum(op, kernel_tol=1e3)
    assert spec.kernel_dim == spec.basis_dim
    assert not math.isfinite(spec.gap_ratio) or spec.gap_ratio < 10


def test_hessian_spectrum_json_fields(ico2, s2):
    spec = hessian_spectrum(hessian_matrix(constant_map(ico2, s2)))
    d = spec.to_json_dict()
    assert set(d) == {
        "eigenvalues", "kernel_dim", "kernel_tol", "basis_dim", "gap_ratio", "partial",
    }


# ---------------------------------------------------------------------------
# fixed-chart tension

def test_fixed_chart_at_same_map(ico3, s2):
    f = near_identity_map(ico3, s2)
    a = tension(f).values
    b = tension_fixed_chart(f, f).values
    assert np.max(np.abs(a - b)) <= 1e-14


def test_fixed_chart_rotated_constant_critical(ico3, s2):
    f = constant_map(ico3, s2)
    th = 0.2
    Q = np.array(
        [[math.cos(th), 0, math.sin(th)], [0, 1, 0], [-math.sin(th), 0, math.cos(th)]]
    )
    fq = MapField(f.values @ Q.T, s2, ico3)
    assert l2_norm(ico3, tension_fixed_chart(f, fq).values) <= 1e-12


def test_fixed_chart_projector_lipschitz(ico3, s2):
    from harmonicflow.charts import chart_push

    f_inf = constant_map(ico3, s2)
    u = random_tangent_field(f_inf, stream(13, "fc"))
    u.values *= 0.1 / u.linf()
    f = chart_push(f_inf, u)
    drift = l2_norm(ico3, tension_fixed_chart(f_inf, f).values - tension(f).values)
    bound = map_sup_distance(f, f_inf) * l2_norm(ico3, tension(f).values)
    assert drift <= 2.0 * bound  # measured constant is about 0.6
