import dataclasses
import importlib
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from harmonicflow import (
    CliffordTorus,
    MapField,
    TorusOfRevolution,
    UnitSphere,
    build_circle,
    build_flat_torus,
    build_icosphere,
    constant_map,
    degree_circle_map,
    energy,
    grad_l2_norm,
    hessian_matrix,
    hessian_spectrum,
    identity_sphere_map,
    perturbed_constant_map,
    random_tangent_field,
    tension,
)
from harmonicflow.errors import EigensolveFailure, NotOnTarget, ShapeMismatch
from harmonicflow.meshes import l2_inner, l2_norm, laplace_beltrami_apply, random_scalar_field
from harmonicflow.rng import stream
from harmonicflow.targets import EmbeddedTarget

from oracles import (
    dense_hessian_eigenvalues, gradient_pairing_check, hessian_apply, linf, projector_frames,
    reference_hessian_apply, single_band_eigenvalues, tension_via_sff, triple_product_hessian_form,
)


def near_identity_map(mesh, s2, amplitude=0.2, seed=7):
    idm = identity_sphere_map(mesh, s2)
    u = random_tangent_field(idm, stream(seed, "near-identity"))
    scale = amplitude / linf(u)
    vals = s2.project_to_target(idm.values + scale * u)
    return MapField(vals, s2, mesh)


# ---------------------------------------------------------------------------
# field validation

def test_map_field_rejects_off_target(ico2, s2):
    vals = np.tile(np.array([0.0, 0.0, 1.01]), (ico2.vertex_count, 1))
    with pytest.raises(NotOnTarget):
        MapField(vals, s2, ico2)


def test_map_field_rejects_nan_value(ico2, s2):
    vals = constant_map(ico2, s2).values.copy()
    vals[5, 1] = np.nan  # max(dist) > tol is False for NaN: must still fail
    with pytest.raises(NotOnTarget):
        MapField(vals, s2, ico2)


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
    u = random_tangent_field(c, stream(0, "energy-resolution"))
    eps = 1e-8
    f_eps = MapField(s2.project_to_target(c.values + eps * u), s2, ico3)
    quad = 0.5 * float(np.sum(u * (ico3.stiffness @ u)))
    assert abs(energy(f_eps) / (eps**2 * quad) - 1.0) <= 1e-6


# ---------------------------------------------------------------------------
# tension

def test_tension_constant_map_vanishes(ico3, s2):
    m = tension(constant_map(ico3, s2))
    assert l2_norm(ico3, m) <= 1e-12


def test_tension_identity_circle_discretely_harmonic(circle256, s1):
    f = degree_circle_map(circle256, s1, 1)
    assert grad_l2_norm(f) <= 1e-10


def test_degree_circle_map_is_a_great_circle_of_any_sphere(circle256, s1):
    plane = degree_circle_map(circle256, s1, 3).values
    for n in (3, 4):
        vals = degree_circle_map(circle256, UnitSphere(n), 3).values
        assert np.array_equal(vals[:, :2], plane) and not vals[:, 2:].any()
    with pytest.raises(ShapeMismatch):
        degree_circle_map(circle256, CliffordTorus(1), 3)


def test_tension_degree_k_circle_harmonic(circle256, s1):
    for k in (2, 3):
        assert grad_l2_norm(degree_circle_map(circle256, s1, k)) <= 1e-9


def test_tension_identity_sphere_refines(ico3, ico4, s2):
    n3 = grad_l2_norm(identity_sphere_map(ico3, s2))
    n4 = grad_l2_norm(identity_sphere_map(ico4, s2))
    assert n4 <= n3 / 1.8  # measured rate is better than first order


def test_tension_output_is_tangent(ico3, s2):
    f = near_identity_map(ico3, s2)
    m = tension(f)  # tangent by construction (tangent_project); check the bound
    P = s2.tangent_projector(f.values)
    resid = np.einsum("vij,vj->vi", P, m) - m
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
        t1 = tension(f)
        t2 = tension_via_sff(f)
        rels.append(l2_norm(mesh, t1 - t2) / l2_norm(mesh, t1))
    assert rels[1] <= 1e-2
    assert rels[1] < rels[0]


# ---------------------------------------------------------------------------
# gradient pairing

def test_pairing_zero_direction(ico2, s2):
    f = constant_map(ico2, s2)
    u = np.zeros_like(f.values)
    assert gradient_pairing_check(f, u, 1e-4) == 0.0


def test_pairing_constant_map_both_sides_vanish(ico2, s2):
    f = constant_map(ico2, s2)
    u = random_tangent_field(f, stream(1, "pair"))
    assert gradient_pairing_check(f, u, 1e-4) <= 1e-10


def test_pairing_second_order_with_floor(ico3, s2):
    f = near_identity_map(ico3, s2)
    u = random_tangent_field(f, stream(2, "pair"))
    scale = l2_norm(ico3, u) * grad_l2_norm(f)
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
    lap = (ico2.stiffness @ v) / ico2.area[:, None]
    # second term dies with Delta f = 0; tangent plane is fixed so P lap = lap
    assert np.max(np.abs(hv - lap)) <= 1e-12


def test_hessian_apply_constant_section_in_kernel(ico2, s2):
    f = constant_map(ico2, s2)
    c = np.tile(np.array([1.0, 0.0, 0.0]), (ico2.vertex_count, 1))  # tangent at pole
    hv = hessian_apply(f, c)
    assert np.max(np.abs(hv)) <= 1e-12


def test_hessian_apply_killing_field_refines(ico2, ico3, s2):
    norms = []
    for mesh in (ico2, ico3):
        idm = identity_sphere_map(mesh, s2)
        w = np.array([0.3, -0.5, 0.8])
        kf = np.cross(np.broadcast_to(w, idm.values.shape), idm.values)
        norms.append(l2_norm(mesh, hessian_apply(idm, kf)))
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


# mesh fixture and target of each Hessian FD case: a perturbed constant map,
# so that Delta f != 0 and the curvature block enters
HESSIAN_FD_CASES = {
    "s2": ("ico2", UnitSphere(3)),
    "s3": ("ico2", UnitSphere(4)),
    "torus_rev": ("ico2", TorusOfRevolution(2.0, 0.5)),  # at (2.5, 0, 0)
    "clifford": ("torus16", CliffordTorus(2)),
}


@pytest.mark.parametrize("case", list(HESSIAN_FD_CASES))
def test_hessian_fd_consistency(request, case):
    mesh_name, tgt = HESSIAN_FD_CASES[case]
    mesh = request.getfixturevalue(mesh_name)
    f = perturbed_constant_map(mesh, tgt, 0.15, stream(9, "fd"))
    v = random_tangent_field(f, stream(10, "fd-v"))
    w = random_tangent_field(f, stream(11, "fd-w"))
    pair = l2_inner(mesh, w, hessian_apply(f, v))

    def e_at(s, t):
        g = tgt.project_to_target(f.values + s * v + t * w)
        return energy(MapField(g, tgt, mesh))

    resid = []
    for step in (1e-3, 1e-4):
        fd = (
            e_at(step, step) - e_at(step, -step) - e_at(-step, step) + e_at(-step, -step)
        ) / (4 * step * step)
        resid.append(abs(fd - pair) / abs(pair))
    assert resid[0] <= 1e-3
    assert resid[1] <= 1e-5
    assert 30 <= resid[0] / resid[1] <= 300


def _perturbed(tgt):
    return lambda mesh: perturbed_constant_map(mesh, tgt, 0.15, stream(9, "fd"))


# mesh fixture and map builder of each case the lifted Hessian is compared on
HESSIAN_LIFT_CASES = {
    "ico2-s2": ("ico2", _perturbed(UnitSphere(3))),
    "ico3-identity": ("ico3", lambda mesh: identity_sphere_map(mesh, UnitSphere(3))),
    "ico3-torus_rev": ("ico3", _perturbed(TorusOfRevolution(2.0, 0.5))),
    "circle256-degree2": ("circle256", lambda mesh: degree_circle_map(mesh, UnitSphere(2), 2)),
    "torus16-clifford": ("torus16", _perturbed(CliffordTorus(2))),
    "ico2-s3": ("ico2", _perturbed(UnitSphere(4))),
}


@pytest.mark.parametrize("case", list(HESSIAN_LIFT_CASES))
def test_hessian_apply_matches_reference_derivation(request, case):
    # the lift of the assembled form against d2pi contracted per ambient direction
    mesh_name, build = HESSIAN_LIFT_CASES[case]
    f = build(request.getfixturevalue(mesh_name))
    for i in range(5):
        v = random_tangent_field(f, stream(i, "hessian-lift"))
        want = reference_hessian_apply(f, v)
        got = hessian_apply(f, v)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


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
    d = dataclasses.asdict(spec)
    assert set(d) == {
        "eigenvalues", "kernel_dim", "kernel_tol", "basis_dim", "gap_ratio", "index",
        "partial",
    }


def test_hessian_spectrum_gap_and_index_with_negative_modes():
    # at ico1 three modes sit at -0.170, outside the band |lambda| <= 0.1
    f = identity_sphere_map(build_icosphere(1), UnitSphere(3))
    spec = hessian_spectrum(hessian_matrix(f), kernel_tol=0.1)
    assert spec.kernel_dim == 3
    assert spec.index == 3
    assert spec.gap_ratio == pytest.approx(1.702, abs=1e-3)


# map builder of each case the sparse spectrum is checked against the full one
SPARSE_SPECTRUM_CASES = {
    "ico3-identity": lambda mesh: identity_sphere_map(mesh, UnitSphere(3)),  # index 3
    "ico3-torus_rev-constant": lambda mesh: constant_map(mesh, TorusOfRevolution(2.0, 0.5)),
}


@pytest.mark.parametrize("case", list(SPARSE_SPECTRUM_CASES))
def test_sparse_spectrum_matches_dense(ico3, monkeypatch, case):
    # the dissection-ordered shift-invert, forced below its size limit, against
    # the full banded spectrum: the eigenvalues nearest zero, the kernel and the index
    op = hessian_matrix(SPARSE_SPECTRUM_CASES[case](ico3))
    full = hessian_spectrum(op)
    # the package exports the function ``energy`` under the module's name
    energy_module = importlib.import_module("harmonicflow.energy")
    monkeypatch.setattr(energy_module, "FULL_SPECTRUM_LIMIT", op.form.shape[0] - 1)
    sparse = hessian_spectrum(op)
    assert sparse.partial and not full.partial
    vals = np.array(sparse.eigenvalues)
    nearest = np.sort(sorted(full.eigenvalues, key=abs)[: vals.size])
    assert np.max(np.abs(vals - nearest)) <= 1e-9
    assert (sparse.kernel_dim, sparse.index) == (full.kernel_dim, full.index)
    if case == "ico3-identity":
        assert sparse.index == 3


@pytest.mark.parametrize("case", list(SPARSE_SPECTRUM_CASES))
def test_sparse_spectrum_runs_a_largest_eigenvalue_lanczos_only_for_the_default_tol(
        ico3, monkeypatch, case):
    # the shift comes from the Gershgorin bound; lambda_max is needed only for
    # the default kernel_tol, 1e-6 lambda_max, as the full spectrum reads it
    op = hessian_matrix(SPARSE_SPECTRUM_CASES[case](ico3))
    full = hessian_spectrum(op)
    energy_module = importlib.import_module("harmonicflow.energy")
    monkeypatch.setattr(energy_module, "FULL_SPECTRUM_LIMIT", op.form.shape[0] - 1)
    calls, largest = [], energy_module._largest_eigenvalue

    def counted(A):
        calls.append(A.shape)
        return largest(A)

    monkeypatch.setattr(energy_module, "_largest_eigenvalue", counted)
    assert hessian_spectrum(op, kernel_tol=0.1, n_modes=8).kernel_tol == 0.1
    assert calls == []
    sparse = hessian_spectrum(op, n_modes=8)
    assert len(calls) == 1
    assert sparse.kernel_tol == pytest.approx(full.kernel_tol, rel=1e-12)


# the Hessians the banded full spectrum is checked on, with the connected components
# of their graphs: constant maps at an axis-aligned point and the great circles
# decouple their tangent components exactly, one component each; the perturbed and
# identity maps couple them, except into the Clifford torus, whose energy is the sum
# of its circle factors' at every map
FULL_SPECTRUM_CASES = {
    "ico3-torus_rev-axis-constant": (lambda: constant_map(
        build_icosphere(3), TorusOfRevolution(2.0, 0.5), [2.5, 0.0, 0.0]), 2),
    "ico3-torus_rev-perturbed": (lambda: perturbed_constant_map(
        build_icosphere(3), TorusOfRevolution(2.0, 0.5), 0.1, stream(1, "full-spectrum"),
        [2.5, 0.0, 0.0]), 1),
    "ico3-identity-S2": (lambda: identity_sphere_map(build_icosphere(3), UnitSphere(3)), 1),
    "ico3-constant-S2": (lambda: constant_map(build_icosphere(3), UnitSphere(3)), 2),
    "ico3-constant-S3": (lambda: constant_map(build_icosphere(3), UnitSphere(4)), 3),
    "ico2-perturbed-S3": (lambda: perturbed_constant_map(
        build_icosphere(2), UnitSphere(4), 0.1, stream(2, "full-spectrum")), 1),
    "flat24-constant-clifford": (
        lambda: constant_map(build_flat_torus(24, 24), CliffordTorus(2)), 2),
    "flat24-perturbed-clifford": (lambda: perturbed_constant_map(
        build_flat_torus(24, 24), CliffordTorus(2), 0.1, stream(3, "full-spectrum")), 2),
    "circle256-degree2-S2": (
        lambda: degree_circle_map(build_circle(256), UnitSphere(3), 2), 2),
    "circle256-degree3-S2": (
        lambda: degree_circle_map(build_circle(256), UnitSphere(3), 3), 2),
}


@pytest.mark.parametrize("case", list(FULL_SPECTRUM_CASES))
def test_full_spectrum_matches_dense_eigensolve(case):
    op = hessian_matrix(FULL_SPECTRUM_CASES[case][0]())
    spec = hessian_spectrum(op)
    want = dense_hessian_eigenvalues(op)
    lam_max = want[-1]
    assert not spec.partial and spec.basis_dim == want.size
    vals = np.array(spec.eigenvalues)
    assert np.max(np.abs(vals - want)) <= 1e-10 * lam_max
    # the kernel, index and gap rules applied to the dense eigenvalues
    tol = 1e-6 * lam_max
    assert spec.kernel_dim == np.sum(np.abs(want) <= tol)
    assert spec.index == np.sum(want < -tol)
    gap = np.min(np.abs(want[np.abs(want) > tol])) / tol
    assert spec.gap_ratio == pytest.approx(gap, rel=1e-9)


@pytest.mark.parametrize("case", list(FULL_SPECTRUM_CASES))
def test_hessian_form_is_symmetric_and_the_triple_product(case):
    # assembled block by block on K's sparsity, the form needs no symmetrizing
    f = FULL_SPECTRUM_CASES[case][0]()
    op = hessian_matrix(f)
    assert (op.form != op.form.T).nnz == 0
    assert op.asymmetry_rel == 0.0
    want = triple_product_hessian_form(f)
    scale = np.max(np.abs(want.data))
    assert np.max(np.abs((op.form - want).data), initial=0.0) <= 1e-13 * scale


def test_hessian_form_stores_no_zeros(ico3):
    # the constant map at (2.5, 0, 0) decouples the tangent components: each
    # dN x dN block is diagonal, and its off-diagonal zeros are not stored
    op = hessian_matrix(constant_map(ico3, TorusOfRevolution(2.0, 0.5), [2.5, 0.0, 0.0]))
    assert op.form.nnz > 0
    assert np.count_nonzero(op.form.data == 0.0) == 0


# every map the full and sparse spectra are checked on, as zero-argument builders
SPECTRUM_MAPS = {
    **{case: make for case, (make, _) in FULL_SPECTRUM_CASES.items()},
    **{f"sparse-{case}": (lambda make=make: make(build_icosphere(3)))
       for case, make in SPARSE_SPECTRUM_CASES.items()},
}


@pytest.mark.parametrize("case", list(SPECTRUM_MAPS))
def test_hessian_eigenvalues_do_not_depend_on_the_frames(case, monkeypatch):
    # the Householder frames from nu against Gram-Schmidt on the projector: the
    # form changes by an orthogonal change of basis per vertex, its spectrum not
    f = SPECTRUM_MAPS[case]()
    vals = np.array(hessian_spectrum(hessian_matrix(f)).eigenvalues)
    monkeypatch.setattr(EmbeddedTarget, "tangent_frames", projector_frames)
    want = np.array(hessian_spectrum(hessian_matrix(f)).eigenvalues)
    assert np.max(np.abs(vals - want)) <= 1e-12 * want[-1]


def test_hessian_matrix_does_not_recheck_its_map(monkeypatch):
    # a MapField is on target by construction: the assembly builds no projector
    # and checks no point; it evaluates d2pi once, over every frame column, so the
    # torus decomposes its points for the frames' nu and for d2pi's nu and S alone
    f = FULL_SPECTRUM_CASES["ico3-torus_rev-perturbed"][0]()
    calls = {}
    for cls, name in [(EmbeddedTarget, "require_on_target"), (EmbeddedTarget, "tangent_projector"),
                      (EmbeddedTarget, "ambient_hessian_of_projection"),
                      (EmbeddedTarget, "_d2_projection"), (TorusOfRevolution, "_core_decomp")]:
        def counted(self, *args, _name=name, _method=getattr(cls, name)):
            calls[_name] = calls.get(_name, 0) + 1
            return _method(self, *args)

        monkeypatch.setattr(cls, name, counted)
    hessian_matrix(f)
    assert calls.pop("_d2_projection") == 1
    assert calls.pop("_core_decomp") <= 3
    assert calls == {}


def _sphere_curvatures(y, lap):
    # nu = y and S = I: every principal curvature is 1
    return np.repeat(np.einsum("vi,vi->v", y, lap)[:, None], y.shape[1] - 1, axis=1)


def _clifford_curvatures(y, lap):
    # per circle factor, nu is its coordinate pair and the one curvature is 1
    return np.einsum("vki,vki->vk", y.reshape(len(y), -1, 2), lap.reshape(len(y), -1, 2))


def _torus_curvatures(y, lap, R=2.0, r=0.5):
    # nu = q/|q|, q = y - R y_h/rho: curvature 1/r along the meridian and
    # (rho - R)/(r rho) along the parallel, rho = |y_h|
    rho = np.hypot(y[:, 0], y[:, 1])
    q = y.copy()
    q[:, :2] -= R * y[:, :2] / rho[:, None]
    nu_lap = np.einsum("vi,vi->v", q, lap) / np.linalg.norm(q, axis=1)
    return nu_lap[:, None] * np.stack([np.full_like(rho, 1 / r), (rho - R) / (r * rho)], axis=1)


# map builder, and (nu . Delta f) kappa per vertex and principal direction from closed forms
CURVATURE_CASES = {
    "ico3-torus_rev-perturbed": (FULL_SPECTRUM_CASES["ico3-torus_rev-perturbed"][0],
                                 _torus_curvatures),
    "ico3-identity-S2": (FULL_SPECTRUM_CASES["ico3-identity-S2"][0], _sphere_curvatures),
    "ico2-perturbed-S3": (FULL_SPECTRUM_CASES["ico2-perturbed-S3"][0], _sphere_curvatures),
    "flat12-perturbed-clifford3": (lambda: perturbed_constant_map(
        build_flat_torus(12, 12), CliffordTorus(3), 0.1, stream(4, "curvature")),
        _clifford_curvatures),
    "circle256-degree2-S2": (FULL_SPECTRUM_CASES["circle256-degree2-S2"][0], _sphere_curvatures),
}


@pytest.mark.parametrize("case", list(CURVATURE_CASES))
def test_hessian_curvature_blocks_have_the_principal_curvatures(case):
    # F_xx - K_xx I is the curvature block -a_x (nu . Delta f) <S e_i, e_j>, whose
    # eigenvalues are -a_x (nu . Delta f) kappa: checked without d2pi
    make, curvatures = CURVATURE_CASES[case]
    f = make()
    V, dN = f.mesh.vertex_count, f.target.intrinsic_dim
    K_diag = f.mesh.stiffness.diagonal()
    F = hessian_matrix(f).form.toarray().reshape(V, dN, V, dN)
    at = np.arange(V)
    blocks = F[at, :, at, :] - K_diag[:, None, None] * np.eye(dN)
    lap = laplace_beltrami_apply(f.mesh, f.values)
    want = np.sort(-f.mesh.area[:, None] * curvatures(f.values, lap), axis=1)
    assert np.max(np.abs(np.linalg.eigvalsh(blocks) - want)) <= 1e-14 * np.max(np.abs(K_diag))


def _count_band_solves(monkeypatch) -> list:
    """Record the column count of each band ``eig_banded`` is called on."""
    sizes, solve = [], scipy.linalg.eig_banded

    def counted(band, *args, **kwargs):
        sizes.append(band.shape[1])
        return solve(band, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eig_banded", counted)
    return sizes


@pytest.mark.parametrize("case", list(FULL_SPECTRUM_CASES))
def test_full_spectrum_splits_into_components(case, monkeypatch):
    # one band per component, against the whole matrix's one band; the dense
    # eigensolve of the same cases is the test above
    make, components = FULL_SPECTRUM_CASES[case]
    op = hessian_matrix(make())
    sizes = _count_band_solves(monkeypatch)
    vals = np.array(hessian_spectrum(op).eigenvalues)
    assert len(sizes) == components and sum(sizes) == vals.size
    monkeypatch.undo()
    assert np.max(np.abs(vals - single_band_eigenvalues(op))) <= 1e-12 * vals[-1]


def test_full_spectrum_of_a_diagonal_form_is_its_sorted_diagonal(monkeypatch):
    # every unknown is its own component; a stored zero on the diagonal is a self-loop,
    # not an edge
    diag = np.array([3.0, -1.0, 0.0, 2.5, -1.0, 7.0, 1e-9])
    A = sp.diags(diag).tocsr()
    energy_module = importlib.import_module("harmonicflow.energy")
    sizes = _count_band_solves(monkeypatch)
    assert np.array_equal(energy_module._band_eigenvalues(A), np.sort(diag))
    assert sizes == [1] * diag.size


def test_full_spectrum_memory_stays_below_a_quarter_of_a_dense_copy(ico3):
    # one dense n x n copy of the form is n^2 * 8 bytes (12.6 MB here)
    op = hessian_matrix(constant_map(ico3, TorusOfRevolution(2.0, 0.5), [2.5, 0.0, 0.0]))
    n = op.form.shape[0]
    tracemalloc.start()
    try:
        hessian_spectrum(op)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8 / 4


@pytest.mark.parametrize("branch", ["full", "sparse"])
@pytest.mark.parametrize("entry", ["diagonal", "upper"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_form_raises_eigensolve_failure(ico2, s2, monkeypatch, branch, entry, bad):
    # the full branch reads one triangle of the form: a non-finite entry in the
    # other must fail too
    op = hessian_matrix(constant_map(ico2, s2))
    form = op.form.tocoo(copy=True)
    pick = form.row == form.col if entry == "diagonal" else form.row < form.col
    form.data[np.flatnonzero(pick)[7]] = bad
    bad_op = dataclasses.replace(op, form=form.tocsr())
    if branch == "sparse":
        energy_module = importlib.import_module("harmonicflow.energy")
        monkeypatch.setattr(energy_module, "FULL_SPECTRUM_LIMIT", op.form.shape[0] - 1)
    with pytest.raises(EigensolveFailure):
        hessian_spectrum(bad_op, n_modes=8)


def test_dissection_order_factor_fills_less_than_colamd():
    # the ico5 identity Hessian: nnz(L) + nnz(U) with each vertex's unknowns
    # in the mesh's dissection order, against SuperLU's COLAMD
    mesh = build_icosphere(5)
    op = hessian_matrix(identity_sphere_map(mesh, UnitSphere(3)))
    s = sp.diags(1.0 / np.sqrt(op.mass))
    A = (s @ op.form @ s + 1e-5 * sp.identity(op.form.shape[0])).tocsc()
    p = (mesh.dissection_order[:, None] * 2 + np.arange(2)).ravel()
    nested = spla.splu(A[p][:, p], permc_spec="NATURAL")
    colamd = spla.splu(A, permc_spec="COLAMD")
    assert nested.L.nnz + nested.U.nnz <= 0.70 * (colamd.L.nnz + colamd.U.nnz)
