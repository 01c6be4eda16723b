import math

import numpy as np
import pytest

from harmonicflow import (
    build_circle,
    build_flat_torus,
    build_icosphere,
    build_source,
    l2_inner,
    laplace_beltrami_apply,
    lp_norm,
    sobolev_multiplication_probe,
    sobolev_norm,
)
from harmonicflow.errors import (
    InvalidExponents,
    InvalidSpec,
    ShapeMismatch,
    UnsupportedOrder,
)
from harmonicflow.meshes import l2_norm, mode_basis, random_scalar_field, row_dots
from harmonicflow.rng import stream

from oracles import cartesian_icosphere_stencil, reference_stiffness


# ---------------------------------------------------------------------------
# construction and invariants

def test_total_areas_exact_flat_cases(circle256, torus16):
    assert abs(circle256.total_area - 2 * math.pi) <= 1e-12
    assert abs(torus16.total_area - 4 * math.pi**2) <= 1e-12


def test_icosphere_area_converges(ico3, ico4):
    err3 = abs(ico3.total_area - 4 * math.pi) / (4 * math.pi)
    err4 = abs(ico4.total_area - 4 * math.pi) / (4 * math.pi)
    assert err3 <= 1e-2
    assert err4 <= 2e-3  # measured 0.12% with barycentric lumping
    assert err4 < err3


def test_icosphere_area_level5_within_a_tenth_percent():
    m5 = build_icosphere(5)
    assert abs(m5.total_area - 4 * math.pi) / (4 * math.pi) <= 1e-3


def test_build_source_dispatch(circle256):
    m = build_source({"kind": "circle", "n": 256})
    assert m.spec == circle256.spec
    assert m.vertex_count == 256
    with pytest.raises(InvalidSpec):
        build_source({"kind": "moebius"})


def test_invalid_mesh_specs():
    with pytest.raises(InvalidSpec):
        build_circle(4)
    with pytest.raises(InvalidSpec):
        build_flat_torus(4, 16)
    with pytest.raises(InvalidSpec):
        build_flat_torus(16, 16, math.inf, 1.0)
    with pytest.raises(InvalidSpec):
        build_icosphere(9)


def test_stiffness_kernel_contains_constants(circle256, torus16, ico3):
    for mesh in (circle256, torus16, ico3):
        ones = np.ones(mesh.vertex_count)
        defect = np.max(np.abs(mesh.stiffness @ ones))
        # exact up to one ulp of a single stencil entry
        assert defect <= 1e-14 * abs(mesh.stiffness).max()


def test_stiffness_bitwise_symmetric(circle256, torus16, ico3):
    for mesh in (circle256, torus16, ico3):
        assert (mesh.stiffness - mesh.stiffness.T).nnz == 0


def test_ritz_values_nonnegative(torus16, ico2):
    circle = build_circle(64)
    for mesh in (circle, torus16, ico2):
        s = 1.0 / np.sqrt(mesh.area)
        A = mesh.stiffness.toarray() * np.outer(s, s)
        vals = np.linalg.eigvalsh(0.5 * (A + A.T))
        assert vals[0] >= -1e-10


def test_diff_factoring_matches_stiffness(circle256, torus16, ico3):
    # D^T D reproduces K: the density, energy, and Laplacian share one stencil
    for mesh in (circle256, torus16, ico3):
        DtD = (mesh.diff.T @ mesh.diff).tocsr()
        denom = abs(mesh.stiffness).max()
        assert abs(DtD - mesh.stiffness).max() <= 1e-12 * denom


@pytest.mark.parametrize("spec", [
    pytest.param({"kind": "circle", "n": 8}, id="circle8"),
    pytest.param({"kind": "circle", "n": 256}, id="circle256"),
    pytest.param({"kind": "flat_torus", "nu": 16, "nv": 16}, id="torus16"),
    pytest.param({"kind": "flat_torus", "nu": 8, "nv": 12, "lu": 1.0, "lv": 3.0}, id="torus8x12"),
    *(pytest.param({"kind": "icosphere", "level": L}, id=f"ico{L}") for L in range(5)),
])
def test_stiffness_matches_reference_stencil(spec):
    # K = D^T D is the circle's fourth-order five-point stencil, the flat
    # torus's five-point graph Laplacian and the icosphere's cotangent Laplacian
    mesh = build_source(spec)
    reference = reference_stiffness(mesh)
    assert abs(mesh.stiffness - reference).max() <= 1e-14 * abs(mesh.stiffness).max()


def test_scatter_rows_partition_unity(circle256, torus16, ico3):
    for mesh in (circle256, torus16, ico3):
        colsum = np.asarray(mesh.diff_scatter.sum(axis=0)).ravel()
        assert np.allclose(colsum, 1.0, atol=1e-12)


# ---------------------------------------------------------------------------
# Laplacian spectrum

def test_circle_cosine_eigenfield(circle256):
    f = np.cos(circle256.points[:, 0])
    lam = l2_inner(circle256, f, laplace_beltrami_apply(circle256, f)) / l2_inner(
        circle256, f, f
    )
    assert abs(lam - 1.0) <= 1.0 / 256**2


def test_circle_first_nonzero_eigenvalue_converges():
    for n in (32, 64):
        mesh = build_circle(n)
        s = 1.0 / np.sqrt(mesh.area)
        A = mesh.stiffness.toarray() * np.outer(s, s)
        vals = np.linalg.eigvalsh(0.5 * (A + A.T))
        assert abs(vals[1] - 1.0) <= 4.0 / n**2


def test_constant_field_in_kernel(ico3):
    out = laplace_beltrami_apply(ico3, np.ones(ico3.vertex_count))
    assert np.max(np.abs(out)) <= 1e-12


def test_sphere_linear_coordinate_eigenvalue(ico3, ico4):
    errs = []
    for mesh in (ico3, ico4):
        f = mesh.points[:, 2]
        lam = l2_inner(mesh, f, laplace_beltrami_apply(mesh, f)) / l2_inner(mesh, f, f)
        errs.append(abs(lam - 2.0))
    assert errs[0] <= 2e-2
    assert errs[1] <= errs[0] + 1e-12


def test_laplacian_shape_mismatch(ico2):
    with pytest.raises(ShapeMismatch):
        laplace_beltrami_apply(ico2, np.ones(7))


# ---------------------------------------------------------------------------
# inner products and norms

def test_l2_inner_ones_gives_area(ico4):
    ones = np.ones(ico4.vertex_count)
    assert abs(l2_inner(ico4, ones, ones) - 4 * math.pi) <= 0.002 * 4 * math.pi


def test_fourier_orthogonality_exact(circle256):
    u = np.cos(circle256.points[:, 0])
    v = np.sin(circle256.points[:, 0])
    assert abs(l2_inner(circle256, u, v)) <= 1e-12


def test_l2_inner_zero_and_symmetry(ico2):
    rng = stream(0, "test-inner")
    u = random_scalar_field(ico2, rng)
    v = random_scalar_field(ico2, rng)
    assert l2_inner(ico2, u, np.zeros_like(u)) == 0.0
    assert l2_inner(ico2, u, v) == pytest.approx(l2_inner(ico2, v, u), rel=1e-14)


def test_greens_identity(circle256, torus16, ico3):
    for mesh in (circle256, torus16, ico3):
        rng = stream(1, "test-green")
        u = random_scalar_field(mesh, rng)
        v = random_scalar_field(mesh, rng)
        a = l2_inner(mesh, u, laplace_beltrami_apply(mesh, v))
        b = l2_inner(mesh, laplace_beltrami_apply(mesh, u), v)
        scale = max(abs(a), abs(b), 1e-30)
        assert abs(a - b) / scale <= 1e-10


def test_density_identity_sphere_is_two(ico4):
    # |d id|^2 = 2 at every vertex: the pointwise gradient density the
    # W^{1,p} norm integrates (squared stencil rows scattered per area)
    df = ico4.diff @ ico4.points
    dens = (ico4.diff_scatter @ np.sum(df * df, axis=1)) / ico4.area
    assert np.max(np.abs(dens - 2.0)) <= 1e-12


@pytest.mark.parametrize("shape", [(50, 1), (50, 2), (50, 3), (20, 4, 3), (7,), (30, 7)])
def test_row_dots_is_np_sum_bitwise(shape):
    # the column-by-column sum is the one np.sum forms for fewer than 8 columns
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal(shape), rng.standard_normal(shape)
    assert np.array_equal(row_dots(a, b), np.sum(a * b, axis=-1))


@pytest.mark.parametrize("level", [1, 2, 3, 4])
def test_icosphere_two_row_stencil_matches_cartesian_rows(level):
    # two face-frame rows per face carry the same |grad f|^2 as three
    # Cartesian rows: the energy and the per-vertex density agree
    mesh = build_icosphere(level)
    assert mesh.diff.shape == (2 * 20 * 4**level, mesh.vertex_count)  # 2 rows, F faces
    D3, scatter3 = cartesian_icosphere_stencil(mesh)
    x, y, z = mesh.points.T
    f = np.stack([x * y, np.sin(3 * z), z], axis=1)
    df2, df3 = mesh.diff @ f, D3 @ f
    e2, e3 = 0.5 * np.sum(df2 * df2), 0.5 * np.sum(df3 * df3)
    assert abs(e2 - e3) <= 1e-14 * e3
    dens2 = mesh.diff_scatter @ (df2 * df2) / mesh.area[:, None]
    dens3 = scatter3 @ (df3 * df3) / mesh.area[:, None]
    # relative to each component's largest density: all three vanish at the poles
    assert np.all(np.abs(dens2 - dens3) <= 1e-14 * np.max(dens3, axis=0))


def test_sobolev_norm_constant_k0(ico4):
    c = np.full(ico4.vertex_count, 3.0)
    expect = 3.0 * math.sqrt(4 * math.pi)
    assert sobolev_norm(ico4, c, 0, 2) == pytest.approx(expect, rel=1e-3)


def test_sobolev_norm_cosine_w12(circle256):
    f = np.cos(circle256.points[:, 0])
    # integral cos^2 + integral sin^2 = 2 pi
    assert sobolev_norm(circle256, f, 1, 2) == pytest.approx(math.sqrt(2 * math.pi), rel=1e-4)


def test_sobolev_norm_zero_monotone_and_lp(ico2):
    z = np.zeros(ico2.vertex_count)
    assert sobolev_norm(ico2, z, 2, 3.0) == 0.0
    rng = stream(2, "test-sob")
    f = random_scalar_field(ico2, rng)
    n0 = sobolev_norm(ico2, f, 0, 2)
    n1 = sobolev_norm(ico2, f, 1, 2)
    n2 = sobolev_norm(ico2, f, 2, 2)
    assert n0 <= n1 <= n2
    assert lp_norm(ico2, f, 2) == n0  # k = 0 path is the plain L^p norm
    with pytest.raises(UnsupportedOrder):
        sobolev_norm(ico2, f, 3, 2)
    with pytest.raises(InvalidExponents):
        sobolev_norm(ico2, f, 1, 0.5)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_sobolev_norm_of_vector_field_sums_component_powers(circle256, torus16, ico3, k):
    # (sum_c |f_c|^p)^(1/p): the components enter only through their own norms
    p = 3.0
    rng = stream(k, "test-sob-vector")
    for mesh in (circle256, torus16, ico3):
        f = rng.standard_normal((mesh.vertex_count, 3)) * np.array([1.0, 1e-3, 10.0])
        per_comp = sum(sobolev_norm(mesh, f[:, c], k, p) ** p for c in range(3))
        assert sobolev_norm(mesh, f, k, p) == pytest.approx(per_comp ** (1 / p), rel=1e-12)


# ---------------------------------------------------------------------------
# multiplication probe

def test_probe_unit_function_gives_inverse_volume():
    mesh = build_flat_torus(16, 16)
    ones = np.ones(mesh.vertex_count)
    rng = stream(4, "probe")
    f2 = random_scalar_field(mesh, rng)
    ratio = l2_norm(mesh, ones * f2) / (
        sobolev_norm(mesh, ones, 2, 2.0) * l2_norm(mesh, f2)
    )
    assert ratio == pytest.approx(mesh.total_area ** (-0.5), rel=1e-12)


def test_probe_levels_stay_in_band():
    rows = sobolev_multiplication_probe([16, 32, 64], 2, 2.0, trials=8, seed=0)
    ratios = [r["max_ratio"] for r in rows]
    assert max(ratios) / min(ratios) <= 2.0


def test_probe_rejects_bad_exponents():
    with pytest.raises(InvalidExponents):
        sobolev_multiplication_probe([16], 1, 1.5, trials=2)


def test_mode_basis_unit_norm(circle256, torus16, ico2):
    for mesh in (circle256, torus16, ico2):
        basis = mode_basis(mesh)
        assert basis.shape == (mesh.vertex_count, 8)
        for j in range(8):
            assert l2_norm(mesh, basis[:, j]) == pytest.approx(1.0, rel=1e-12)


# ---------------------------------------------------------------------------
# property tests

from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), p=st.sampled_from([1.0, 1.5, 2.0, 4.0]))
def test_sobolev_monotone_in_k_property(seed, p):
    mesh = build_flat_torus(8, 8)
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(mesh.vertex_count)
    norms = [sobolev_norm(mesh, f, k, p) for k in (0, 1, 2)]
    assert norms[0] <= norms[1] <= norms[2]
