"""Independent numerical oracles used by the tests.

These deliberately avoid the closed forms under test: projections are checked
against brute-force minimization, derivatives against central finite
differences, and energies against analytic integrals.  The file also holds
reference derivations the package defines only once: the tension through the
second fundamental form, the Hessian action contracted from d2pi directly, the
tangent frames by Gram-Schmidt on the projector, the Hessian form as a triple
product through the frame injection, the nested dissection by recursion, and
the stiffness matrices from their stencil weights; and what only tests apply:
the sup norm of a tangent field, the Hessian action as the assembled form lifted to ambient fields, the second
fundamental form, the flow's dissipation residual with its error for too short
a trace, and the icosphere subdivided by the per-face loop that the
vectorized ``build_icosphere`` must match bit for bit.  The per-sample loops of
the chart audit and of the neighbourhood sampler, with the scatter form of the
W^{k,p} norm, are kept as references for the (V, S, n) stack code that
replaced them, with the two helpers that move samples between maps and stacks,
and the dense eigensolve of the Hessian as the reference for
its banded full spectrum.
"""

from __future__ import annotations

import json

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.csgraph import reverse_cuthill_mckee

from harmonicflow import (
    ChartReport, MapField, chart_pull, chart_push, energy, hessian_matrix,
    random_tangent_field, tension,
)
from harmonicflow.errors import (
    ChartRadiusExceeded, HarmonicFlowError, InadmissibleExponents, UnsupportedOrder,
)
from harmonicflow.fields import _unchecked
from harmonicflow.meshes import (
    SOBOLEV_ORDERS, _check_field, _icosahedron, l2_inner, laplace_beltrami_apply, row_dots,
)
from harmonicflow.rng import stream


class InsufficientSamples(HarmonicFlowError):
    """Trace does not contain enough samples for the requested analysis."""


def linf(u: np.ndarray) -> float:
    """sup_x |u(x)| of a (V, n) field."""
    return float(np.sqrt(np.max(row_dots(u, u))))


def fd_jacobian(fun, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central-difference Jacobian of a vector function at x."""
    n = x.shape[0]
    cols = []
    for j in range(n):
        e = np.zeros(n)
        e[j] = h
        cols.append((fun(x + e) - fun(x - e)) / (2.0 * h))
    return np.stack(cols, axis=1)


def fd_second_directional(fun, x: np.ndarray, v: np.ndarray, w: np.ndarray,
                          h: float = 1e-4) -> np.ndarray:
    """Central second difference approximating D^2 fun(x)(v, w)."""
    return (
        fun(x + h * v + h * w)
        - fun(x + h * v - h * w)
        - fun(x - h * v + h * w)
        + fun(x - h * v - h * w)
    ) / (4.0 * h * h)


def brute_force_torus_projection(
    x: np.ndarray, R: float, r: float, n_grid: int = 400, refine: int = 3
) -> np.ndarray:
    """Nearest point on the torus of revolution by parameter-grid search."""
    lo_u, hi_u = 0.0, 2 * np.pi
    lo_v, hi_v = 0.0, 2 * np.pi
    best = None
    for _ in range(refine + 1):
        us = np.linspace(lo_u, hi_u, n_grid)
        vs = np.linspace(lo_v, hi_v, n_grid)
        U, V = np.meshgrid(us, vs, indexing="ij")
        pts = np.stack(
            [
                (R + r * np.cos(V)) * np.cos(U),
                (R + r * np.cos(V)) * np.sin(U),
                r * np.sin(V),
            ],
            axis=-1,
        )
        d2 = np.sum((pts - x) ** 2, axis=-1)
        i, j = np.unravel_index(np.argmin(d2), d2.shape)
        best = pts[i, j]
        du = (hi_u - lo_u) / (n_grid - 1)
        dv = (hi_v - lo_v) / (n_grid - 1)
        lo_u, hi_u = us[i] - 2 * du, us[i] + 2 * du
        lo_v, hi_v = vs[j] - 2 * dv, vs[j] + 2 * dv
    return best


def sphere_chart_inverse(f_vals: np.ndarray, f1_vals: np.ndarray) -> np.ndarray:
    """Closed-form tangent u with pi(f + u) = f1 on the unit sphere."""
    dots = np.sum(f_vals * f1_vals, axis=-1, keepdims=True)
    return f1_vals / dots - f_vals


def linear_fit_r2(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Slope, intercept, r^2 of a least-squares line (independent of the lib)."""
    A = np.stack([x, np.ones_like(x)], axis=1)
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    pred = A @ coef
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    return float(coef[0]), float(coef[1]), 1.0 - ss_res / max(ss_tot, 1e-300)


def dual_norm_per_field(mesh, m: np.ndarray, p: float, probes: int = 32) -> float:
    """Dual-norm stand-in for tension values m, one test field at a time.

    The sup of |(m, v)_L2| / |v|_{W^{1,p'}} over the band-limited family the
    library uses (each mode in each ambient component, then ``probes`` seeded
    mode combinations), with every field built and paired in full.
    """
    basis = mesh.modes
    n = m.shape[1]
    rng = stream(0, "dual-norm")
    tests = []
    for j in range(basis.shape[1]):
        for c in range(n):
            v = np.zeros((mesh.vertex_count, n))
            v[:, c] = basis[:, j]
            tests.append(v)
    for _ in range(probes):
        tests.append(basis @ rng.standard_normal((basis.shape[1], n)))
    best = 0.0
    for v in tests:
        nv = reference_sobolev_norm(mesh, v, 1, p / (p - 1.0))
        if nv > 0.0:
            best = max(best, abs(l2_inner(mesh, m, v)) / nv)
    return best


def json_checkpoint_text(f, metadata: dict) -> str:
    """A checkpoint's text as ``json.dump`` writes it: the reference encoder
    for ``save_checkpoint``, with every float as 17 significant digits."""
    fmt = lambda x: f"{float(x):.17g}"
    payload = {
        "format_version": 1,
        "mesh": f.mesh.spec,
        "target": f.target.spec(),
        "metadata": {k: (fmt(v) if isinstance(v, float) else v) for k, v in metadata.items()},
        "values": [[fmt(x) for x in row] for row in f.values],
    }
    return json.dumps(payload, sort_keys=True, indent=1) + "\n"


def cartesian_icosphere_stencil(mesh):
    """The icosphere gradient stencil with three Cartesian rows per face.

    Row (face, axis c) holds sqrt(A) (grad phi_k)_c at corner k, with
    grad phi_k = (nhat x e_k) / (2 A); its density goes 1/3 to each corner.
    Returns (D, scatter) of shapes (3F, V) and (V, 3F).
    """
    verts, faces = mesh.points, icosphere_faces(mesh)
    p0, p1, p2 = verts[faces[:, 0]], verts[faces[:, 1]], verts[faces[:, 2]]
    edges = [p2 - p1, p0 - p2, p1 - p0]  # opposite each corner
    normal = np.cross(edges[1], edges[2])
    double_area = np.linalg.norm(normal, axis=1)
    nhat = normal / double_area[:, None]
    F, V = faces.shape[0], verts.shape[0]
    rows, cols, vals = [], [], []
    for c in range(3):
        for k in range(3):
            rows.append(3 * np.arange(F) + c)
            cols.append(faces[:, k])
            grad = np.cross(nhat, edges[k])[:, c] / double_area
            vals.append(np.sqrt(0.5 * double_area) * grad)
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    D = sp.csr_matrix((np.concatenate(vals), (rows, cols)), shape=(3 * F, V))
    scatter = sp.csr_matrix((np.full(rows.size, 1.0 / 3.0), (cols, rows)), shape=(V, 3 * F))
    return D, scatter


def loop_icosphere(level: int) -> tuple[np.ndarray, np.ndarray]:
    """Icosphere vertices and faces, subdivided one face at a time: each edge's
    midpoint is appended, normalized, when the first face names it."""
    verts, faces = _icosahedron()
    vlist = list(verts)
    for _ in range(level):
        midpoint: dict[tuple[int, int], int] = {}

        def mid(a: int, b: int) -> int:
            key = (a, b) if a < b else (b, a)
            if key not in midpoint:
                p = vlist[a] + vlist[b]
                vlist.append(p / np.linalg.norm(p))
                midpoint[key] = len(vlist) - 1
            return midpoint[key]

        new_faces = []
        for (a, b, c) in faces:
            ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
            new_faces.extend([(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)])
        faces = np.array(new_faces, dtype=np.int64)
    return np.array(vlist), faces


def icosphere_faces(mesh) -> np.ndarray:
    """The faces of an icosphere: the corner triples the mesh scatters each of
    its D rows to, two rows per face.  Corner order does not matter, as the
    normal and the edges flip together under an odd permutation."""
    return mesh.diff_scatter.tocsc().indices.reshape(-1, 3)[::2]


def graph_laplacian(ei, ej, ew, V: int) -> sp.csr_matrix:
    """Symmetric graph Laplacian of the weighted edges (ei, ej, ew): -w_ij off
    the diagonal, the negated off-diagonal row sum on it."""
    rows, cols = np.concatenate([ei, ej]), np.concatenate([ej, ei])
    off = sp.csr_matrix((-np.concatenate([ew, ew]), (rows, cols)), shape=(V, V))
    off.sum_duplicates()
    return (off + sp.diags(-np.asarray(off.sum(axis=1)).ravel())).tocsr()


def _periodic_second_difference(n: int, stride: int = 1) -> sp.csr_matrix:
    """2 f_i - f_{i+stride} - f_{i-stride} on n points around a ring."""
    shift = sp.csr_matrix(np.roll(np.eye(n), stride, axis=1))
    return (2.0 * sp.identity(n) - shift - shift.T).tocsr()


def reference_stiffness(mesh) -> sp.csr_matrix:
    """The mesh's stiffness matrix, assembled from its stencil weights.

    * circle: the fourth-order five-point stencil, symbol (1-c)(7-c)/(3h),
      (4/3 L_1 - 1/12 L_2) / h with L_s the second difference at stride s;
    * flat torus: the five-point graph Laplacian, the Kronecker sum of the
      ring second differences weighted hv/hu along u and hu/hv along v;
    * icosphere: the cotangent Laplacian, w_ij = (cot a + cot b) / 2 over the
      two angles opposite edge ij.
    """
    spec = mesh.spec
    if mesh.kind == "circle":
        n = spec["n"]
        h = 2.0 * np.pi / n
        return ((4.0 / 3.0) * _periodic_second_difference(n)
                - (1.0 / 12.0) * _periodic_second_difference(n, 2)) / h
    if mesh.kind == "flat_torus":
        nu, nv = spec["nu"], spec["nv"]
        hu, hv = spec["lu"] / nu, spec["lv"] / nv
        return ((hv / hu) * sp.kron(_periodic_second_difference(nu), sp.identity(nv))
                + (hu / hv) * sp.kron(sp.identity(nu), _periodic_second_difference(nv))).tocsr()
    faces, verts = icosphere_faces(mesh), mesh.points
    ei, ej, ew = [], [], []
    for k in range(3):  # the angle at corner k faces the edge (i, j)
        c, i, j = faces[:, k], faces[:, (k + 1) % 3], faces[:, (k + 2) % 3]
        u, v = verts[i] - verts[c], verts[j] - verts[c]
        cot = np.sum(u * v, axis=1) / np.linalg.norm(np.cross(u, v), axis=1)
        ei.append(i)
        ej.append(j)
        ew.append(0.5 * cot)
    return graph_laplacian(np.concatenate(ei), np.concatenate(ej), np.concatenate(ew),
                           mesh.vertex_count)


def second_fundamental_form(target, y, v, w) -> np.ndarray:
    """A(y)(v, w) = -d2pi(y)(v, w); normal-valued for tangent v, w.  Raises
    NonTangentInput unless v and w are tangent at y."""
    target.require_tangent(y, v)
    target.require_tangent(y, w)
    return -target.ambient_hessian_of_projection(y, v, w)


def _sff_contraction(f) -> np.ndarray:
    """A(f)(df, df) contracted over the discrete metric.

    Quadrature runs over the stiffness-graph edges with the same weights the
    Laplacian uses, A_c(x) = 1/(2 a_x) sum_y w_xy A(f_x)(P d_xy, P d_xy) with
    d_xy = f_y - f_x, so the normal defects of the vertex stencil cancel in
    the difference against dpi(f)^perp Delta f.
    """
    K = f.mesh.stiffness.tocoo()
    off = K.row != K.col
    rows, cols, w = K.row[off], K.col[off], -K.data[off]
    d = f.values[cols] - f.values[rows]
    base = f.values[rows]
    td = f.target.tangent_project(base, d)
    a_vals = second_fundamental_form(f.target, base, td, td)
    out = np.zeros_like(f.values)
    np.add.at(out, rows, 0.5 * w[:, None] * a_vals)
    return out / f.mesh.area[:, None]


def tension_via_sff(f) -> np.ndarray:
    """M(f) = Delta f - A(f)(df, df); agrees with tension(f) as the mesh refines.

    Returned as the raw ambient array: the difference carries the O(h^2)
    normal defect of the discrete Laplacian, so it is not a tangent field.
    """
    lap = laplace_beltrami_apply(f.mesh, f.values)
    return lap - _sff_contraction(f)


def gradient_pairing_check(f, u, h_step: float) -> float:
    """|centered FD of t -> E(pi(f + t u)) at 0  -  (u, M(f))_L2|."""
    sup = linf(u)
    delta = f.target.chart_radius()
    if h_step * sup >= delta:
        raise ChartRadiusExceeded(
            f"h_step * |u|_inf = {h_step * sup:.3e} >= {delta:.3e}"
        )
    tgt, mesh = f.target, f.mesh

    def e_at(t: float) -> float:
        return energy(MapField.project(f.values + t * u, tgt, mesh))

    fd = (e_at(h_step) - e_at(-h_step)) / (2.0 * h_step)
    return abs(fd - l2_inner(mesh, u, tension(f)))


def _block_diagonal(blocks: np.ndarray) -> sp.csr_matrix:
    """Block-diagonal matrix with the (V, r, c) stack ``blocks`` on its diagonal."""
    V, r, c = blocks.shape
    return sp.bsr_matrix(
        (blocks, np.arange(V), np.arange(V + 1)), shape=(V * r, V * c)
    ).tocsr()


def projector_frames(target, values: np.ndarray) -> np.ndarray:
    """Per-vertex orthonormal tangent frames, shape (V, n, dN), by pivoted
    Gram-Schmidt on the columns of the tangent projector: largest remaining
    diagonal first, ties broken by lowest index."""
    Q = target.tangent_projector(values)
    V, n = values.shape
    frames = np.empty((V, n, target.intrinsic_dim))
    for j in range(target.intrinsic_dim):
        diag = np.diagonal(Q, axis1=1, axis2=2)
        pick = np.argmax(diag, axis=1)  # the first of equal maxima: the lowest index
        col = np.take_along_axis(Q, pick[:, None, None], axis=2)[:, :, 0]
        col = col / np.linalg.norm(col, axis=1, keepdims=True)
        frames[:, :, j] = col
        Q = Q - col[:, :, None] * col[:, None, :]
    return frames


def triple_product_hessian_form(f) -> sp.csr_matrix:
    """The Hessian form as B^T (K kron I_n) B plus the curvature blocks, B the frame
    injection, symmetrized as (F + F^T)/2: the assembly ``hessian_matrix`` replaced."""
    V, n = f.values.shape
    dN = f.target.intrinsic_dim
    frames = f.target.tangent_frames(f.values)  # the form's own frames: compared entry by entry
    B = _block_diagonal(frames)
    Kn = sp.kron(f.mesh.stiffness, sp.identity(n, format="csr"), format="csr")
    lap = laplace_beltrami_apply(f.mesh, f.values)
    S = np.empty((V, dN, dN))
    for i in range(dN):
        for j in range(i, dN):
            d2 = f.target.ambient_hessian_of_projection(f.values, frames[:, :, i], frames[:, :, j])
            S[:, i, j] = S[:, j, i] = f.mesh.area * np.einsum("vi,vi->v", d2, lap)
    F = (B.T @ Kn @ B).tocsr() + _block_diagonal(S)
    return ((F + F.T) * 0.5).tocsr()


def tangent_mass(f) -> np.ndarray:
    """The lumped mass of each tangent unknown of the Hessian form: a_x, dN times."""
    return np.repeat(f.mesh.area, f.target.intrinsic_dim)


def mass_symmetrized_form(f) -> sp.csr_matrix:
    """M^{-1/2} F M^{-1/2}, F = hessian_matrix(f): the matrix whose spectrum is f's."""
    s = sp.diags(1.0 / np.sqrt(tangent_mass(f)))
    return (s @ hessian_matrix(f) @ s).tocsr()


def hessian_apply(f, v):
    """H(f) v = B (F (B^T v)) / mass: the assembled form lifted to ambient fields."""
    B = _block_diagonal(f.target.tangent_frames(f.values))
    hv = B @ ((hessian_matrix(f) @ (B.T @ v.ravel())) / tangent_mass(f))
    return hv.reshape(v.shape)


def reference_hessian_apply(f, v):
    """H(f) v = dpi(f) Delta v + tangent representative of <d2pi(f)(v, .), Delta f>,
    contracted per ambient direction, without tangent frames or the assembled form."""
    lap_v = laplace_beltrami_apply(f.mesh, v)
    lap_f = laplace_beltrami_apply(f.mesh, f.values)
    n = f.target.ambient_dim
    g = np.empty_like(f.values)
    eye = np.eye(n)
    for c in range(n):
        d2 = f.target.ambient_hessian_of_projection(
            f.values, v, np.broadcast_to(eye[c], f.values.shape)
        )
        g[:, c] = np.einsum("vi,vi->v", d2, lap_f)
    return f.target.tangent_project(f.values, lap_v + g)


def recursive_dissection_order(mesh, leaf: int) -> np.ndarray:
    """The nested-dissection order of ``SourceMesh.dissection_order`` by recursion,
    one piece at a time, to leaves of at most ``leaf`` vertices."""
    G = abs(mesh.stiffness)  # explicit zeros are no edges
    upper = np.zeros(mesh.vertex_count)
    order: list[np.ndarray] = []

    def dissect(piece: np.ndarray) -> None:
        if piece.size <= leaf:
            order.append(piece)
            return
        pts = mesh.points[piece]
        ranked = piece[np.argsort(pts[:, np.argmax(np.ptp(pts, axis=0))], kind="stable")]
        lo, hi = ranked[: piece.size // 2], ranked[piece.size // 2:]
        upper[hi] = 1.0
        cut = G[lo] @ upper > 0
        upper[hi] = 0.0
        dissect(lo[~cut])
        dissect(hi)
        order.append(lo[cut])

    dissect(np.arange(mesh.vertex_count))
    return np.concatenate(order)


def dense_laplacian_spectrum(mesh, subset=None):
    """Eigenvalues of K x = lambda diag(area) x, ascending, from a dense generalized
    solve; ``subset`` is an index range [lo, hi] into them."""
    return scipy.linalg.eigh(mesh.stiffness.toarray(), np.diag(mesh.area),
                             eigvals_only=True, subset_by_index=subset)


def dense_hessian_eigenvalues(f):
    """Every eigenvalue of f's mass-symmetrized form M^{-1/2} F M^{-1/2}, ascending,
    from a dense n x n copy."""
    return np.linalg.eigvalsh(mass_symmetrized_form(f).toarray())


def single_band_eigenvalues(f):
    """Every eigenvalue of f's M^{-1/2} F M^{-1/2}, ascending, from one lower band of the
    whole matrix in reverse Cuthill-McKee order, whatever its components."""
    A = mass_symmetrized_form(f)
    A.eliminate_zeros()
    order = reverse_cuthill_mckee(A, symmetric_mode=True)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    C = A.tocoo()
    row, col = rank[C.row], rank[C.col]
    low = row >= col
    offset, col = row[low] - col[low], col[low]
    band = np.zeros((offset.max(initial=0) + 1, A.shape[0]))
    band[offset, col] = C.data[low]
    return scipy.linalg.eig_banded(band, lower=True, eigvals_only=True)


def dissipation_check(trace) -> float:
    """Max relative residual of dE/dt = -|M|^2 over interior trace samples."""
    if len(trace.t) < 3:
        raise InsufficientSamples("need at least 3 samples")
    t, e, g2 = trace.t, trace.energy, trace.grad_norm_l2**2
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


def reference_sobolev_norm(mesh, f: np.ndarray, k: int, p: float) -> float:
    """Discrete W^{k,p} norm of one field, every order through the pointwise
    |grad f_c| = sqrt(scatter (D f_c)^2 / area), also at p = 2."""
    if k not in SOBOLEV_ORDERS:
        raise UnsupportedOrder(f"sobolev order k={k} not in {SOBOLEV_ORDERS}")
    if p < 1:
        raise InadmissibleExponents(f"p must be >= 1, got {p}")
    f = _check_field(mesh, f)
    comps = f[:, None] if f.ndim == 1 else f
    terms = [comps]
    if k >= 1:  # pointwise |grad f_c|
        df = mesh.diff @ comps
        grad_sq = mesh.diff_scatter @ (df * df) / mesh.area[:, None]
        terms.append(np.sqrt(np.maximum(grad_sq, 0.0)))
    if k >= 2:
        terms.append(laplace_beltrami_apply(mesh, comps))
    total = sum(float(np.sum(mesh.area @ np.abs(t) ** p)) for t in terms)
    return total ** (1.0 / p)


def reference_bilipschitz_estimate(f, radius, samples, norm=(1, 2.0), seed=0) -> ChartReport:
    """The chart audit one sample at a time, each norm evaluated in full."""
    delta = f.target.chart_radius()
    if radius >= delta:
        raise ChartRadiusExceeded(f"radius {radius:.3e} >= {delta:.3e}")
    k, p = norm
    rng = stream(seed, "chart-bilipschitz")
    mesh = f.mesh
    max_ratio = 0.0
    min_ratio = np.inf
    max_rt = 0.0
    used = 0
    for _ in range(int(samples)):
        u = random_tangent_field(f, rng)
        n_u = reference_sobolev_norm(mesh, u, k, p)
        if n_u == 0.0:
            continue
        u *= radius * rng.uniform(0.1, 1.0) / n_u
        if linf(u) >= delta:
            u *= 0.5 * delta / linf(u)
        f1 = chart_push(f, u)
        n_u = reference_sobolev_norm(mesh, u, k, p)
        n_d = reference_sobolev_norm(mesh, f.values - f1.values, k, p)
        if n_d == 0.0:
            continue
        ratio = n_u / n_d
        max_ratio = max(max_ratio, ratio)
        min_ratio = min(min_ratio, ratio)
        back = chart_pull(f, f1)
        max_rt = max(max_rt, float(np.max(np.linalg.norm(back - u, axis=1))))
        used += 1
    c4 = max(max_ratio, 1.0 / min_ratio) if used else 1.0
    return ChartReport(
        c4_estimate=float(c4),
        max_roundtrip_error=float(max_rt),
        sample_count=used,
        radius_used=float(radius),
    )


def reference_sample_neighborhood(f_inf, sigma, count, norm=(1, 2.0), seed=0) -> list:
    """The neighbourhood sampler one sample at a time, shrinking each in turn."""
    k, p = norm
    rng = stream(seed, "loja-neighborhood")
    mesh = f_inf.mesh
    out = []
    for _ in range(int(count)):
        u = random_tangent_field(f_inf, rng)
        target_norm = sigma * rng.uniform(0.0, 1.0)
        n_u = reference_sobolev_norm(mesh, u, k, p)
        if n_u == 0.0:
            continue
        u *= target_norm / n_u
        f = chart_push(f_inf, u)
        # enforce the neighborhood condition on the map difference itself
        for _ in range(8):
            d = reference_sobolev_norm(mesh, f.values - f_inf.values, k, p)
            if d < sigma:
                break
            u *= 0.9 * sigma / d
            f = chart_push(f_inf, u)
        out.append(f)
    return out


def stack_maps(maps) -> np.ndarray:
    """Maps as one (V, S, n) sample stack, the unit ``verify_inequality`` measures."""
    return np.stack([m.values for m in maps], axis=1)


def sample_maps(stacks, f_inf) -> list:
    """The samples of (V, S, n) stacks as maps, one view per sample, unchecked."""
    return [_unchecked(MapField, values=s[:, j], target=f_inf.target, mesh=f_inf.mesh)
            for s in stacks for j in range(s.shape[1])]
