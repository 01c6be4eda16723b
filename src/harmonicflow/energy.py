"""Energy, tension field, and Hessian of the harmonic map energy.

The energy is E(f) = 1/2 sum_rows |D f|^2, the squared gradient-stencil
differences; since D^T D = K it is the quadratic form 1/2 f^T K f (per ambient
component).  With lumped mass the chain

    E'(f)(u) = (u, M(f))_L2,   M(f) = P(f) Delta f,   Delta f = (K f)/area

holds to rounding error rather than to discretization error: the
finite-difference checks in the test suite bottom out near machine precision.

The Hessian operator is

    H(f) v = P(f) Delta v + P(f) g,   g_c = < d2pi(f)(v, e_c), Delta f >,

whose mass-weighted bilinear form is symmetric by the symmetry of d2pi.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ChartRadiusExceeded, EigensolveFailure
from .fields import MapField, TangentField, map_sup_distance
from .meshes import l2_inner, l2_norm, laplace_beltrami_apply
from .targets import EmbeddedTarget

__all__ = [
    "energy",
    "tension",
    "tension_via_sff",
    "gradient_pairing_check",
    "hessian_apply",
    "hessian_matrix",
    "hessian_spectrum",
    "tension_fixed_chart",
    "tangent_frames",
    "grad_l2_norm",
    "HessianOperator",
    "HessianSpectrum",
]


def energy(f: MapField) -> float:
    """E(f) = 1/2 sum_rows |D f|^2."""
    # Squared stencil differences, not 1/2 sum f.Kf: that form cancels O(1)
    # terms and resolves E only to ~1e-15, which swamps the gaps the
    # exponent fit reads (relative error 1e-2 at E ~ 3e-13 on the ico3 basin).
    df = f.mesh.diff @ f.values
    return 0.5 * float(np.vdot(df, df))  # the same sum of squares, without a temporary


def tension(f: MapField) -> TangentField:
    """M(f) = dpi(f) Delta f, the L2 gradient of the energy."""
    return TangentField.project(laplace_beltrami_apply(f.mesh, f.values), f)


def grad_l2_norm(f: MapField) -> float:
    return l2_norm(f.mesh, tension(f).values)


def _sff_contraction(f: MapField) -> np.ndarray:
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
    a_vals = f.target.second_fundamental_form(base, td, td)
    out = np.zeros_like(f.values)
    np.add.at(out, rows, 0.5 * w[:, None] * a_vals)
    return out / f.mesh.area[:, None]


def tension_via_sff(f: MapField) -> np.ndarray:
    """M(f) = Delta f - A(f)(df, df); agrees with tension(f) as the mesh refines.

    Returned as the raw ambient array: the difference carries the O(h^2)
    normal defect of the discrete Laplacian, so it is not a tangent field.
    """
    lap = laplace_beltrami_apply(f.mesh, f.values)
    return lap - _sff_contraction(f)


def gradient_pairing_check(f: MapField, u: TangentField, h_step: float) -> float:
    """|centered FD of t -> E(pi(f + t u)) at 0  -  (u, M(f))_L2|."""
    sup = u.linf()
    delta = f.target.chart_radius()
    if h_step * sup >= delta:
        raise ChartRadiusExceeded(
            f"h_step * |u|_inf = {h_step * sup:.3e} >= {delta:.3e}"
        )
    tgt, mesh = f.target, f.mesh

    def e_at(t: float) -> float:
        return energy(MapField.project(f.values + t * u.values, tgt, mesh))

    fd = (e_at(h_step) - e_at(-h_step)) / (2.0 * h_step)
    return abs(fd - l2_inner(mesh, u.values, tension(f).values))


# ---------------------------------------------------------------------------
# Hessian

def tangent_frames(target: EmbeddedTarget, values: np.ndarray) -> np.ndarray:
    """Per-vertex orthonormal tangent frames, shape (V, n, dN).

    Columns of the projector are orthogonalized with a deterministic pivot
    order: largest remaining diagonal first, ties broken by lowest index.
    """
    P = target.tangent_projector(values)
    V, n = values.shape
    dN = target.intrinsic_dim
    Q = P.copy()
    frames = np.empty((V, n, dN))
    for j in range(dN):
        diag = np.diagonal(Q, axis1=1, axis2=2)
        # argmax returns the first of equal maxima: the lowest-index tie-break
        pick = np.argmax(diag, axis=1)
        col = np.take_along_axis(Q, pick[:, None, None], axis=2)[:, :, 0]
        col = col / np.linalg.norm(col, axis=1, keepdims=True)
        frames[:, :, j] = col
        Q = Q - col[:, :, None] * col[:, None, :]
    return frames


@dataclass(eq=False)
class HessianOperator:
    """Discrete Hessian in per-vertex tangent frames.

    ``form`` is the symmetrized mass-weighted bilinear form matrix; the
    operator in the mass inner product is diag(1/mass) @ form.
    """

    form: sp.csr_matrix
    mass: np.ndarray
    asymmetry_rel: float


def _block_diagonal(blocks: np.ndarray) -> sp.csr_matrix:
    """Block-diagonal matrix with the (V, r, c) stack ``blocks`` on its diagonal."""
    V, r, c = blocks.shape
    return sp.bsr_matrix(
        (blocks, np.arange(V), np.arange(V + 1)), shape=(V * r, V * c)
    ).tocsr()


def hessian_matrix(f: MapField) -> HessianOperator:
    """Assemble the Hessian bilinear form on the discrete tangent bundle."""
    V, n = f.values.shape
    dN = f.target.intrinsic_dim
    frames = tangent_frames(f.target, f.values)

    B = _block_diagonal(frames)  # frame injection: coefficients -> ambient
    Kn = sp.kron(f.mesh.stiffness, sp.identity(n, format="csr"), format="csr")
    F = (B.T @ Kn @ B).tocsr()

    # curvature block: a_x < d2pi(e_i, e_j), Delta f >
    lap = laplace_beltrami_apply(f.mesh, f.values)
    S = np.empty((V, dN, dN))
    for i in range(dN):
        for j in range(i, dN):
            d2 = f.target.ambient_hessian_of_projection(
                f.values, frames[:, :, i], frames[:, :, j]
            )
            S[:, i, j] = S[:, j, i] = f.mesh.area * np.einsum("vi,vi->v", d2, lap)
    F = F + _block_diagonal(S)

    anti = F - F.T
    denom = spla.norm(F) if F.nnz else 1.0
    asym = float(spla.norm(anti) / denom) if denom > 0 else 0.0
    F = ((F + F.T) * 0.5).tocsr()
    mass = np.repeat(f.mesh.area, dN)
    return HessianOperator(F, mass, asym)


@dataclass
class HessianSpectrum:
    eigenvalues: list[float]
    kernel_dim: int
    kernel_tol: float
    basis_dim: int
    gap_ratio: float
    index: int
    partial: bool

    def to_json_dict(self) -> dict:
        return asdict(self)


DENSE_EIG_LIMIT = 3000


def _largest_eigenvalue(A: sp.spmatrix) -> float:
    try:
        v0 = np.cos(0.7 * np.arange(A.shape[0]))  # fixed deterministic start
        val = spla.eigsh(A, k=1, which="LA", v0=v0, return_eigenvectors=False)
        return float(val[0])
    except Exception as exc:  # pragma: no cover - arpack failure is exotic
        raise EigensolveFailure(str(exc)) from exc


def hessian_spectrum(
    op: HessianOperator,
    kernel_tol: float | None = None,
    n_modes: int = 32,
) -> HessianSpectrum:
    """Eigenvalues (ascending) with a gap-aware kernel count.

    Dense solve below DENSE_EIG_LIMIT unknowns, shift-invert around zero
    above; kernel_tol defaults to 1e-6 times the largest eigenvalue.  The
    index counts the (computed) eigenvalues below -kernel_tol.
    """
    dim = op.form.shape[0]
    s = 1.0 / np.sqrt(op.mass)
    A = sp.diags(s) @ op.form @ sp.diags(s)  # mass-symmetrized M^{-1/2} F M^{-1/2}
    if dim <= DENSE_EIG_LIMIT:
        try:
            vals = np.linalg.eigvalsh(A.toarray())
        except np.linalg.LinAlgError as exc:
            raise EigensolveFailure(str(exc)) from exc
        lam_max = float(vals[-1])
        partial = False
    else:
        k = min(n_modes, dim - 2)
        lam_max = _largest_eigenvalue(A)
        sigma = -1e-6 * max(lam_max, 1.0)
        try:
            v0 = np.sin(1.3 * np.arange(dim)) + 0.5
            vals = spla.eigsh(
                A.tocsc(), k=k, sigma=sigma, which="LM", v0=v0, return_eigenvectors=False
            )
        except Exception as exc:
            raise EigensolveFailure(str(exc)) from exc
        vals = np.sort(vals)
        partial = True
    if kernel_tol is None:
        kernel_tol = 1e-6 * abs(lam_max)
    kernel_dim = int(np.sum(np.abs(vals) <= kernel_tol))
    # the smallest |lambda| outside the kernel band, of either sign
    above = np.abs(vals[np.abs(vals) > kernel_tol])
    gap_ratio = float(above.min() / kernel_tol) if above.size and kernel_tol > 0 else float("nan")
    return HessianSpectrum(
        eigenvalues=[float(v) for v in vals],
        kernel_dim=kernel_dim,
        kernel_tol=float(kernel_tol),
        basis_dim=dim,
        gap_ratio=gap_ratio,
        index=int(np.sum(vals < -kernel_tol)),
        partial=partial,
    )


def hessian_apply(f: MapField, v: TangentField) -> TangentField:
    """H(f) v = dpi(f) Delta v + tangent representative of <d2pi(f)(v, .), Delta f>."""
    lap_v = laplace_beltrami_apply(f.mesh, v.values)
    lap_f = laplace_beltrami_apply(f.mesh, f.values)
    n = f.target.ambient_dim
    g = np.empty_like(f.values)
    eye = np.eye(n)
    for c in range(n):
        d2 = f.target.ambient_hessian_of_projection(
            f.values, v.values, np.broadcast_to(eye[c], f.values.shape)
        )
        g[:, c] = np.einsum("vi,vi->v", d2, lap_f)
    return TangentField.project(lap_v + g, f)


def tension_fixed_chart(f_inf: MapField, f: MapField) -> TangentField:
    """dpi(f_inf) M(f): the gradient read in the fixed chart at f_inf."""
    delta = f.target.chart_radius()
    if map_sup_distance(f, f_inf) >= delta:
        raise ChartRadiusExceeded("maps too far apart for a common chart")
    return TangentField.project(tension(f).values, f_inf)
