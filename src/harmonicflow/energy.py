"""Energy, tension field, and Hessian of the harmonic map energy.

The energy is E(f) = 1/2 sum_rows |D f|^2, the squared gradient-stencil
differences; since D^T D = K it is the quadratic form 1/2 f^T K f (per ambient
component).  With lumped mass the chain

    E'(f)(u) = (u, M(f))_L2,   M(f) = P(f) Delta f,   Delta f = (K f)/area

holds to rounding error rather than to discretization error: the
finite-difference checks in the test suite bottom out near machine precision.

The Hessian is assembled once, by ``hessian_matrix``, as the mass-weighted
bilinear form in the target's per-vertex orthonormal tangent frames e_x
(n x dN), on K's block sparsity:

    F_xy = K_xy e_x^T e_y + [x = y] a_x < d2pi(f)(e_i, Delta f), e_j >,

the curvature term being -a_x (nu . Delta f) <S e_i, e_j>, nu the normal, S the shape
operator; F is symmetric, no zeros stored; H(f) v = B (F (B^T v)) / mass, B the frame injection.
``hessian_spectrum`` takes every eigenvalue of M^{-1/2} F M^{-1/2} up to
FULL_SPECTRUM_LIMIT unknowns, from the band of each connected component of its
graph (a decoupled tangent block gets its own) in reverse Cuthill-McKee order;
above, the ones nearest zero, by shift-invert Lanczos on one sparse LU factor
in nested-dissection order, shifted below zero by a Gershgorin bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import EigensolveFailure
from .fields import MapField
from .meshes import SourceMesh, _largest_eigenvalue, l2_norm, laplace_beltrami_apply

__all__ = [
    "energy",
    "tension",
    "hessian_matrix",
    "hessian_spectrum",
    "grad_l2_norm",
    "HessianOperator",
    "HessianSpectrum",
]


def energy(f: MapField) -> float:
    """E(f) = 1/2 sum_rows |D f|^2."""
    # Squared stencil differences, not 1/2 sum f.Kf: that form cancels O(1)
    # terms and resolves E only to ~1e-15, which swamps the gaps the
    # exponent fit reads (relative error 1e-2 at E ~ 3e-13 on the ico3 basin).
    # run_flow tests candidates by increments 1/2 (c - f).(Kf + Kc) and
    # anchors its trace to this sum at the final map.
    df = f.mesh.diff @ f.values
    return 0.5 * float(np.vdot(df, df))  # the same sum of squares, without a temporary


def tension(f: MapField) -> np.ndarray:
    """M(f) = dpi(f) Delta f, the L2 gradient of the energy, (V, n)."""
    return f.target.tangent_project(f.values, laplace_beltrami_apply(f.mesh, f.values))


def grad_l2_norm(f: MapField) -> float:
    return l2_norm(f.mesh, tension(f))


# ---------------------------------------------------------------------------
# Hessian

@dataclass(eq=False)
class HessianOperator:
    """Discrete Hessian in per-vertex tangent frames.

    ``form`` is the mass-weighted bilinear form matrix, symmetric, in dN x dN
    blocks on the vertex graph of ``mesh``; the operator in the mass inner
    product is diag(1/mass) @ form.
    """

    form: sp.csr_matrix
    mass: np.ndarray
    asymmetry_rel: float
    mesh: SourceMesh


def hessian_matrix(f: MapField) -> HessianOperator:
    """The Hessian form, block by block on K's sparsity (module docstring); the curvature
    term a_x <d2pi(e_i, Delta f), e_j> = -a_x (nu . Delta f) <S e_i, e_j> from one d2pi call,
    mirrored from i <= j, exact zeros dropped; neither frames nor d2pi recheck the MapField."""
    V, dN = f.mesh.vertex_count, f.target.intrinsic_dim
    frames = f.target.tangent_frames(f.values)
    K = f.mesh.stiffness
    rows = np.repeat(np.arange(V), np.diff(K.indptr))
    blocks = K.data[:, None, None] * np.einsum("kni,knj->kij", frames[rows], frames[K.indices])

    lap = laplace_beltrami_apply(f.mesh, f.values)[:, None, :]
    d2 = f.target._d2_projection(f.values[:, None, :], frames.transpose(0, 2, 1), lap)
    at = np.flatnonzero(rows == K.indices)  # vertex x's diagonal block: K stores every one
    diag = blocks[at] + f.mesh.area[:, None, None] * np.einsum("vin,vnj->vij", d2, frames)
    blocks[at] = np.triu(diag) + np.triu(diag, 1).transpose(0, 2, 1)  # (i, j) mirrored to (j, i)
    F = sp.bsr_matrix((blocks, K.indices, K.indptr), shape=(V * dN, V * dN)).tocsr()
    F.eliminate_zeros()  # the blocks' exact zeros, as of decoupled tangent components

    denom = spla.norm(F) if F.nnz else 1.0
    asym = float(spla.norm(F - F.T) / denom) if denom > 0 else 0.0
    return HessianOperator(F, np.repeat(f.mesh.area, dN), asym, f.mesh)


@dataclass
class HessianSpectrum:
    eigenvalues: list[float]
    kernel_dim: int
    kernel_tol: float
    basis_dim: int
    gap_ratio: float
    index: int
    partial: bool


FULL_SPECTRUM_LIMIT = 3000


def _band_eigenvalues(A: sp.csr_matrix) -> np.ndarray:
    """Every eigenvalue of the symmetric A, ascending, one graph component's RCM band at a
    time; a stored zero would count as an edge, and the caller's diag(s) F diag(s) has none."""
    # imported here: about 1 MB of RSS that runs without a full spectrum do not pay
    from scipy.sparse.csgraph import connected_components, reverse_cuthill_mckee
    count, labels = connected_components(A, directed=False)
    order = reverse_cuthill_mckee(A, symmetric_mode=True)
    order = order[np.argsort(labels[order], kind="stable")]  # component c: order[labels[order] == c]
    rank = np.argsort(order)  # the inverse permutation
    C = A.tocoo()
    row, col = rank[C.row], rank[C.col]
    low = row >= col
    offset, col = row[low] - col[low], col[low]
    band = np.zeros((offset.max(initial=0) + 1, A.shape[0]))
    band[offset, col] = C.data[low]  # LAPACK lower band storage: a[i, j] at [i - j, j]
    width = np.zeros(count, dtype=int)
    np.maximum.at(width, labels[C.row[low]], offset)
    blocks = np.split(band, np.cumsum(np.bincount(labels))[:-1], axis=1)  # one per component
    return np.sort(np.concatenate([
        scipy.linalg.eig_banded(block[: b + 1], lower=True, eigvals_only=True)
        for b, block in zip(width, blocks)
    ]))


def hessian_spectrum(
    op: HessianOperator,
    kernel_tol: float | None = None,
    n_modes: int = 32,
) -> HessianSpectrum:
    """Eigenvalues (ascending) with a gap-aware kernel count.

    Up to FULL_SPECTRUM_LIMIT unknowns every eigenvalue, from LAPACK's banded
    solver on the band of each connected component of the matrix's graph, in
    reverse Cuthill-McKee order, merged in ascending order; above, the
    ``n_modes`` nearest zero by shift-invert: ARPACK runs on the solves of one LU
    factor of A - sigma I, its rows and columns in the mesh's ``dissection_order``
    (each vertex's dN unknowns together), sigma = -1e-6 max(g, 1) with g =
    max_i sum_j |A_ij| >= lambda_max (Gershgorin).  A form with a non-finite
    entry raises EigensolveFailure on either path.  kernel_tol defaults to 1e-6
    times the largest eigenvalue, which the sparse path finds by one more Lanczos
    run.  The index counts the (computed) eigenvalues below -kernel_tol.
    """
    dim = op.form.shape[0]
    s = 1.0 / np.sqrt(op.mass)
    A = sp.diags(s) @ op.form @ sp.diags(s)  # mass-symmetrized M^{-1/2} F M^{-1/2}
    # each solver reads one triangle or one product: check every stored entry here
    if not np.isfinite(A.data).all():
        raise EigensolveFailure("non-finite entry in the Hessian form")
    if dim <= FULL_SPECTRUM_LIMIT:
        try:
            vals = _band_eigenvalues(A)
        except (ValueError, np.linalg.LinAlgError) as exc:
            raise EigensolveFailure(str(exc)) from exc
        partial = False
    else:
        sigma = -1e-6 * max(float(abs(A).sum(axis=1).max()), 1.0)
        dN = dim // op.mesh.vertex_count
        p = (op.mesh.dissection_order[:, None] * dN + np.arange(dN)).ravel()
        inv = np.argsort(p)  # y = z[inv] solves y[p] = z
        try:
            # SuperLU's default threshold pivoting stays on: A is indefinite at saddles
            lu = spla.splu((A - sigma * sp.identity(dim))[p][:, p].tocsc(), permc_spec="NATURAL")
            v0 = np.sin(1.3 * np.arange(dim)) + 0.5
            vals = spla.eigsh(
                A, k=min(n_modes, dim - 2), sigma=sigma, which="LM", v0=v0, return_eigenvectors=False,
                OPinv=spla.LinearOperator((dim, dim), lambda x: lu.solve(x[p])[inv], dtype=float),
            )
        except Exception as exc:
            raise EigensolveFailure(str(exc)) from exc
        vals = np.sort(vals)
        partial = True
    if kernel_tol is None:
        kernel_tol = 1e-6 * abs(_largest_eigenvalue(A) if partial else vals[-1])
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
