"""Discretized closed source manifolds.

A mesh carries a lumped mass vector ``area``, a gradient-stencil matrix ``D``
with row-to-vertex scatter weights, and eight closed-form low modes; each kind
defines its points, area, D, scatter and modes, and ``_source_mesh`` forms the
rest in one place: the stiffness matrix K = D^T D, and the modes scaled to unit
L2 norm as the read-only basis ``SourceMesh.modes``.  So for
every vertex function f

    f^T K f  =  sum_rows |D f|^2  ~  integral of |grad f|^2,

and the harmonic map energy is E(f) = 1/2 sum_rows |D f|^2 (energy.energy).
K is bitwise symmetric and positive semidefinite; its row sums, folded into
the diagonal, vanish within rounding (|K 1| <= 1e-14 max|K|).  The Laplacian
follows the nonnegative convention Delta = -div grad, applied as (K f) / area.

Discretizations:
  * circle: uniform grid; D is a three-tap filter, the spectral factorization
    of the five-point fourth-order stiffness symbol (the second-order chordal
    form is not accurate enough for the degree-k energy checks).
  * flat torus: uniform grid, one chord difference per edge; K is the
    five-point graph Laplacian.
  * round sphere: icosphere with barycentric areas, per-face affine-interpolant
    gradients, two rows per face (face frame); K is the cotangent Laplacian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import EigensolveFailure, InadmissibleExponents, InvalidSpec, ShapeMismatch, UnsupportedOrder
from .rng import stream
from .specs import REQUIRED, integer, positive, take_kind

__all__ = [
    "SourceMesh",
    "build_source",
    "build_circle",
    "build_flat_torus",
    "build_icosphere",
    "MESH_KINDS",
    "laplace_beltrami_apply",
    "l2_inner",
    "row_dots",
    "sobolev_norm",
    "random_scalar_field",
    "validate_exponents",
    "sobolev_multiplication_probe",
]


DISSECTION_LEAF = 8  # vertices; the ico5 identity Hessian factor fills 0.75x COLAMD at 64, 0.65x at 8


@dataclass(frozen=True, eq=False)
class SourceMesh:
    """A closed source mesh; its stiffness spectral radius and nested-dissection
    vertex order (for sparse factors of operators on its graph) are lazy."""

    points: np.ndarray          # parameter/embedding coords per vertex
    area: np.ndarray            # lumped mass per vertex, (V,)
    stiffness: sp.csr_matrix    # K = D^T D, bitwise symmetric, K 1 = 0 to rounding
    diff: sp.csr_matrix         # D, (m, V) gradient stencil rows
    diff_scatter: sp.csr_matrix  # (V, m), row weights sum to 1 per row
    spec: dict                  # {"kind": ..., builder arguments}
    modes: np.ndarray           # (V, 8) closed-form low modes, unit L2 norm, read-only

    @property
    def kind(self) -> str:
        return self.spec["kind"]

    @property
    def dimension(self) -> int:
        return MESH_KINDS[self.kind].dimension

    @property
    def vertex_count(self) -> int:
        return int(self.area.shape[0])

    @property
    def total_area(self) -> float:
        return float(np.sum(self.area))

    @cached_property
    def spectral_radius(self) -> float:
        """lambda_max of K/area, from one Lanczos solve on diag(s) K diag(s),
        s = area^(-1/2), at first use."""
        s = sp.diags(1.0 / np.sqrt(self.area))
        return _largest_eigenvalue(s @ self.stiffness @ s)

    @cached_property
    def dissection_order(self) -> np.ndarray:
        """Nested-dissection order of K's vertex graph (A. George, 1973) to leaves of
        at most DISSECTION_LEAF vertices, at first use: a piece splits at the median
        of its widest coordinate, ties in its previous order, and its lower half's
        vertices with upper-half neighbours (wrap-around too) go after both
        halves.  Every piece at one depth splits at once, and each vertex is
        placed by its base-3 path (lower half 0, upper half 1, separator 2)."""
        r, c = sp.triu(self.stiffness, 1).nonzero()  # each edge once; explicit zeros are none
        V = self.vertex_count
        # each coordinate's rank among all vertices', equal coordinates alike
        place = np.stack([np.unique(x, return_inverse=True)[1] for x in self.points.T], axis=1)
        code, depth, rank = np.zeros(V, dtype=np.int64), np.zeros(V, dtype=np.int64), np.arange(V)
        live = np.arange(V if V > DISSECTION_LEAF else 0)  # in pieces to split, by piece and rank
        while live.size:
            start = np.flatnonzero(np.diff(code[live], prepend=-1))  # where each piece starts
            size = np.diff(start, append=live.size)
            piece = np.repeat(np.arange(start.size), size)
            pts = self.points[live]
            axis = np.argmax(np.maximum.reduceat(pts, start) - np.minimum.reduceat(pts, start), axis=1)
            # by piece, then the widest coordinate; stable, so ties keep the previous rank
            live = live[np.argsort(piece * V + place[live, axis[piece]], kind="stable")]
            rank[live] = np.arange(live.size)
            upper = rank[live] - start[piece] >= size[piece] // 2
            side = np.full(V, -1)
            side[live] = 2 * piece + upper
            sr, sc = side[r], side[c]
            inside = (sr >= 0) & (sr >> 1 == sc >> 1)  # the edges within a piece
            r, c, step = r[inside], c[inside], (sc - sr)[inside]
            cut = np.zeros(V, dtype=bool)
            cut[r[step == 1]] = cut[c[step == -1]] = True  # lower-half ends of edges across
            code[live] = 3 * code[live] + np.where(cut[live], 2, upper)
            depth[live] += 1
            lower = size // 2 - np.bincount(piece[cut[live]], minlength=size.size)
            child = np.where(upper, (size - size // 2)[piece], lower[piece])  # its half's size
            live = live[~cut[live] & (child > DISSECTION_LEAF)]
        return np.lexsort((rank, code * 3 ** (depth.max() - depth)))  # paths padded with 0s


def _largest_eigenvalue(A: sp.spmatrix) -> float:
    try:
        v0 = np.cos(0.7 * np.arange(A.shape[0]))  # fixed deterministic start
        val = spla.eigsh(A, k=1, which="LA", v0=v0, return_eigenvectors=False)
        return float(val[0])
    except Exception as exc:  # pragma: no cover - arpack failure is exotic
        raise EigensolveFailure(str(exc)) from exc


# ---------------------------------------------------------------------------
# builders

def _source_mesh(points, area, D, scatter, spec, modes) -> SourceMesh:
    """The mesh with gradient stencil D, stiffness K = D^T D, and the closed-form
    ``modes`` (continuum eigenfunctions, so the same fields exist on every
    level) scaled to unit L2 norm; every draw shares them, so they are read-only."""
    K = _zero_row_sums((D.T @ D).tocsr())
    basis = np.stack([c / math.sqrt(float(np.dot(area, c * c))) for c in modes], axis=1)
    basis.flags.writeable = False
    return SourceMesh(points=points, area=area, stiffness=K, diff=D, diff_scatter=scatter,
                      spec=spec, modes=basis)


def _zero_row_sums(K: sp.csr_matrix, sweeps: int = 3) -> sp.csr_matrix:
    """Fold any matvec-order rounding defect of K @ 1 back into the diagonal."""
    ones = np.ones(K.shape[0])
    for _ in range(sweeps):
        defect = K @ ones
        if not np.any(defect):
            break
        K = K - sp.diags(defect)
    return K.tocsr()


MIN_GRID_SIDE = 8  # fewest vertices along a circle or a flat-torus side
MAX_VERTICES = 163_842  # icosphere level 7: the largest mesh a scenario may build


def _require_grid(what: str, *sides: int) -> None:
    """Raise InvalidSpec, before any allocation, for a side or a grid out of range."""
    if min(sides) < MIN_GRID_SIDE:
        raise InvalidSpec(f"{what} needs at least {MIN_GRID_SIDE} vertices per side")
    if math.prod(sides) > MAX_VERTICES:
        raise InvalidSpec(f"{what} has {math.prod(sides)} vertices, more than {MAX_VERTICES}")


def build_circle(n: int) -> SourceMesh:
    """Uniform n-vertex grid on the unit circle."""
    n = int(n)
    _require_grid("circle", n)
    h = 2.0 * math.pi / n
    theta = h * np.arange(n)
    area = np.full(n, h)
    idx = np.arange(n)

    # 3-tap filter g with |ghat|^2 = h * symbol of the fourth-order five-point
    # stiffness, (1-c)(7-c)/(3h) after mass pairing: D^T D is that stencil
    alpha = math.sqrt((7.0 + math.sqrt(48.0)) / 2.0)
    beta = 1.0 / (2.0 * alpha)
    scale = 1.0 / math.sqrt(6.0 * h)
    taps = np.array([alpha, -(alpha + beta), beta]) * scale
    rows_d = np.repeat(idx, 3)
    cols_d = np.stack([idx, (idx + 1) % n, (idx + 2) % n], axis=1).ravel()
    vals_d = np.tile(taps, n)
    D = sp.csr_matrix((vals_d, (rows_d, cols_d)), shape=(n, n))
    # density for row i attributed to the stencil center i+1
    scatter = sp.csr_matrix(
        (np.ones(n), ((idx + 1) % n, idx)), shape=(n, n)
    )

    modes = [np.ones(n), *(f(k * theta) for k in (1, 2, 3) for f in (np.cos, np.sin)),
             np.cos(4 * theta)]
    return _source_mesh(theta[:, None], area, D, scatter, {"kind": "circle", "n": n}, modes)


FLAT_TORUS_SIDE = 2.0 * math.pi  # default side length of the flat torus


def build_flat_torus(nu: int, nv: int, lu: float = FLAT_TORUS_SIDE, lv: float = FLAT_TORUS_SIDE) -> SourceMesh:
    """Uniform nu x nv grid on a flat rectangular torus of side lengths lu, lv."""
    nu, nv = int(nu), int(nv)
    _require_grid("flat torus", nu, nv)
    if not (0 < lu < math.inf and 0 < lv < math.inf):
        raise InvalidSpec("flat torus needs finite positive side lengths")
    hu, hv = lu / nu, lv / nv
    V = nu * nv
    iu, iv = np.divmod(np.arange(V), nv)
    points = np.stack([iu * hu, iv * hv], axis=1)
    area = np.full(V, hu * hv)

    ei = np.tile(np.arange(V), 2)
    ej = np.concatenate([(iu + 1) % nu * nv + iv, iu * nv + (iv + 1) % nv])  # u-, then v-neighbours
    ew = np.repeat([hv / hu, hu / hv], V)
    D, scatter = _edge_diff(ei, ej, ew, V)
    spec = {"kind": "flat_torus", "nu": nu, "nv": nv, "lu": lu, "lv": lv}
    u = 2.0 * math.pi * points[:, 0] / lu
    v = 2.0 * math.pi * points[:, 1] / lv
    modes = [np.ones(V), np.cos(u), np.sin(u), np.cos(v), np.sin(v),
             np.cos(u) * np.cos(v), np.cos(u) * np.sin(v), np.sin(u) * np.cos(v)]
    return _source_mesh(points, area, D, scatter, spec, modes)


def _edge_diff(ei, ej, ew, V):
    """Per-edge rows sqrt(w) (f_j - f_i); density split half to each endpoint."""
    m = ei.shape[0]
    r = np.repeat(np.arange(m), 2)
    c = np.stack([ei, ej], axis=1).ravel()
    s = np.sqrt(ew)
    d = np.stack([-s, s], axis=1).ravel()
    D = sp.csr_matrix((d, (r, c)), shape=(m, V))
    sc_rows = np.concatenate([ei, ej])
    sc_cols = np.concatenate([np.arange(m), np.arange(m)])
    scatter = sp.csr_matrix(
        (np.full(2 * m, 0.5), (sc_rows, sc_cols)), shape=(V, m)
    )
    return D, scatter


def _icosahedron():
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    verts = np.array(
        [
            (-1, phi, 0), (1, phi, 0), (-1, -phi, 0), (1, -phi, 0),
            (0, -1, phi), (0, 1, phi), (0, -1, -phi), (0, 1, -phi),
            (phi, 0, -1), (phi, 0, 1), (-phi, 0, -1), (-phi, 0, 1),
        ],
        dtype=float,
    )
    verts /= np.linalg.norm(verts, axis=1, keepdims=True)
    faces = np.array(
        [
            (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
            (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
            (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
            (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
        ],
        dtype=np.int64,
    )
    return verts, faces


def build_icosphere(level: int) -> SourceMesh:
    """Icosphere at the given subdivision level, unit radius."""
    if not (0 <= int(level) <= 7):
        raise InvalidSpec("icosphere level must be in 0..7")
    level = int(level)
    verts, faces = _icosahedron()
    for _ in range(level):
        # edges ab, bc, ca of each face; a midpoint is numbered at its first face
        edges = faces[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
        keys = np.min(edges, axis=1) * len(verts) + np.max(edges, axis=1)
        _, first, which = np.unique(keys, return_index=True, return_inverse=True)
        rank = np.argsort(np.argsort(first))
        mids = edges[np.sort(first)]
        p = verts[mids[:, 0]] + verts[mids[:, 1]]
        # |p| as a dot product: the sum np.linalg.norm forms for one vector
        p /= np.sqrt(np.matmul(p[:, None, :], p[:, :, None]))[:, 0]
        ab, bc, ca = (len(verts) + rank[which]).reshape(-1, 3).T
        a, b, c = faces.T
        faces = np.stack([a, ab, ca, b, bc, ab, c, ca, bc, ab, bc, ca], axis=1).reshape(-1, 3)
        verts = np.concatenate([verts, p])
    V = verts.shape[0]
    F = faces.shape[0]

    p0, p1, p2 = verts[faces[:, 0]], verts[faces[:, 1]], verts[faces[:, 2]]
    e0, e1, e2 = p2 - p1, p0 - p2, p1 - p0  # edge opposite each corner
    normal = np.cross(e1, e2)
    double_area = np.linalg.norm(normal, axis=1)
    face_area = 0.5 * double_area

    area = np.zeros(V)
    np.add.at(area, faces[:, 0], face_area / 3.0)
    np.add.at(area, faces[:, 1], face_area / 3.0)
    np.add.at(area, faces[:, 2], face_area / 3.0)

    # per-face affine gradient rows, scaled by sqrt(A): D^T D is the cotangent
    # Laplacian (Pinkall and Polthier, Experiment. Math. 2, 1993).  The
    # gradient lies in the face plane, so its components in the orthonormal
    # face frame t1 = e0/|e0|, t2 = nhat x t1 carry all of |grad f|^2: two rows
    # per face, not three Cartesian ones.  Along t1 it is the edge difference
    # (f_2 - f_1)/|e0| (two taps); along t2, with grad phi_k = (nhat x e_k)/(2A),
    # grad phi_k . t2 = (e_k . t1)/(2A).  Each row's density goes 1/3 to each corner.
    len0 = np.linalg.norm(e0, axis=1)
    t1 = e0 / len0[:, None]
    root_area = np.sqrt(face_area)
    across = np.stack([np.sum(e * t1, axis=1) for e in (e0, e1, e2)], axis=1)
    vals = np.column_stack([-root_area / len0, root_area / len0,
                            across / (2.0 * root_area[:, None])])  # (F, 5)
    rows = 2 * np.arange(F)[:, None] + np.array([0, 0, 1, 1, 1])
    cols = faces[:, [1, 2, 0, 1, 2]]
    D = sp.csr_matrix((vals.ravel(), (rows.ravel(), cols.ravel())), shape=(2 * F, V))
    corners = np.repeat(faces, 2, axis=0)  # (2F, 3): the face of each row
    scatter = sp.csr_matrix(
        (np.full(corners.size, 1.0 / 3.0), (corners.ravel(), np.repeat(np.arange(2 * F), 3))),
        shape=(V, 2 * F),
    )

    x, y, z = verts.T
    modes = [np.ones(V), x, y, z, x * y, y * z, z * x, x * x - y * y]
    return _source_mesh(verts, area, D, scatter, {"kind": "icosphere", "level": level}, modes)


class MeshKind(NamedTuple):
    build: Callable[..., SourceMesh]  # specs.Kind's two fields, and the mesh's dimension
    keys: dict[str, tuple]
    dimension: int


MESH_KINDS = {
    "circle": MeshKind(build_circle, {"n": (integer, REQUIRED)}, 1),
    "flat_torus": MeshKind(build_flat_torus, {
        "nu": (integer, REQUIRED), "nv": (integer, REQUIRED),
        "lu": (positive(float), FLAT_TORUS_SIDE), "lv": (positive(float), FLAT_TORUS_SIDE),
    }, 2),
    "icosphere": MeshKind(build_icosphere, {"level": (integer, REQUIRED)}, 2),
}


def build_source(spec: dict) -> SourceMesh:
    """Construct a mesh from a scenario-style spec dict: a kind and only its keys."""
    kind, *values = take_kind(MESH_KINDS, spec, "mesh spec").values()
    return MESH_KINDS[kind].build(*values)


# ---------------------------------------------------------------------------
# operators

def _check_field(mesh: SourceMesh, f: np.ndarray) -> np.ndarray:
    f = np.asarray(f, dtype=float)
    if f.shape[0] != mesh.vertex_count:
        raise ShapeMismatch(
            f"field has {f.shape[0]} vertices, mesh has {mesh.vertex_count}"
        )
    return f


def laplace_beltrami_apply(mesh: SourceMesh, f: np.ndarray) -> np.ndarray:
    """Componentwise Delta f = (K f) / area (nonnegative spectrum)."""
    f = _check_field(mesh, f)
    Kf = mesh.stiffness @ f
    return np.divide(Kf, mesh.area[:, None] if f.ndim > 1 else mesh.area, out=Kf)


def row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_c a_c b_c over the last axis, one column at a time: the sum np.sum
    forms for fewer than 8 columns, without its slow short-axis reduction."""
    p = a * b
    out = p[..., 0] + p[..., 1] if p.shape[-1] > 1 else p[..., 0].copy()
    for c in range(2, p.shape[-1]):
        out += p[..., c]
    return out


def l2_inner(mesh: SourceMesh, u: np.ndarray, v: np.ndarray) -> float:
    """Mass-weighted inner product; components are summed pointwise."""
    u = _check_field(mesh, u)
    v = _check_field(mesh, v)
    if u.shape != v.shape:
        raise ShapeMismatch(f"shapes {u.shape} and {v.shape} differ")
    pointwise = u * v if u.ndim == 1 else row_dots(u, v)
    return float(np.dot(mesh.area, pointwise))


def l2_norm(mesh: SourceMesh, u: np.ndarray) -> float:
    return math.sqrt(max(l2_inner(mesh, u, u), 0.0))


SOBOLEV_ORDERS = (0, 1, 2)  # the orders k that sobolev_norm implements
STACK_ELEMENTS = 1 << 15  # per (V, S, n) stack of S fields: 17 at icosphere L3, 1 from L5 up


def stack_chunks(mesh: SourceMesh, n: int, count: int) -> list[slice]:
    """range(count) in slices of S = max(1, STACK_ELEMENTS // (V n)) fields (<= 256 KB)."""
    size = max(1, STACK_ELEMENTS // (mesh.vertex_count * n))
    return [slice(s, min(s + size, count)) for s in range(0, count, size)]


def sobolev_norm(mesh: SourceMesh, f: np.ndarray, k: int, p: float):
    """Discrete W^{k,p} norm: (sum_j integral |grad^j f|^p)^(1/p).

    A float for a (V,) or (V, n) field, (S,) norms for a (V, S, n) stack.  Components
    enter through p-th powers of their own derivative magnitudes; at p = 2 the first-order
    term is sum_rows |D f|^2, as each D row's scatter weights sum to 1.  The second-order
    term uses |Delta f| as the derivative-magnitude proxy.
    """
    if k not in SOBOLEV_ORDERS:
        raise UnsupportedOrder(f"sobolev order k={k} not in {SOBOLEV_ORDERS}")
    if p < 1:
        raise InadmissibleExponents(f"p must be >= 1, got {p}")
    f = _check_field(mesh, f)
    cols = f.reshape(f.shape[0], -1)  # (V, S n): one sparse product per term
    per_field = f.shape[1:] if f.ndim == 3 else (1, -1)

    def integral(t: np.ndarray) -> np.ndarray:  # per field, of |t|^p over the components
        return (mesh.area @ np.abs(t) ** p).reshape(per_field).sum(axis=1)

    total = integral(cols)
    if k >= 1:
        df = mesh.diff @ cols
        if p == 2:
            total += np.einsum("ij,ij->j", df, df).reshape(per_field).sum(axis=1)
        else:  # pointwise |grad f_c|; in place, D's product freed early (see verify_inequality)
            grad = mesh.diff_scatter @ np.square(df, out=df)
            del df
            grad /= mesh.area[:, None]
            total += integral(np.sqrt(np.maximum(grad, 0.0, out=grad), out=grad))
    if k >= 2:
        total += integral(laplace_beltrami_apply(mesh, cols))
    norms = total ** (1.0 / p)
    return norms if f.ndim == 3 else float(norms[0])


# ---------------------------------------------------------------------------
# band-limited fields

def random_scalar_field(mesh: SourceMesh, rng: np.random.Generator) -> np.ndarray:
    """Band-limited random scalar field with unit-variance mode coefficients."""
    return mesh.modes @ rng.standard_normal(mesh.modes.shape[1])


# ---------------------------------------------------------------------------
# hypothesis tables

VARIANTS = ("wk", "l2")  # gradient measured in W^{k-2,p}, or in L2


@dataclass(frozen=True)
class ExponentVerdict:
    admissible: bool
    reason: str


def validate_exponents(d: int, k: int, p: float, variant: str) -> ExponentVerdict:
    """Admissibility of (d, k, p) for the W^{k-2,p} or L2 inequality.

    ``variant`` is "wk" (gradient measured in W^{k-2,p}) or "l2".  The clause
    structure mirrors the hypothesis tables: kp > d with p in (1, inf) for
    the W-form; the L2 form additionally needs one of
      (1) d = 2, k = 1, 2 < p;  (2) d = 3, k = 1, 3 < p <= 6;
      (3) d >= 2, k >= 2, 2 <= p;
    first-order cases are excluded outright for d >= 4.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if d < 2:
        return ExponentVerdict(False, f"source dimension d = {d} < 2")
    if k < 1:
        return ExponentVerdict(False, f"derivative order k = {k} < 1")
    if not 1 < p < math.inf:
        return ExponentVerdict(False, f"requires p > 1 and finite, got p = {p}")
    if k * p <= d:
        return ExponentVerdict(False, f"requires kp > d, got kp = {k * p}, d = {d}")
    if variant == "wk":
        return ExponentVerdict(True, f"kp = {k * p} > d = {d} with p in (1, inf)")
    # l2 variant
    if k == 1:
        if d >= 4:
            return ExponentVerdict(
                False, "L2 form with k = 1 requires d < 4 (duality exponent fails)"
            )
        if d == 2:
            return ExponentVerdict(True, "d = 2, k = 1, p > 2")
        # d == 3
        if p > 6:
            return ExponentVerdict(False, "d = 3, k = 1 requires 3 < p <= 6")
        return ExponentVerdict(True, "d = 3, k = 1, 3 < p <= 6")
    if p < 2:
        return ExponentVerdict(False, "L2 form with k >= 2 requires p >= 2")
    return ExponentVerdict(True, f"k = {k} >= 2, p >= 2, kp > d")


# ---------------------------------------------------------------------------
# multiplication probe

def sobolev_multiplication_probe(
    levels: list[int],
    k: int,
    p: float,
    trials: int,
    seed: int = 0,
) -> list[dict]:
    """Estimate the W^{k,p} x L2 -> L2 multiplication constant per level.

    Returns, for each level n of the n x n flat torus, the max over seeded
    trials of
    ||f1 f2||_L2 / (||f1||_{W^{k,p}} ||f2||_L2).  Stability of these numbers
    under refinement is the property being probed; trials with f2 = 0 are
    excluded from the max.
    """
    verdict = validate_exponents(MESH_KINDS["flat_torus"].dimension, k, p, "l2")
    if not verdict.admissible:
        raise InadmissibleExponents(f"(k={k}, p={p}) inadmissible: {verdict.reason}")
    rng = stream(seed, "mult-probe")
    out = []
    for level in levels:
        mesh = build_flat_torus(level, level)
        best = 0.0
        for _ in range(int(trials)):
            f1 = random_scalar_field(mesh, rng)
            f2 = random_scalar_field(mesh, rng)
            denom2 = l2_norm(mesh, f2)
            if denom2 == 0.0:
                continue
            ratio = l2_norm(mesh, f1 * f2) / (sobolev_norm(mesh, f1, k, p) * denom2)
            best = max(best, ratio)
        out.append({"level": int(level), "max_ratio": best})
    return out

