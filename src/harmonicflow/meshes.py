"""Discretized closed source manifolds.

A mesh carries a lumped mass vector ``area`` and a gradient-stencil matrix
``D`` with row-to-vertex scatter weights; each kind defines these, and the
stiffness matrix is K = D^T D, formed in one place (``_source_mesh``).  So for
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
from typing import Callable, NamedTuple

import numpy as np
import scipy.sparse as sp

from .errors import InvalidExponents, InvalidSpec, ShapeMismatch, UnsupportedOrder
from .rng import stream

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
    "lp_norm",
    "sobolev_norm",
    "mode_basis",
    "random_scalar_field",
    "validate_exponents",
    "sobolev_multiplication_probe",
]


@dataclass(frozen=True, eq=False)
class SourceMesh:
    points: np.ndarray          # parameter/embedding coords per vertex
    area: np.ndarray            # lumped mass per vertex, (V,)
    stiffness: sp.csr_matrix    # K = D^T D, bitwise symmetric, K 1 = 0 to rounding
    diff: sp.csr_matrix         # D, (m, V) gradient stencil rows
    diff_scatter: sp.csr_matrix  # (V, m), row weights sum to 1 per row
    spec: dict                  # {"kind": ..., builder arguments}

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


# ---------------------------------------------------------------------------
# builders

def _source_mesh(points, area, D, scatter, spec) -> SourceMesh:
    """The mesh with gradient stencil D; its stiffness is K = D^T D."""
    K = _zero_row_sums((D.T @ D).tocsr())
    return SourceMesh(points=points, area=area, stiffness=K, diff=D, diff_scatter=scatter,
                      spec=spec)


def _zero_row_sums(K: sp.csr_matrix, sweeps: int = 3) -> sp.csr_matrix:
    """Fold any matvec-order rounding defect of K @ 1 back into the diagonal."""
    ones = np.ones(K.shape[0])
    for _ in range(sweeps):
        defect = K @ ones
        if not np.any(defect):
            break
        K = K - sp.diags(defect)
    return K.tocsr()


def build_circle(n: int) -> SourceMesh:
    """Uniform n-vertex grid on the unit circle."""
    if n < 8:
        raise InvalidSpec("circle needs at least 8 vertices")
    n = int(n)
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

    return _source_mesh(theta[:, None], area, D, scatter, {"kind": "circle", "n": n})


FLAT_TORUS_SIDE = 2.0 * math.pi  # default side length of the flat torus


def build_flat_torus(nu: int, nv: int, lu: float = FLAT_TORUS_SIDE, lv: float = FLAT_TORUS_SIDE) -> SourceMesh:
    """Uniform nu x nv grid on a flat rectangular torus of side lengths lu, lv."""
    if nu < 8 or nv < 8:
        raise InvalidSpec("flat torus needs at least an 8 x 8 grid")
    if not (0 < lu < math.inf and 0 < lv < math.inf):
        raise InvalidSpec("flat torus needs finite positive side lengths")
    nu, nv = int(nu), int(nv)
    hu, hv = lu / nu, lv / nv
    V = nu * nv
    iu, iv = np.divmod(np.arange(V), nv)
    points = np.stack([iu * hu, iv * hv], axis=1)
    area = np.full(V, hu * hv)

    def vid(a, b):
        return (a % nu) * nv + (b % nv)

    wu, wv = hv / hu, hu / hv
    edges_i, edges_j, edges_w = [], [], []
    edges_i.append(np.arange(V))
    edges_j.append(vid(iu + 1, iv))
    edges_w.append(np.full(V, wu))
    edges_i.append(np.arange(V))
    edges_j.append(vid(iu, iv + 1))
    edges_w.append(np.full(V, wv))
    ei = np.concatenate(edges_i)
    ej = np.concatenate(edges_j)
    ew = np.concatenate(edges_w)

    D, scatter = _edge_diff(ei, ej, ew, V)
    spec = {"kind": "flat_torus", "nu": nu, "nv": nv, "lu": lu, "lv": lv}
    return _source_mesh(points, area, D, scatter, spec)


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
    vlist = [v for v in verts]
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
    verts = np.array(vlist)
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

    return _source_mesh(verts, area, D, scatter, {"kind": "icosphere", "level": level})


class MeshKind(NamedTuple):
    build: Callable[..., SourceMesh]
    keys: dict[str, type]  # spec key -> type; keys are the builder's arguments
    dimension: int


MESH_KINDS = {
    "circle": MeshKind(build_circle, {"n": int}, 1),
    "flat_torus": MeshKind(
        build_flat_torus, {"nu": int, "nv": int, "lu": float, "lv": float}, 2
    ),
    "icosphere": MeshKind(build_icosphere, {"level": int}, 2),
}


def build_source(spec: dict) -> SourceMesh:
    """Construct a mesh from a scenario-style spec dict."""
    if spec.get("kind") not in MESH_KINDS:
        raise InvalidSpec(f"unknown mesh kind {spec.get('kind')!r}")
    build, keys, _ = MESH_KINDS[spec["kind"]]
    return build(**{key: typ(spec[key]) for key, typ in keys.items() if key in spec})


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


def sobolev_norm(mesh: SourceMesh, f: np.ndarray, k: int, p: float) -> float:
    """Discrete W^{k,p} norm: (sum_j integral |grad^j f|^p)^(1/p).

    Components enter through p-th powers of their own derivative magnitudes.
    The second-order term uses |Delta f| as the derivative-magnitude proxy.
    """
    if k not in SOBOLEV_ORDERS:
        raise UnsupportedOrder(f"sobolev order k={k} not in {SOBOLEV_ORDERS}")
    if p < 1:
        raise InvalidExponents(f"p must be >= 1, got {p}")
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


def lp_norm(mesh: SourceMesh, f: np.ndarray, p: float) -> float:
    return sobolev_norm(mesh, f, 0, p)


# ---------------------------------------------------------------------------
# band-limited fields

def mode_basis(mesh: SourceMesh) -> np.ndarray:
    """Eight low-frequency closed-form modes, unit L2 norm each.

    Closed forms (restrictions of the continuum eigenfunctions) are used so
    that the same test fields exist on every refinement level.
    """
    if mesh.kind == "circle":
        t = mesh.points[:, 0]
        cols = [np.ones_like(t)]
        cols += [f(k * t) for k in (1, 2, 3) for f in (np.cos, np.sin)]
        cols += [np.cos(4 * t)]
    elif mesh.kind == "flat_torus":
        lu, lv = mesh.spec["lu"], mesh.spec["lv"]
        u = 2.0 * math.pi * mesh.points[:, 0] / lu
        v = 2.0 * math.pi * mesh.points[:, 1] / lv
        cols = [
            np.ones_like(u),
            np.cos(u), np.sin(u), np.cos(v), np.sin(v),
            np.cos(u) * np.cos(v), np.cos(u) * np.sin(v), np.sin(u) * np.cos(v),
        ]
    elif mesh.kind == "icosphere":
        x, y, z = mesh.points.T
        cols = [np.ones_like(x), x, y, z, x * y, y * z, z * x, x * x - y * y]
    else:
        raise InvalidSpec(f"no mode basis for mesh kind {mesh.kind!r}")
    basis = np.stack(cols, axis=1)
    for j in range(basis.shape[1]):
        basis[:, j] /= l2_norm(mesh, basis[:, j])
    return basis


def random_scalar_field(mesh: SourceMesh, rng: np.random.Generator) -> np.ndarray:
    """Band-limited random scalar field with unit-variance mode coefficients."""
    basis = mode_basis(mesh)
    return basis @ rng.standard_normal(basis.shape[1])


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
    if p <= 1:
        return ExponentVerdict(False, f"requires p > 1, got p = {p}")
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
        raise InvalidExponents(f"(k={k}, p={p}) inadmissible: {verdict.reason}")
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

