"""Independent numerical oracles used by the tests.

These deliberately avoid the closed forms under test: projections are checked
against brute-force minimization, derivatives against central finite
differences, and energies against analytic integrals.
"""

from __future__ import annotations

import json

import numpy as np
import scipy.sparse as sp


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
    from harmonicflow.meshes import l2_inner, mode_basis, sobolev_norm
    from harmonicflow.rng import stream

    basis = mode_basis(mesh)
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
        nv = sobolev_norm(mesh, v, 1, p / (p - 1.0))
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
    verts = mesh.points
    # the faces: the corner triples the mesh scatters each of its D rows to,
    # two rows per face; corner order does not matter, as the normal and the
    # edges flip together under an odd permutation
    faces = mesh.diff_scatter.tocsc().indices.reshape(-1, 3)[::2]
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
