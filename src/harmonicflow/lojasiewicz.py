"""Gradient-inequality verification, exponent fitting, and rate classification.

The inequality under test is |M(f)| >= Z |E(f) - E(f_inf)|^theta for maps in
a Sobolev neighborhood of a critical point, with theta = 1/2 predicted
whenever the critical set is a manifold matching the Hessian kernel.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .charts import chart_push
from .energy import HessianSpectrum, energy, grad_l2_norm, hessian_matrix, hessian_spectrum, tension
from .errors import (
    DegenerateWindow,
    InsufficientDecades,
    InsufficientTail,
    NotCritical,
    UnsupportedOrder,
)
from .fields import MapField, random_tangent_field
from .flow import FlowControl, FlowTrace
from .meshes import (
    ExponentVerdict, SourceMesh, l2_norm, lp_norm, mode_basis, sobolev_norm, validate_exponents,
)
from .rng import stream

__all__ = [
    "ExponentVerdict",
    "validate_exponents",
    "sample_neighborhood",
    "InequalityReport",
    "verify_inequality",
    "LojasiewiczFit",
    "fit_exponent",
    "MorseBottReport",
    "morse_bott_report",
    "require_critical",
    "classify_morse_bott",
    "ConvergenceVerdict",
    "convergence_classifier",
    "gradient_dual_norm",
]


# ---------------------------------------------------------------------------
# neighborhood sampling

def sample_neighborhood(
    f_inf: MapField,
    sigma: float,
    count: int,
    norm: tuple[int, float] = (1, 2.0),
    seed: int = 0,
) -> list[MapField]:
    """Seeded random maps with |f - f_inf|_{W^{k,p}} uniform in (0, sigma)."""
    k, p = norm
    rng = stream(seed, "loja-neighborhood")
    mesh = f_inf.mesh
    out: list[MapField] = []
    for _ in range(int(count)):
        u = random_tangent_field(f_inf, rng)
        target_norm = sigma * rng.uniform(0.0, 1.0)
        n_u = sobolev_norm(mesh, u.values, k, p)
        if n_u == 0.0:
            continue
        u.values *= target_norm / n_u
        f = chart_push(f_inf, u)
        # enforce the neighborhood condition on the map difference itself
        for _ in range(8):
            d = sobolev_norm(mesh, f.values - f_inf.values, k, p)
            if d < sigma:
                break
            u.values *= 0.9 * sigma / d
            f = chart_push(f_inf, u)
        out.append(f)
    return out


def _wk_norm(mesh: SourceMesh, n: int, k: int, p: float) -> Callable[[np.ndarray], float]:
    """|M| in the discrete W^{k-2,p} family, as a function of the tension
    values M: L^p for k = 2; for k = 1 the dual-norm stand-in, the sup of
    (M, v) / |v|_{W^{1,p'}} over a band-limited test family built here, once.

    The test fields are v = basis @ G over the mode basis: each mode in each
    ambient component, then 32 seeded probes.  Their pairings with M are
    G contracted with basis^T (area M).
    """
    if k == 2:
        return lambda m: lp_norm(mesh, m, p)
    if k != 1:
        raise UnsupportedOrder(f"gradient norm family implemented for k in (1, 2), got {k}")
    basis = mode_basis(mesh)
    modes = basis.shape[1]
    coeffs = np.concatenate([
        np.eye(modes * n).reshape(modes * n, modes, n),
        stream(0, "dual-norm").standard_normal((32, modes, n)),
    ])
    # one field at a time: stacking them all in one product costs memory
    norms = np.array([sobolev_norm(mesh, basis @ g, 1, p / (p - 1.0)) for g in coeffs])

    def dual_norm(m: np.ndarray) -> float:
        pairings = np.tensordot(coeffs, basis.T @ (mesh.area[:, None] * m), 2)
        return float(np.max(np.abs(pairings) / norms))

    return dual_norm


def gradient_family_norm(f: MapField, k: int, p: float) -> float:
    """|M(f)| in the discrete W^{k-2,p} family (see _wk_norm)."""
    return _wk_norm(f.mesh, f.target.ambient_dim, k, p)(tension(f).values)


def gradient_dual_norm(f: MapField, p: float) -> float:
    """Discrete stand-in for |M(f)| in W^{-1,p'}."""
    return gradient_family_norm(f, 1, p)


# ---------------------------------------------------------------------------
# inequality verification

@dataclass
class InequalityReport:
    theta: float
    z: float
    norm_used: str
    rows: list[tuple[float, float, float]]  # (energy gap, grad norm, ratio)
    min_margin: float
    min_ratio: float

    def to_json_dict(self) -> dict:
        return {
            "theta": self.theta,
            "z": self.z,
            "norm_used": self.norm_used,
            "min_margin": self.min_margin,
            "min_ratio": self.min_ratio,
            "sample_count": len(self.rows),
        }


def verify_inequality(
    samples: list[MapField],
    f_inf: MapField,
    theta: float,
    z: float,
    norm_used: str = "l2",
    k: int = 1,
    dual_p: float = 2.0,
) -> InequalityReport:
    """Per-sample table of |M(f)| versus Z |E(f) - E(f_inf)|^theta."""
    mesh = f_inf.mesh
    if norm_used == "l2":
        grad_norm = lambda m: l2_norm(mesh, m)
    elif norm_used == "wk_minus_2_p":
        grad_norm = _wk_norm(mesh, f_inf.target.ambient_dim, k, dual_p)
    else:
        raise ValueError(f"unknown norm_used {norm_used!r}")
    e_inf = energy(f_inf)
    rows = []
    for f in samples:
        gap = abs(energy(f) - e_inf)
        gn = grad_norm(tension(f).values)
        ratio = gn / gap**theta if gap > 0 else float("inf")
        rows.append((gap, gn, ratio))
    margins = [gn - z * gap**theta for gap, gn, _ in rows]
    finite = [r for _, _, r in rows if math.isfinite(r)]
    return InequalityReport(
        theta=theta,
        z=z,
        norm_used=norm_used,
        rows=rows,
        min_margin=min(margins) if margins else 0.0,
        min_ratio=min(finite) if finite else float("inf"),
    )


# ---------------------------------------------------------------------------
# exponent fitting

@dataclass
class LojasiewiczFit:
    theta_hat: float
    z_hat: float
    window: tuple[float, float]
    r_squared: float
    point_count: int
    norm_used: str

    def to_json_dict(self) -> dict:
        return asdict(self)


def default_window(e_inf: float, gaps: np.ndarray) -> tuple[float, float]:
    """[10 * energy floor, max gap / 10]; the floor is the resolution of E - E_inf."""
    floor = max(1e-12 * abs(e_inf), 1e-18)
    return (10.0 * floor, float(np.max(gaps)) / 10.0 if gaps.size else floor)


def _gap_grad_pairs(
    source: FlowTrace | list[MapField], f_inf: MapField
) -> tuple[np.ndarray, np.ndarray]:
    e_inf = energy(f_inf)
    if isinstance(source, FlowTrace):
        gaps = np.abs(source.energies() - e_inf)
        gns = source.grad_norms()
    else:
        gaps = np.array([abs(energy(f) - e_inf) for f in source])
        gns = np.array([grad_l2_norm(f) for f in source])
    return gaps, gns


def fit_exponent(
    source: FlowTrace | list[MapField],
    f_inf: MapField,
    window: tuple[float, float] | None = None,
    norm_used: str = "l2",
) -> LojasiewiczFit:
    """Least-squares slope of log|M| against log|E - E_inf| inside the window."""
    gaps, gns = _gap_grad_pairs(source, f_inf)
    if window is None:
        window = default_window(energy(f_inf), gaps)
    lo, hi = window
    if not (0 < lo < hi):
        raise DegenerateWindow(f"window {window} is empty or inverted")
    keep = (gaps >= lo) & (gaps <= hi) & (gns > 0)
    gaps, gns = gaps[keep], gns[keep]
    if gaps.size < 8:
        raise InsufficientDecades(f"only {gaps.size} points inside the window")
    span = math.log10(float(np.max(gaps)) / float(np.min(gaps)))
    if span < 2.0:
        raise InsufficientDecades(f"window spans {span:.2f} decades < 2")
    slope, intercept, r2 = _r2_line(np.log(gaps), np.log(gns))
    return LojasiewiczFit(
        theta_hat=slope,
        z_hat=float(np.exp(intercept)),
        window=(float(lo), float(hi)),
        r_squared=r2,
        point_count=int(gaps.size),
        norm_used=norm_used,
    )


# ---------------------------------------------------------------------------
# Morse-Bott detection

@dataclass
class MorseBottReport:
    kernel_dim: int
    expected_critical_dim: int | None
    gap_ratio: float
    verdict: str  # "morse_bott" | "degenerate" | "inconclusive"
    predicted_theta: float | None
    kernel_tol: float

    def to_json_dict(self) -> dict:
        return asdict(self)


def morse_bott_report(
    f_inf: MapField,
    expected_critical_dim: int | None,
    kernel_tol: float | None = None,
    grad_tol: float = FlowControl.grad_tol,
    n_modes: int = 32,
) -> MorseBottReport:
    """Hessian-kernel count at a critical point versus the expected dimension."""
    require_critical(f_inf, grad_tol)
    op = hessian_matrix(f_inf)
    spec = hessian_spectrum(op, kernel_tol=kernel_tol, n_modes=n_modes)
    return classify_morse_bott(spec, expected_critical_dim)


def require_critical(f_inf: MapField, grad_tol: float) -> None:
    """Raise NotCritical unless |M(f_inf)|_L2 <= 10 grad_tol."""
    gn = grad_l2_norm(f_inf)
    if gn > 10.0 * grad_tol:
        raise NotCritical(f"|M(f_inf)| = {gn:.3e} > 10 * {grad_tol:.1e}")


def classify_morse_bott(
    spec: HessianSpectrum, expected_critical_dim: int | None
) -> MorseBottReport:
    """Morse-Bott verdict from the Hessian spectrum at a critical point."""
    gap_ok = math.isfinite(spec.gap_ratio) and spec.gap_ratio >= 10.0
    if not gap_ok:
        verdict = "inconclusive"
    elif expected_critical_dim is None:
        verdict = "inconclusive"
    elif spec.kernel_dim == expected_critical_dim:
        verdict = "morse_bott"
    else:
        verdict = "degenerate"
    return MorseBottReport(
        kernel_dim=spec.kernel_dim,
        expected_critical_dim=expected_critical_dim,
        gap_ratio=spec.gap_ratio,
        verdict=verdict,
        predicted_theta=0.5 if verdict == "morse_bott" else None,
        kernel_tol=spec.kernel_tol,
    )


# ---------------------------------------------------------------------------
# convergence-rate classification

@dataclass
class ConvergenceVerdict:
    model: str  # "exponential" | "power_law" | "undetermined"
    rate: float | None      # |M| ~ exp(-rate t)
    exponent: float | None  # |M| ~ t^exponent
    r2_exponential: float
    r2_power_law: float

    def to_json_dict(self) -> dict:
        return asdict(self)


def _r2_line(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Least-squares line y ~ slope x + intercept: (slope, intercept, r^2)."""
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), r2


def convergence_classifier(
    trace: FlowTrace, grad_cut: float = 1e-3, min_tail: int = 20
) -> ConvergenceVerdict:
    """Fit the trace tail as exponential versus power-law decay of |M|."""
    t = trace.times()
    gn = trace.grad_norms()
    keep = (gn < grad_cut) & (gn > 0) & (t > 0)
    t, gn = t[keep], gn[keep]
    if t.size < min_tail:
        raise InsufficientTail(f"only {t.size} tail samples below {grad_cut:.1e}")
    y = np.log(gn)
    slope_e, _, r2_e = _r2_line(t, y)
    slope_p, _, r2_p = _r2_line(np.log(t), y)
    if r2_e < 0.95 and r2_p < 0.95:
        return ConvergenceVerdict("undetermined", None, None, r2_e, r2_p)
    # exponential wins ties (expected in the Morse-Bott regime)
    if r2_e >= r2_p - 1e-3:
        return ConvergenceVerdict("exponential", -slope_e, None, r2_e, r2_p)
    return ConvergenceVerdict("power_law", None, slope_p, r2_e, r2_p)
