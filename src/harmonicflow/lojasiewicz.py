"""Gradient-inequality verification, exponent fitting, and rate classification.

The inequality under test is |M(f)| >= Z |E(f) - E(f_inf)|^theta for maps in
a Sobolev neighborhood of a critical point, with theta = 1/2 predicted
whenever the critical set is a manifold matching the Hessian kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from .charts import push
from .energy import HessianSpectrum, energy, grad_l2_norm, hessian_matrix, hessian_spectrum, tension
from .errors import (
    DegenerateWindow,
    InsufficientDecades,
    InsufficientTail,
    NotCritical,
    UnsupportedOrder,
)
from .fields import MapField, tangent_stacks
from .flow import FlowControl, FlowTrace
from .meshes import (
    VARIANTS, ExponentVerdict, SourceMesh, laplace_beltrami_apply, row_dots, sobolev_norm,
    stack_chunks, validate_exponents,
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
    "gradient_norm",
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
) -> Iterator[np.ndarray]:
    """Seeded random maps with |f - f_inf|_{W^{k,p}} uniform in (0, sigma), drawn,
    pushed and yielded a (V, S, n) stack at a time, so only one stack is held."""
    k, p = norm
    mesh = f_inf.mesh
    for u, _ in tangent_stacks(f_inf, stream(seed, "loja-neighborhood"), count, sigma, 0.0, norm):
        f = push(f_inf, u)
        # enforce the neighborhood condition on the map difference itself, where it fails
        far = np.arange(f.shape[1])
        for _ in range(8):
            d = sobolev_norm(mesh, f[:, far] - f_inf.values[:, None, :], k, p)
            far, d = far[d >= sigma], d[d >= sigma]
            if not far.size:
                break
            u[:, far] *= (0.9 * sigma / d)[:, None]
            f[:, far] = push(f_inf, u[:, far])
        yield f


def gradient_norm(mesh: SourceMesh, n: int, variant: str, k: int, p: float) -> Callable:
    """|M| of tension values M, (S,) norms of a (V, S, n) stack or a float for one
    (V, n) field.  Variant ``l2``: the area-weighted L^2 norm.  Variant ``wk``: the
    discrete W^{k-2,p} norm, L^p for k = 2; for k = 1 the dual-norm stand-in, the
    sup of (M, v) / |v|_{W^{1,p'}} over a band-limited test family built here, once.

    The test fields are v = basis @ G over the mode basis: each mode in each
    ambient component, then 32 seeded probes.  Their pairings with M are
    G contracted with basis^T (area M).
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if variant == "l2":
        return lambda m: np.sqrt(mesh.area @ row_dots(m, m))
    if k == 2:
        return lambda m: sobolev_norm(mesh, m, 0, p)
    if k != 1:
        raise UnsupportedOrder(f"gradient norm family implemented for k in (1, 2), got {k}")
    basis = mesh.modes
    modes = basis.shape[1]
    coeffs = np.concatenate([
        np.eye(modes * n).reshape(modes * n, modes, n),
        stream(0, "dual-norm").standard_normal((32, modes, n)),
    ])
    q = p / (p - 1.0)  # the test fields' norms, a (V, S, n) stack at a time
    norms = np.concatenate([sobolev_norm(mesh, np.moveaxis(basis @ coeffs[c], 0, 1), 1, q)
                            for c in stack_chunks(mesh, n, len(coeffs))])

    def dual_norm(m: np.ndarray):
        weighted = basis.T @ (mesh.area[:, None] * m.reshape(len(m), -1))
        pairings = np.tensordot(coeffs, weighted.reshape(modes, -1, n), ([1, 2], [0, 2]))
        sups = np.max(np.abs(pairings) / norms[:, None], axis=0)
        return sups if m.ndim == 3 else float(sups[0])

    return dual_norm


def gradient_dual_norm(f: MapField, p: float) -> float:
    """Discrete stand-in for |M(f)| in W^{-1,p'} (see gradient_norm)."""
    return gradient_norm(f.mesh, f.target.ambient_dim, "wk", 1, p)(tension(f))


# ---------------------------------------------------------------------------
# inequality verification

@dataclass
class InequalityReport:
    theta: float
    z: float
    norm_used: str
    gap: np.ndarray  # |E(f) - E(f_inf)| per sample, the columns of verify_samples.csv
    grad_norm: np.ndarray
    ratio: np.ndarray  # grad_norm / gap**theta, inf at a zero gap
    min_margin: float
    min_ratio: float
    below_count: int  # samples with E(f) < E(f_inf)

    def to_json_dict(self) -> dict:
        return {
            "theta": self.theta,
            "z": self.z,
            "norm_used": self.norm_used,
            "min_margin": self.min_margin,
            "min_ratio": self.min_ratio,
            "sample_count": len(self.gap),
            "below_count": self.below_count,
        }


def verify_inequality(
    samples: Iterable[np.ndarray],
    f_inf: MapField,
    theta: float,
    z: float,
    variant: str = "l2",
    norm: tuple[int, float] = (1, 2.0),
) -> InequalityReport:
    """Per-sample table of |M(f)| versus Z |E(f) - E(f_inf)|^theta over (V, S, n)
    sample stacks, each measured as it arrives (sample_neighborhood yields them);
    |M| in the ``variant`` norm at (k, p) = ``norm`` (see gradient_norm)."""
    mesh, n = f_inf.mesh, f_inf.target.ambient_dim
    grad_norm = gradient_norm(mesh, n, variant, *norm)
    e_inf = energy(f_inf)
    gaps, gns = [np.empty(0)], [np.empty(0)]
    for f in samples:
        cols = f.reshape(len(f), -1)
        # E as energy() forms it, squared stencil differences; M = dpi(f) (K f) / area
        df = mesh.diff @ cols
        gaps.append(0.5 * np.einsum("ij,ij->j", df, df).reshape(-1, n).sum(axis=1) - e_inf)
        del df  # keeps a chunk's peak below malloc's trim threshold: its pages are not re-faulted
        lap = laplace_beltrami_apply(mesh, cols).reshape(f.shape)
        gns.append(grad_norm(f_inf.target.tangent_project(f, lap)))
        del f, cols, lap  # before the next stack is drawn: one stack alive at a time
    signed = np.concatenate(gaps)  # E(f) - E(f_inf)
    gaps, gns = np.abs(signed).tolist(), np.concatenate(gns).tolist()
    # scalar powers: numpy's gap**0.5 takes the sqrt path, which can differ in the last digit
    ratios = [gn / gap**theta if gap > 0 else math.inf for gap, gn in zip(gaps, gns)]
    margins = [gn - z * gap**theta for gap, gn in zip(gaps, gns)]
    finite = [r for r in ratios if math.isfinite(r)]
    return InequalityReport(
        theta=theta,
        z=z,
        norm_used=variant,
        gap=np.array(gaps, dtype=float),
        grad_norm=np.array(gns, dtype=float),
        ratio=np.array(ratios, dtype=float),
        min_margin=min(margins) if margins else 0.0,
        min_ratio=min(finite) if finite else math.inf,
        below_count=int(np.sum(signed < 0)),
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


def default_window(e_inf: float, gaps: np.ndarray) -> tuple[float, float]:
    """[10 * energy floor, max gap / 10]; the floor is the resolution of E - E_inf."""
    floor = max(1e-12 * abs(e_inf), 1e-18)
    return (10.0 * floor, float(np.max(gaps)) / 10.0 if gaps.size else floor)


def fit_exponent(
    trace: FlowTrace,
    f_inf: MapField,
    window: tuple[float, float] | None = None,
) -> LojasiewiczFit:
    """Least-squares slope of log|M| against log|E - E_inf| inside the window."""
    e_inf = energy(f_inf)
    gaps, gns = np.abs(trace.energy - e_inf), trace.grad_norm_l2
    if window is None:
        window = default_window(e_inf, gaps)
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
        norm_used="l2",
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
    t, gn = trace.t, trace.grad_norm_l2
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
