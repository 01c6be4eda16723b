"""Closed embedded target manifolds with exact nearest-point projection.

Each target knows its projection pi, its differential dpi in closed form as
``tangent_project(y, v)`` (the orthogonal projection of v onto the tangent
plane at y), and the full ambient Hessian d2pi of the projection.  Sign
convention: the second fundamental form is defined through the projection
Hessian,

    A(y)(v, w) := -d2pi(y)(v, w)   for tangent v, w,

which on the unit sphere gives A(y)(v, v) = |v|^2 y.  This is the sign that
makes Delta f = A(f)(df, df) hold for the identity map with the nonnegative
Laplacian convention used by the meshes.

All operations are pure and vectorized over a leading batch axis: points are
arrays of shape (..., n) with n the ambient dimension.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    InvalidSpec,
    NonTangentInput,
    NotOnTarget,
    OutsideTubularNeighborhood,
)

# Absolute, so the check is one distance pass: projected points sit within
# rounding (~1e-16 times the target's extent, at most R + r) of the target.
ON_TARGET_TOL = 1e-9
# Relative to max(1, |v|_inf).  Looser than ON_TARGET_TOL because a map that
# passes the on-target check at distance eps has a projector that is
# idempotent only to ~2 eps (P^2 - P = (|y|^2 - 1) y y^T on the sphere).
TANGENT_TOL = 1e-8
# chart operations stay inside half the tubular radius
CHART_SAFETY = 0.5


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.sum(a * b, axis=-1, keepdims=True)


def _d2_radial(z: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hessian of z -> z/|z| evaluated at z, applied to directions (a, b)."""
    s = np.linalg.norm(z, axis=-1, keepdims=True)
    u = z / s
    term = -a * _dots(u, b) - b * _dots(u, a) - u * _dots(a, b)
    term = term + 3.0 * u * _dots(u, a) * _dots(u, b)
    return term / s**2


def _d_radial(z: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Differential of z -> z/|z| at z, applied to a."""
    s = np.linalg.norm(z, axis=-1, keepdims=True)
    u = z / s
    return (a - u * _dots(u, a)) / s


class EmbeddedTarget:
    """Base class; concrete targets fill in the closed forms."""

    kind: str
    ambient_dim: int
    intrinsic_dim: int

    # -- closed forms supplied by subclasses --------------------------------

    def distance(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def tubular_radius(self) -> float:
        raise NotImplementedError

    def chart_radius(self) -> float:
        """Radius inside which chart operations and flow steps stay."""
        return self.tubular_radius() * CHART_SAFETY

    def _project(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def tangent_project(self, y: np.ndarray, v: np.ndarray) -> np.ndarray:
        """dpi(y) v: the tangent part of v at y; broadcasts y against v."""
        raise NotImplementedError

    def _d2_projection(self, y: np.ndarray, v: np.ndarray, w: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _medial_margin(self, x: np.ndarray) -> np.ndarray:
        """Distance-like margin to the set where the projection degenerates."""
        raise NotImplementedError

    def base_point(self) -> np.ndarray:
        """A canonical point on the target (default for constant maps)."""
        raise NotImplementedError

    def spec(self) -> dict:
        raise NotImplementedError

    # -- guarded public operations ------------------------------------------

    def project_to_target(self, x: np.ndarray) -> np.ndarray:
        """Nearest point on the target.

        Single-valuedness is guaranteed inside the tube dist(x, N) < delta_0;
        the closed forms remain the true nearest-point projection everywhere
        off the medial set (sphere center, torus axis and core circle), so
        the rejection is at the actual degeneration locus.  Non-finite points
        are rejected too, so every returned point is on the target.
        """
        x = np.asarray(x, dtype=float)
        if not np.all(np.isfinite(x)):
            raise OutsideTubularNeighborhood("non-finite point has no projection")
        margin = self._medial_margin(x)
        if np.any(margin <= 1e-12):
            raise OutsideTubularNeighborhood(
                f"point within {float(np.min(margin)):.3e} of the projection's "
                f"degenerate set (tube radius {self.tubular_radius():.3e})"
            )
        return self._project(x)

    def require_on_target(self, y: np.ndarray) -> None:
        """Raise NotOnTarget unless every point is finite and on the target."""
        worst = float(np.max(self.distance(y)))
        if not worst <= ON_TARGET_TOL:  # NaN compares false: non-finite fails
            raise NotOnTarget(f"off-target residual {worst:.3e} > {ON_TARGET_TOL:.1e}")

    def require_tangent(self, y: np.ndarray, v: np.ndarray) -> None:
        """Raise NonTangentInput unless each v is tangent to the target at y."""
        v = np.asarray(v, dtype=float)
        resid = self.tangent_project(np.asarray(y, dtype=float), v) - v
        worst = float(np.max(np.linalg.norm(resid, axis=-1)))
        tol = TANGENT_TOL * max(1.0, float(np.max(np.linalg.norm(v, axis=-1))))
        if not worst <= tol:
            raise NonTangentInput(f"tangency residual {worst:.3e} > {tol:.1e}")

    def tangent_projector(self, y: np.ndarray) -> np.ndarray:
        """Orthogonal projector onto T_y N, shape (..., n, n); row c is dpi(y) e_c."""
        y = np.asarray(y, dtype=float)
        self.require_on_target(y)
        return self.tangent_project(y[..., None, :], np.eye(self.ambient_dim))

    def ambient_hessian_of_projection(
        self, y: np.ndarray, v: np.ndarray, w: np.ndarray
    ) -> np.ndarray:
        """d2pi(y)(v, w) for ambient directions v, w at y on the target."""
        y = np.asarray(y, dtype=float)
        self.require_on_target(y)
        return self._d2_projection(y, np.asarray(v, float), np.asarray(w, float))

    def second_fundamental_form(
        self, y: np.ndarray, v: np.ndarray, w: np.ndarray
    ) -> np.ndarray:
        """A(y)(v, w) = -d2pi(y)(v, w); normal-valued for tangent v, w."""
        y = np.asarray(y, dtype=float)
        v = np.asarray(v, dtype=float)
        w = np.asarray(w, dtype=float)
        self.require_on_target(y)
        self.require_tangent(y, v)
        self.require_tangent(y, w)
        return -self._d2_projection(y, v, w)


@dataclass(frozen=True)
class UnitSphere(EmbeddedTarget):
    """Unit sphere S^{n-1} in ambient R^n; pi(x) = x/|x|."""

    ambient_dim: int

    def __post_init__(self):
        if self.ambient_dim < 2:
            raise InvalidSpec("sphere needs ambient dimension >= 2")

    kind = "sphere"

    @property
    def intrinsic_dim(self) -> int:
        return self.ambient_dim - 1

    def tubular_radius(self) -> float:
        # x/|x| is defined away from the origin only
        return 1.0

    def base_point(self) -> np.ndarray:
        p = np.zeros(self.ambient_dim)
        p[-1] = 1.0
        return p

    def distance(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.abs(np.linalg.norm(x, axis=-1) - 1.0)

    def _medial_margin(self, x: np.ndarray) -> np.ndarray:
        return np.linalg.norm(np.asarray(x, dtype=float), axis=-1)

    def _project(self, x: np.ndarray) -> np.ndarray:
        return x / np.linalg.norm(x, axis=-1, keepdims=True)

    def tangent_project(self, y: np.ndarray, v: np.ndarray) -> np.ndarray:
        return v - y * _dots(y, v)

    def _d2_projection(self, y, v, w):
        term = -v * _dots(y, w) - w * _dots(y, v) - y * _dots(v, w)
        return term + 3.0 * y * _dots(y, v) * _dots(y, w)

    def spec(self) -> dict:
        return {"kind": "sphere", "ambient_dim": self.ambient_dim}


@dataclass(frozen=True)
class CliffordTorus(EmbeddedTarget):
    """Product of m unit circles, each in its own coordinate 2-plane of R^{2m}."""

    circle_count: int

    def __post_init__(self):
        if self.circle_count < 1:
            raise InvalidSpec("clifford torus needs at least one circle factor")

    kind = "clifford_torus"

    @property
    def ambient_dim(self) -> int:
        return 2 * self.circle_count

    @property
    def intrinsic_dim(self) -> int:
        return self.circle_count

    def tubular_radius(self) -> float:
        # per-factor radial projection fails only at a factor's origin
        return 1.0

    def base_point(self) -> np.ndarray:
        return np.tile([1.0, 0.0], self.circle_count)

    def _pairs(self, x: np.ndarray) -> np.ndarray:
        return x.reshape(x.shape[:-1] + (self.circle_count, 2))

    def distance(self, x: np.ndarray) -> np.ndarray:
        rho = np.linalg.norm(self._pairs(np.asarray(x, float)), axis=-1)
        return np.linalg.norm(rho - 1.0, axis=-1)

    def _medial_margin(self, x: np.ndarray) -> np.ndarray:
        rho = np.linalg.norm(self._pairs(np.asarray(x, float)), axis=-1)
        return np.min(rho, axis=-1)

    def _project(self, x: np.ndarray) -> np.ndarray:
        pairs = self._pairs(x)
        rho = np.linalg.norm(pairs, axis=-1, keepdims=True)
        return (pairs / rho).reshape(x.shape)

    def tangent_project(self, y: np.ndarray, v: np.ndarray) -> np.ndarray:
        # per factor circle, with the raw (unnormalized) coordinate pairs of y
        yp, vp = self._pairs(y), self._pairs(v)
        out = vp - yp * _dots(yp, vp)
        return out.reshape(out.shape[:-2] + (self.ambient_dim,))

    def _d2_projection(self, y, v, w):
        yp, vp, wp = self._pairs(y), self._pairs(v), self._pairs(w)
        s = np.linalg.norm(yp, axis=-1, keepdims=True)
        u = yp / s
        term = -vp * _dots(u, wp) - wp * _dots(u, vp) - u * _dots(vp, wp)
        term = term + 3.0 * u * _dots(u, vp) * _dots(u, wp)
        return (term / s**2).reshape(y.shape)

    def spec(self) -> dict:
        return {"kind": "clifford_torus", "m": self.circle_count}


@dataclass(frozen=True)
class TorusOfRevolution(EmbeddedTarget):
    """Torus in R^3 with major radius R and minor radius r, axis = z-axis."""

    major_radius: float
    minor_radius: float

    def __post_init__(self):
        if not (self.major_radius > self.minor_radius > 0.0):
            raise InvalidSpec("torus of revolution needs R > r > 0")

    kind = "torus_rev"
    ambient_dim = 3
    intrinsic_dim = 2

    def tubular_radius(self) -> float:
        # normal injectivity radius: tube core circle at distance r, axis at R - r
        return min(self.minor_radius, self.major_radius - self.minor_radius)

    def base_point(self) -> np.ndarray:
        return np.array([self.major_radius + self.minor_radius, 0.0, 0.0])

    def _core_decomp(self, x: np.ndarray):
        h = x.copy()
        h[..., 2] = 0.0
        rho = np.linalg.norm(h, axis=-1, keepdims=True)
        e = h / rho
        q = x - self.major_radius * e
        s = np.linalg.norm(q, axis=-1, keepdims=True)
        return rho, e, q, s

    def distance(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        h = np.linalg.norm(x[..., :2], axis=-1)
        d_core = np.hypot(h - self.major_radius, x[..., 2])
        return np.abs(d_core - self.minor_radius)

    def _medial_margin(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        rho = np.linalg.norm(x[..., :2], axis=-1)
        d_core = np.hypot(rho - self.major_radius, x[..., 2])
        return np.minimum(rho, d_core)

    def _project(self, x: np.ndarray) -> np.ndarray:
        _, e, q, s = self._core_decomp(x)
        return self.major_radius * e + self.minor_radius * q / s

    def tangent_project(self, y: np.ndarray, v: np.ndarray) -> np.ndarray:
        _, _, q, s = self._core_decomp(y)
        nu = q / s
        return v - nu * _dots(nu, v)

    def _d2_projection(self, y, v, w):
        R, r = self.major_radius, self.minor_radius
        rho, e, q, _ = self._core_decomp(y)
        vH = v.copy()
        vH[..., 2] = 0.0
        wH = w.copy()
        wH[..., 2] = 0.0
        de_v = (vH - e * _dots(e, vH)) / rho
        de_w = (wH - e * _dots(e, wH)) / rho
        d2e = (
            -vH * _dots(e, wH)
            - wH * _dots(e, vH)
            - e * _dots(vH, wH)
            + 3.0 * e * _dots(e, vH) * _dots(e, wH)
        ) / rho**2
        dq_v = v - R * de_v
        dq_w = w - R * de_w
        d2q = -R * d2e
        d2u = _d2_radial(q, dq_v, dq_w) + _d_radial(q, d2q)
        return R * d2e + r * d2u

    def spec(self) -> dict:
        return {"kind": "torus_rev", "R": self.major_radius, "r": self.minor_radius}


class TargetKind(NamedTuple):
    cls: type
    keys: dict[str, type]  # spec key -> type, in constructor argument order


TARGET_KINDS = {
    "sphere": TargetKind(UnitSphere, {"ambient_dim": int}),
    "clifford_torus": TargetKind(CliffordTorus, {"m": int}),
    "torus_rev": TargetKind(TorusOfRevolution, {"R": float, "r": float}),
}


def build_target(spec: dict) -> EmbeddedTarget:
    """Construct a target from a scenario-style spec dict."""
    if spec.get("kind") not in TARGET_KINDS:
        raise InvalidSpec(f"unknown target kind {spec.get('kind')!r}")
    cls, keys = TARGET_KINDS[spec["kind"]]
    return cls(*(typ(spec[key]) for key, typ in keys.items()))
