"""Closed embedded target manifolds with exact nearest-point projection.

Each target knows its projection pi and supplies, at a point y on it, the
unit normal nu and the shape operator S t = dnu(y) t of a hypersurface (the
Clifford torus per circle factor).  From these two, one closed form gives the
differential and the Hessian of the projection for every target:

    dpi(y) v = P v = v - nu (nu . v),
    d2pi(y)(v, w) = -<S Pv, w> nu - (nu . w) S Pv - (nu . v) S Pw.

Sign convention: the second fundamental form is defined through the
projection Hessian,

    A(y)(v, w) := -d2pi(y)(v, w) = <S v, w> nu   for tangent v, w,

which on the unit sphere (nu = y, S = identity) gives A(y)(v, v) = |v|^2 y.
This is the sign that makes Delta f = A(f)(df, df) hold for the identity map
with the nonnegative Laplacian convention used by the meshes.

The tangent frames and the chart inverse need nu alone.  The Householder
reflection sending an axis e_c to a multiple of nu sends the others to a basis
of T_y N.  Inside the tube the fibre pi^{-1}(y1) is the normal segment
y1 + t nu(y1) (R. L. Foote, Proc. AMS 92, 1984), so the tangent u at y with
pi(y + u) = y1 is that segment's one point in y + T_y N:

    u = y1 + t nu(y1) - y,   t = -nu(y) . (y1 - y) / (nu(y) . nu(y1)).

All operations are pure and vectorized over a leading batch axis: points are
arrays of shape (..., n) with n the ambient dimension.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from .errors import (
    InvalidSpec,
    NonTangentInput,
    NotOnTarget,
    OutsideTubularNeighborhood,
)
from .meshes import row_dots
from .specs import REQUIRED, Kind, integer, positive, take_kind

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
    return row_dots(a, b)[..., None]


def _tangent_part(nu: np.ndarray, v: np.ndarray) -> np.ndarray:
    """P v = v - nu (nu . v), the part of v orthogonal to the unit vector nu;
    dpi(y) v when nu is the unit normal at y."""
    return v - nu * _dots(nu, v)


def _d2_hypersurface(
    nu: np.ndarray, shape: Callable[[np.ndarray], np.ndarray], v: np.ndarray, w: np.ndarray
) -> np.ndarray:
    """d2pi(y)(v, w) from the unit normal nu at y and the shape operator
    ``shape(t) = dnu(y) t`` on tangent t."""
    s_v = shape(_tangent_part(nu, v))
    s_w = shape(_tangent_part(nu, w))
    return -_dots(s_v, w) * nu - _dots(nu, w) * s_v - _dots(nu, v) * s_w


def _normal_preimage(
    y: np.ndarray, nu: np.ndarray, y1: np.ndarray, nu1: np.ndarray
) -> np.ndarray:
    """The u with nu . u = 0 and y + u on the normal line y1 + t nu1, where nu
    and nu1 are the unit normals at y and y1."""
    d = y1 - y
    return d - _dots(nu, d) / _dots(nu, nu1) * nu1


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
        """pi(x) for finite x; checks each radius with _require_off_medial before dividing."""
        raise NotImplementedError

    def _normal(self, y: np.ndarray) -> np.ndarray:
        """The unit normal nu at y on the target, in the layout of ``_split``."""
        raise NotImplementedError

    def _shape(self, y: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        """t -> S t = dnu(y) t on tangent t, in the layout of ``_split``."""
        raise NotImplementedError

    # a hypersurface is its own one factor; the Clifford torus splits into circles
    def _split(self, x: np.ndarray) -> np.ndarray:
        return x

    def _join(self, x: np.ndarray) -> np.ndarray:
        return x

    def base_point(self) -> np.ndarray:
        """A canonical point on the target (default for constant maps)."""
        raise NotImplementedError

    def spec(self) -> dict:
        """The spec build_target takes: TARGET_KINDS keys zipped with the dataclass fields."""
        values = (getattr(self, f.name) for f in fields(self))
        return {"kind": self.kind, **dict(zip(TARGET_KINDS[self.kind].keys, values))}

    # -- closed forms from nu and S -----------------------------------------

    def tangent_project(self, y: np.ndarray, v: np.ndarray) -> np.ndarray:
        """dpi(y) v: the tangent part of v at y; broadcasts y against v."""
        return self._join(_tangent_part(self._normal(y), self._split(v)))

    def tangent_frames(self, y: np.ndarray) -> np.ndarray:
        """Orthonormal tangent frames at y, (..., n, dN): per factor, the columns but c of
        the Householder reflection I - 2 w w^T / w^T w, w = nu + sign(nu_c) e_c, c the first
        largest |nu_c|, which sends e_c to -sign(nu_c) nu; zero outside the factor."""
        nu = self._normal(np.asarray(y, dtype=float))
        m = nu.shape[-1]
        nu = nu.reshape(np.shape(y)[:-1] + (-1, m))  # (..., k factors, m), in ambient order
        c = np.argmax(np.abs(nu), axis=-1)[..., None]
        pivot = np.arange(m) == c
        w = nu + np.copysign(pivot, np.take_along_axis(nu, c, -1))
        keep = np.argsort(pivot, axis=-1, kind="stable")[..., :-1]  # every column but c, ascending
        scale = 2.0 * np.take_along_axis(w, keep, -1) / _dots(w, w)
        cols = (np.arange(m)[:, None] == keep[..., None, :]) - w[..., :, None] * scale[..., None, :]
        *batch, k, _ = nu.shape
        return np.einsum("...iab,ij->...iajb", cols, np.eye(k)).reshape(*batch, k * m, k * (m - 1))

    def _d2_projection(self, y: np.ndarray, v: np.ndarray, w: np.ndarray) -> np.ndarray:
        return self._join(_d2_hypersurface(
            self._normal(y), self._shape(y), self._split(v), self._split(w)
        ))

    def chart_inverse(self, y: np.ndarray, y1: np.ndarray) -> np.ndarray:
        """The tangent u at y with pi(y + u) = y1, for y, y1 on the target
        closer than ``chart_radius``."""
        return self._join(_normal_preimage(
            self._split(y), self._normal(y), self._split(y1), self._normal(y1)
        ))

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
        # not left to the margins: z = inf on the torus passes both of them
        if not np.isfinite(x).all():
            raise OutsideTubularNeighborhood("non-finite point has no projection")
        return self._project(x)

    def _require_off_medial(self, margin: np.ndarray) -> None:
        """Raise unless every distance-like margin to the medial set is finite
        and exceeds 1e-12: a margin that overflowed to inf would divide x to 0."""
        if not ((margin > 1e-12) & (margin < np.inf)).all():  # NaN fails too
            raise OutsideTubularNeighborhood(
                f"point's distance from the projection's degenerate set (min "
                f"{float(np.min(margin)):.3e}, max {float(np.max(margin)):.3e}) is not in "
                f"(1e-12, inf): too close, or |x|^2 overflowed "
                f"(tube radius {self.tubular_radius():.3e})"
            )

    def require_on_target(self, y: np.ndarray) -> None:
        """Raise NotOnTarget unless every point is finite and on the target."""
        worst = float(np.max(self.distance(y)))
        if not worst <= ON_TARGET_TOL:  # NaN compares false: non-finite fails
            raise NotOnTarget(f"off-target residual {worst:.3e} > {ON_TARGET_TOL:.1e}")

    def require_tangent(self, y: np.ndarray, v: np.ndarray) -> None:
        """Raise NonTangentInput unless each v is tangent to the target at y."""
        v = np.asarray(v, dtype=float)
        resid = self.tangent_project(np.asarray(y, dtype=float), v) - v
        worst = float(np.sqrt(np.max(row_dots(resid, resid))))
        tol = TANGENT_TOL * max(1.0, float(np.sqrt(np.max(row_dots(v, v)))))
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
        return np.abs(np.sqrt(row_dots(x, x)) - 1.0)

    def _project(self, x: np.ndarray) -> np.ndarray:
        rho = np.sqrt(_dots(x, x))
        self._require_off_medial(rho)
        return x / rho

    # nu = y itself, not y/|y|: on the target they agree to rounding
    def _normal(self, y):
        return y

    def _shape(self, y):
        return lambda t: t


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

    def _split(self, x: np.ndarray) -> np.ndarray:
        return x.reshape(x.shape[:-1] + (self.circle_count, 2))

    def _join(self, x: np.ndarray) -> np.ndarray:
        return x.reshape(x.shape[:-2] + (self.ambient_dim,))

    def distance(self, x: np.ndarray) -> np.ndarray:
        pairs = self._split(np.asarray(x, float))
        d = np.sqrt(row_dots(pairs, pairs)) - 1.0
        return np.sqrt(row_dots(d, d))

    def _project(self, x: np.ndarray) -> np.ndarray:
        pairs = self._split(x)
        rho = np.sqrt(_dots(pairs, pairs))
        self._require_off_medial(rho)
        return self._join(pairs / rho)

    # per factor circle: nu is the raw coordinate pair of y, S the identity
    def _normal(self, y):
        return self._split(y)

    def _shape(self, y):
        return lambda t: t


@dataclass(frozen=True)
class TorusOfRevolution(EmbeddedTarget):
    """Torus in R^3 with major radius R and minor radius r, axis = z-axis."""

    major_radius: float
    minor_radius: float

    def __post_init__(self):
        if not (np.inf > self.major_radius > self.minor_radius > 0.0):
            raise InvalidSpec("torus of revolution needs finite R > r > 0")

    kind = "torus_rev"
    ambient_dim = 3
    intrinsic_dim = 2

    def tubular_radius(self) -> float:
        # normal injectivity radius: tube core circle at distance r, axis at R - r
        return min(self.minor_radius, self.major_radius - self.minor_radius)

    def base_point(self) -> np.ndarray:
        return np.array([self.major_radius + self.minor_radius, 0.0, 0.0])

    def _core_decomp(self, x: np.ndarray):
        """rho = |x_h|, e = x_h/rho, q = x - R e, s = |q|; each checked before it divides."""
        h = x.copy()
        h[..., 2] = 0.0
        rho = np.sqrt(_dots(h, h))
        self._require_off_medial(rho)  # the axis
        e = h / rho
        q = x - self.major_radius * e
        s = np.sqrt(_dots(q, q))
        self._require_off_medial(s)  # the core circle
        return rho, e, q, s

    def distance(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        h = np.linalg.norm(x[..., :2], axis=-1)
        d_core = np.hypot(h - self.major_radius, x[..., 2])
        return np.abs(d_core - self.minor_radius)

    def _project(self, x: np.ndarray) -> np.ndarray:
        _, e, q, s = self._core_decomp(x)
        return self.major_radius * e + self.minor_radius * q / s

    def _normal(self, y):
        _, _, q, s = self._core_decomp(y)
        return q / s

    def _shape(self, y):
        rho, e, _, s = self._core_decomp(y)

        def shape(t):
            # nu = q/s with q = y - R e: S t = (t - R de(y) t) / s on tangent t
            t_h = t.copy()
            t_h[..., 2] = 0.0
            return (t - self.major_radius * _tangent_part(e, t_h) / rho) / s

        return shape


# each row's keys in dataclass field (constructor argument) order
TARGET_KINDS = {
    "sphere": Kind(UnitSphere, {"ambient_dim": (integer, REQUIRED)}),
    "clifford_torus": Kind(CliffordTorus, {"m": (integer, REQUIRED)}),
    "torus_rev": Kind(TorusOfRevolution, {"R": (positive(float), REQUIRED),
                                          "r": (positive(float), REQUIRED)}),
}


def build_target(spec: dict) -> EmbeddedTarget:
    """Construct a target from a scenario-style spec dict: a kind and only its keys."""
    kind, *values = take_kind(TARGET_KINDS, spec, "target spec").values()
    return TARGET_KINDS[kind].build(*values)
