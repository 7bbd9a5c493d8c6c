"""Radial conformal factors for rotationally symmetric, conformally flat metrics.

A profile is a positive function u on a radial domain, representing the metric

    g = u(r)^{4/(n-2)} (dr^2 + r^2 g_{S^{n-1}})

on a punctured ball or all of R^n minus the origin.  Everything downstream
(curvature, areas, masses, bubble functionals) is a pointwise or integral
expression in u, u' and u'', so a profile exposes exactly those three
evaluators, vectorized over radii, together with its dimension and domain.
A float radius (``np.float64`` included) takes a scalar path: the domain
check compares it directly and the evaluator sees it as a 1-element array,
with results identical to the general path's.

Closed-form kinds carry analytic derivatives.  Tabulated profiles interpolate
with a cubic spline in log r and take u' and u'' from the spline's own
derivatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import DomainError
from .reports import _atomic_write


def unit_sphere_area(n: int) -> float:
    """Area of the unit (n-1)-sphere, 2 pi^{n/2} / Gamma(n/2)."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


@dataclass(frozen=True)
class Domain:
    """Radial interval of validity; endpoints may be open."""

    lo: float
    hi: float
    lo_closed: bool = False
    hi_closed: bool = False

    def contains(self, r) -> bool:
        """Whether every radius in r lies in the interval; NaN never does."""
        scalar = isinstance(r, float)  # a float is compared as it is, no array made
        r = r if scalar else np.asarray(r, dtype=float)
        lo_ok = (r >= self.lo) if self.lo_closed else (r > self.lo)
        hi_ok = (r <= self.hi) if self.hi_closed else (r < self.hi)
        return bool(lo_ok and hi_ok) if scalar else bool(np.all(lo_ok & hi_ok))


class RadialProfile:
    """Base class: dimension, domain, and the u / u' / u'' evaluators.

    A profile whose domain has an open inner end also carries
    ``inner_exponent``, the q with u ~ c r^{-q} as r -> 0, from which the
    radial integrals decide whether that end is at finite distance.
    ``breakpoints`` lists the radii where u switches between closed forms;
    the radial integrals split there.
    """

    kind = "base"
    breakpoints: tuple[float, ...] = ()
    domain = Domain(0.0, math.inf)  # built once; a subclass with another domain builds its own once

    def __init__(self, n: int = 3):
        if int(n) != n or n < 3:
            raise ValueError(f"dimension must be an integer >= 3, got {n!r}")
        self.n = int(n)

    def require_radius(self, r) -> None:
        if not self.domain.contains(r):
            raise DomainError(f"radius {r!r} outside domain {self.domain} of {self.kind} profile")

    def params(self) -> dict:
        return {}

    def describe(self) -> dict:
        return {"kind": self.kind, "n": self.n, **self.params()}

    # subclasses implement the array evaluators
    def _u(self, r: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _du(self, r: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _d2u(self, r: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def u(self, r):
        return _dispatch(self._u, r)

    def du(self, r):
        return _dispatch(self._du, r)

    def d2u(self, r):
        return _dispatch(self._d2u, r)


def _dispatch(fn, r):
    if isinstance(r, float):  # the 1-element array the general path would build, without its wrappers
        return float(fn(np.array([r]))[0])
    arr = np.asarray(r, dtype=float)
    out = fn(np.atleast_1d(arr))
    return float(out[0]) if arr.ndim == 0 else out


class EuclideanProfile(RadialProfile):
    """u identically 1: flat space."""

    kind = "euclidean"
    inner_exponent = 0.0

    def _u(self, r):
        return np.ones_like(r)

    def _du(self, r):
        return np.zeros_like(r)

    def _d2u(self, r):
        return np.zeros_like(r)


class SchwarzschildLikeProfile(RadialProfile):
    """u = a + b r^{2-n} with a > 0, b >= 0.

    The conformal factor is harmonic, so the scalar curvature vanishes and
    the total mass (in the normalization of :func:`penroselab.masses.adm_mass_from_tail`)
    is 2ab.
    """

    kind = "schwarzschild-like"

    def __init__(self, a: float, b: float, n: int = 3):
        super().__init__(n)
        if not a > 0:
            raise ValueError(f"leading coefficient must be positive, got {a}")
        if b < 0:
            raise ValueError(f"tail coefficient must be nonnegative, got {b}")
        self.a = float(a)
        self.b = float(b)
        self.inner_exponent = float(self.n - 2) if b > 0 else 0.0

    @classmethod
    def from_mass(cls, mass: float, n: int = 3) -> "SchwarzschildLikeProfile":
        """Unit-normalized profile 1 + (m/2) r^{2-n}."""
        return cls(1.0, 0.5 * mass, n)

    @property
    def mass(self) -> float:
        return 2.0 * self.a * self.b

    def params(self):
        return {"a": self.a, "b": self.b}

    def _u(self, r):
        return self.a + self.b * r ** (2 - self.n)

    def _du(self, r):
        return self.b * (2 - self.n) * r ** (1 - self.n)

    def _d2u(self, r):
        return self.b * (2 - self.n) * (1 - self.n) * r ** (-self.n)


class CylinderProfile(RadialProfile):
    """u = r^{(2-n)/2}: the metric is the unit round cylinder R x S^{n-1}."""

    kind = "cylinder"

    @property
    def inner_exponent(self) -> float:
        return 0.5 * (self.n - 2)

    def _u(self, r):
        return r ** (0.5 * (2 - self.n))

    def _du(self, r):
        return 0.5 * (2 - self.n) * r ** (-0.5 * self.n)

    def _d2u(self, r):
        return 0.25 * (2 - self.n) * (-self.n) * r ** (-0.5 * self.n - 1)


class TabulatedProfile(RadialProfile):
    """Profile interpolated from (r, u) samples on a strictly increasing grid.

    Interpolation is a cubic spline in t = log r; derivatives come from the
    spline itself (u' = U_t / r, u'' = (U_tt - U_t) / r^2), which avoids the
    1/h^2 rounding amplification a difference stencil would add on top of the
    interpolation error.
    """

    kind = "tabulated"

    def __init__(self, radii, values, n: int = 3, source: str | None = None):
        super().__init__(n)
        radii = np.asarray(radii, dtype=float)
        values = np.asarray(values, dtype=float)
        if radii.ndim != 1 or radii.shape != values.shape or len(radii) < 4:
            raise ValueError("need matching 1-d arrays with at least 4 samples")
        if np.any(radii <= 0):
            raise ValueError("tabulated radii must be positive")
        if np.any(np.diff(radii) <= 0):
            raise ValueError("tabulated radii must be strictly increasing")
        if np.any(values <= 0):
            raise ValueError("tabulated conformal factors must be positive")
        self.radii = radii
        self.values = values
        self.source = source
        self._spline = CubicSpline(np.log(radii), values, extrapolate=True)
        self._spline_t = self._spline.derivative(1)
        self._spline_tt = self._spline.derivative(2)
        self.domain = Domain(float(radii[0]), float(radii[-1]), True, True)

    def params(self):
        p = {"samples": len(self.radii), "r_lo": float(self.radii[0]), "r_hi": float(self.radii[-1])}
        if self.source:
            p["source"] = self.source
        return p

    def _u(self, r):
        return self._spline(np.log(r))

    def _du(self, r):
        return self._spline_t(np.log(r)) / r

    def _d2u(self, r):
        t = np.log(r)
        return (self._spline_tt(t) - self._spline_t(t)) / r**2


def read_tabulated(path, n: int = 3) -> TabulatedProfile:
    """Read a two-column (r, u) text file; '#' starts a comment line."""
    data = np.loadtxt(path, comments="#", ndmin=2)
    if data.shape[1] < 2:
        raise ValueError(f"{path}: expected two columns (r, u)")
    return TabulatedProfile(data[:, 0], data[:, 1], n=n, source=str(path))


def write_tabulated(path, radii, values, header: str = "") -> None:
    """Write a two-column (r, u) text file readable by :func:`read_tabulated`.

    The file is replaced atomically, so a failed write leaves any previous
    table whole rather than a truncated one that would read as shorter.
    """
    lines = [f"# {line}\n" for line in header.splitlines()]
    lines.append("# r u\n")
    lines.extend(f"{float(r)!r} {float(u)!r}\n" for r, u in zip(radii, values))
    _atomic_write(path, "".join(lines))


@dataclass(frozen=True)
class RadialGrid:
    """Logarithmic sampling grid used by scans and verification reports."""

    r_lo: float
    r_hi: float
    count: int = 4096

    def __post_init__(self):
        if not (0 < self.r_lo < self.r_hi):
            raise ValueError(f"need 0 < r_lo < r_hi, got ({self.r_lo}, {self.r_hi})")
        if self.count < 2:
            raise ValueError("grid needs at least 2 samples")

    def radii(self) -> np.ndarray:
        return np.geomspace(self.r_lo, self.r_hi, self.count)


DEFAULT_GRID_LO = 1e-4
DEFAULT_GRID_HI = 1e4
DEFAULT_GRID_COUNT = 4096


def default_grid(
    profile: RadialProfile,
    r_lo: float = DEFAULT_GRID_LO,
    r_hi: float = DEFAULT_GRID_HI,
    count: int = DEFAULT_GRID_COUNT,
) -> RadialGrid:
    """Default grid intersected with the profile's domain."""
    dom = profile.domain
    lo = max(r_lo, dom.lo if dom.lo_closed else dom.lo * (1 + 1e-12) if dom.lo > 0 else r_lo)
    hi = min(r_hi, dom.hi)
    if not lo < hi:
        raise DomainError(f"default grid does not intersect domain {dom}")
    return RadialGrid(lo, hi, count)
