"""Radial conformal factors for rotationally symmetric, conformally flat metrics.

A profile is a positive function u on a radial domain, representing the metric

    g = u(r)^{4/(n-2)} (dr^2 + r^2 g_{S^{n-1}})

on a punctured ball or all of R^n minus the origin.  Everything downstream
(curvature, areas, masses, bubble functionals) is a pointwise or integral
expression in u, u' and u'', so a profile exposes exactly those three
evaluators, vectorized over radii, together with its dimension and domain.
A float radius (``np.float64`` included) takes a scalar path: the domain
check compares it directly, and an evaluator marked ``takes_floats`` gets the
float itself.  Such an evaluator forms constants and +, -, * and / only,
which round a float and an array alike: bit for bit the array path; any
other evaluator sees the float as a 1-element array.

Closed-form kinds carry analytic derivatives.  Tabulated profiles interpolate
with a cubic spline in log r (scipy's ``CubicSpline``, imported by the first
table) and take u' and u'' from the spline's own derivatives.
"""

from __future__ import annotations

import hashlib
import io
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, UnsupportedDimensionError
from .reports import write_table


@lru_cache(maxsize=None)  # one value per dimension, read by every sphere area
def unit_sphere_area(n: int) -> float:
    """Area of the unit (n-1)-sphere, 2 pi^{n/2} / Gamma(n/2)."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


@dataclass(frozen=True)
class Domain:
    """Radial interval of validity: open at an end at 0 or inf (a closed form's), closed at any other (a table's)."""

    lo: float
    hi: float

    def contains(self, r) -> bool:
        """Whether every radius in r lies in the interval; NaN never does."""
        scalar = isinstance(r, float)  # a float is compared as it is, no array made
        r = r if scalar else np.asarray(r, dtype=float)
        lo_ok = (r >= self.lo) if self.lo else (r > 0.0)
        hi_ok = (r < self.hi) if self.hi == math.inf else (r <= self.hi)
        return bool(lo_ok and hi_ok) if scalar else bool(np.all(lo_ok & hi_ok))


class RadialProfile:
    """Base class: dimension, domain, and the u / u' / u'' evaluators.

    A subclass defines the array evaluators ``_u``, ``_du`` and ``_d2u``
    that ``u``, ``du`` and ``d2u`` call.  An open inner end is always at
    r = 0: a domain with lo > 0 is closed there (a tabulated profile's).
    A profile with an open inner end also carries ``inner_exponent``, the q
    with u ~ c r^{-q} as r -> 0, from which the radial integrals decide
    whether that end is at finite distance.
    ``breakpoints`` lists the radii where u switches between closed forms;
    the radial integrals split there.
    """

    kind = "base"
    takes_floats = False  # True where _u, _du and _d2u take a float as an array: constants and IEEE +, -, *, / only
    breakpoints: tuple[float, ...] = ()
    domain = Domain(0.0, math.inf)  # built once; a subclass with another domain builds its own once

    def __init__(self, n: int = 3):
        if int(n) != n or n < 3:
            raise ValueError(f"dimension must be an integer >= 3, got {n!r}")
        self.n = int(n)
        try:
            unit_sphere_area(self.n)  # every area reads it; Gamma(n/2) overflows from n = 344
        except OverflowError:
            raise ValueError(f"dimension {n} is too large: the unit-sphere area overflows") from None

    def require_radius(self, r) -> None:
        if not self.domain.contains(r):
            raise DomainError(f"radius {r!r} outside domain {self.domain} of {self.kind} profile")

    def require_three(self, what: str) -> None:
        """The one dimension rule: ``what``, a three-dimensional entry point, refuses n != 3."""
        if self.n != 3:
            raise UnsupportedDimensionError(f"{what} is defined only for n = 3")

    def params(self) -> dict:
        return {}

    def describe(self) -> dict:
        return {"kind": self.kind, "n": self.n, **self.params()}

    def u(self, r):
        return float(self._u(r)) if self.takes_floats and isinstance(r, float) else _dispatch(self._u, r)

    def du(self, r):
        return float(self._du(r)) if self.takes_floats and isinstance(r, float) else _dispatch(self._du, r)

    def d2u(self, r):
        return float(self._d2u(r)) if self.takes_floats and isinstance(r, float) else _dispatch(self._d2u, r)


def _dispatch(fn, r):
    if isinstance(r, float):  # an evaluator not marked takes_floats: the 1-element array, without its wrappers
        return float(fn(np.array([r]))[0])
    arr = np.asarray(r, dtype=float)
    out = fn(np.atleast_1d(arr))
    return float(out[0]) if arr.ndim == 0 else out


class EuclideanProfile(RadialProfile):
    """u identically 1: flat space."""

    kind = "euclidean"
    takes_floats = True
    inner_exponent = 0.0

    def _u(self, r):
        return np.ones_like(r)

    def _du(self, r):
        return np.zeros_like(r)

    def _d2u(self, r):
        return np.zeros_like(r)


class SchwarzschildLikeProfile(RadialProfile):
    """u = a + b r^{2-n} with finite a > 0, b >= 0.

    The conformal factor is harmonic, so the scalar curvature vanishes and
    the total mass (in the normalization of :func:`penroselab.masses.adm_mass_from_tail`)
    is 2ab.  The evaluators use +, -, * and / only, so they take floats:
    the tail t = b r^{2-n} is n - 2 divisions of b by r, u' = (2-n) t / r
    and u'' = (2-n)(1-n) t / r / r.  For n = 3 (and 5) the flat Laplacian
    u'' + (n-1) u'/r is then exactly 0.0 wherever nothing over- or underflows.
    """

    kind = "schwarzschild-like"
    takes_floats = True

    def __init__(self, a: float, b: float, n: int = 3):
        super().__init__(n)
        if not a > 0:
            raise ValueError(f"leading coefficient must be positive, got {a}")
        if b < 0:
            raise ValueError(f"tail coefficient must be nonnegative, got {b}")
        if not (math.isfinite(a) and math.isfinite(b)):  # inf passes both sign checks, NaN the one on b
            raise ValueError(f"coefficients must be finite, got a = {a}, b = {b}")
        self.a = float(a)
        self.b = float(b)
        self.inner_exponent = float(self.n - 2) if b > 0 else 0.0

    @classmethod
    def from_mass(cls, mass: float, n: int = 3) -> "SchwarzschildLikeProfile":
        """Unit-normalized profile 1 + (m/2) r^{2-n}."""
        return cls(1.0, 0.5 * mass, n)

    def params(self):
        return {"a": self.a, "b": self.b}

    def _tail(self, r):
        t = self.b / r  # b r^{2-n}; no ** here: Python's float pow and numpy's round apart
        for _ in range(self.n - 3):
            t = t / r
        return t

    def _u(self, r):
        return self.a + self._tail(r)

    def _du(self, r):
        return (2 - self.n) * self._tail(r) / r

    def _d2u(self, r):
        return (2 - self.n) * (1 - self.n) * self._tail(r) / r / r


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
        for name, samples in (("radii", radii), ("values", values)):  # before scipy refuses them in its words
            if not np.all(np.isfinite(samples)):
                raise ValueError(f"tabulated {name} must be finite")
        if np.any(radii <= 0):
            raise ValueError("tabulated radii must be positive")
        if np.any(np.diff(radii) <= 0):
            raise ValueError("tabulated radii must be strictly increasing")
        if np.any(values <= 0):
            raise ValueError("tabulated conformal factors must be positive")
        self.radii = radii
        self.values = values
        self.source = source
        from scipy.interpolate import CubicSpline  # on first use: closed-form profiles never load scipy

        self._spline = CubicSpline(np.log(radii), values, extrapolate=True)
        self._spline_t = self._spline.derivative(1)
        self._spline_tt = self._spline.derivative(2)
        self.domain = Domain(float(radii[0]), float(radii[-1]))

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


_PARSED: dict[bytes, np.ndarray] = {}  # SHA-256 of a table's bytes -> its (N, k) columns, read-only
_PARSED_KEPT = 4  # the last tables written or read, oldest first


def _remember(digest: bytes, table: np.ndarray) -> None:
    """Keep ``table``, read-only, as the newest of the last ``_PARSED_KEPT`` parsed tables."""
    table.flags.writeable = False
    _PARSED.pop(digest, None)
    _PARSED[digest] = table
    if len(_PARSED) > _PARSED_KEPT:
        del _PARSED[next(iter(_PARSED))]


def read_tabulated(path, n: int = 3) -> TabulatedProfile:
    """Read a two-column (r, u) text file; '#' starts a comment line.

    The file is parsed once per content: bytes this process wrote with
    :func:`write_tabulated` or read before (among the last four tables) are
    looked up by their SHA-256, and any other bytes are decoded as UTF-8 and
    parsed.  Every check of :class:`TabulatedProfile` still runs.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    digest = hashlib.sha256(data).digest()
    table = _PARSED.get(digest)
    if table is None:
        table = np.loadtxt(io.StringIO(data.decode("utf-8"), newline=None), comments="#", ndmin=2)
        if table.shape[1] < 2:
            raise ValueError(f"{path}: expected two columns (r, u)")
    _remember(digest, table)
    return TabulatedProfile(table[:, 0], table[:, 1], n=n, source=str(path))


def write_tabulated(path, radii, values, header: str = "") -> None:
    """Write a two-column (r, u) text file readable by :func:`read_tabulated`.

    ``radii`` may be a :class:`RadialGrid`, whose cached ``radii_text()`` is
    the r column.  ``write_table`` refuses columns of unequal length, and a
    failed write leaves any previous table whole rather than a truncated one
    that would read as shorter.  The columns written are kept as the parse of
    the text (repr round-trips every float), so reading the file back parses
    nothing; a table with a non-finite entry, which every read refuses, is not kept.
    """
    grid = isinstance(radii, RadialGrid)
    r = radii.radii() if grid else _floats(radii)
    u = _floats(values)
    head = "".join(f"# {line}\n" for line in [*header.splitlines(), "r u"])
    text = write_table(path, head, [radii.radii_text() if grid else r, u], " ")
    table = np.column_stack((r, u))
    if np.isfinite(table).all():
        _remember(hashlib.sha256(text.encode()).digest(), table)


def _floats(column) -> np.ndarray:
    """A column as float64; an iterator without a length (a generator) is drawn once, here."""
    return np.asarray(column, dtype=float) if hasattr(column, "__len__") else np.fromiter(column, float)


DEFAULT_GRID_LO = 1e-4
DEFAULT_GRID_HI = 1e4
DEFAULT_GRID_COUNT = 4096
MAX_GRID_COUNT = 2**20  # refused above this, before any array is made


@dataclass(frozen=True)
class RadialGrid:
    """Logarithmic sampling grid used by scans, tail fits, exports and verification reports.

    Each distinct grid is sampled once per process; equal grids share one
    read-only array.  The bubble anchor table's edges, new on every schedule,
    are sampled apart, as they would only push reused grids out of the cache.
    """

    r_lo: float
    r_hi: float
    count: int = DEFAULT_GRID_COUNT

    def __post_init__(self):
        if not (0 < self.r_lo < self.r_hi < math.inf):
            raise ValueError(f"need finite 0 < r_lo < r_hi, got ({self.r_lo}, {self.r_hi})")
        if self.count < 2:
            raise ValueError("grid needs at least 2 samples")
        if self.count > MAX_GRID_COUNT:
            raise ValueError(f"grid count {self.count} exceeds {MAX_GRID_COUNT}")

    @lru_cache(maxsize=16)  # keyed by the grid's fields: equal grids share the array
    def radii(self) -> np.ndarray:
        """np.geomspace(r_lo, r_hi, count), read-only."""
        radii = np.geomspace(self.r_lo, self.r_hi, self.count)
        radii.flags.writeable = False
        return radii

    @lru_cache(maxsize=4)  # fewer than radii(): a grid's text takes about ten times its array's bytes
    def radii_text(self) -> tuple[str, ...]:
        """The repr of each of ``radii()``, made once per grid."""
        return tuple(map(repr, self.radii().tolist()))


def default_grid(
    profile: RadialProfile,
    r_lo: float = DEFAULT_GRID_LO,
    r_hi: float = DEFAULT_GRID_HI,
    count: int = DEFAULT_GRID_COUNT,
) -> RadialGrid:
    """Default grid intersected with the profile's domain."""
    dom = profile.domain
    lo = max(r_lo, dom.lo)
    hi = min(r_hi, dom.hi)
    if not lo < hi:
        raise DomainError(f"default grid does not intersect domain {dom}")
    return RadialGrid(lo, hi, count)
