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
in log r with scipy (imported by the first table).  A table of (r, u) gets a
cubic spline, and u' and u'' come from the spline's own derivatives; a table
of (r, u, u', u'') gets Hermite interpolants that match all three columns.
A file with exactly four columns is read as the latter, and any other width
as its first two columns.
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


def dimension(n) -> int:
    """The one dimension rule: n as an int, refused unless an integer >= 3 whose unit-sphere area is finite."""
    if not (n >= 3 and n % 1 == 0):  # NaN, inf (inf % 1 is NaN) and fractions fail here
        raise ValueError(f"dimension must be an integer >= 3, got {n!r}")
    try:
        unit_sphere_area(int(n))  # every area reads it; Gamma(n/2) overflows from n = 344
    except OverflowError:
        raise ValueError(f"dimension {int(n)} is too large: the unit-sphere area overflows") from None
    return int(n)


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
        self.n = dimension(n)

    def require_radius(self, r) -> None:
        if not self.domain.contains(r):
            raise DomainError(f"radius {r!r} outside domain {self.domain} of {self.kind} profile")

    def require_three(self, what: str) -> None:
        """The n = 3 rule: ``what``, a three-dimensional entry point, refuses n != 3."""
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
    """Profile interpolated from samples on a strictly increasing grid, in t = log r.

    Given (r, u) alone, u is a cubic spline in t, and u' = U_t / r and
    u'' = (U_tt - U_t) / r^2 come from the spline itself, which avoids the
    1/h^2 rounding amplification a difference stencil would add on top of the
    interpolation error.  Given ``derivatives`` = (u', u'') at the same radii,
    u is the quintic Hermite in t on (u, u_t, u_tt), with u_t = r u' and
    u_tt = r^2 u'' + r u', and v = r u' has its own cubic Hermite in t on
    (v, v_t), from which u' = v / r and u'' = (v_t - v) / r^2 by the same
    formulas.  Every consumer reads u' and u'' from v: the quintic's own
    derivative would difference u values near a constant far out.
    """

    kind = "tabulated"

    def __init__(self, radii, values, n: int = 3, source: str | None = None, derivatives=None):
        super().__init__(n)
        radii = np.asarray(radii, dtype=float)
        values = np.asarray(values, dtype=float)
        if radii.ndim != 1 or radii.shape != values.shape or len(radii) < 4:
            raise ValueError("need matching 1-d arrays with at least 4 samples")
        du, d2u = (None, None) if derivatives is None else map(_floats, derivatives)
        if derivatives is not None and not (du.shape == d2u.shape == radii.shape):
            raise ValueError("tabulated derivative columns must match the radii")
        named = (("radii", radii), ("values", values), ("derivatives", du), ("derivatives", d2u))
        for name, samples in named:  # before scipy refuses them in its words
            if samples is not None and not np.all(np.isfinite(samples)):
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
        from scipy.interpolate import CubicHermiteSpline, CubicSpline, PPoly  # on first use: closed forms never load scipy

        t = np.log(radii)
        if du is None:
            self._spline = CubicSpline(t, values, extrapolate=True)
            self._spline_t = self._spline.derivative(1)
        else:
            v = radii * du  # u_t, and v_t = u_tt
            v_t = v + radii * radii * d2u
            self._spline = PPoly(_quintic_hermite(t, values, v, v_t), t, extrapolate=True)
            self._spline_t = CubicHermiteSpline(t, v, v_t, extrapolate=True)
        self._spline_tt = self._spline_t.derivative(1)
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


def _quintic_hermite(t, y, d, s) -> np.ndarray:
    """``PPoly`` coefficients (highest power first) of the quintic on each [t_i, t_i+1] matching y, y' = d and y'' = s at both ends."""
    h = np.diff(t)
    y0, d0, s0 = y[:-1], d[:-1], s[:-1]
    a = (y[1:] - y0 - h * (d0 + 0.5 * h * s0)) / h**3  # what the quadratic part leaves of y, y' and y'' at t_i+1
    b = (d[1:] - d0 - h * s0) / h**2
    c = (s[1:] - s0) / h
    quintic, quartic, cubic = (6 * a - 3 * b + 0.5 * c) / h**2, (-15 * a + 7 * b - c) / h, 10 * a - 4 * b + 0.5 * c
    return np.stack([quintic, quartic, cubic, 0.5 * s0, d0, y0])


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
    """Read a (r, u) or (r, u, u', u'') text file; '#' starts a comment line.

    A file with exactly four columns is (r, u, u', u''), and any other width
    is read as (r, u) from its first two columns.

    The file is parsed once per content: bytes this process wrote with
    :func:`write_tabulated` or read before (among the last four tables) are
    looked up by their SHA-256, and any other bytes are decoded as UTF-8 and
    parsed.  Every check of :class:`TabulatedProfile` still runs.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    digest = hashlib.sha256(data).digest()
    table = _PARSED.pop(digest, None)  # kept again below only if the profile accepts it
    if table is None:
        table = np.loadtxt(io.StringIO(data.decode("utf-8"), newline=None), comments="#", ndmin=2)
        if table.shape[1] < 2:
            raise ValueError(f"{path}: expected two columns (r, u)")
    table.flags.writeable = False  # before the profile takes views of its columns
    derivatives = (table[:, 2], table[:, 3]) if table.shape[1] == 4 else None
    profile = TabulatedProfile(table[:, 0], table[:, 1], n=n, source=str(path), derivatives=derivatives)
    _remember(digest, table)  # only a table the profile accepted
    return profile


def write_tabulated(path, radii, values, header: str = "", derivatives=None) -> None:
    """Write a (r, u) text file readable by :func:`read_tabulated`, or (r, u, u', u'') given ``derivatives``.

    ``derivatives`` is the pair of u' and u'' columns at the radii.
    ``radii`` may be a :class:`RadialGrid`, whose cached ``radii_text()`` is
    the r column.  ``write_table`` refuses columns of unequal length, and a
    failed write leaves any previous table whole rather than a truncated one
    that would read as shorter.  The columns written are kept as the parse of
    the text (repr round-trips every float), so reading the file back parses
    nothing; a table with a non-finite entry, which every read refuses, is not kept.
    """
    grid = isinstance(radii, RadialGrid)
    r = radii.radii() if grid else _floats(radii)
    columns = [_floats(values), *map(_floats, derivatives or ())]
    names = "r u du d2u" if derivatives else "r u"
    head = "".join(f"# {line}\n" for line in [*header.splitlines(), names])
    text = write_table(path, head, [radii.radii_text() if grid else r, *columns], " ")
    table = np.column_stack((r, *columns))
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
