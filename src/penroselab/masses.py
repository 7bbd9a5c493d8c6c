"""Total mass, Hawking mass, radial area infimum, and the inequality predicates.

The total mass of an asymptotically flat profile u -> a + b r^{2-n} is 2ab:
rescaling coordinates by a^{2/(n-2)} normalizes the factor to 1 + ab r^{2-n},
which is the standard mass-m/2 tail.  For n = 3 that is also the Hawking mass
-r^2 u'(u + w) of every S_r on the tail; the reported mass stays the fit, as
the spline u' of a two-column (r, u) table spoils m_H.

The area infimum is taken over coordinate spheres only, which is the natural
computable restriction in the rotationally symmetric class.  There
d area(S_r)/dr has the sign of H(S_r) = (n-1) w / (R u), which is the sign of
w, so a least area sits at a - to + root of H and a horizon is a root of H.
The grid brackets both by the sign of w, and ``_root`` refines the root of H.
When the infimum is approached only at the inner edge of the domain (no
minimal sphere), the limit is extrapolated and flagged as a throat limit.
``GridScan`` is the one reader of a profile on a grid: the mass reads its one
tail fit, the area infimum, horizon and R(g) its one evaluation of u and u',
and its verdict refuses n != 3, then a bad tail, before it evaluates the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .errors import NotAsymptoticallyFlatError, NotOuterMinimizingError, ParameterError
from .geometry import _at, _Sphere, sphere_area, sphere_mean_curvature
from .profiles import RadialGrid, RadialProfile, default_grid

TAIL_RESIDUAL_REL = 1e-6
EQUALITY_TOL = 1e-6
ADM_HAWKING_SLACK = 1e-8
_DEGENERATE_BOUND = 1e-9
_ROOT_XTOL = 1e-300
_ROOT_RTOL = 4.0 * float(np.finfo(float).eps)  # a Python float, as every value in _root's loop is
_ROOT_MAXITER = 100
_W_NOISE = 4.0 * np.finfo(float).eps

VERDICT_STRICT = "strict"
VERDICT_EQUALITY = "equality-within-tol"
VERDICT_VIOLATED = "violated"


@dataclass(frozen=True)
class AsymptoticTail:
    """Least-squares fit of u against 1 and r^{2-n} on the outer decade."""

    a: float
    b: float
    fit_residual: float


@dataclass(frozen=True)
class AreaInfimum:
    value: float
    argmin_radius: float | None
    throat_limit: bool


@dataclass(frozen=True)
class PenroseReport:
    adm_mass: float
    area_infimum: float
    bound: float
    ratio: float
    verdict: str
    horizon_radius: float | None


@dataclass(frozen=True)
class AdmHawkingResult:
    radius: float
    adm_mass: float
    hawking_mass: float
    passed: bool


def adm_mass_from_tail(
    profile: RadialProfile,
    grid: RadialGrid | None = None,
) -> tuple[float, AsymptoticTail]:
    """Fit u = a + b r^{2-n} on [r_hi/10, r_hi] and return (2ab, tail).

    The window is the 128-point ``RadialGrid`` on that decade.  Raises
    :class:`NotAsymptoticallyFlatError` when the max fit deviation exceeds
    ``TAIL_RESIDUAL_REL * a``, the fitted leading coefficient is not positive,
    or the fit overflows.
    """
    grid = grid or default_grid(profile)
    n = profile.n
    radii = RadialGrid(grid.r_hi / 10.0, grid.r_hi, 128).radii()
    profile.require_radius(radii)
    u = profile.u(radii)
    try:  # r_hi near the float ceiling overflows r_scale, and a large n overflows r_scale^{n-2}
        with np.errstate(over="raise", divide="raise"):  # scale the decaying column: tame normal equations
            r_scale = math.sqrt(radii[0] * radii[-1])
            basis = np.column_stack([np.ones_like(radii), (radii / r_scale) ** (2 - n)])
        coef, *_ = np.linalg.lstsq(basis, u, rcond=None)
        a, b = float(coef[0]), float(coef[1] * r_scale ** (n - 2))
    except (FloatingPointError, np.linalg.LinAlgError, OverflowError) as exc:
        window = f"[{radii[0]:.6g}, {radii[-1]:.6g}]"
        raise NotAsymptoticallyFlatError(f"tail fit on {window} failed: {exc.args[-1]}") from None
    residual = float(np.max(np.abs(u - (a + b * radii ** (2 - n)))))
    tail = AsymptoticTail(a=a, b=b, fit_residual=residual)
    if a <= 0 or residual > TAIL_RESIDUAL_REL * abs(a):
        raise NotAsymptoticallyFlatError(
            f"tail fit residual {residual:.3e} vs threshold {TAIL_RESIDUAL_REL * abs(a):.3e} (a={a:.6g})"
        )
    return 2.0 * a * b, tail


def hawking_mass(profile: RadialProfile, r: float) -> float:
    """Hawking mass sqrt(A/16pi)(1 - A H^2/16pi) of the coordinate sphere S_r (dimension three only).

    H is constant on S_r, so the definition needs no integral; it is read as
    ``_Sphere.hawking_mass``, -r^2 u'(u + w), which cancels nowhere far out.
    """
    profile.require_three("hawking_mass")
    return float(_at(profile, r, du=True).hawking_mass)


def _root(f, a: float, b: float, fa: float | None = None, fb: float | None = None) -> float:
    """A root of f in [a, b], where f changes sign, to a few ulps.

    Every root in the package goes through here: scipy's ``brentq``
    (``Zeros/brentq.c``) statement for statement, with no absolute floor,
    the least relative tolerance brentq accepts and 100 iterations.  It
    evaluates f at brentq's points, returns its root and raises its
    exceptions: ``ValueError`` for a NaN value or ends of one sign,
    ``RuntimeError`` after 100 iterations.  A caller that holds fa = f(a)
    and fb = f(b) passes them and f is not called at the ends, so the root
    runs on the bracket as the caller found it.  For H this only saves two
    evaluations: a float and an array give the same H bit for bit for n = 3.
    """
    xpre, xcur = float(a), float(b)  # Python floats: numpy scalars make each step slower
    if fa is None:
        fpre, fcur = _value(f(xpre), xpre), _value(f(xcur), xcur)
    else:
        fpre, fcur = _value(fa, xpre), _value(fb, xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_ROOT_MAXITER):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (_ROOT_XTOL + _ROOT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # C's inf or nan, which fails the test below
                stry = math.inf
            limit = 3 * abs(sbis) - delta
            if 2 * abs(stry) < (abs(spre) if abs(spre) < limit else limit):  # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = _value(f(xcur), xcur)
    raise RuntimeError(f"Failed to converge after {_ROOT_MAXITER} iterations.")


def _value(fx, x: float) -> float:
    """f(x) as a Python float; NaN raises ``ValueError``, as in brentq."""
    fx = float(fx)
    if fx != fx:
        raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
    return fx


def _w_or_zero(sphere: _Sphere):
    """w of a sphere given u', or 0 where it is rounding: |w| <= 4 eps (u + |w - u|).  H has its sign."""
    w, u = sphere.w, sphere.u
    return np.where(np.abs(w) <= _W_NOISE * (u + np.abs(w - u)), 0.0, w)


def _neville_to_zero(x: np.ndarray, y: np.ndarray) -> float:
    """Neville extrapolation of (x_i, y_i) to x = 0."""
    p = list(map(float, y))
    x = list(map(float, x))
    for level in range(1, len(p)):
        for i in range(len(p) - level):
            p[i] = p[i + 1] + (p[i] - p[i + 1]) * x[i + level] / (x[i + level] - x[i])
    return p[0]


class GridScan:
    """A profile on a grid (the default grid when None), read on first use: its ``tail``, its ``sphere`` and ``w``."""

    def __init__(self, profile: RadialProfile, grid: RadialGrid | None = None):
        self.profile, self.grid = profile, grid or default_grid(profile)
        self.radii = self.grid.radii()

    @cached_property
    def tail(self) -> tuple[float, AsymptoticTail]:
        """(m, tail) of :func:`adm_mass_from_tail` on this grid; a refusal raises on every read."""
        return adm_mass_from_tail(self.profile, self.grid)

    @cached_property
    def sphere(self) -> _Sphere:
        return _at(self.profile, self.radii, du=True)

    @cached_property
    def w(self):
        return _w_or_zero(self.sphere)

    def scalar_curvature(self):
        """R(g) on the grid, with u'' evaluated into the held sphere."""
        self.sphere.d2u = self.profile.d2u(self.radii)
        return self.sphere.scalar_curvature

    @cached_property
    def area_infimum(self) -> AreaInfimum:
        """Infimum of coordinate-sphere areas: the grid's least area S_{r_i}, then a root of H.

        When H goes from - to + across [r_{i-1}, r_{i+1}] (across [r_{i-1}, r_i] at the grid's top
        node), the minimal sphere is the root of H there; otherwise (H = 0 up to rounding, as on the
        cylinder) the sampled minimum stands.  An infimum attained only at the inner edge of the
        sampling range is, unless that edge is the domain's closed inner end itself, the root of H at
        its first change from + to - inward over r_1, r_0 and five geometric nodes toward the domain's
        inner endpoint; with none it is extrapolated over those nodes (Richardson in sqrt(r - r_min))
        and flagged as a throat limit with no argmin.  A NaN sampled area (u overflowing in a high
        dimension) raises :class:`ParameterError`; an infinite one is never least.  A throat
        extrapolation that is not finite (over areas that overflow) raises it too.
        """
        profile, radii, areas = self.profile, self.radii, self.sphere.area
        nan = np.isnan(areas)
        if nan.any():  # argmin would pick the first NaN
            raise ParameterError(f"dimension {profile.n}: the sphere area at r = {radii[nan.argmax()]:.6g} is NaN")
        i = int(np.argmin(areas))
        if i == 0:
            lo = profile.domain.lo
            if radii[0] == lo:  # only a closed inner end can lie on the grid
                return AreaInfimum(value=float(areas[0]), argmin_radius=float(lo), throat_limit=False)
            # geometric nodes toward the inner endpoint, then Richardson in sqrt(r - lo)
            nodes = lo + (radii[0] - lo) * 0.25 ** np.arange(6)
            inward = np.concatenate([radii[1:2], nodes])  # r_1, then the nodes from r_0 in: one sphere for w and areas
            probe = _at(profile, inward, du=True)
            w_in = _w_or_zero(probe)  # d area/dr has the sign of H and w
            turn = np.nonzero((w_in[:-1] > 0) & (w_in[1:] < 0))[0]  # + to - inward: a minimal sphere
            if len(turn):
                k = int(turn[0])
                r = _root(partial(sphere_mean_curvature, profile), inward[k + 1], inward[k])
                return AreaInfimum(value=float(sphere_area(profile, r)), argmin_radius=r, throat_limit=False)
            limit = float(_neville_to_zero(np.sqrt(nodes - lo), probe.area[1:]))
            if not math.isfinite(limit):  # infinite areas below the grid extrapolate to NaN
                edge = f"{radii[0]:.6g}"
                raise ParameterError(f"dimension {profile.n}: the throat extrapolation below r = {edge} gives area {limit}")
            return AreaInfimum(value=limit, argmin_radius=None, throat_limit=True)
        pair = [i - 1, min(i + 1, len(radii) - 1)]  # at the top node, the root lies below it
        w_lo, w_hi = self.w[pair]
        if w_lo < 0 < w_hi:
            r = _root(partial(sphere_mean_curvature, profile), radii[pair[0]], radii[pair[1]])
            return AreaInfimum(value=float(sphere_area(profile, r)), argmin_radius=r, throat_limit=False)
        return AreaInfimum(value=float(areas[i]), argmin_radius=float(radii[i]), throat_limit=False)

    def horizon_radius(self) -> float | None:
        """Outermost radius with H = 0 to rounding (r_hi on the cylinder), or None when all are mean-convex."""
        radii, w = self.radii, self.w
        sign_change = np.nonzero(w[:-1] * w[1:] < 0)[0]
        if len(sign_change) == 0:
            zero = np.nonzero(w == 0)[0]
            return float(radii[zero[-1]]) if len(zero) else None
        j = int(sign_change[-1])
        return _root(partial(sphere_mean_curvature, self.profile), radii[j], radii[j + 1])

    def penrose(self) -> PenroseReport:
        """The n = 3 verdict m >= sqrt(A_g/16pi) from this scan's tail mass, area infimum and horizon.

        It refuses n != 3, then a tail that is not asymptotically flat, and only then evaluates the grid.
        A ratio within ``EQUALITY_TOL`` of 1 is reported as equality, and so is the degenerate flat
        case (mass and infimum both at numerical zero), with ratio 1.
        """
        self.profile.require_three("GridScan.penrose")
        m = self.tail[0]
        a_g = max(self.area_infimum.value, 0.0)
        bound = math.sqrt(a_g / (16 * math.pi))
        if bound <= _DEGENERATE_BOUND:
            ratio = 1.0 if abs(m) <= _DEGENERATE_BOUND else math.inf
        else:
            ratio = m / bound
        if abs(ratio - 1.0) <= EQUALITY_TOL:
            verdict = VERDICT_EQUALITY
        elif ratio > 1.0:
            verdict = VERDICT_STRICT
        else:
            verdict = VERDICT_VIOLATED
        return PenroseReport(adm_mass=float(m), area_infimum=float(a_g), bound=float(bound), ratio=float(ratio),
                             verdict=verdict, horizon_radius=self.horizon_radius())


def adm_hawking_check(profile: RadialProfile, r: float) -> AdmHawkingResult:
    """Check total mass >= Hawking mass of S_r, refusing at non-outer-minimizing r.

    Both halves read the scan of the profile's :func:`~penroselab.profiles.default_grid`.
    The outer-minimizing hypothesis is tested in its coordinate-sphere form:
    every sphere of larger radius on that grid must have at least the area of
    S_r, and the total mass is the scan's tail.  Failure raises
    :class:`NotOuterMinimizingError` (check refused, not failed).  The grid
    comparison is deliberate: it decides a refusal and solves for nothing,
    so no root is refined.
    """
    profile.require_three("adm_hawking_check")
    scan = GridScan(profile)
    sphere = _at(profile, r, du=True)
    area_r = float(sphere.area)
    outer = scan.radii[scan.radii >= r]
    if len(outer) and np.min(np.asarray(sphere_area(profile, outer))) < area_r * (1 - 1e-12):
        raise NotOuterMinimizingError(
            f"sphere_area dips below area(S_{r}) at larger radii; hypothesis refused"
        )
    mh = float(sphere.hawking_mass)
    m = scan.tail[0]
    return AdmHawkingResult(radius=float(r), adm_mass=float(m), hawking_mass=mh, passed=m >= mh - ADM_HAWKING_SLACK)
