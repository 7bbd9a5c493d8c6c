"""Total mass, Hawking mass, radial area infimum, and the inequality predicates.

The total mass of an asymptotically flat profile u -> a + b r^{2-n} is 2ab:
rescaling coordinates by a^{2/(n-2)} normalizes the factor to 1 + ab r^{2-n},
which is the standard mass-m/2 tail.  ``adm_flux`` evaluates the coordinate
flux integral at a finite sphere instead; for a conformally flat radial
metric it reduces to a closed expression in u(r) and u'(r), and its limit at
infinity is the cross-check for the tail fit.

The area infimum is taken over coordinate spheres only, which is the natural
computable restriction in the rotationally symmetric class.  There
d area(S_r)/dr has the sign of H(S_r), so a least area sits at a - to + root
of H and a horizon is a root of H; ``_root`` refines both.  When the infimum
is approached only at the inner edge of the domain (no minimal sphere), the
limit is extrapolated and flagged as a throat limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.optimize import brentq

from .errors import (
    NotAsymptoticallyFlatError,
    NotOuterMinimizingError,
    UnsupportedDimensionError,
)
from .geometry import sphere_area, sphere_mean_curvature
from .profiles import RadialGrid, RadialProfile, default_grid

TAIL_RESIDUAL_REL = 1e-6
EQUALITY_TOL = 1e-6
ADM_HAWKING_SLACK = 1e-8
_DEGENERATE_BOUND = 1e-9
_ROOT_RTOL = 4.0 * np.finfo(float).eps

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

    def to_dict(self) -> dict:
        return {
            "adm_mass": self.adm_mass,
            "area_infimum": self.area_infimum,
            "bound": self.bound,
            "ratio": self.ratio,
            "verdict": self.verdict,
            "horizon_radius": self.horizon_radius,
        }


@dataclass(frozen=True)
class AdmHawkingResult:
    radius: float
    adm_mass: float
    hawking_mass: float
    passed: bool


def adm_mass_from_tail(
    profile: RadialProfile,
    grid: RadialGrid | None = None,
    residual_rel: float = TAIL_RESIDUAL_REL,
) -> tuple[float, AsymptoticTail]:
    """Fit u = a + b r^{2-n} on [r_hi/10, r_hi] and return (2ab, tail).

    Raises :class:`NotAsymptoticallyFlatError` when the max fit deviation
    exceeds ``residual_rel * a`` or the fitted leading coefficient is not
    positive.
    """
    grid = grid or default_grid(profile)
    n = profile.n
    radii = np.geomspace(grid.r_hi / 10.0, grid.r_hi, 128)
    profile.require_radius(radii)
    u = profile.u(radii)
    # scale the decaying basis column to keep the normal equations tame
    r_scale = math.sqrt(radii[0] * radii[-1])
    basis = np.column_stack([np.ones_like(radii), (radii / r_scale) ** (2 - n)])
    coef, *_ = np.linalg.lstsq(basis, u, rcond=None)
    a = float(coef[0])
    b = float(coef[1] * r_scale ** (n - 2))
    residual = float(np.max(np.abs(u - (a + b * radii ** (2 - n)))))
    tail = AsymptoticTail(a=a, b=b, fit_residual=residual)
    if a <= 0 or residual > residual_rel * abs(a):
        raise NotAsymptoticallyFlatError(
            f"tail fit residual {residual:.3e} vs threshold {residual_rel * abs(a):.3e} (a={a:.6g})"
        )
    return 2.0 * a * b, tail


def adm_flux(profile: RadialProfile, rho: float) -> float:
    """Coordinate flux mass integral evaluated at the sphere S_rho.

    For g = u^{4/(n-2)} delta the flux integrand reduces to the radial
    derivative of the conformal factor; normalizing the chart with the local
    tail estimate a(rho) = u + rho u'/(n-2) gives

        m(rho) = -(2/(n-2)) a(rho)^{(2n-8)/(n-2)} rho^{n-1} u^{(6-n)/(n-2)} u'.

    The limit rho -> infinity agrees with :func:`adm_mass_from_tail`.
    """
    profile.require_radius(rho)
    n = profile.n
    u = profile.u(rho)
    du = profile.du(rho)
    a_loc = u + rho * du / (n - 2)
    if a_loc <= 0:
        raise NotAsymptoticallyFlatError(
            f"local tail estimate u + r u'/(n-2) = {a_loc:.3e} <= 0 at rho={rho}"
        )
    return (
        -(2.0 / (n - 2))
        * a_loc ** ((2.0 * n - 8) / (n - 2))
        * rho ** (n - 1)
        * u ** ((6.0 - n) / (n - 2))
        * du
    )


def _hawking_value(area, mean_curvature):
    """sqrt(A/16pi) (1 - A H^2/16pi); vectorized over arrays of A and H."""
    return np.sqrt(area / (16 * math.pi)) * (1.0 - area * mean_curvature**2 / (16 * math.pi))


def hawking_mass(profile: RadialProfile, r: float) -> float:
    """Hawking mass of the coordinate sphere S_r (dimension three only).

    H is constant on a coordinate sphere, so the mean-curvature integral is
    area * H^2 and the value is sqrt(A/16pi) (1 - A H^2/16pi).
    """
    if profile.n != 3:
        raise UnsupportedDimensionError("hawking_mass is defined only for n = 3")
    return float(_hawking_value(sphere_area(profile, r), sphere_mean_curvature(profile, r)))


def _root(f, a: float, b: float) -> float:
    """A root of f in [a, b], where f changes sign, to a few ulps.

    Every root in the package goes through here: Brent's method with no
    absolute floor and the least relative tolerance brentq accepts.
    """
    return float(brentq(f, a, b, xtol=1e-300, rtol=_ROOT_RTOL))


def _neville_to_zero(x: np.ndarray, y: np.ndarray) -> float:
    """Neville extrapolation of (x_i, y_i) to x = 0."""
    p = list(map(float, y))
    x = list(map(float, x))
    for level in range(1, len(p)):
        for i in range(len(p) - level):
            p[i] = p[i + 1] + (p[i] - p[i + 1]) * x[i + level] / (x[i + level] - x[i])
    return p[0]


def area_infimum_radial(profile: RadialProfile, grid: RadialGrid | None = None) -> AreaInfimum:
    """Infimum of coordinate-sphere areas: the grid's least area S_{r_i}, then a root of H.

    When H goes from - to + across [r_{i-1}, r_{i+1}], the minimal sphere is
    the root of H there; otherwise (H = 0 up to rounding, as on the cylinder)
    the sampled minimum stands.  An infimum attained only at the inner edge of
    the sampling range is extrapolated toward the domain's inner endpoint
    (Richardson in sqrt(r - r_min)) and flagged as a throat limit with no
    argmin, unless that edge is the domain's closed inner end itself.
    """
    grid = grid or default_grid(profile)
    radii = grid.radii()
    areas = np.asarray(sphere_area(profile, radii))
    i = int(np.argmin(areas))
    if i == 0:
        lo = profile.domain.lo
        if radii[0] == lo:  # only a closed inner end can lie on the grid
            return AreaInfimum(value=float(areas[0]), argmin_radius=float(lo), throat_limit=False)
        # geometric nodes toward the inner endpoint, then Richardson in sqrt(r - lo)
        nodes = lo + (radii[0] - lo) * 0.25 ** np.arange(6)
        vals = np.asarray(sphere_area(profile, nodes))
        limit = _neville_to_zero(np.sqrt(nodes - lo), vals)
        return AreaInfimum(value=float(limit), argmin_radius=None, throat_limit=True)
    if i < len(radii) - 1:
        h_lo, h_hi = sphere_mean_curvature(profile, radii[[i - 1, i + 1]])
        if h_lo < 0 < h_hi:
            r = _root(partial(sphere_mean_curvature, profile), radii[i - 1], radii[i + 1])
            return AreaInfimum(value=float(sphere_area(profile, r)), argmin_radius=r, throat_limit=False)
    return AreaInfimum(value=float(areas[i]), argmin_radius=float(radii[i]), throat_limit=False)


def find_horizon(profile: RadialProfile, grid: RadialGrid | None = None) -> float | None:
    """Outermost radius with H = 0, or None when every sphere is mean-convex."""
    grid = grid or default_grid(profile)
    radii = grid.radii()
    h = np.asarray(sphere_mean_curvature(profile, radii))
    sign_change = np.nonzero(h[:-1] * h[1:] < 0)[0]
    if len(sign_change) == 0:
        zero = np.nonzero(h == 0)[0]
        return float(radii[zero[-1]]) if len(zero) else None
    j = int(sign_change[-1])
    return _root(partial(sphere_mean_curvature, profile), radii[j], radii[j + 1])


def penrose_check(
    profile: RadialProfile,
    grid: RadialGrid | None = None,
    equality_tol: float = EQUALITY_TOL,
) -> PenroseReport:
    """Assemble the mass-vs-area verdict m >= sqrt(A/16pi) for n = 3.

    The degenerate flat case (mass and infimum both at numerical zero) is
    reported as equality with ratio 1.
    """
    if profile.n != 3:
        raise UnsupportedDimensionError("penrose_check is defined only for n = 3")
    grid = grid or default_grid(profile)
    m, _tail = adm_mass_from_tail(profile, grid)
    inf_res = area_infimum_radial(profile, grid)
    a_g = max(inf_res.value, 0.0)
    bound = math.sqrt(a_g / (16 * math.pi))
    if bound <= _DEGENERATE_BOUND:
        ratio = 1.0 if abs(m) <= _DEGENERATE_BOUND else math.inf
    else:
        ratio = m / bound
    if abs(ratio - 1.0) <= equality_tol:
        verdict = VERDICT_EQUALITY
    elif ratio > 1.0:
        verdict = VERDICT_STRICT
    else:
        verdict = VERDICT_VIOLATED
    return PenroseReport(
        adm_mass=float(m),
        area_infimum=float(a_g),
        bound=float(bound),
        ratio=float(ratio),
        verdict=verdict,
        horizon_radius=find_horizon(profile, grid),
    )


def adm_hawking_check(
    profile: RadialProfile,
    r: float,
    grid: RadialGrid | None = None,
    slack: float = ADM_HAWKING_SLACK,
) -> AdmHawkingResult:
    """Check total mass >= Hawking mass of S_r, refusing at non-outer-minimizing r.

    The outer-minimizing hypothesis is tested in its coordinate-sphere form:
    every sphere of larger radius on the grid must have at least the area of
    S_r.  Failure raises :class:`NotOuterMinimizingError` (check refused, not
    failed).  The grid comparison is deliberate: it decides a refusal and
    solves for nothing, so no root is refined.
    """
    if profile.n != 3:
        raise UnsupportedDimensionError("adm_hawking_check is defined only for n = 3")
    grid = grid or default_grid(profile)
    profile.require_radius(r)
    area_r = float(sphere_area(profile, r))
    radii = grid.radii()
    outer = radii[radii >= r]
    if len(outer) and np.min(np.asarray(sphere_area(profile, outer))) < area_r * (1 - 1e-12):
        raise NotOuterMinimizingError(
            f"sphere_area dips below area(S_{r}) at larger radii; hypothesis refused"
        )
    mh = hawking_mass(profile, r)
    m, _ = adm_mass_from_tail(profile, grid)
    return AdmHawkingResult(
        radius=float(r), adm_mass=float(m), hawking_mass=float(mh), passed=m >= mh - slack
    )
