"""Pointwise and integral geometry of radial conformal factors.

For g = u^{4/(n-2)} (dr^2 + r^2 g_{S^{n-1}}) every coordinate sphere S_r is a
round sphere of intrinsic radius u^{2/(n-2)} r, and the conformal
transformation rules reduce everything to one-dimensional expressions:

    lap u  = u'' + (n-1) u'/r                          flat radial Laplacian
    R(g)   = -(4(n-1)/(n-2)) u^{-(n+2)/(n-2)} lap u
    |S_r|  = omega_{n-1} u^{2(n-1)/(n-2)} r^{n-1}
    H(S_r) = (n-1) u^{-2/(n-2)} (1/r + (2/(n-2)) u'/u)  outward normal
    ds     = u^{2/(n-2)} dr                             radial arc length
    dV     = omega_{n-1} u^{2n/(n-2)} r^{n-1} dr

H > 0 means mean-convex toward the asymptotically flat end; its sign equals
the sign of d/dr [u^{2/(n-2)} r].  All functions are pure and accept scalar
or array radii where noted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
from .profiles import RadialProfile, unit_sphere_area
from .quadrature import adaptive_simpson, improper_lower

QUAD_TOL = 1e-10


def radial_laplacian(profile: RadialProfile, r):
    """u''(r) + (n-1)/r u'(r); vectorized over r."""
    profile.require_radius(r)
    return profile.d2u(r) + (profile.n - 1) * profile.du(r) / r


def scalar_curvature(profile: RadialProfile, r):
    """Scalar curvature of the conformal metric; vectorized over r."""
    n = profile.n
    lap = radial_laplacian(profile, r)
    return -4.0 * (n - 1) / (n - 2) * profile.u(r) ** (-(n + 2) / (n - 2)) * lap


def sphere_area(profile: RadialProfile, r):
    """Area of the coordinate sphere S_r; vectorized over r."""
    profile.require_radius(r)
    n = profile.n
    return unit_sphere_area(n) * profile.u(r) ** (2.0 * (n - 1) / (n - 2)) * r ** (n - 1)


def sphere_mean_curvature(profile: RadialProfile, r):
    """Mean curvature of S_r with respect to the outward normal; vectorized."""
    profile.require_radius(r)
    n = profile.n
    u = profile.u(r)
    return (n - 1) * u ** (-2.0 / (n - 2)) * (1.0 / r + (2.0 / (n - 2)) * profile.du(r) / u)


def intrinsic_diameter(profile: RadialProfile, r):
    """Diameter of S_r in its induced round metric: pi u^{2/(n-2)} r."""
    profile.require_radius(r)
    return math.pi * profile.u(r) ** (2.0 / (profile.n - 2)) * r


@dataclass(frozen=True)
class SphereGeometry:
    """Per-radius geometric data of one coordinate sphere."""

    r: float
    area: float
    mean_curvature: float
    intrinsic_diameter: float


def sphere_geometry(profile: RadialProfile, r: float) -> SphereGeometry:
    return SphereGeometry(
        r=float(r),
        area=float(sphere_area(profile, r)),
        mean_curvature=float(sphere_mean_curvature(profile, r)),
        intrinsic_diameter=float(intrinsic_diameter(profile, r)),
    )


def _arc_weight(profile):
    p = 2.0 / (profile.n - 2)
    return lambda s: profile.u(s) ** p


def _volume_density(profile):
    n = profile.n
    w = unit_sphere_area(n)
    p = 2.0 * n / (n - 2)
    return lambda s: w * profile.u(s) ** p * s ** (n - 1)


def geodesic_distance(profile: RadialProfile, r_a: float, r_b: float, tol: float = QUAD_TOL) -> float:
    """Radial arc length between S_{r_a} and S_{r_b}, r_a <= r_b.

    ``r_a`` equal to an open inner endpoint of the domain requests the
    improper limit; a divergent limit (complete inner end) returns inf.
    """
    if r_b < r_a:
        raise DomainError(f"need r_a <= r_b, got ({r_a}, {r_b})")
    dom = profile.domain
    f = _arc_weight(profile)
    if r_a == dom.lo and not dom.lo_closed:
        profile.require_radius(r_b)
        value, diverged = improper_lower(f, dom.lo, r_b, tol)
        return math.inf if diverged else value
    profile.require_radius(r_a)
    profile.require_radius(r_b)
    if r_a == r_b:
        return 0.0
    return adaptive_simpson(f, r_a, r_b, tol)


def volume_between(profile: RadialProfile, r_a: float, r_b: float, tol: float = QUAD_TOL) -> float:
    """Volume of the annulus between S_{r_a} and S_{r_b}, r_a <= r_b.

    As with :func:`geodesic_distance`, an open inner endpoint requests the
    improper limit, with inf returned on divergence.
    """
    if r_b < r_a:
        raise DomainError(f"need r_a <= r_b, got ({r_a}, {r_b})")
    dom = profile.domain
    f = _volume_density(profile)
    if r_a == dom.lo and not dom.lo_closed:
        profile.require_radius(r_b)
        value, diverged = improper_lower(f, dom.lo, r_b, tol)
        return math.inf if diverged else value
    profile.require_radius(r_a)
    profile.require_radius(r_b)
    if r_a == r_b:
        return 0.0
    return adaptive_simpson(f, r_a, r_b, tol)
