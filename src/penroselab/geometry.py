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

Arc length and volume are QUADPACK integrals (``scipy.integrate.quad``) in
log r to 1e-10 relative, split at the profile's ``breakpoints``; a QUADPACK
message raises :class:`QuadratureError`.  At an open inner end,
u ~ c r^{-q} (q is the profile's ``inner_exponent``) makes ds and dV go
like r^{-p} with p = 2q/(n-2) and 2nq/(n-2) - (n-1): the integral is inf
iff p >= 1.
"""

from __future__ import annotations

import math

from scipy.integrate import quad

from .errors import DomainError, QuadratureError
from .profiles import RadialProfile, unit_sphere_area


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
    return _area(profile.n, r, profile.u(r))


def _area(n: int, r, u):
    """|S_r| from u = u(r), for floats and arrays; inf where a float power overflows, as an array's does."""
    try:
        return unit_sphere_area(n) * u ** (2.0 * (n - 1) / (n - 2)) * r ** (n - 1)
    except OverflowError:
        return math.inf


def sphere_mean_curvature(profile: RadialProfile, r):
    """Mean curvature of S_r with respect to the outward normal; vectorized."""
    profile.require_radius(r)
    scale, inv_r, log_slope = _mean_curvature_terms(profile.n, r, profile.u(r), profile.du(r))
    return scale * (inv_r + log_slope)


def _mean_curvature_terms(n: int, r, u, du):
    """(n-1) u^{-2/(n-2)}, 1/r and (2/(n-2)) u'/u at u = u(r), du = u'(r): H(S_r) = first * (sum of others)."""
    return (n - 1) * u ** (-2.0 / (n - 2)), 1.0 / r, (2.0 / (n - 2)) * du / u


def intrinsic_diameter(profile: RadialProfile, r):
    """Diameter of S_r in its induced round metric: pi u^{2/(n-2)} r."""
    profile.require_radius(r)
    return math.pi * profile.u(r) ** (2.0 / (profile.n - 2)) * r


def _arc_weight(profile):
    p = 2.0 / (profile.n - 2)
    return lambda s: profile.u(s) ** p


def _volume_density(profile):
    n = profile.n
    w = unit_sphere_area(n)
    p = 2.0 * n / (n - 2)
    return lambda s: w * profile.u(s) ** p * s ** (n - 1)


def _quad(f, a, b, breaks):
    """QUADPACK to 1e-10 relative; any message it returns is raised, never a number."""
    points = [x for x in breaks if a < x < b] or None
    value, _err, _info, *message = quad(
        f, a, b, epsabs=0.0, epsrel=1e-10, points=points, full_output=1
    )
    if message:
        raise QuadratureError(f"integral over [{a:.6g}, {b:.6g}]: {message[0]}")
    return value


def _radial_integral(profile: RadialProfile, density, tail_power, r_a: float, r_b: float) -> float:
    """Integral of ``density`` over [r_a, r_b], split at the profile's breakpoints.

    From an open inner end the density goes like r^{-tail_power(q)}: inf if
    that power is >= 1, else QUADPACK on the integrable singularity in r (in
    log r it would underflow to 0 * inf).  A closed span is integrated in log r.
    """
    if r_b < r_a:
        raise DomainError(f"need r_a <= r_b, got ({r_a}, {r_b})")
    dom = profile.domain
    profile.require_radius(r_b)
    if r_a == dom.lo and not dom.lo_closed:
        if tail_power(profile.inner_exponent) >= 1.0:
            return math.inf
        return _quad(density, dom.lo, r_b, profile.breakpoints)
    profile.require_radius(r_a)
    if r_a == r_b:
        return 0.0
    breaks = [math.log(x) for x in profile.breakpoints]
    return _quad(lambda t: density(math.exp(t)) * math.exp(t), math.log(r_a), math.log(r_b), breaks)


def geodesic_distance(profile: RadialProfile, r_a: float, r_b: float) -> float:
    """Radial arc length between S_{r_a} and S_{r_b}, r_a <= r_b.

    ``r_a`` equal to an open inner endpoint of the domain requests the
    improper limit; a divergent limit (complete inner end) returns inf.
    """
    n = profile.n
    return _radial_integral(profile, _arc_weight(profile), lambda q: 2.0 * q / (n - 2), r_a, r_b)


def volume_between(profile: RadialProfile, r_a: float, r_b: float) -> float:
    """Volume of the annulus between S_{r_a} and S_{r_b}, r_a <= r_b.

    As with :func:`geodesic_distance`, an open inner endpoint requests the
    improper limit, with inf returned on divergence.
    """
    n = profile.n
    return _radial_integral(
        profile, _volume_density(profile), lambda q: 2.0 * n * q / (n - 2) - (n - 1), r_a, r_b
    )
