"""Pointwise and integral geometry of radial conformal factors.

For g = u^{4/(n-2)} (dr^2 + r^2 g_{S^{n-1}}) every coordinate sphere S_r is a
round sphere, and the conformal transformation rules reduce everything to
one-dimensional expressions in its intrinsic radius R and the mean-convexity
numerator w = u + (2/(n-2)) r u':

    ds/dr  = u^{2/(n-2)}          radial arc length
    R      = (ds/dr) r            intrinsic radius; diameter pi R
    |S_r|  = omega_{n-1} R^{n-1}
    dV/dr  = |S_r| ds/dr
    H(S_r) = (n-1) w / (R u)      outward normal
    dR/dr  = (ds/dr) w / u
    lap u  = u'' + (n-1) u'/r     flat radial Laplacian
    R(g)   = -(4(n-1)/(n-2)) u^{-(n+2)/(n-2)} lap u
    m_H    = -r^2 u' (u + w)      Hawking mass, n = 3

H > 0 means mean-convex toward the asymptotically flat end; H, w and dR/dr
have one sign.  For n = 3, A H^2/16pi = (w/u)^2 turns the Hawking mass
sqrt(A/16pi)(1 - A H^2/16pi) into (r/2)(u - w)(u + w) with u - w = -2 r u':
no difference cancels as A H^2/16pi -> 1 far out.  dm_H/dr = -2 r^2 w lap u,
so m_H does not decrease outward where R(g) >= 0 and H > 0.  Every row of
the table comes from one kernel, ``_Sphere``.  All functions are pure
and accept scalar or array radii where noted; for n = 3 a float radius
gives what its 1-element array gives, bit for bit (see ``_Sphere``).

Arc length and volume are integrals by the package's one rule,
:func:`penroselab.quadrature.gauss_adaptive`.  At an open inner end,
u ~ c r^{-q} (q is the profile's ``inner_exponent``) makes ds and dV go
like r^{-p} with p = 2q/(n-2) and 2nq/(n-2) - (n-1): the integral is inf
iff p >= 1.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, QuadratureError
from .profiles import RadialProfile, unit_sphere_area
from .quadrature import gauss_adaptive


class _Sphere:
    """The table above for S_r, from u = u(r), du = u'(r) where w is read and d2u = u''(r) where R(g) is.

    ds/dr and R are formed on construction, the rest where read.  A float
    and an array round alike: for n = 3 the only powers are x ** 1.0 and
    x ** 0.0, which Python and numpy return exactly, and |S_r| is a product
    chain in R, which overflows to inf on both and forms no power of u.  The
    u, u' and u'' fed in round alike too (``RadialProfile.takes_floats``).
    """

    __slots__ = ("n", "r", "u", "du", "d2u", "ds", "radius")

    def __init__(self, n: int, r, u, du=None, d2u=None):
        self.n, self.r, self.u, self.du, self.d2u = n, r, u, du, d2u
        self.ds = u * u ** ((4.0 - n) / (n - 2))
        self.radius = self.ds * r

    @property
    def area(self):
        area = self.radius * self.radius  # R^{n-1}, then omega_{n-1}, in place on the fresh product
        for _ in range(self.n - 3):
            area *= self.radius
        area *= unit_sphere_area(self.n)
        return area

    @property
    def dvol(self):
        return self.area * self.ds

    @property
    def w(self):
        return self.u + 2.0 / (self.n - 2) * self.r * self.du

    @property
    def mean_curvature(self):
        return (self.n - 1) * self.w / (self.radius * self.u)

    @property
    def radius_slope(self):
        return self.ds / self.u * self.w

    @property
    def hawking_mass(self):
        return -self.r * self.r * self.du * (self.u + self.w) + 0.0  # u' = 0 gives -0.0; report 0.0

    @property
    def scalar_curvature(self):
        n = self.n
        lap = self.d2u + (n - 1) * self.du / self.r
        return -4.0 * (n - 1) / (n - 2) * lap / self.u / self.ds / self.ds  # u^{(n+2)/(n-2)} = u ds^2, no libm pow


def _at(profile: RadialProfile, r, du: bool = False, d2u: bool = False) -> _Sphere:
    """The :class:`_Sphere` of S_r on the profile, u (and u', and u'') evaluated at checked radii."""
    profile.require_radius(r)
    return _Sphere(profile.n, r, profile.u(r), profile.du(r) if du or d2u else None, profile.d2u(r) if d2u else None)


def scalar_curvature(profile: RadialProfile, r):
    """Scalar curvature of the conformal metric; vectorized over r."""
    return _at(profile, r, d2u=True).scalar_curvature


def sphere_area(profile: RadialProfile, r):
    """Area of the coordinate sphere S_r; vectorized over r."""
    return _at(profile, r).area


def sphere_mean_curvature(profile: RadialProfile, r):
    """Mean curvature of S_r with respect to the outward normal; vectorized."""
    return _at(profile, r, du=True).mean_curvature


def intrinsic_diameter(profile: RadialProfile, r):
    """Diameter of S_r in its induced round metric, pi R; vectorized."""
    return math.pi * _at(profile, r).radius


def _radial_integral(profile: RadialProfile, density, tail_power, r_a: float, r_b: float) -> float:
    """Integral of ``density`` over [r_a, r_b] by :func:`gauss_adaptive`, cut at the profile's breakpoints.

    A closed span maps to t = log(r / r_a), formed as log1p((r - r_a) / r_a):
    exact at r_a and accurate on thin annuli.  From an open inner end the
    density goes like r^{-p}, p = tail_power(q): inf if p >= 1, else it maps
    to s = (r / r_b)^{1-p} in (0, 1], in which r^{-p} dr is regular.  A
    :class:`QuadratureError` names [r_a, r_b] in r, not in the mapped variable.
    """
    if r_b < r_a:
        raise DomainError(f"need r_a <= r_b, got ({r_a}, {r_b})")
    profile.require_radius(r_b)
    radii = [r_a, *(x for x in profile.breakpoints if r_a < x < r_b), r_b]
    if r_a == profile.domain.lo == 0.0:
        p = tail_power(profile.inner_exponent)
        if p >= 1.0:
            return math.inf
        k = 1.0 / (1.0 - p)  # r = r_b s^k, dr = r_b k s^(k-1) ds
        f = lambda s: density(r_b * s**k) * r_b * k * s ** (k - 1)
        cuts = [(x / r_b) ** (1.0 - p) for x in radii]
    else:
        profile.require_radius(r_a)
        if r_a == r_b:
            return 0.0
        f = lambda t: density(r_a * np.exp(t)) * r_a * np.exp(t)  # r = r_a e^t, dr = r dt
        cuts = [math.log1p((x - r_a) / r_a) for x in radii]
    try:
        return gauss_adaptive(f, cuts)
    except QuadratureError as exc:
        raise QuadratureError(f"r in [{r_a:.6g}, {r_b:.6g}]: {exc}") from None


def geodesic_distance(profile: RadialProfile, r_a: float, r_b: float) -> float:
    """Radial arc length between S_{r_a} and S_{r_b}, r_a <= r_b.

    ``r_a`` equal to an open inner endpoint of the domain requests the
    improper limit; a divergent limit (complete inner end) returns inf.
    """
    n = profile.n
    ds = lambda s: _Sphere(n, s, profile.u(s)).ds
    return _radial_integral(profile, ds, lambda q: 2.0 * q / (n - 2), r_a, r_b)


def volume_between(profile: RadialProfile, r_a: float, r_b: float) -> float:
    """Volume of the annulus between S_{r_a} and S_{r_b}, r_a <= r_b.

    As with :func:`geodesic_distance`, an open inner endpoint requests the
    improper limit, with inf returned on divergence.
    """
    n = profile.n
    dvol = lambda s: _Sphere(n, s, profile.u(s)).dvol
    return _radial_integral(profile, dvol, lambda q: 2.0 * n * q / (n - 2) - (n - 1), r_a, r_b)
