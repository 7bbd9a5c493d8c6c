"""Closed-form oracles for the benchmark, written independently of penroselab.

Every conformal factor the workloads use is, region by region, a short sum
of powers of r, so arc length (integrand u^{2/(n-2)}) and annulus volume
(integrand omega_{n-1} u^{2n/(n-2)} r^{n-1}) are sums of power integrals.
Those are evaluated as a^p expm1(p log(b/a)) / p, which keeps full relative
precision for short spans.  The only integral without a closed form is the
trumpet's blend region [r0, 2 r0]; it is integrated here with
scipy.integrate.quad from the explicit slope, never with the package's own
quadrature.  Functions take dimension n = 3 unless they say otherwise.
"""

from __future__ import annotations

import math
from scipy.integrate import quad

LIP_FACTOR = 1.0 - 1e-6  # the bubble problem's Lipschitz shrink of arc length
FOUR_PI = 4.0 * math.pi


def omega(n: int) -> float:
    """Area of the unit (n-1)-sphere."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def power_integral(q: float, a: float, b: float) -> float:
    """Integral of r^q over [a, b], 0 < a <= b."""
    if q == -1.0:
        return math.log(b / a)
    p = q + 1.0
    return a**p * math.expm1(p * math.log(b / a)) / p


def terms_integral(terms, a: float, b: float) -> float:
    """Integral over [a, b] of sum(c r^q) for (c, q) in ``terms``."""
    return sum(c * power_integral(q, a, b) for c, q in terms)


def binomial_terms(c_lo, q_lo, c_hi, q_hi, power: int, extra: float = 0.0, scale: float = 1.0):
    """Terms of scale * (c_lo r^q_lo + c_hi r^q_hi)^power * r^extra."""
    return [
        (scale * math.comb(power, k) * c_lo ** (power - k) * c_hi**k, q_lo * (power - k) + q_hi * k + extra)
        for k in range(power + 1)
    ]


def mean_curvature(u: float, du: float, r: float, n: int = 3) -> float:
    """Mean curvature of the coordinate sphere S_r of u^{4/(n-2)} delta."""
    return (n - 1) * u ** (-2.0 / (n - 2)) * (1.0 / r + (2.0 / (n - 2)) * du / u)


def sphere_area(u: float, r: float, n: int = 3) -> float:
    return omega(n) * u ** (2.0 * (n - 1) / (n - 2)) * r ** (n - 1)


def prescribed_h(epsilon: float, beta: float, t: float) -> float:
    """The bubble family eps coth(3 eps t / 4 + beta)."""
    return epsilon / math.tanh(0.75 * epsilon * t + beta)


def rel_err(value: float, exact: float) -> float:
    return abs(value - exact) / abs(exact)


class Euclidean:
    """u = 1."""

    def __init__(self):
        self.arc_terms = [(1.0, 0.0)]
        self.vol_terms = [(FOUR_PI, 2.0)]

    def arc(self, a, b):
        return terms_integral(self.arc_terms, a, b) if a > 0 else b

    def volume(self, a, b):
        return terms_integral(self.vol_terms, a, b) if a > 0 else FOUR_PI * b**3 / 3.0


class SchwarzschildLike:
    """u = A + B / r: mass 2AB, smallest sphere at r = B/A with area 64 pi A^2 B^2."""

    def __init__(self, a: float, b: float):
        self.a, self.b = a, b
        self.arc_terms = binomial_terms(a, 0.0, b, -1.0, 2)
        self.vol_terms = binomial_terms(a, 0.0, b, -1.0, 6, extra=2.0, scale=FOUR_PI)

    @property
    def mass(self) -> float:
        return 2.0 * self.a * self.b

    @property
    def horizon_radius(self) -> float:
        return self.b / self.a

    @property
    def area_infimum(self) -> float:
        return 64.0 * math.pi * self.a**2 * self.b**2

    def u(self, r):
        return self.a + self.b / r

    def du(self, r):
        return -self.b / r**2

    def arc(self, a, b):
        return terms_integral(self.arc_terms, a, b) if a > 0 else math.inf

    def volume(self, a, b):
        if a > 0:
            return terms_integral(self.vol_terms, a, b)
        return math.inf if self.b > 0 else FOUR_PI * self.a**6 * b**3 / 3.0


class Cylinder:
    """u = r^{-1/2}: the round cylinder, complete toward r = 0."""

    def __init__(self):
        self.arc_terms = [(1.0, -1.0)]
        self.vol_terms = [(FOUR_PI, -1.0)]

    def arc(self, a, b):
        return terms_integral(self.arc_terms, a, b) if a > 0 else math.inf

    def volume(self, a, b):
        return terms_integral(self.vol_terms, a, b) if a > 0 else math.inf


def certified_bound(n: int) -> float:
    """The trumpet's un-margined shift bound, in closed form.

    With r0 = 2^{2/(n-2)}/2 the bound is max((2 r0)^{2-n}, (2/(n-2)) sup
    (|r u1'| + |r u2'|)) over [r0, 2 r0]; both terms of the supremum
    decrease in r, so it sits at r0 and equals r0^{(2-n)/2} + 2 r0^{2-n}.
    """
    r0 = glue_radius(n)
    return max((2.0 * r0) ** (2 - n), r0 ** ((2 - n) / 2.0) + 2.0 * r0 ** (2 - n))


def certified_alpha(n: int) -> float:
    """Default (certified) shift constant: 1.1 times :func:`certified_bound`."""
    return 1.1 * certified_bound(n)


def glue_radius(n: int) -> float:
    return 0.5 * 2.0 ** (2.0 / (n - 2))


class Trumpet:
    """Cylinder below r0, alpha0 + r^{2-n} above 2 r0, blended slope between.

    u1 = r^{(2-n)/2} and u2 = 1 + r^{2-n} are joined through the slope
    u' = zeta u1' + (1 - zeta) u2' with the bump-quotient cutoff zeta.  Below
    r0 the factor is u1 + c1, with c1 fixed by one quadrature of the slope.
    """

    def __init__(self, alpha: float, n: int = 3):
        self.n = n
        self.alpha = alpha
        self.r0 = glue_radius(n)
        self.alpha0 = alpha + self.r0 ** ((2 - n) / 2.0)
        i_blend = self._quad(self.du, self.r0, 2.0 * self.r0)
        self.c1 = alpha + (2.0 * self.r0) ** (2 - n) - i_blend
        q1, q2 = (2 - n) / 2.0, 2.0 - n
        self.inner_arc_terms = binomial_terms(1.0, q1, self.c1, 0.0, 2) if n == 3 else (
            [(1.0, q1), (self.c1, 0.0)] if n == 4 else None
        )
        self.outer_arc_terms = binomial_terms(self.alpha0, 0.0, 1.0, q2, 2) if n == 3 else (
            [(self.alpha0, 0.0), (1.0, q2)] if n == 4 else None
        )
        if n == 3:
            self.inner_vol_terms = binomial_terms(1.0, q1, self.c1, 0.0, 6, extra=2.0, scale=FOUR_PI)
            self.outer_vol_terms = binomial_terms(self.alpha0, 0.0, 1.0, q2, 6, extra=2.0, scale=FOUR_PI)

    @property
    def mass(self) -> float:
        return 2.0 * self.alpha0

    @property
    def throat_area(self) -> float:
        return omega(self.n)

    @staticmethod
    def _quad(f, a, b):
        value, _err = quad(f, a, b, epsabs=0.0, epsrel=1e-13, limit=200)
        return value

    def _zeta(self, r):
        def phi(s):
            return math.exp(-1.0 / s) if s > 0 else 0.0

        pa = phi((2.0 * self.r0 - r) / self.r0)
        pb = phi((r - self.r0) / self.r0)
        return pa / (pa + pb)

    def du(self, r):
        n = self.n
        du1 = 0.5 * (2 - n) * r ** (-0.5 * n)
        du2 = (2 - n) * r ** (1 - n)
        if r <= self.r0:
            return du1
        if r >= 2.0 * self.r0:
            return du2
        z = self._zeta(r)
        return z * du1 + (1.0 - z) * du2

    def u(self, r):
        n = self.n
        if r <= self.r0:
            return r ** ((2 - n) / 2.0) + self.c1
        top = 2.0 * self.r0
        if r >= top:
            return self.alpha0 + r ** (2 - n)
        return self.alpha0 + top ** (2 - n) - self._quad(self.du, r, top)

    def _piecewise(self, a, b, inner, outer, density):
        total = 0.0
        lo, hi = self.r0, 2.0 * self.r0
        if a < lo:
            total += terms_integral(inner, a, min(b, lo))
        if b > lo and a < hi:
            total += self._quad(density, max(a, lo), min(b, hi))
        if b > hi:
            total += terms_integral(outer, max(a, hi), b)
        return total

    def arc(self, a, b):
        """Radial arc length over [a, b] (n = 3 or 4); a = 0 diverges."""
        if a <= 0:
            return math.inf
        return self._piecewise(
            a, b, self.inner_arc_terms, self.outer_arc_terms, lambda r: self.u(r) ** (2.0 / (self.n - 2))
        )

    def volume(self, a, b):
        """Annulus volume over [a, b] (n = 3); a = 0 diverges."""
        if a <= 0:
            return math.inf
        return self._piecewise(
            a, b, self.inner_vol_terms, self.outer_vol_terms, lambda r: FOUR_PI * self.u(r) ** 6 * r**2
        )

    def exact_region_arc(self, a, b):
        """Arc length over [a, b] inside one closed-form region, else None."""
        if self.inner_arc_terms is None:
            return None
        if b <= self.r0:
            return terms_integral(self.inner_arc_terms, a, b)
        if a >= 2.0 * self.r0:
            return terms_integral(self.outer_arc_terms, a, b)
        return None

