import math

import numpy as np
import pytest

from penroselab import (
    CylinderProfile,
    EuclideanProfile,
    NotAsymptoticallyFlatError,
    RadialProfile,
    SchwarzschildLikeProfile,
    TrumpetProfile,
)


class ScaledProfile(RadialProfile):
    """lam * u for a base profile; handy for conformal covariance checks."""

    def __init__(self, base: RadialProfile, lam: float):
        super().__init__(base.n)
        if not lam > 0:
            raise ValueError("scale factor must be positive")
        self.base = base
        self.lam = float(lam)
        self.breakpoints = base.breakpoints
        self.kind = f"scaled-{base.kind}"

    @property
    def domain(self):
        return self.base.domain

    @property
    def inner_exponent(self) -> float:
        return self.base.inner_exponent

    def params(self):
        return {"lam": self.lam, "base": self.base.describe()}

    def _u(self, r):
        return self.lam * self.base._u(r)

    def _du(self, r):
        return self.lam * self.base._du(r)

    def _d2u(self, r):
        return self.lam * self.base._d2u(r)


class PlummerProfile(RadialProfile):
    """u = a + b/r + sum_k m_k (r^2 + s_k^2)^{-1/2} in n = 3: Plummer cores on a Schwarzschild end.

    Each core is superharmonic, its flat Laplacian -3 m_k s_k^2 (r^2 + s_k^2)^{-5/2}, and b/r is
    harmonic, so R = -8 u^{-5} lap u >= 0.  u ~ b/r at the puncture (q = 1: infinitely far, so the
    metric is complete), and u = a + (b + sum m_k)/r + O(r^{-3}): the mass is exactly ``mass``,
    2a(b + sum m_k).  So the theorem holds on every such profile and is its own oracle.
    """

    kind = "plummer"
    inner_exponent = 1.0

    def __init__(self, a: float, b: float, masses, scales):
        super().__init__(3)
        self.a, self.b = float(a), float(b)
        self.masses, self.scales = np.asarray(masses, dtype=float), np.asarray(scales, dtype=float)
        self.mass = 2.0 * self.a * math.fsum([self.b, *self.masses])

    def params(self):
        return {"a": self.a, "b": self.b, "masses": self.masses.tolist(), "scales": self.scales.tolist()}

    def _cores(self, r):
        """r with a trailing core axis, and r^2 + s_k^2 on it."""
        rr = r[..., None]
        return rr, rr * rr + self.scales**2

    def _u(self, r):
        _, q = self._cores(r)
        return self.a + self.b / r + (self.masses / np.sqrt(q)).sum(axis=-1)

    def _du(self, r):
        rr, q = self._cores(r)
        return -self.b / (r * r) - (self.masses * rr / q**1.5).sum(axis=-1)

    def _d2u(self, r):
        rr, q = self._cores(r)
        return 2.0 * self.b / r**3 + (self.masses * (2.0 * rr * rr - self.scales**2) / q**2.5).sum(axis=-1)


def plummer_draws(count: int, seed: int = 1):
    """``count`` seeded :class:`PlummerProfile` draws.

    a = 1; b and the 1-3 core masses m_k log-uniform in [1e-3, 10]; the scales s_k log-uniform in [1e-2, 1e2].
    """
    rng = np.random.default_rng(seed)
    for _ in range(count):
        k = int(rng.integers(1, 4))
        b = 10.0 ** rng.uniform(-3.0, 1.0)
        yield PlummerProfile(1.0, b, 10.0 ** rng.uniform(-3.0, 1.0, k), 10.0 ** rng.uniform(-2.0, 2.0, k))


def scaled(profile: RadialProfile, lam: float) -> ScaledProfile:
    return ScaledProfile(profile, lam)


class CountingProfile(ScaledProfile):
    """The base profile unchanged (scale 1), counting u evaluations: ``calls``, ``points`` (radii) and ``sizes`` (per call)."""

    def __init__(self, base):
        super().__init__(base, 1.0)
        self.calls = 0
        self.points = 0
        self.sizes = []

    def _u(self, r):
        self.calls += 1
        self.points += np.size(r)
        self.sizes.append(np.size(r))
        return super()._u(r)


def count_evaluations(monkeypatch, cls) -> dict:
    """Patch the class's ``_u``, ``_du`` and ``_d2u`` to record the number of radii of each call: {name: sizes}."""
    sizes = {"_u": [], "_du": [], "_d2u": []}
    for name, calls in sizes.items():
        f = getattr(cls, name)
        monkeypatch.setattr(cls, name, lambda self, r, f=f, calls=calls: calls.append(np.size(r)) or f(self, r))
    return sizes


def radial_laplacian(profile: RadialProfile, r):
    """u''(r) + (n-1) u'(r)/r from the profile's own evaluators: an oracle for the Laplacian inside R(g)."""
    profile.require_radius(r)
    return profile.d2u(r) + (profile.n - 1) * profile.du(r) / r


def adm_flux(profile: RadialProfile, rho: float) -> float:
    """Coordinate flux mass integral at the sphere S_rho: a first-order oracle for the tail mass.

    For g = u^{4/(n-2)} delta the flux integrand reduces to the radial
    derivative of the conformal factor; normalizing the chart with the local
    tail estimate a(rho) = u + rho u'/(n-2) gives

        m(rho) = -(2/(n-2)) a(rho)^{(2n-8)/(n-2)} rho^{n-1} u^{(6-n)/(n-2)} u'.

    Its limit rho -> infinity is the mass :func:`penroselab.adm_mass_from_tail`
    fits; the error falls like rho^{2-n}.
    """
    profile.require_radius(rho)
    n = profile.n
    u = profile.u(rho)
    du = profile.du(rho)
    a_loc = u + rho * du / (n - 2)
    if a_loc <= 0:
        raise NotAsymptoticallyFlatError(f"local tail estimate u + r u'/(n-2) = {a_loc:.3e} <= 0 at rho={rho}")
    return -(2.0 / (n - 2)) * a_loc ** ((2.0 * n - 8) / (n - 2)) * rho ** (n - 1) * u ** ((6.0 - n) / (n - 2)) * du


def h_slope(h, t):
    """h'(t) = -(3 eps^2/4)(coth^2 - 1) for the prescribed curvature h, from the chain rule."""
    c = 1.0 / np.tanh(0.75 * h.epsilon * t + h.beta)
    return -0.75 * h.epsilon**2 * (c * c - 1.0)


def ode_residual(h, t):
    """2h' + (3/2)h^2 - (3/2)eps^2: the paper's identity for h, zero in exact arithmetic."""
    return 2.0 * h_slope(h, t) + 1.5 * h(t) ** 2 - 1.5 * h.epsilon**2


@pytest.fixture
def counting():
    """``counting(profile)`` wraps a profile in a :class:`CountingProfile`."""
    return CountingProfile


@pytest.fixture
def euclid():
    return EuclideanProfile()


@pytest.fixture
def schw():
    return SchwarzschildLikeProfile.from_mass(1.0)


@pytest.fixture
def schw_ab():
    return SchwarzschildLikeProfile(2.0, 1.0)


@pytest.fixture
def cylinder():
    return CylinderProfile()


@pytest.fixture(scope="session")
def trumpet():
    return TrumpetProfile()
