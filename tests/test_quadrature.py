import math

import numpy as np
import pytest
import sympy as sp
from scipy.integrate import quad

from penroselab import (
    QuadratureError,
    SchwarzschildLikeProfile,
    build_trumpet,
    geodesic_distance,
    volume_between,
)
from penroselab.profiles import RadialProfile, ScaledProfile
from penroselab.quadrature import PanelAntiderivative

# 12 Gauss-Kronrod panels of 21 points; QUADPACK's own cap is 2079 points
MAX_U_EVALS = 252


class PowerProfile(RadialProfile):
    """u = r^{-p/2} in n = 3, so ds = r^{-p} dr and dV = 4 pi r^{2-3p} dr; counts u evaluations."""

    kind = "power"

    def __init__(self, p: float):
        super().__init__(3)
        self.p = p
        self.inner_exponent = 0.5 * p
        self.calls = 0

    def _u(self, r):
        self.calls += 1
        return r ** (-0.5 * self.p)


class CountingProfile(ScaledProfile):
    """The base profile unchanged (scale 1), counting u evaluations."""

    def __init__(self, base: RadialProfile):
        super().__init__(base, 1.0)
        self.calls = 0

    def _u(self, r):
        self.calls += 1
        return super()._u(r)


@pytest.mark.parametrize("b", [1.0, 7.3])
@pytest.mark.parametrize("p", [0.5, 0.9, 0.99, 1.0, 1.5])
def test_power_profile_from_puncture(p, b):
    profile = PowerProfile(p)
    arc = geodesic_distance(profile, 0.0, b)
    vol = volume_between(profile, 0.0, b)
    if p < 1:
        assert arc == pytest.approx(b ** (1 - p) / (1 - p), rel=1e-10, abs=0)
        assert vol == pytest.approx(4 * math.pi * b ** (3 - 3 * p) / (3 - 3 * p), rel=1e-10, abs=0)
    else:
        assert math.isinf(arc) and math.isinf(vol)
        assert profile.calls == 0  # decided by the exponent alone
    assert profile.calls <= 2 * MAX_U_EVALS


_R = sp.Symbol("r", positive=True)
_SCHW_VOLUME = sp.integrate(4 * sp.pi * (1 + 1 / (2 * _R)) ** 6 * _R**2, _R)


@pytest.mark.parametrize("r_a,r_b", [(1.0, 80.0), (1.0, 100.0), (1.0, 1e3), (2.7e-3, 617.0)])
def test_schwarzschild_volume_against_sympy(r_a, r_b):
    profile = CountingProfile(SchwarzschildLikeProfile.from_mass(1.0))
    exact = sp.N(_SCHW_VOLUME.subs(_R, sp.Rational(r_b)) - _SCHW_VOLUME.subs(_R, sp.Rational(r_a)), 30)
    assert volume_between(profile, r_a, r_b) == pytest.approx(float(exact), rel=1e-12, abs=0)
    assert profile.calls <= MAX_U_EVALS


@pytest.mark.parametrize("r_a,r_b", [(0.09349036408190234, 7.491869864420243), (0.0099, 886.0)])
def test_trumpet_arc_across_the_blend(r_a, r_b):
    # closed forms below r0 (u = r^{-1/2} + c1) and above 2 r0 (u = alpha0 + 1/r);
    # the blend between them by a tight QUADPACK run of its own.  Unsplit at r0
    # and 2 r0, QUADPACK reports success on the first span 1.5e-7 off.
    trumpet = CountingProfile(build_trumpet(3, alpha=2.3836749032336413))
    base = trumpet.base
    r0, c1, a0 = base.r0, base.c1, base.alpha0
    inner = math.log(r0 / r_a) + 4 * c1 * (math.sqrt(r0) - math.sqrt(r_a)) + c1**2 * (r0 - r_a)
    blend, _ = quad(lambda r: base.u(r) ** 2, r0, 2 * r0, epsabs=0, epsrel=1e-13, limit=200)
    outer = a0**2 * (r_b - 2 * r0) + 2 * a0 * math.log(r_b / (2 * r0)) + 1 / (2 * r0) - 1 / r_b
    assert geodesic_distance(trumpet, r_a, r_b) == pytest.approx(inner + blend + outer, rel=1e-12, abs=0)
    assert trumpet.calls <= MAX_U_EVALS


class WigglyProfile(RadialProfile):
    """u = 1.5 + sin(1e4 r): far more oscillations than QUADPACK's 50 subintervals resolve."""

    kind = "wiggly"

    def _u(self, r):
        return 1.5 + np.sin(1e4 * r)


def test_quadpack_message_raises():
    with pytest.raises(QuadratureError, match="maximum number of subdivisions"):
        geodesic_distance(WigglyProfile(), 1.0, 10.0)


def test_panel_antiderivative_matches_quad():
    f = lambda x: np.sin(x) / x
    edges = np.geomspace(0.1, 20.0, 257)
    anti = PanelAntiderivative(f, edges)
    for x in (0.1, 0.37, 5.0, 19.99, 20.0):
        ref, _ = quad(f, x, 20.0, limit=200)
        assert anti(x) == pytest.approx(ref, abs=1e-10)
    xs = np.array([0.2, 1.0, 10.0])
    out = anti(xs)
    assert out.shape == xs.shape
