import math

import mpmath as mp
import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from penroselab import (
    CylinderProfile,
    DomainError,
    EuclideanProfile,
    QuadratureError,
    RadialProfile,
    SchwarzschildLikeProfile,
    TabulatedProfile,
    TrumpetProfile,
    default_grid,
    geodesic_distance,
    intrinsic_diameter,
    scalar_curvature,
    sphere_area,
    sphere_mean_curvature,
    volume_between,
)

from conftest import radial_laplacian, scaled


def test_laplacian_examples(euclid, schw, cylinder):
    assert radial_laplacian(euclid, 1.7) == 0.0
    assert radial_laplacian(schw, 1.0) == pytest.approx(0.0, abs=1e-15)
    assert radial_laplacian(cylinder, 1.0) == pytest.approx(-0.25, rel=1e-14)


def test_cylinder_laplacian_symbolic_oracle():
    r = sp.symbols("r", positive=True)
    u = r ** sp.Rational(-1, 2)
    lap = sp.lambdify(r, sp.diff(u, r, 2) + 2 / r * sp.diff(u, r))
    cyl = CylinderProfile()
    for rv in (0.3, 1.0, 4.2):
        assert radial_laplacian(cyl, rv) == pytest.approx(lap(rv), rel=1e-13)


def test_scalar_curvature_examples(euclid, schw, cylinder):
    assert scalar_curvature(euclid, 2.3) == 0.0
    for rv in (0.2, 1.0, 50.0):
        assert scalar_curvature(schw, rv) == 0.0  # a + b/r is harmonic, and its u'' + 2u'/r cancels exactly
        assert scalar_curvature(cylinder, rv) == pytest.approx(2.0, rel=1e-12)


def test_schwarzschild_scalar_flatness_on_grid(schw):
    radii = default_grid(schw).radii()
    assert np.all(scalar_curvature(schw, radii) == 0.0)


@pytest.mark.parametrize("n, lo, hi", [(3, 1e-100, 1e100), (5, 1e-50, 1e50)])
@pytest.mark.parametrize("a, b", [(1.0, 0.5), (1.3, 0.7), (0.25, 3e5)])
def test_schwarzschild_laplacian_is_exactly_zero(n, lo, hi, a, b):
    # a + b r^{2-n} is harmonic; for n = 3 and 5 the two terms of u'' + (n-1)u'/r round to negatives
    # of each other (their factors differ by a power of 2), wherever u'' neither over- nor underflows
    profile = SchwarzschildLikeProfile(a, b, n)
    radii = np.geomspace(lo, hi, 4096)
    assert np.all(radial_laplacian(profile, radii) == 0.0)
    assert all(radial_laplacian(profile, float(r)) == 0.0 for r in radii[::64])
    assert np.all(scalar_curvature(profile, radii) == 0.0)  # the kernel forms the same sum


def test_sphere_area_at_extreme_radii(schw, cylinder):
    # R = u^2 r is formed before any power of it: u^4 = (1 + 1/(2r))^4 alone exceeds the
    # float range at r = 1e-80, and on the cylinder u^4 r^2 would read inf * 0 at r = 1e-300
    u = schw.u(1e-80)
    area = sphere_area(schw, 1e-80)
    assert math.isfinite(area) and area == pytest.approx(4 * math.pi * (u * u * 1e-80) ** 2, rel=1e-15)
    assert sphere_area(schw, np.array([1e-80])).tolist() == [area]
    assert sphere_area(cylinder, 1e-300) == pytest.approx(4 * math.pi, rel=1e-15)
    assert sphere_area(cylinder, np.array([1e-300])).tolist() == [sphere_area(cylinder, 1e-300)]


_TABLE_RADII = np.geomspace(1.0, 20.0, 64)
_SPHERE_PROFILES = {  # profile and the radius range sampled
    "schwarzschild": (lambda: SchwarzschildLikeProfile.from_mass(1.0), 0.3, 10.0),
    "schwarzschild-like": (lambda: SchwarzschildLikeProfile(1.3, 0.7), 0.1, 10.0),
    "trumpet": (TrumpetProfile, 1e-12, 10.0),
    "cylinder": (CylinderProfile, 1e-6, 1e6),
    "euclidean": (EuclideanProfile, 1e-3, 1e3),
    "tabulated": (lambda: TabulatedProfile(_TABLE_RADII, 1.0 + 0.5 / _TABLE_RADII), 1.0, 20.0),
}


@pytest.mark.parametrize("kind", _SPHERE_PROFILES)
def test_sphere_float_equals_one_element_array(kind):
    # one arithmetic path: a float radius gives the array path's H, area and R(g) bit for bit
    make, lo, hi = _SPHERE_PROFILES[kind]
    profile = make()
    radii = np.exp(np.random.default_rng(7).uniform(math.log(lo), math.log(hi), 2000))
    for f in (sphere_mean_curvature, sphere_area, scalar_curvature):
        scalar = [f(profile, float(r)) for r in radii]
        vector = [f(profile, np.array([r]))[0] for r in radii]
        assert scalar == vector, f.__name__


def _mp_mean_curvature(u, du, r):
    """H = 2/u^2 (1/r + 2u'/u) in 50-digit arithmetic, n = 3, from callables of an mpf radius."""
    with mp.workdps(50):
        r = mp.mpf(r)
        return 2 / u(r) ** 2 * (1 / r + 2 * du(r) / u(r))


def _h_errors(profile, u, du, radii):
    h = sphere_mean_curvature(profile, radii)
    exact = [_mp_mean_curvature(u, du, r) for r in radii]
    errs = np.array([float(abs((mp.mpf(x) - e) / e)) for x, e in zip(h, exact)])
    return float(np.median(errs)), float(errs.max())


def test_mean_curvature_against_an_mpmath_oracle(schw):
    # H = 2 w / (R u) cancels only in w; bounds sit just above this code's errors,
    # below the (1/r + 2u'/u) form's (median 3.0e-10, 3.1e-14 and 2.6e-12 on these radii)
    half = mp.mpf(1) / 2
    u, du = (lambda r: 1 + half / r), (lambda r: -half / r**2)
    near = _h_errors(schw, u, du, 0.5 * (1 + np.geomspace(1e-7, 1e-6, 200)))
    assert near[0] <= 1.9e-10 and near[1] <= 1.4e-9
    off = _h_errors(schw, u, du, 0.5 * (1 + np.geomspace(1e-3, 1e-2, 200)))
    assert off[0] <= 1.9e-14 and off[1] <= 1.6e-13
    trumpet = TrumpetProfile()
    c1 = mp.mpf(trumpet.c1)  # below its gluing radius the trumpet is r^{-1/2} + c1 exactly
    throat = _h_errors(trumpet, lambda r: r**-half + c1, lambda r: -half * r ** (-3 * half), np.geomspace(5e-11, 2e-10, 200))
    assert throat[0] <= 1e-12 and throat[1] <= 1.4e-11


def test_sphere_area_examples(euclid, schw, cylinder):
    assert sphere_area(euclid, 1.0) == pytest.approx(4 * math.pi, rel=1e-15)
    assert sphere_area(schw, 0.5) == pytest.approx(16 * math.pi, rel=1e-14)
    for rv in (0.1, 1.0, 9.0):
        assert sphere_area(cylinder, rv) == pytest.approx(4 * math.pi, rel=1e-13)


def test_mean_curvature_examples(euclid, schw, cylinder):
    assert sphere_mean_curvature(euclid, 2.0) == pytest.approx(1.0, rel=1e-15)
    assert abs(sphere_mean_curvature(schw, 0.5)) < 1e-14
    for rv in (0.2, 1.0, 30.0):
        assert abs(sphere_mean_curvature(cylinder, rv)) < 1e-13


def test_sphere_geometry_consistency(schw):
    u = schw.u(1.3)
    area, diameter = sphere_area(schw, 1.3), intrinsic_diameter(schw, 1.3)
    assert area == pytest.approx(4 * math.pi * u**4 * 1.3**2, rel=1e-14)
    assert diameter == pytest.approx(math.pi * u**2 * 1.3, rel=1e-14)
    assert diameter == pytest.approx(area / (4 * u**2 * 1.3), rel=1e-15)


def test_geodesic_distance_examples(euclid, cylinder, trumpet):
    assert geodesic_distance(euclid, 0.25, 1.75) == pytest.approx(1.5, abs=1e-12)
    assert geodesic_distance(cylinder, 0.5, 2.0) == pytest.approx(math.log(4.0), abs=1e-10)
    assert math.isinf(geodesic_distance(trumpet, 0.0, 2.0))
    # complete inner ends always report an infinite arc length
    assert math.isinf(geodesic_distance(cylinder, 0.0, 1.0))
    assert geodesic_distance(euclid, 0.0, 1.0) == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(DomainError, match=r"need r_a <= r_b, got \(2.0, 1.0\)"):
        geodesic_distance(euclid, 2.0, 1.0)


class _QuarterPowerProfile(RadialProfile):
    """u = r^(-1/4) + 1 in n = 3: an open inner end at finite distance with a fractional subleading power."""

    kind = "quarter-power"
    inner_exponent = 0.25

    def _u(self, r):
        return r**-0.25 + 1.0

    def _du(self, r):
        return -0.25 * r**-1.25

    def _d2u(self, r):
        return 0.3125 * r**-2.25


@pytest.mark.xfail(strict=True, raises=QuadratureError, reason="ROADMAP aim 3: fractional subleading powers at an open end")
def test_geodesic_distance_with_a_fractional_subleading_power():
    # ds = u^2 dr = (r^(-1/2) + 2 r^(-1/4) + 1) dr, so the arc length from 0 to 2 is 2 sqrt 2 + (8/3) 2^(3/4) + 2;
    # the map s = (r/r_b)^(1-p) makes only r^(-1/2) regular, and s^(1/2) terms stall the doublings
    exact = 2 * math.sqrt(2) + 8 / 3 * 2**0.75 + 2
    assert geodesic_distance(_QuarterPowerProfile(), 0.0, 2.0) == pytest.approx(exact, rel=0, abs=1e-12)


def test_volume_examples(euclid, cylinder):
    assert volume_between(euclid, 0.0, 1.0) == pytest.approx(4 * math.pi / 3, abs=1e-9)
    assert volume_between(euclid, 0.7, 0.7) == 0.0
    assert volume_between(cylinder, math.exp(-1.0), 1.0) == pytest.approx(4 * math.pi, rel=1e-10)
    with pytest.raises(DomainError, match=r"need r_a <= r_b, got \(2.0, 1.0\)"):
        volume_between(euclid, 2.0, 1.0)


def test_trumpet_throat_volume_diverges(trumpet):
    assert math.isinf(volume_between(trumpet, 0.0, 1.0))


_CLOSED_FORMS = {
    "euclidean": EuclideanProfile(),
    "schwarzschild-like": SchwarzschildLikeProfile(1.0, 0.5),
    "cylinder": CylinderProfile(),
    "trumpet": TrumpetProfile(3),
}


@given(
    kind=st.sampled_from(sorted(_CLOSED_FORMS)),
    lam=st.floats(min_value=0.25, max_value=4.0),
    t_a=st.floats(min_value=-6.0, max_value=3.0),
    gap=st.floats(min_value=0.1, max_value=6.0),
)
@settings(max_examples=60, deadline=None)
def test_conformal_covariance(kind, lam, t_a, gap):
    # u -> lam u in n = 3 is g -> lam^4 g: lengths scale by lam^2, areas by
    # lam^4, volumes by lam^6 and mean curvatures by lam^-2
    base = _CLOSED_FORMS[kind]
    lifted = scaled(base, lam)
    r_a, r_b = math.exp(t_a), math.exp(t_a + gap)
    for rv in (r_a, r_b):
        assert sphere_area(lifted, rv) == pytest.approx(
            lam**4 * sphere_area(base, rv), rel=1e-12
        )
        h_base = sphere_mean_curvature(base, rv)
        h_scale = 1.0 / (base.u(rv) ** 2 * rv)  # H of S_r is this times an O(1) factor
        assert sphere_mean_curvature(lifted, rv) == pytest.approx(
            h_base / lam**2, rel=1e-12, abs=1e-13 * h_scale / lam**2
        )
        if abs(h_base) > 1e-12 * h_scale:
            assert math.copysign(1, sphere_mean_curvature(lifted, rv)) == math.copysign(1, h_base)
    assert geodesic_distance(lifted, r_a, r_b) == pytest.approx(
        lam**2 * geodesic_distance(base, r_a, r_b), rel=1e-10
    )
    assert volume_between(lifted, r_a, r_b) == pytest.approx(
        lam**6 * volume_between(base, r_a, r_b), rel=1e-10
    )


@given(
    r_a=st.floats(min_value=0.05, max_value=2.0),
    gap1=st.floats(min_value=0.01, max_value=3.0),
    gap2=st.floats(min_value=0.01, max_value=3.0),
)
@settings(max_examples=25, deadline=None)
def test_geodesic_additivity(r_a, gap1, gap2):
    schw = SchwarzschildLikeProfile.from_mass(1.0)
    r_b, r_c = r_a + gap1, r_a + gap1 + gap2
    total = geodesic_distance(schw, r_a, r_c)
    split = geodesic_distance(schw, r_a, r_b) + geodesic_distance(schw, r_b, r_c)
    assert total == pytest.approx(split, abs=1e-9)


@pytest.mark.parametrize("fixture", ["schw", "trumpet"])
def test_area_monotonicity_matches_mean_curvature_sign(fixture, request):
    profile = request.getfixturevalue(fixture)
    radii = default_grid(profile, count=1024).radii()
    areas = np.asarray(sphere_area(profile, radii))
    h_mid = np.asarray(sphere_mean_curvature(profile, np.sqrt(radii[:-1] * radii[1:])))
    diffs = np.diff(areas)
    clear = np.abs(h_mid) > 1e-8
    assert np.all(np.sign(diffs[clear]) == np.sign(h_mid[clear]))
