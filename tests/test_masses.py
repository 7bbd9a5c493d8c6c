import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from penroselab import (
    NotAsymptoticallyFlatError,
    NotOuterMinimizingError,
    SchwarzschildLikeProfile,
    TabulatedProfile,
    UnsupportedDimensionError,
    adm_flux,
    adm_hawking_check,
    adm_mass_from_tail,
    area_infimum_radial,
    build_trumpet,
    default_grid,
    find_horizon,
    find_r0,
    hawking_mass,
    min_alpha,
    penrose_check,
    sphere_area,
    sphere_mean_curvature,
)
from penroselab.masses import VERDICT_EQUALITY, VERDICT_STRICT


def test_adm_mass_examples(euclid, schw, schw_ab):
    m, tail = adm_mass_from_tail(schw)
    assert m == pytest.approx(1.0, abs=1e-8)
    assert tail.a == pytest.approx(1.0, abs=1e-10)
    m0, _ = adm_mass_from_tail(euclid)
    assert m0 == pytest.approx(0.0, abs=1e-12)
    m4, _ = adm_mass_from_tail(schw_ab)
    assert m4 == pytest.approx(4.0, abs=1e-8)


def test_adm_mass_rejects_cylinder(cylinder):
    with pytest.raises(NotAsymptoticallyFlatError):
        adm_mass_from_tail(cylinder)


def test_adm_flux_examples(euclid, schw, schw_ab):
    for rho in (0.5, 3.0, 1e3):
        assert adm_flux(euclid, rho) == 0.0
    assert adm_flux(schw, 1e4) == pytest.approx(1.0, abs=1e-3)
    assert adm_flux(schw_ab, 1e4) == pytest.approx(4.0, abs=1e-2)


def test_adm_flux_first_order_convergence(schw):
    m, _ = adm_mass_from_tail(schw)
    errs = [abs(adm_flux(schw, rho) - m) for rho in (1e2, 2e2, 4e2, 8e2)]
    for a, b in zip(errs, errs[1:]):
        assert b <= 0.5 * a * (1 + 1e-6)


_FLUX_RADII = np.geomspace(1e2, 1e4, 5)


def _assert_flux_tends_to(profile, a, b):
    # pure tail u = a + b r^(2-n): the flux mass tends to 2ab, with error
    # ((6-n)/(n-2)) (b/a) rho^(2-n) to leading order
    mass = 2.0 * a * b
    errs = [abs(adm_flux(profile, rho) - mass) / mass for rho in _FLUX_RADII]
    assert all(e2 < e1 for e1, e2 in zip(errs, errs[1:])), errs
    n = profile.n
    assert errs[-1] <= 1.1 * (6 - n) / (n - 2) * (b / a) * _FLUX_RADII[-1] ** (2 - n)


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from([3, 4, 5]), a=st.floats(0.5, 4.0), b=st.floats(0.5, 4.0))
def test_adm_flux_tends_to_tail_mass(n, a, b):
    _assert_flux_tends_to(SchwarzschildLikeProfile(a, b, n=n), a, b)


@settings(max_examples=10, deadline=None)
@given(n=st.sampled_from([3, 4]), stretch=st.floats(1.0, 3.0))
def test_adm_flux_tends_to_trumpet_mass(n, stretch):
    # beyond 2 r0 the trumpet is exactly alpha0 + r^(2-n)
    r0 = find_r0(n)
    trumpet = build_trumpet(n, r0=r0, alpha=stretch * min_alpha(n, r0))
    assert 2 * trumpet.r0 < _FLUX_RADII[0]
    _assert_flux_tends_to(trumpet, trumpet.alpha0, 1.0)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_adm_flux_reduction_symbolic(n):
    # the implemented closed form equals the flux of g = u^{4/(n-2)} delta in
    # the chart rescaled by a^{2/(n-2)} (where the factor tends to one), for a
    # pure tail u = a + b r^(2-n)
    import sympy as sp

    a, b = sp.symbols("a b", positive=True)
    r = sp.symbols("r", positive=True)
    u = a + b * r ** (2 - n)
    du = sp.diff(u, r)
    a_loc = u + r * du / (n - 2)
    implemented = (
        -sp.Rational(2, n - 2)
        * a_loc ** sp.Rational(2 * n - 8, n - 2)
        * r ** (n - 1)
        * u ** sp.Rational(6 - n, n - 2)
        * du
    )

    c = a ** sp.Rational(2, n - 2)
    rt = sp.symbols("rt", positive=True)
    u_rescaled = (a + b * (rt / c) ** (2 - n)) / a
    metric_coef = u_rescaled ** sp.Rational(4, n - 2)
    direct = -sp.Rational(1, 2) * sp.diff(metric_coef, rt) * rt ** (n - 1)
    assert sp.simplify(implemented - direct.subs(rt, c * r)) == 0


def test_hawking_mass_examples(euclid, schw):
    assert hawking_mass(euclid, 1.0) == pytest.approx(0.0, abs=1e-12)
    assert hawking_mass(schw, 0.5) == pytest.approx(1.0, abs=1e-12)
    assert hawking_mass(schw, 3.0) == pytest.approx(1.0, abs=1e-12)


def test_hawking_mass_constant_along_schwarzschild():
    for mass in (0.5, 1.0, 2.0):
        profile = SchwarzschildLikeProfile.from_mass(mass)
        for r in np.geomspace(mass / 2 * 1.01, 1e3, 100):
            val = hawking_mass(profile, r)
            assert val == pytest.approx(mass, abs=1e-8)
            # independent algebraic route: m_H = -2 r^2 u' (u + r u')
            u, du = profile.u(r), profile.du(r)
            assert val == pytest.approx(-2 * r**2 * du * (u + r * du), abs=1e-10)


def test_hawking_mass_dimension_guard():
    with pytest.raises(UnsupportedDimensionError):
        hawking_mass(SchwarzschildLikeProfile.from_mass(1.0, n=4), 1.0)


def test_area_infimum_schwarzschild(schw):
    res = area_infimum_radial(schw)
    assert not res.throat_limit
    assert abs(res.argmin_radius - 0.5) <= 4 * math.ulp(0.5)
    assert res.value == pytest.approx(16 * math.pi, rel=1e-10)


# u = a + b/r: H vanishes, and the area is least, exactly at r = b/a,
# where the area is 16 pi (2ab)^2
_MINIMAL_SPHERES = [(2.0, 1.0), (1.0, 1.3), (0.7, 2.9), (3.1, 0.37), (1.0, 1e-3), (5.0, 40.0)]


@pytest.mark.parametrize("a,b", _MINIMAL_SPHERES)
def test_minimal_sphere_is_the_root_of_h(a, b):
    profile = SchwarzschildLikeProfile(a, b)
    res = area_infimum_radial(profile)
    assert abs(res.argmin_radius - b / a) <= 4 * math.ulp(b / a)
    assert abs(find_horizon(profile) - b / a) <= 4 * math.ulp(b / a)
    assert res.value == pytest.approx(16 * math.pi * (2 * a * b) ** 2, rel=1e-15)


def test_area_infimum_cylinder_work_bound(cylinder, counting):
    # every coordinate sphere has area 4 pi and H = 0 up to rounding, so H
    # changes sign all along the grid; only the least sampled area's bracket
    # may be refined
    profile = counting(cylinder)
    res = area_infimum_radial(profile)
    assert res.value == pytest.approx(4 * math.pi, rel=1e-15)
    assert not res.throat_limit
    assert profile.points <= default_grid(cylinder).count + 128


def test_area_infimum_at_a_closed_inner_edge(trumpet):
    # a table of the trumpet on [1e-3, 1e3]: below r0 the area 4 pi (1 + c1 sqrt(r))^4
    # increases, so the least area is the table's inner edge, which the grid starts on
    radii = np.geomspace(1e-3, 1e3, 4096)
    table = TabulatedProfile(radii, trumpet.u(radii))
    res = area_infimum_radial(table)
    assert res.argmin_radius == 1e-3 and not res.throat_limit
    assert res.value == sphere_area(table, 1e-3)
    assert res.value == pytest.approx(4 * math.pi * (1 + trumpet.c1 * math.sqrt(1e-3)) ** 4, rel=1e-12)


def test_area_infimum_euclid_throat(euclid):
    res = area_infimum_radial(euclid)
    assert res.throat_limit and res.argmin_radius is None
    assert abs(res.value) < 1e-12


def test_area_infimum_trumpet_throat(trumpet):
    res = area_infimum_radial(trumpet)
    assert res.throat_limit and res.argmin_radius is None
    assert res.value == pytest.approx(4 * math.pi, abs=1e-4)


def test_throat_flag_for_everywhere_mean_convex_profiles(euclid, trumpet):
    from penroselab import default_grid

    for profile in (euclid, trumpet):
        radii = default_grid(profile, count=512).radii()
        assert np.all(np.asarray(sphere_mean_curvature(profile, radii)) > 0)
        assert area_infimum_radial(profile).throat_limit


def test_find_horizon(schw, trumpet, euclid):
    assert abs(find_horizon(schw) - 0.5) <= 4 * math.ulp(0.5)
    assert find_horizon(trumpet) is None
    assert find_horizon(euclid) is None


def test_penrose_equality_case(schw):
    report = penrose_check(schw)
    assert report.verdict == VERDICT_EQUALITY
    assert report.ratio == pytest.approx(1.0, abs=1e-6)
    assert report.horizon_radius == pytest.approx(0.5, abs=1e-6)


def test_penrose_euclid_degenerate(euclid):
    report = penrose_check(euclid)
    assert report.verdict == VERDICT_EQUALITY
    assert report.adm_mass == pytest.approx(0.0, abs=1e-9)
    assert report.area_infimum == pytest.approx(0.0, abs=1e-9)


def test_penrose_trumpet_strict(trumpet):
    report = penrose_check(trumpet)
    assert report.verdict == VERDICT_STRICT
    assert report.adm_mass == pytest.approx(2 * trumpet.alpha0, rel=1e-9)
    assert report.bound == pytest.approx(0.5, abs=1e-5)
    assert report.horizon_radius is None


def test_penrose_never_violated_on_corpus(euclid, schw, schw_ab, trumpet):
    for profile in (euclid, schw, schw_ab, trumpet):
        assert penrose_check(profile).verdict in (VERDICT_EQUALITY, VERDICT_STRICT)


def test_penrose_dimension_guard():
    with pytest.raises(UnsupportedDimensionError):
        penrose_check(SchwarzschildLikeProfile.from_mass(1.0, n=4))


def test_adm_hawking_check(schw, trumpet):
    at_horizon = adm_hawking_check(schw, 0.5)
    assert at_horizon.passed
    assert at_horizon.hawking_mass == pytest.approx(at_horizon.adm_mass, abs=1e-8)
    outside = adm_hawking_check(schw, 5.0)
    assert outside.passed
    assert outside.hawking_mass == pytest.approx(1.0, abs=1e-8)
    strict = adm_hawking_check(trumpet, 3.0)
    assert strict.passed
    assert strict.adm_mass > strict.hawking_mass


def test_adm_hawking_refuses_inside_horizon(schw):
    with pytest.raises(NotOuterMinimizingError):
        adm_hawking_check(schw, 0.3)
