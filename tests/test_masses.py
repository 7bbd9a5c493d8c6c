import math
import statistics
from collections import Counter
from functools import partial

import mpmath as mp
import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from penroselab import (
    CylinderProfile,
    EuclideanProfile,
    GridScan,
    NotAsymptoticallyFlatError,
    NotOuterMinimizingError,
    RadialGrid,
    SchwarzschildLikeProfile,
    TabulatedProfile,
    TrumpetProfile,
    UnsupportedDimensionError,
    adm_hawking_check,
    adm_mass_from_tail,
    default_grid,
    export_trumpet,
    hawking_mass,
    horizon_sequence,
    min_alpha,
    read_tabulated,
    sphere_area,
    sphere_mean_curvature,
    write_tabulated,
)
from penroselab.errors import ParameterError
from penroselab.geometry import _at, _Sphere, scalar_curvature
from penroselab.masses import VERDICT_EQUALITY, VERDICT_STRICT, VERDICT_VIOLATED, _root, _w_or_zero

from conftest import PlummerProfile, adm_flux, count_evaluations, plummer_draws


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


def test_adm_flux_refuses_a_nonpositive_local_tail():
    # on the steep outer side of a bump in u, u + r u' < 0: no chart normalisation, so no mass
    radii = np.geomspace(1e-4, 1e2, 8192)
    bump = TabulatedProfile(radii, 1 + np.exp(-(((radii - 1.0) / 0.1) ** 2)))
    with pytest.raises(NotAsymptoticallyFlatError, match=r"u \+ r u'/\(n-2\) = -.* <= 0 at rho=1.07"):
        adm_flux(bump, 1.07)


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
    trumpet = TrumpetProfile(n, alpha=stretch * min_alpha(n))
    assert 2 * trumpet.r0 < _FLUX_RADII[0]
    _assert_flux_tends_to(trumpet, trumpet.alpha0, 1.0)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_adm_flux_reduction_symbolic(n):
    # the implemented closed form equals the flux of g = u^{4/(n-2)} delta in
    # the chart rescaled by a^{2/(n-2)} (where the factor tends to one), for a
    # pure tail u = a + b r^(2-n)
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


def _mp_hawking(u, du, r):
    """The definition sqrt(A/16pi)(1 - A H^2/16pi), n = 3, in 40-digit arithmetic from callables of an mpf radius."""
    with mp.workdps(40):
        r = mp.mpf(r)
        area = 4 * mp.pi * (u(r) ** 2 * r) ** 2
        h = 2 / u(r) ** 2 * (1 / r + 2 * du(r) / u(r))
        return mp.sqrt(area / (16 * mp.pi)) * (1 - area * h**2 / (16 * mp.pi))


def test_hawking_mass_constant_along_schwarzschild():
    # out to r = 1e8, where A H^2/16pi is within 4e-8 of 1 and the definition's own difference
    # loses eight digits in floats (an error of 9.5e-9 at r = 1e8, up to 2.3e-12 on the default grid)
    for mass in (0.5, 1.0, 2.0):
        profile = SchwarzschildLikeProfile.from_mass(mass)
        half = mp.mpf(mass) / 2
        for r in np.geomspace(mass / 2 * 1.01, 1e8, 100):
            exact = _mp_hawking(lambda s: 1 + half / s, lambda s: -half / s**2, r)
            assert hawking_mass(profile, r) == pytest.approx(float(exact), rel=1e-15, abs=0.0)


def test_hawking_mass_product_form_symbolic():
    # for any u(r), n = 3: the definition is the kernel's -r^2 u'(u + w), and its
    # r-derivative is -2 r^2 w lap u, so m_H does not decrease where R >= 0 and w > 0
    r = sp.symbols("r", positive=True)
    u = sp.Function("u", positive=True)(r)
    du = sp.diff(u, r)
    sphere = _Sphere(3, r, u, du)
    w = u + 2 * r * du
    assert sp.simplify(sp.nsimplify(sphere.w) - w) == 0
    area = sp.nsimplify(sphere.area / (4 * math.pi)) * 4 * sp.pi  # omega_2 = 4 pi, as a symbol
    h = 2 * w / (u**3 * r)
    definition = sp.sqrt(area / (16 * sp.pi)) * (1 - area * h**2 / (16 * sp.pi))
    product = sp.nsimplify(sphere.hawking_mass)
    assert sp.simplify(definition - product) == 0
    lap = sp.diff(u, r, 2) + 2 * du / r
    assert sp.simplify(sp.diff(product, r) + 2 * r**2 * w * lap) == 0


_MONOTONE_PROFILES = {
    "schwarzschild-like(1, 0.5)": lambda: SchwarzschildLikeProfile(1.0, 0.5),
    "schwarzschild-like(2, 1)": lambda: SchwarzschildLikeProfile(2.0, 1.0),
    "trumpet(min_alpha)": lambda: TrumpetProfile(alpha=min_alpha(3)),
    "trumpet(1e10)": lambda: TrumpetProfile(alpha=1e10),
    "trumpet(1e16)": lambda: TrumpetProfile(alpha=1e16),
}


@pytest.mark.parametrize("name", _MONOTONE_PROFILES)
def test_hawking_mass_nondecreasing_outside_minimal_sphere(name):
    # the radial proof: where R >= 0 and the spheres are mean-convex, m_H does not decrease
    # outward, so between neighbouring mean-convex default-grid nodes it drops by rounding at
    # most; in floats the definition's own difference drops by 3.7e-12 on Schwarzschild,
    # 1.6e-2 at alpha 1e10, and to 0.0 from 2e16 at alpha 1e16
    profile = _MONOTONE_PROFILES[name]()
    sphere = _at(profile, default_grid(profile).radii(), du=True)
    mh = sphere.hawking_mass
    convex = (sphere.w[:-1] > 0) & (sphere.w[1:] > 0)
    assert convex.sum() > 1000
    drops = (mh[1:] - mh[:-1])[convex] / np.abs(mh[:-1][convex])
    assert drops.min() >= -1e-15


def test_hawking_mass_dimension_guard():
    with pytest.raises(UnsupportedDimensionError):
        hawking_mass(SchwarzschildLikeProfile.from_mass(1.0, n=4), 1.0)
    with pytest.raises(UnsupportedDimensionError, match="adm_hawking_check is defined only for n = 3"):
        adm_hawking_check(SchwarzschildLikeProfile.from_mass(1.0, n=4), 10.0)


def _exported_trumpet(tmp_path):
    export_trumpet(TrumpetProfile(), tmp_path / "trumpet.dat")
    return read_tabulated(tmp_path / "trumpet.dat")


_SIGN_PROFILES = {
    "euclidean": lambda tmp_path: EuclideanProfile(),
    "schwarzschild": lambda tmp_path: SchwarzschildLikeProfile.from_mass(1.0),
    "cylinder": lambda tmp_path: CylinderProfile(),
    **{f"trumpet-n{n}": (lambda tmp_path, n=n: TrumpetProfile(n)) for n in (3, 4, 5)},
    "exported-n3": _exported_trumpet,
}


@pytest.mark.parametrize("name", _SIGN_PROFILES)
def test_w_or_zero_has_the_sign_of_h_or_zero(tmp_path, name):
    # the brackets read w: H = (n-1) w / (R u) has its sign, with 0 where w is rounding, |w| <= 4 eps (u + |w - u|)
    profile = _SIGN_PROFILES[name](tmp_path)
    sphere = _at(profile, default_grid(profile).radii(), du=True)
    w, u = sphere.w, sphere.u
    h_or_zero = np.where(np.abs(w) <= 4 * np.finfo(float).eps * (u + np.abs(w - u)), 0.0, sphere.mean_curvature)
    assert np.array_equal(np.sign(_w_or_zero(sphere)), np.sign(h_or_zero))


def test_area_infimum_schwarzschild(schw):
    res = GridScan(schw).area_infimum
    assert not res.throat_limit
    assert abs(res.argmin_radius - 0.5) <= 4 * math.ulp(0.5)
    assert res.value == pytest.approx(16 * math.pi, rel=1e-10)


# u = a + b/r: H vanishes, and the area is least, exactly at r = b/a,
# where the area is 16 pi (2ab)^2
_MINIMAL_SPHERES = [(2.0, 1.0), (1.0, 1.3), (0.7, 2.9), (3.1, 0.37), (1.0, 1e-3), (5.0, 40.0)]


@pytest.mark.parametrize("a,b", _MINIMAL_SPHERES)
def test_minimal_sphere_is_the_root_of_h(a, b):
    profile = SchwarzschildLikeProfile(a, b)
    res = GridScan(profile).area_infimum
    assert abs(res.argmin_radius - b / a) <= 4 * math.ulp(b / a)
    assert abs(GridScan(profile).horizon_radius() - b / a) <= 4 * math.ulp(b / a)
    assert res.value == pytest.approx(16 * math.pi * (2 * a * b) ** 2, rel=1e-15)


@pytest.mark.parametrize("r_lo, count", [(1.0, 4096), (0.7, 4096), (1e-4, 2)])
def test_area_infimum_below_a_grid_starting_outside_the_horizon(schw, r_lo, count):
    # the least sampled area is the grid's inner edge, but H changes sign from
    # + to - below it: the minimal sphere r = 1/2 is found there, not a throat
    res = GridScan(schw, RadialGrid(r_lo, 1e4, count)).area_infimum
    assert not res.throat_limit
    assert abs(res.argmin_radius - 0.5) <= 4 * math.ulp(0.5)
    assert res.value == pytest.approx(16 * math.pi, rel=1e-12)


@pytest.mark.parametrize("r_hi", [0.6, 0.5005, 0.5001])
def test_area_infimum_between_the_top_two_nodes(schw, r_hi):
    # the least sampled area is the grid's top node, but H changes sign from
    # - to + below it: the minimal sphere r = 1/2 is found there, not the node
    res = GridScan(schw, RadialGrid(0.4, r_hi, 2)).area_infimum
    assert not res.throat_limit
    assert abs(res.argmin_radius - 0.5) <= 4 * math.ulp(0.5)
    assert res.value == pytest.approx(16 * math.pi, rel=1e-15)


def test_nan_area_refused_by_name(schw):
    # a NaN sampled area (u overflowing in a high dimension) is refused, not picked by argmin;
    # an infinite one is never least.  The scan's intrinsic radii are replaced, so its areas read inf, NaN, 3, NaN
    scan = GridScan(schw, RadialGrid(1.0, 4.0, 4))
    scan.sphere.radius = np.sqrt(np.array([np.inf, np.nan, 3.0, np.nan]) / (4 * math.pi))
    assert np.array_equal(scan.sphere.area, [np.inf, np.nan, 3.0, np.nan], equal_nan=True)
    with pytest.raises(ParameterError, match=r"^dimension 3: the sphere area at r = 1\.5874 is NaN$"):
        scan.area_infimum


def test_non_finite_throat_extrapolation_refused_by_name(schw):
    # both sampled areas overflow to inf, so the least is the inner edge, and the throat extrapolation
    # over the overflowing areas below it is NaN; errstate keeps the overflow from raising as a RuntimeWarning
    with np.errstate(over="ignore", invalid="ignore"):
        scan = GridScan(schw, RadialGrid(1e-300, 1e300, 2))
        assert np.isinf(scan.sphere.area).all()
        with pytest.raises(ParameterError, match=r"^dimension 3: the throat extrapolation below r = 1e-300 gives area nan$"):
            scan.area_infimum


def test_area_infimum_cylinder_work_bound(cylinder, counting):
    # every coordinate sphere has area 4 pi and H = 0 up to rounding, which
    # counts as 0: the least sampled area stands and no root is refined
    profile = counting(cylinder)
    res = GridScan(profile).area_infimum
    assert res.value == pytest.approx(4 * math.pi, rel=1e-15)
    assert not res.throat_limit
    assert profile.points <= default_grid(cylinder).count + 128


def test_throat_probe_evaluates_u_once(trumpet, counting):
    # the grid, then one probe of r_1 and the six nodes from r_0 inward: H and the extrapolated areas share it
    profile = counting(trumpet)
    assert GridScan(profile).area_infimum.throat_limit
    assert profile.sizes == [default_grid(trumpet).count, 7]


def test_area_infimum_at_a_closed_inner_edge(trumpet):
    # a table of the trumpet on [1e-3, 1e3]: below r0 the area 4 pi (1 + c1 sqrt(r))^4
    # increases, so the least area is the table's inner edge, which the grid starts on
    radii = np.geomspace(1e-3, 1e3, 4096)
    table = TabulatedProfile(radii, trumpet.u(radii))
    res = GridScan(table).area_infimum
    assert res.argmin_radius == 1e-3 and not res.throat_limit
    assert res.value == sphere_area(table, 1e-3)
    assert res.value == pytest.approx(4 * math.pi * (1 + trumpet.c1 * math.sqrt(1e-3)) ** 4, rel=1e-12)


def test_area_infimum_euclid_throat(euclid):
    res = GridScan(euclid).area_infimum
    assert res.throat_limit and res.argmin_radius is None
    assert abs(res.value) < 1e-12


def test_area_infimum_trumpet_throat(trumpet):
    res = GridScan(trumpet).area_infimum
    assert res.throat_limit and res.argmin_radius is None
    assert res.value == pytest.approx(4 * math.pi, abs=1e-4)


def test_throat_flag_for_everywhere_mean_convex_profiles(euclid, trumpet):
    from penroselab import default_grid

    for profile in (euclid, trumpet):
        radii = default_grid(profile, count=512).radii()
        assert np.all(np.asarray(sphere_mean_curvature(profile, radii)) > 0)
        assert GridScan(profile).area_infimum.throat_limit


def test_find_horizon(schw, trumpet, euclid):
    assert abs(GridScan(schw).horizon_radius() - 0.5) <= 4 * math.ulp(0.5)
    assert GridScan(trumpet).horizon_radius() is None
    assert GridScan(euclid).horizon_radius() is None


@pytest.mark.parametrize("n", [3, 4, 5])
def test_find_horizon_cylinder(n):
    # H = 0 on every sphere of the cylinder, and the computed H is rounding
    # alone: every sampled sphere is minimal, the outermost one is r_hi
    profile = CylinderProfile(n)
    assert GridScan(profile).horizon_radius() == default_grid(profile).r_hi


def test_penrose_equality_case(schw):
    report = GridScan(schw).penrose()
    assert report.verdict == VERDICT_EQUALITY
    assert report.ratio == pytest.approx(1.0, abs=1e-6)
    assert report.horizon_radius == pytest.approx(0.5, abs=1e-6)


def test_penrose_euclid_degenerate(euclid):
    report = GridScan(euclid).penrose()
    assert report.verdict == VERDICT_EQUALITY
    assert report.adm_mass == pytest.approx(0.0, abs=1e-9)
    assert report.area_infimum == pytest.approx(0.0, abs=1e-9)


def test_penrose_trumpet_strict(trumpet):
    report = GridScan(trumpet).penrose()
    assert report.verdict == VERDICT_STRICT
    assert report.adm_mass == pytest.approx(2 * trumpet.alpha0, rel=1e-9)
    assert report.bound == pytest.approx(0.5, abs=1e-5)
    assert report.horizon_radius is None


def test_penrose_never_violated_on_corpus(euclid, schw, schw_ab, trumpet):
    for profile in (euclid, schw, schw_ab, trumpet):
        assert GridScan(profile).penrose().verdict in (VERDICT_EQUALITY, VERDICT_STRICT)


# The Plummer family of tests/conftest.py satisfies the theorem's hypotheses by construction and
# knows its mass exactly, 2a(b + sum m_k).  Tolerances: no "violated" verdict at all; a refusal only
# as not asymptotically flat, on at most the 2 of 60 draws refused today; the tail mass within 4e-3
# relative (ROADMAP item 6 for both); every horizon_sequence mass lower bound at or below the mass.
def test_plummer_profile_against_mpmath():
    # the oracle checked first: u' and u'' against mpmath's derivatives of the closed form, and R >= 0
    profile = PlummerProfile(1.0, 0.3, [0.5, 2.0], [0.1, 7.0])
    u = lambda r: 1 + 0.3 / r + 0.5 / mp.sqrt(r * r + mp.mpf("0.01")) + 2 / mp.sqrt(r * r + 49)
    with mp.workdps(30):
        for r in (0.01, 0.5, 3.0, 100.0):
            x = mp.mpf(r)
            assert profile.du(r) == pytest.approx(float(mp.diff(u, x)), rel=1e-14)
            assert profile.d2u(r) == pytest.approx(float(mp.diff(u, x, 2)), rel=1e-14)
    assert np.min(scalar_curvature(profile, default_grid(profile).radii())) >= 0.0


def test_plummer_draws_are_never_violated(tmp_path):
    # measured on these 60 draws: 56 "strict", 2 "equality-within-tol", 2 refused; mass up to 3.3e-3 low.
    # Each draw is also written as a (r, u, u', u'') table of 4,096 rows on [1e-4, 1e4] and read back: the
    # table reads the closed form's verdict or refusal, with a tail mass within 1e-10 relative of the closed
    # form's (measured 1.4e-11).  Bounds are not compared: on draws 13 and 42 the minimal sphere
    # (r = 1.3e-5 and 7.6e-5) lies below the table's closed inner edge.
    table_mass_rtol = 1e-10
    grid = RadialGrid(1e-4, 1e4, 4096)
    r, path = grid.radii(), tmp_path / "plummer.dat"
    verdicts = Counter()
    for profile in plummer_draws(60):
        write_tabulated(path, grid, profile.u(r), derivatives=(profile.du(r), profile.d2u(r)))
        table = GridScan(read_tabulated(path))
        try:
            report = GridScan(profile).penrose()
        except NotAsymptoticallyFlatError:
            verdicts["refused"] += 1
            with pytest.raises(NotAsymptoticallyFlatError):
                table.penrose()
            continue
        verdicts[report.verdict] += 1
        assert report.adm_mass == pytest.approx(profile.mass, rel=4e-3, abs=0)
        read = table.penrose()
        assert read.verdict == report.verdict
        assert read.adm_mass == pytest.approx(report.adm_mass, rel=table_mass_rtol, abs=0)
    assert verdicts[VERDICT_VIOLATED] == 0
    assert verdicts["refused"] <= 2


def test_plummer_horizon_bounds_stay_below_the_mass():
    # bubbles anchored at four times the horizon radius, on every draw with a verdict: each solved step's
    # Hawking mass m_H lies between the bound sqrt(A_g/16pi) of the same scan's verdict (less 1e-12
    # relative) and the exact mass, and at epsilon = 1e-3 the median (m_H - bound)/bound is at most 1e-8.
    # Measured: 58 draws with a horizon (2 refused as not asymptotically flat), 447 solved steps, the
    # highest m_H 2.6e-8 below the mass, the lowest 5.8e-16 relative below the bound, the median 4.1e-9.
    bound_rtol, median_gap = 1e-12, 1e-8
    gaps = []
    for profile in plummer_draws(60):
        try:
            report = GridScan(profile).penrose()
        except NotAsymptoticallyFlatError:
            continue
        steps = horizon_sequence(profile, 4.0 * report.horizon_radius).steps
        solved = [s for s in steps if s.mass_lower_bound is not None]
        assert solved
        for step in solved:
            assert report.bound * (1 - bound_rtol) <= step.mass_lower_bound <= profile.mass
        gaps += [(s.mass_lower_bound - report.bound) / report.bound for s in solved if s.epsilon == 1e-3]
    assert gaps and statistics.median(gaps) <= median_gap


@pytest.mark.xfail(strict=True, raises=NotAsymptoticallyFlatError, reason="ROADMAP item 6: a core's r^-3 tail")
def test_plummer_wide_core_is_asymptotically_flat():
    # u = 1 + 1/r + 0.1 (r^2 + 320^2)^(-1/2); refused today: tail fit residual 1.54e-6 against 1e-6
    assert GridScan(PlummerProfile(1.0, 1.0, [0.1], [320.0])).penrose().verdict == VERDICT_STRICT


@pytest.mark.xfail(strict=True, reason="ROADMAP item 6: the tail fit has no term for a core's r^-3 tail")
def test_plummer_core_mass_is_exact():
    # u = 1 + 1/r + 0.1 (r^2 + 40^2)^(-1/2), mass 2.2; read today 6.2e-5 relative low
    profile = PlummerProfile(1.0, 1.0, [0.1], [40.0])
    assert GridScan(profile).penrose().adm_mass == pytest.approx(profile.mass, rel=1e-8, abs=0)


def test_penrose_dimension_guard(monkeypatch):
    # refused before any evaluation of u, u' or u''
    sizes = count_evaluations(monkeypatch, SchwarzschildLikeProfile)
    with pytest.raises(UnsupportedDimensionError):
        GridScan(SchwarzschildLikeProfile.from_mass(1.0, n=4)).penrose()
    assert sizes == {"_u": [], "_du": [], "_d2u": []}


def test_penrose_check_evaluates_u_on_its_grid_once(schw, counting, monkeypatch):
    # GridScan.penrose: the area infimum and the horizon read one evaluation of u and u' on the grid,
    # and no u''; the mass reads one evaluation of u on the 128-point tail window; a scan alone
    # evaluates u on the grid once as well
    count = default_grid(schw).count
    profile = counting(schw)
    assert GridScan(profile).penrose() == GridScan(schw).penrose()
    assert profile.sizes.count(count) == 1 and profile.sizes.count(128) == 1
    alone = counting(schw)
    assert GridScan(alone).area_infimum == GridScan(schw).area_infimum
    assert alone.sizes.count(count) == 1
    sizes = count_evaluations(monkeypatch, SchwarzschildLikeProfile)
    GridScan(schw).penrose()
    assert {name: calls.count(count) for name, calls in sizes.items()} == {"_u": 1, "_du": 1, "_d2u": 0}
    assert {name: calls.count(128) for name, calls in sizes.items()} == {"_u": 1, "_du": 0, "_d2u": 0}


@pytest.mark.parametrize(
    "name, grid",
    [
        ("schw", None),
        ("schw", RadialGrid(1.0, 1e4)),  # least area at the inner edge, minimal sphere below it
        ("schw", RadialGrid(1e-4, 1e4, 2)),  # no interior sample
        ("schw_ab", None),
        ("trumpet", None),
        ("trumpet", RadialGrid(10.0, 1e4)),  # throat limit
        ("euclid", None),
    ],
)
def test_penrose_check_reads_the_standalone_infimum_and_horizon(request, name, grid):
    # the verdict gives the bits a scan's own area infimum and horizon give; test_area_infimum_schwarzschild,
    # test_find_horizon and test_find_horizon_cylinder hold those against closed forms
    profile = request.getfixturevalue(name)
    report = GridScan(profile, grid).penrose()
    scan = GridScan(profile, grid)
    assert report.area_infimum == max(scan.area_infimum.value, 0.0)
    assert report.horizon_radius == scan.horizon_radius()


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


@pytest.mark.parametrize("a, b", [(1.0, 0.5), (2.0, 1.0), (0.7, 3.0)])
def test_adm_hawking_check_reads_hawking_mass(a, b):
    # the check reads area(S_r) once; its Hawking mass keeps hawking_mass's bits
    # at every radius outside the horizon r = b/a of u = a + b/r
    profile = SchwarzschildLikeProfile(a, b)
    for r in np.geomspace(1.001 * b / a, 1e3, 40):
        assert adm_hawking_check(profile, r).hawking_mass == hawking_mass(profile, r)
        assert adm_hawking_check(profile, float(r)).hawking_mass == hawking_mass(profile, float(r))


def test_adm_hawking_refuses_inside_horizon(schw):
    with pytest.raises(NotOuterMinimizingError):
        adm_hawking_check(schw, 0.3)


def _counted(f, log):
    def g(x):
        log.append(x)
        return f(x)

    return g


@pytest.mark.parametrize(
    "f, a, b",
    [
        (lambda x: math.cos(x) - x, 0.0, 1.0),
        (lambda x: x**3 - 2.0, 1.0, 2.0),
        (lambda x: math.log(x) + 3.0, 1e-3, 1.0),
        (lambda x: math.tanh(50.0 * (x - 0.3)), -1.0, 2.0),
    ],
)
def test_root_with_held_ends_is_brentq(f, a, b):
    # the held values stand in for f(a) and f(b): same iterates, same root, and f is never called at the ends
    ref = brentq(f, a, b, xtol=1e-300, rtol=4.0 * np.finfo(float).eps)
    calls = []
    assert _root(_counted(f, calls), a, b, f(a), f(b)) == ref
    assert calls and a not in calls and b not in calls
    calls.clear()
    assert _root(_counted(f, calls), a, b) == ref
    assert calls[:2] == [a, b]  # without held values brentq evaluates the ends first


def test_root_runs_on_the_bracket_as_found():
    # a caller's f(b) > 0 from a vector evaluation, where the scalar f re-evaluated at b
    # reads < 0 (rounding): brentq on f alone refuses the bracket, the held ends keep it
    def f(x):
        return -1e-300 if x == 1.0 else x - 2.0

    with pytest.raises(ValueError):
        brentq(f, 0.0, 1.0)
    assert 0.0 <= _root(f, 0.0, 1.0, f(0.0), 1e-300) <= 1.0


@pytest.mark.parametrize("a, b", [(1.0, 2.0), (0.0, 1.0)])
def test_root_at_a_zero_end_is_brentq(a, b):
    # f(x) = x - 1 is exactly 0 at one end: that end is the root, evaluated or held
    f = lambda x: x - 1.0
    assert _root(f, a, b) == _root(f, a, b, f(a), f(b)) == _brentq(f, a, b) == 1.0
    assert type(_root(f, a, b)) is float


def _brentq(f, a, b):
    return brentq(f, a, b, xtol=1e-300, rtol=4.0 * np.finfo(float).eps)


def _shifted_h(profile, r_star):
    """H(S_r) - H(S_{r*}): a root at r*, for profiles whose H has none of its own."""
    c = sphere_mean_curvature(profile, r_star)
    return lambda r: sphere_mean_curvature(profile, r) - c


def test_root_is_brentq_bit_for_bit():
    # a seeded battery on the four functions above and on Schwarzschild and trumpet H: the port
    # returns brentq's root after evaluating f at brentq's points, with and without held ends
    rng = np.random.default_rng(20261019)
    schw, trumpet = SchwarzschildLikeProfile.from_mass(1.0), TrumpetProfile(3)
    cases = [  # f, its root, a range to draw each bracket end from (log-uniform when positive)
        (lambda x: math.cos(x) - x, 0.7390851332151607, -3.0, 3.0),
        (lambda x: x**3 - 2.0, 2.0 ** (1 / 3), -3.0, 5.0),
        (lambda x: math.log(x) + 3.0, math.exp(-3.0), 1e-6, 10.0),
        (lambda x: math.tanh(50.0 * (x - 0.3)), 0.3, -5.0, 5.0),
        (partial(sphere_mean_curvature, schw), 0.5, 1e-2, 50.0),
    ]
    for profile in (schw, trumpet):
        for r_star in np.exp(rng.uniform(math.log(1e-6), math.log(1e3), 4)):
            cases.append((_shifted_h(profile, float(r_star)), float(r_star), 1e-3 * r_star, 1e3 * r_star))
    draw = lambda x, y: float(math.exp(rng.uniform(math.log(x), math.log(y))) if x > 0 else rng.uniform(x, y))
    brackets = 0
    for f, root, lo, hi in cases:
        for _ in range(160):
            a, b = draw(lo, root), draw(root, hi)
            while (f(a) < 0) == (f(b) < 0):  # a shifted H also has the root on the far side of its peak
                a, b = draw(lo, root), draw(root, hi)
            if rng.random() < 0.5:
                a, b = b, a
            ref_calls, calls, held_calls = [], [], []
            ref = _brentq(_counted(f, ref_calls), a, b)
            root = _root(_counted(f, calls), a, b)
            assert root == ref and type(root) is float
            assert calls == ref_calls
            assert _root(_counted(f, held_calls), a, b, f(a), f(b)) == ref
            assert held_calls == ref_calls[2:]
            brackets += 1
    assert brackets >= 2000


def _raises_as_brentq(f, a, b):
    """The exception type brentq raises on (f, a, b); the port's evaluations match it up to the raise."""
    ref_calls, calls = [], []
    with pytest.raises((ValueError, RuntimeError)) as ref:
        _brentq(_counted(f, ref_calls), a, b)
    with pytest.raises(ref.type):
        _root(_counted(f, calls), a, b)
    assert calls == ref_calls
    return ref.type


def test_root_raises_as_brentq():
    nan_at = lambda bad: lambda x: math.nan if x == bad else x - 0.3
    assert _raises_as_brentq(nan_at(0.0), 0.0, 1.0) is ValueError  # NaN at an end
    assert _raises_as_brentq(lambda x: math.nan if 0.2 < x < 0.9 else x - 0.3, 0.0, 1.0) is ValueError
    with pytest.raises(ValueError):
        _root(nan_at(0.0), 0.0, 1.0, math.nan, 0.7)  # a held NaN is refused as an evaluated one
    assert _raises_as_brentq(lambda x: x * x + 1.0, -1.0, 1.0) is ValueError  # one sign
    assert _raises_as_brentq(lambda x: 1e-200, 0.0, 1.0) is ValueError  # f(a) f(b) underflows to 0: still one sign
    with pytest.raises(ValueError):
        _root(lambda x: x, 0.0, 1.0, 1e-200, 1e-200)
    # a step with |f(a)| = |f(b)| only ever bisects: 100 iterations cannot reach 1e-200 from 1e300
    assert _raises_as_brentq(lambda x: -1.0 if x < 1e-200 else 1.0, -1e300, 1e300) is RuntimeError


def test_root_bisects_where_a_difference_quotient_underflows():
    # subnormal values: a difference quotient of the extrapolation step underflows to 0, where C divides
    # into inf or nan and bisects; the port bisects there too and keeps brentq's points and root
    w = 27508.188936516624
    f = lambda x: 2.97294e-318 * ((x / w) ** 3 - 0.08845845059190371)
    ref_calls, calls = [], []
    assert _root(_counted(f, calls), -2 * w, 2 * w) == _brentq(_counted(f, ref_calls), -2 * w, 2 * w)
    assert calls == ref_calls
