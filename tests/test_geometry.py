import math

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from penroselab import (
    CylinderProfile,
    EuclideanProfile,
    SchwarzschildLikeProfile,
    build_trumpet,
    default_grid,
    geodesic_distance,
    intrinsic_diameter,
    radial_laplacian,
    scalar_curvature,
    sphere_area,
    sphere_mean_curvature,
    volume_between,
)

from conftest import scaled


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
        assert abs(scalar_curvature(schw, rv)) < 1e-10
        assert scalar_curvature(cylinder, rv) == pytest.approx(2.0, rel=1e-12)


def test_schwarzschild_scalar_flatness_on_grid(schw):
    radii = default_grid(schw).radii()
    assert np.max(np.abs(scalar_curvature(schw, radii))) < 1e-10


def test_sphere_area_overflows_to_inf_on_both_paths(schw):
    # u^4 = (1 + 1/(2r))^4 exceeds the float range at r = 1e-80: a float's power
    # raises where an array's gives inf, and the float path reads inf too
    with np.errstate(over="ignore"):
        assert sphere_area(schw, 1e-80) == math.inf
        assert sphere_area(schw, np.array([1e-80])).tolist() == [math.inf]


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


def test_volume_examples(euclid, cylinder):
    assert volume_between(euclid, 0.0, 1.0) == pytest.approx(4 * math.pi / 3, abs=1e-9)
    assert volume_between(euclid, 0.7, 0.7) == 0.0
    assert volume_between(cylinder, math.exp(-1.0), 1.0) == pytest.approx(4 * math.pi, rel=1e-10)


def test_trumpet_throat_volume_diverges(trumpet):
    assert math.isinf(volume_between(trumpet, 0.0, 1.0))


_CLOSED_FORMS = {
    "euclidean": EuclideanProfile(),
    "schwarzschild-like": SchwarzschildLikeProfile(1.0, 0.5),
    "cylinder": CylinderProfile(),
    "trumpet": build_trumpet(3),
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
