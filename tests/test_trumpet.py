import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from penroselab import (
    SmoothCutoff,
    WeakAlphaWarning,
    build_trumpet,
    default_grid,
    find_r0,
    geodesic_distance,
    min_alpha,
    read_tabulated,
    required_alpha,
    scalar_curvature,
    sphere_area,
    sphere_mean_curvature,
    export_trumpet,
    verify_trumpet,
)


def test_find_r0_closed_form():
    assert find_r0(3) == pytest.approx(2.0, rel=1e-14)
    assert find_r0(4) == pytest.approx(1.0, rel=1e-14)
    assert find_r0(6) == pytest.approx(0.5 * 2 ** 0.5, rel=1e-14)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_slope_inequality_on_gluing_window(n):
    r0 = find_r0(n)
    r = np.linspace(1e-6, 2 * r0 * (1 - 1e-9), 1000)
    du1 = 0.5 * (2 - n) * r ** (-0.5 * n)
    du2 = (2 - n) * r ** (1 - n)
    assert np.all(du1 - du2 > 0)


class TestCutoff:
    def test_plateaus_exact(self):
        zeta = SmoothCutoff(2.0)
        for t in (0.5, 1.0, 2.0):
            assert zeta(t) == (1.0, 0.0)
        for t in (4.0, 6.0):
            assert zeta(t) == (0.0, 0.0)

    def test_midpoint(self):
        zeta = SmoothCutoff(2.0)
        val, slope = zeta(3.0)
        assert val == pytest.approx(0.5, rel=1e-14)
        assert slope < 0

    @given(t=st.floats(min_value=0.01, max_value=10.0))
    @settings(max_examples=200, deadline=None)
    def test_invariants(self, t):
        zeta = SmoothCutoff(2.0)
        val, slope = zeta(t)
        assert 0.0 <= val <= 1.0
        assert slope <= 0.0


def test_min_alpha_example():
    # sup of |r u1'| + |r u2'| on [2, 4] sits at the left endpoint
    sup = 0.5 / math.sqrt(2.0) + 0.5
    expected = 1.1 * max(0.25, 2 * sup)
    assert min_alpha(3, 2.0) == expected
    assert min_alpha(3, 2.0) == pytest.approx(1.8778, abs=1e-4)
    assert min_alpha(3, 2.0) > 0.25


class TestBuild:
    def test_continuity_at_gluing_radii(self, trumpet):
        n, r0 = trumpet.n, trumpet.r0
        # value continuity: branch formulas agree at the seams
        mid_at_r0 = trumpet.alpha0 + (2 * r0) ** (2 - n) - trumpet._blend_prefix(r0)
        assert abs(trumpet.u(r0) - mid_at_r0) <= 1e-10
        mid_at_2r0 = trumpet.alpha0 + (2 * r0) ** (2 - n) - trumpet._blend_prefix(2 * r0)
        assert abs(trumpet.u(2 * r0) - mid_at_2r0) <= 1e-10
        # slope continuity: one-sided values differ only by the local variation
        for seam in (r0, 2 * r0):
            eps = 1e-7
            jump = abs(trumpet.du(seam - eps) - trumpet.du(seam + eps))
            assert jump <= 2 * eps * abs(trumpet.d2u(seam - eps)) + 1e-10

    def test_exact_slopes_in_plateaus(self, trumpet):
        for r in (0.3, 1.0, 2.0):
            assert trumpet.du(r) == -0.5 * r**-1.5
        for r in (4.0, 50.0, 1e4):
            assert trumpet.du(r) == -(r**-2.0)

    def test_tail_is_exactly_schwarzschild_type(self, trumpet):
        for r in (4.0, 10.0, 1e3):
            assert trumpet.u(r) == trumpet.alpha0 + 1.0 / r

    def test_throat_constant(self, trumpet):
        for r in (1e-6, 1e-3, 0.5):
            assert trumpet.u(r) == pytest.approx(r**-0.5 + trumpet.c1, rel=1e-14)
        assert trumpet.c1 > trumpet.alpha


class TestVerification:
    def test_default_passes_all_checks(self, trumpet):
        report = verify_trumpet(trumpet)
        assert report.ok and report.failing() == []
        assert report.mass == pytest.approx(2 * trumpet.alpha0, rel=1e-12)
        assert report.throat_area == pytest.approx(4 * math.pi, abs=1e-4)

    def test_laplacian_terms_nonpositive(self, trumpet):
        radii = default_grid(trumpet).radii()
        t1, t2, t3 = trumpet.laplacian_terms(radii)
        for term in (t1, t2, t3):
            assert float(np.max(term)) <= 1e-12

    def test_scalar_curvature_nonnegative_on_grid(self, trumpet):
        radii = default_grid(trumpet).radii()
        assert float(np.min(np.asarray(scalar_curvature(trumpet, radii)))) >= -1e-10

    def test_mean_convex_everywhere(self, trumpet):
        radii = default_grid(trumpet).radii()
        assert np.all(np.asarray(sphere_mean_curvature(trumpet, radii)) > 0)

    def test_completeness_flag(self, trumpet):
        assert math.isinf(geodesic_distance(trumpet, 0.0, trumpet.r0))

    def test_weak_alpha_fails_certificate(self):
        with pytest.warns(WeakAlphaWarning):
            weak = build_trumpet(alpha=required_alpha(3, 2.0) / 2)
        report = verify_trumpet(weak)
        assert not report.ok
        assert "mean_convexity" in report.failing()
        detail = next(c.detail for c in report.checks if c.name == "mean_convexity")
        assert detail["alpha_certificate"] is False

    def test_dimension_four(self):
        t4 = build_trumpet(n=4)
        report = verify_trumpet(t4)
        assert report.ok
        assert report.mass is None
        assert report.throat_area == pytest.approx(2 * math.pi**2, abs=1e-4)


def test_export_roundtrip(tmp_path, trumpet):
    dat = tmp_path / "trumpet.dat"
    export_trumpet(trumpet, dat)
    tab = read_tabulated(dat)
    probe = np.geomspace(1e-3, 1e3, 64)
    assert np.allclose(tab.u(probe), trumpet.u(probe), rtol=1e-10)
    assert np.allclose(
        np.asarray(sphere_area(tab, probe)), np.asarray(sphere_area(trumpet, probe)), rtol=1e-9
    )
