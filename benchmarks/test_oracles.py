"""The benchmark's closed-form oracles, checked against sympy.

Run with ``python -m pytest benchmarks -q``.  These tests need neither the
package nor a timed run.
"""

import json
import math

import pytest
import sympy as sp

import oracles as O
import workloads as W

r, a, b, c = sp.symbols("r a b c", positive=True)


def _integral(expr, x0, x1):
    return float(sp.integrate(expr, (r, x0, x1)))


def _close(value, exact, rel=1e-12):
    assert value == pytest.approx(exact, rel=rel), (value, exact)


@pytest.mark.parametrize("span", [(1e-3, 1e3), (0.5, 0.51), (2.0, 90.0), (1e-3, 2e-3)])
def test_schwarzschild_like_arc_and_volume(span):
    A, B = 1.3, 0.7
    model = O.SchwarzschildLike(A, B)
    u = sp.Rational(13, 10) + sp.Rational(7, 10) / r
    x0, x1 = map(sp.nsimplify, span)
    _close(model.arc(*span), _integral(u**2, x0, x1))
    _close(model.volume(*span), _integral(4 * sp.pi * u**6 * r**2, x0, x1))


@pytest.mark.parametrize("span", [(1e-3, 1e3), (3.0, 3.001)])
def test_euclidean_and_cylinder(span):
    x0, x1 = map(sp.nsimplify, span)
    _close(O.Euclidean().arc(*span), _integral(sp.Integer(1), x0, x1))
    _close(O.Euclidean().volume(*span), _integral(4 * sp.pi * r**2, x0, x1))
    _close(O.Cylinder().arc(*span), _integral(1 / r, x0, x1))
    _close(O.Cylinder().volume(*span), _integral(4 * sp.pi * r**-3 * r**2, x0, x1))
    assert O.Euclidean().arc(0.0, 2.0) == 2.0
    _close(O.Euclidean().volume(0.0, 2.0), 32 * math.pi / 3)
    assert math.isinf(O.Cylinder().arc(0.0, 2.0)) and math.isinf(O.SchwarzschildLike(1, 1).volume(0.0, 2.0))


def test_schwarzschild_like_mass_and_area_infimum():
    u = a + b / r
    area = 4 * sp.pi * u**4 * r**2
    h = 2 * u**-2 * (1 / r + 2 * sp.diff(u, r) / u)
    hawking = sp.sqrt(area / (16 * sp.pi)) * (1 - area * h**2 / (16 * sp.pi))
    # every coordinate sphere has Hawking mass 2ab, so the total mass is 2ab
    assert sp.simplify(hawking - 2 * a * b) == 0
    (r_min,) = sp.solve(sp.diff(area, r), r)
    assert sp.simplify(r_min - b / a) == 0
    assert sp.simplify(area.subs(r, r_min) - 64 * sp.pi * a**2 * b**2) == 0
    model = O.SchwarzschildLike(1.3, 0.7)
    _close(model.mass, 2 * 1.3 * 0.7)
    _close(model.area_infimum, 64 * math.pi * 1.3**2 * 0.7**2)
    _close(O.sphere_area(model.u(model.horizon_radius), model.horizon_radius), model.area_infimum)
    _close(O.mean_curvature(model.u(2.0), model.du(2.0), 2.0), float(h.subs({a: 1.3, b: 0.7, r: 2})))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_trumpet_throat_area_and_mass(n):
    u = r ** sp.Rational(2 - n, 2) + c
    area = O.omega(n) * u ** sp.Rational(2 * (n - 1), n - 2) * r ** (n - 1)
    assert float(sp.limit(area, r, 0, "+")) == pytest.approx(O.omega(n), rel=1e-15)
    model = O.Trumpet(O.certified_alpha(n) * 1.1, n)
    _close(model.throat_area, O.omega(n))
    _close(model.mass, 2 * (model.alpha + model.r0 ** ((2 - n) / 2)))
    # u is continuous where the blend meets the two exact regions
    for edge in (model.r0, 2 * model.r0):
        _close(model.u(edge * (1 - 1e-12)), model.u(edge * (1 + 1e-12)), rel=1e-10)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_trumpet_certified_bound(n):
    r0 = sp.Rational(1, 2) * 2 ** sp.Rational(2, n - 2)
    slope_sum = sp.Rational(n - 2, 2) * r ** sp.Rational(2 - n, 2) + (n - 2) * r ** (2 - n)
    # both terms decrease in r, so the supremum over [r0, 2 r0] sits at r0
    assert sp.diff(slope_sum, r).is_negative
    bound = sp.Max((2 * r0) ** (2 - n), sp.Rational(2, n - 2) * slope_sum.subs(r, r0))
    _close(O.certified_bound(n), float(bound))
    _close(O.certified_alpha(n), 1.1 * float(bound))


def test_trumpet_exact_regions():
    model = O.Trumpet(2.0)
    inner = (r**-sp.Rational(1, 2) + sp.nsimplify(model.c1)) ** 2
    outer = (sp.nsimplify(model.alpha0) + 1 / r) ** 2
    _close(model.arc(1e-3, 1.5), _integral(inner, sp.Rational(1, 1000), sp.Rational(3, 2)), rel=1e-10)
    _close(model.arc(5.0, 900.0), _integral(outer, 5, 900), rel=1e-10)
    vol = 4 * sp.pi * (sp.nsimplify(model.alpha0) + 1 / r) ** 6 * r**2
    _close(model.volume(4.5, 50.0), _integral(vol, sp.Rational(9, 2), 50), rel=1e-10)
    n4 = O.Trumpet(3.5, n=4)
    _close(n4.exact_region_arc(0.01, 0.5), _integral(1 / r + sp.nsimplify(n4.c1), sp.Rational(1, 100), sp.Rational(1, 2)), rel=1e-10)
    assert O.Trumpet(6.0, n=5).exact_region_arc(0.01, 0.5) is None


@pytest.mark.parametrize("n", [3, 4, 5])
def test_expected_trumpet_exit_code(n):
    # the certificate fails, with exit code 5, exactly below the un-margined bound
    for factor in (0.8, 0.9, 0.95, 1.0, 1.3):
        alpha = O.certified_alpha(n) * factor
        assert W.expected_trumpet_exit(n, alpha) == (5 if factor < 1 / 1.1 else 0)


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_rounds_are_seeded(name):
    wl = W.WORKLOADS[name]
    first = json.dumps([wl.round(5, k) for k in range(3)], sort_keys=True)
    assert first == json.dumps([wl.round(5, k) for k in range(3)], sort_keys=True)
    assert first != json.dumps([wl.round(6, k) for k in range(3)], sort_keys=True)


def test_draws_are_uniform_and_even():
    values = sorted(W.Draws("test:1", k).random() for k in range(1000))
    # a shifted Kronecker sequence leaves no gap much wider than 1/N
    assert max(y - x for x, y in zip(values, values[1:])) < 3.0 / len(values)
    assert 0.0 <= values[0] and values[-1] < 1.0
