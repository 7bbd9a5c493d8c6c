import math

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from penroselab import (
    CylinderProfile,
    DomainError,
    EuclideanProfile,
    RadialGrid,
    SchwarzschildLikeProfile,
    TabulatedProfile,
    build_trumpet,
    default_grid,
    read_tabulated,
    unit_sphere_area,
    write_tabulated,
)
from penroselab.geometry import radial_laplacian, sphere_mean_curvature

from conftest import scaled


def test_unit_sphere_area():
    assert unit_sphere_area(3) == pytest.approx(4 * np.pi, rel=1e-15)
    assert unit_sphere_area(4) == pytest.approx(2 * np.pi**2, rel=1e-15)


def test_dimension_validation():
    with pytest.raises(ValueError):
        EuclideanProfile(n=2)
    with pytest.raises(ValueError):
        SchwarzschildLikeProfile(a=-1.0, b=0.5)
    with pytest.raises(ValueError):
        SchwarzschildLikeProfile(a=1.0, b=-0.5)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_closed_form_derivatives_match_symbolic(n):
    r = sp.symbols("r", positive=True)
    cases = [
        (SchwarzschildLikeProfile(1.3, 0.7, n=n), sp.Rational(13, 10) + sp.Rational(7, 10) * r ** (2 - n)),
        (CylinderProfile(n=n), r ** (sp.Rational(2 - n, 2))),
    ]
    for profile, expr in cases:
        du = sp.lambdify(r, sp.diff(expr, r))
        d2u = sp.lambdify(r, sp.diff(expr, r, 2))
        for rv in (0.3, 1.0, 7.5):
            assert profile.du(rv) == pytest.approx(du(rv), rel=1e-12)
            assert profile.d2u(rv) == pytest.approx(d2u(rv), rel=1e-12)


def test_vectorized_evaluation(schw):
    radii = np.geomspace(0.1, 10, 32)
    assert schw.u(radii).shape == radii.shape
    assert isinstance(schw.u(1.0), float)


def test_domain_check(schw):
    with pytest.raises(DomainError):
        radial_laplacian(schw, 0.0)
    with pytest.raises(DomainError):
        radial_laplacian(schw, -1.0)


def _tabulated_schwarzschild():
    radii = np.geomspace(1.0, 20.0, 64)
    return TabulatedProfile(radii, 1.0 + 0.5 / radii)


FLOAT_PATH_PROFILES = {
    "euclidean": EuclideanProfile,
    "schwarzschild-like": lambda: SchwarzschildLikeProfile(1.3, 0.7),
    "cylinder": CylinderProfile,
    "trumpet-3": lambda: build_trumpet(3),
    "trumpet-4": lambda: build_trumpet(4),
    "tabulated": _tabulated_schwarzschild,
}


@pytest.mark.parametrize("kind", FLOAT_PATH_PROFILES)
def test_float_radius_equals_array_evaluation(kind):
    # a float takes the scalar path; it must give the array path's values bit for bit
    profile = FLOAT_PATH_PROFILES[kind]()
    dom = profile.domain
    lo, hi = (dom.lo, dom.hi) if kind == "tabulated" else (1e-3, 1e3)
    radii = np.exp(np.random.default_rng(11).uniform(math.log(lo), math.log(hi), 200))
    radii[:3] = [lo, hi, 2.0]  # both table ends; 2.0 is the trumpet's r0 in n = 4 and its 2 r0 in n = 3
    for name in ("u", "du", "d2u"):
        evaluate = getattr(profile, name)
        values = evaluate(radii)
        scalar = np.array([evaluate(float(r)) for r in radii])
        assert np.array_equal(scalar, values), name
        assert np.array_equal([evaluate(np.float64(r)) for r in radii], values), name
        assert all(type(evaluate(float(r))) is float for r in radii[:5])


@pytest.mark.parametrize("convert", [float, np.float64])
def test_require_radius_at_scalars(schw, convert):
    for r in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            schw.require_radius(convert(r))
    schw.require_radius(convert(1e-300))
    tab = _tabulated_schwarzschild()
    lo, hi = tab.domain.lo, tab.domain.hi
    for r in (math.nextafter(lo, 0.0), math.nextafter(hi, math.inf), 0.0, math.nan):
        with pytest.raises(DomainError):
            tab.require_radius(convert(r))
    for r in (lo, hi, 0.5 * (lo + hi)):
        tab.require_radius(convert(r))


def test_require_radius_at_ints(schw):
    for r in (0, -1):
        with pytest.raises(DomainError):
            schw.require_radius(r)
    schw.require_radius(1)
    tab = _tabulated_schwarzschild()  # its table spans [1, 20]
    for r in (0, 21):
        with pytest.raises(DomainError):
            tab.require_radius(r)
    for r in (1, 7, 20):
        tab.require_radius(r)


def test_tabulated_validation():
    r = np.array([1.0, 2.0, 3.0, 4.0])
    with pytest.raises(ValueError):
        TabulatedProfile(r, np.array([1.0, 1.0, -1.0, 1.0]))
    with pytest.raises(ValueError):
        TabulatedProfile(np.array([1.0, 2.0, 2.0, 4.0]), np.ones(4))
    with pytest.raises(ValueError):
        TabulatedProfile(np.array([-1.0, 2.0, 3.0, 4.0]), np.ones(4))


def test_tabulated_roundtrip(tmp_path, schw):
    radii = np.geomspace(1e-3, 1e3, 4096)
    path = tmp_path / "profile.dat"
    write_tabulated(path, radii, schw.u(radii), header="sample")
    tab = read_tabulated(path)
    probe = np.geomspace(1e-2, 1e2, 64)
    assert np.allclose(tab.u(probe), schw.u(probe), rtol=1e-12)
    assert np.allclose(tab.du(probe), schw.du(probe), rtol=1e-8)
    assert np.allclose(tab.d2u(probe), schw.d2u(probe), rtol=1e-6, atol=1e-12)


def test_failed_table_write_keeps_previous_file(tmp_path, schw, monkeypatch):
    radii = np.geomspace(1e-2, 1e2, 64)
    path = tmp_path / "profile.dat"
    write_tabulated(path, radii, schw.u(radii))
    before = path.read_bytes()

    def values():  # the row generator fails partway through the table
        yield from schw.u(radii[:10])
        raise RuntimeError("interrupted")

    with pytest.raises(RuntimeError):
        write_tabulated(path, radii, values())
    assert path.read_bytes() == before

    def no_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr("penroselab.reports.os.replace", no_replace)
    with pytest.raises(OSError):
        write_tabulated(path, radii, 2 * schw.u(radii))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["profile.dat"]  # no temporary file left
    assert len(read_tabulated(path).radii) == 64


_TABLE_RADII = np.geomspace(1e-3, 1e3, 4097)
_CLOSED_FORMS = {
    "euclidean": EuclideanProfile(),
    "schwarzschild": SchwarzschildLikeProfile.from_mass(1.0),
    "schwarzschild-like": SchwarzschildLikeProfile(2.0, 1.0),
    "schwarzschild-n4": SchwarzschildLikeProfile.from_mass(1.0, n=4),
    "cylinder": CylinderProfile(),
    "trumpet": build_trumpet(3),
    "trumpet-n4": build_trumpet(4),
}
_TABLES = {
    kind: TabulatedProfile(_TABLE_RADII, p.u(_TABLE_RADII), n=p.n) for kind, p in _CLOSED_FORMS.items()
}


@given(
    kind=st.sampled_from(sorted(_CLOSED_FORMS)),
    t=st.floats(min_value=math.log(_TABLE_RADII[0]), max_value=math.log(_TABLE_RADII[-1])),
)
@settings(max_examples=150, deadline=None)
def test_tabulated_agrees_with_closed_form(kind, t):
    exact, tab = _CLOSED_FORMS[kind], _TABLES[kind]
    r = min(max(math.exp(t), _TABLE_RADII[0]), _TABLE_RADII[-1])
    assert tab.u(r) == pytest.approx(exact.u(r), rel=1e-9)
    # H vanishes on horizons and on the cylinder: compare on its natural scale
    scale = (exact.n - 1) / (exact.u(r) ** (2 / (exact.n - 2)) * r)
    assert abs(sphere_mean_curvature(tab, r) - sphere_mean_curvature(exact, r)) <= 1e-6 * scale


def test_tabulated_reader_rejects_single_column(tmp_path):
    path = tmp_path / "bad.dat"
    path.write_text("# comment\n1.0\n2.0\n3.0\n4.0\n")
    with pytest.raises(ValueError):
        read_tabulated(path)


def test_grid_validation():
    with pytest.raises(ValueError):
        RadialGrid(1.0, 0.5)
    with pytest.raises(ValueError):
        RadialGrid(1.0, 2.0, count=1)


def test_default_grid_respects_domain(tmp_path, schw):
    grid = default_grid(schw)
    assert grid.r_lo == 1e-4 and grid.r_hi == 1e4 and grid.count == 4096
    radii = np.geomspace(1e-2, 1e2, 512)
    path = tmp_path / "p.dat"
    write_tabulated(path, radii, schw.u(radii))
    tab = read_tabulated(path)
    grid = default_grid(tab)
    assert grid.r_lo >= 1e-2 and grid.r_hi <= 1e2


_INNER_END_PROFILES = {
    "trumpet-n3": lambda: build_trumpet(3),
    "trumpet-n4": lambda: build_trumpet(4),
    "trumpet-n5": lambda: build_trumpet(5),
    "schwarzschild-like": lambda: SchwarzschildLikeProfile(2.0, 0.7),
    "schwarzschild-like-n4": lambda: SchwarzschildLikeProfile(1.0, 0.5, n=4),
    "schwarzschild-like-b0": lambda: SchwarzschildLikeProfile(1.5, 0.0),
    "euclidean": lambda: EuclideanProfile(),
    "cylinder": lambda: CylinderProfile(),
    "cylinder-n5": lambda: CylinderProfile(5),
    "scaled-trumpet": lambda: scaled(build_trumpet(3), 2.5),
}


@pytest.mark.parametrize("make", _INNER_END_PROFILES.values(), ids=_INNER_END_PROFILES.keys())
def test_inner_exponent_matches_evaluator(make):
    # u ~ c r^{-q} at the puncture: u r^q settles to a positive constant
    profile = make()
    assert not profile.domain.lo_closed
    q = profile.inner_exponent
    near, nearer = (profile.u(r) * r**q for r in (1e-8, 1e-12))
    assert near > 0 and nearer > 0
    assert near == pytest.approx(nearer, rel=1e-3)
