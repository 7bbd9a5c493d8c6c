import csv
import hashlib
import io
import json
import math
import os
import stat
from pathlib import Path
from types import SimpleNamespace

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
    TrumpetProfile,
    default_grid,
    find_r0,
    min_alpha,
    read_tabulated,
    unit_sphere_area,
    write_tabulated,
)
from penroselab import profiles
from penroselab.geometry import scalar_curvature, sphere_mean_curvature
from penroselab.profiles import DEFAULT_GRID_HI, MAX_GRID_COUNT
from penroselab.reports import _layout, jsonable, write_csv, write_json, write_table
from penroselab.trumpet import EXPORT_COUNT, EXPORT_R_HI, EXPORT_R_LO, export_trumpet

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


@pytest.mark.parametrize("n", [2, 3.5, math.nan, math.inf, 344])
def test_one_dimension_rule(n):
    # every entry point that takes a dimension refuses the same n, in one ValueError naming it;
    # 344 is an integer, but Gamma(172) in its unit-sphere area overflows
    for build in (EuclideanProfile, TrumpetProfile, find_r0, min_alpha):
        with pytest.raises(ValueError, match="dimension"):
            build(n)


@pytest.mark.parametrize("a, b", [(math.inf, 1.0), (1.0, math.inf), (1.0, math.nan), (math.nan, 1.0)])
def test_schwarzschild_like_needs_finite_coefficients(a, b):
    # inf passes both sign checks and NaN the one on b; either would read as a violated inequality downstream
    with pytest.raises(ValueError):
        SchwarzschildLikeProfile(a, b)


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
        scalar_curvature(schw, 0.0)
    with pytest.raises(DomainError):
        scalar_curvature(schw, -1.0)


def _tabulated_schwarzschild():
    radii = np.geomspace(1.0, 20.0, 64)
    return TabulatedProfile(radii, 1.0 + 0.5 / radii)


FLOAT_PATH_PROFILES = {
    "euclidean": EuclideanProfile,
    "schwarzschild-like": lambda: SchwarzschildLikeProfile(1.3, 0.7),
    "cylinder": CylinderProfile,
    "trumpet-3": lambda: TrumpetProfile(3),
    "trumpet-4": lambda: TrumpetProfile(4),
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


FLOAT_EVALUATORS = [EuclideanProfile()] + [
    SchwarzschildLikeProfile(a, b, n) for n in (3, 4, 5) for a, b in ((1.0, 0.5), (1.3, 0.7), (0.25, 3e5), (2.0, 0.0))
]


@pytest.mark.parametrize("profile", FLOAT_EVALUATORS, ids=lambda p: "-".join(map(str, p.describe().values())))
def test_float_evaluators_equal_one_element_array(profile):
    # a float goes through the evaluator itself, in the +, -, *, / an array goes through: bit for bit,
    # over- and underflow included (Python floats go to inf silently, numpy warns)
    assert profile.takes_floats
    radii = np.exp(np.random.default_rng(5).uniform(math.log(1e-150), math.log(1e150), 2000))
    for name in ("u", "du", "d2u"):
        evaluate = getattr(profile, name)
        scalar = [evaluate(float(r)) for r in radii]
        with np.errstate(over="ignore"):
            vector = [evaluate(np.array([r]))[0] for r in radii]
        assert scalar == vector, name
        assert {type(x) for x in scalar} == {float}, name


def test_only_marked_evaluators_take_a_float(monkeypatch, counting):
    # a float never reaches _dispatch on a profile marked takes_floats; on every other one it does
    marked = (EuclideanProfile(), SchwarzschildLikeProfile(1.3, 0.7), SchwarzschildLikeProfile(1.0, 0.5, 5))
    others = (TrumpetProfile(), CylinderProfile(), _tabulated_schwarzschild(), counting(SchwarzschildLikeProfile.from_mass(1.0)))
    real = profiles._dispatch

    def refuse(fn, r):
        if isinstance(r, float):
            raise AssertionError("float wrapped in an array")
        return real(fn, r)

    monkeypatch.setattr(profiles, "_dispatch", refuse)
    for profile in marked:
        for name in ("u", "du", "d2u"):
            evaluate = getattr(profile, name)
            assert evaluate(1.7) == evaluate(np.float64(1.7)) == evaluate(np.array([1.7]))[0]
    for profile in others:
        assert not profile.takes_floats
        for name in ("u", "du", "d2u"):
            with pytest.raises(AssertionError, match="float wrapped"):
                getattr(profile, name)(1.7)


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
    # non-finite samples are refused in penroselab's words, before scipy sees them
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="tabulated radii must be finite"):
            TabulatedProfile(np.array([1.0, 2.0, 3.0, bad]), np.ones(4))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="tabulated values must be finite"):
            TabulatedProfile(r, np.array([1.0, bad, 1.0, 1.0]))
    with pytest.raises(ValueError, match="tabulated radii must be finite"):
        TabulatedProfile(np.array([np.nan, 2.0, 3.0, 4.0]), np.array([1.0, 1.0, 1.0, np.nan]))
    # three samples, one value short, 2-d arrays
    for radii, values in [(r[:3], np.ones(3)), (r, np.ones(3)), (r.reshape(2, 2), np.ones((2, 2)))]:
        with pytest.raises(ValueError, match="need matching 1-d arrays with at least 4 samples"):
            TabulatedProfile(radii, values)
    # derivative columns (u', u'') of another shape, or with a non-finite entry
    u, du, d2u = 1.0 + 1.0 / r, -1.0 / r**2, 2.0 / r**3
    for short in ((du[:3], d2u), (du, d2u[:3]), (du.reshape(2, 2), d2u)):
        with pytest.raises(ValueError, match="^tabulated derivative columns must match the radii$"):
            TabulatedProfile(r, u, derivatives=short)
    for bad in (np.nan, np.inf, -np.inf):
        for pair in ((np.where(r == 2.0, bad, du), d2u), (du, np.where(r == 3.0, bad, d2u))):
            with pytest.raises(ValueError, match="^tabulated derivatives must be finite$"):
                TabulatedProfile(r, u, derivatives=pair)


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

    # zip would stop at the shorter column and write a shorter table
    for short in (np.ones(5), schw.u(radii)[:-1]):
        with pytest.raises(ValueError):
            write_tabulated(path, radii, short)
        with pytest.raises(ValueError):
            write_tabulated(path, short, schw.u(radii))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["profile.dat"]

    def no_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr("penroselab.reports.os.replace", no_replace)
    with pytest.raises(OSError):
        write_tabulated(path, radii, 2 * schw.u(radii))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["profile.dat"]  # no temporary file left
    assert len(read_tabulated(path).radii) == 64


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
def test_reports_and_tables_get_the_umask_mode(tmp_path, schw, umask):
    # every written file reads as a plain open() would leave it, not mkstemp's 0o600
    radii = np.geomspace(1e-2, 1e2, 8)
    old = os.umask(umask)
    try:
        (tmp_path / "plain.txt").write_text("x")
        write_json(tmp_path / "report.json", {"a": 1.0})
        write_csv(tmp_path / "report.csv", ["a"], [[1.0]])
        write_tabulated(tmp_path / "profile.dat", radii, schw.u(radii))
    finally:
        os.umask(old)
    modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in tmp_path.iterdir()}
    assert modes == dict.fromkeys(["plain.txt", "report.json", "report.csv", "profile.dat"], 0o666 & ~umask)


def test_writers_never_flip_the_process_umask(tmp_path, schw, monkeypatch):
    # the umask is process-wide: a file another thread creates while it is 0 would get mode 0o666
    def no_umask(mask):
        raise AssertionError("os.umask called")

    monkeypatch.setattr(os, "umask", no_umask)
    radii = np.geomspace(1e-2, 1e2, 8)
    write_json(tmp_path / "report.json", {"a": 1.0})
    write_csv(tmp_path / "report.csv", ["a"], [[1.0]])
    write_tabulated(tmp_path / "profile.dat", radii, schw.u(radii))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["profile.dat", "report.csv", "report.json"]


_CELLS = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1.7976931348623157e308, 1e16, 0.1, 1.0, -2.5e-7, 123456.789]


@pytest.mark.parametrize("rows", [0, 1, len(_CELLS), 1000])
@pytest.mark.parametrize("kind", ["float64-array", "float64-list", "float-list"])
def test_write_table_bytes_match_the_row_writers(tmp_path, rows, kind):
    # write_table against csv.writer with the per-cell str(jsonable(v)), and against the f-string row
    rng = np.random.default_rng(rows)
    base = rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows)
    base[: len(_CELLS)] = _CELLS[:rows]
    columns = [base, base[::-1].copy(), np.sqrt(np.abs(base)) + 0.1]
    if kind != "float64-array":
        columns = [list(c) if kind == "float64-list" else c.tolist() for c in columns]
    text_r = tuple(map(repr, np.asarray(columns[0], dtype=float).tolist()))

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["a", "b", "c"])
    writer.writerows([str(jsonable(v)) for v in row] for row in zip(*columns))
    for first in (columns[0], text_r):
        write_table(tmp_path / "t.csv", "a,b,c\n", [first, *columns[1:]], ",")
        assert (tmp_path / "t.csv").read_bytes() == buf.getvalue().encode()

    head = "# x\n# r u\n"
    rows_text = head + "".join(f"{float(r)!r} {float(u)!r}\n" for r, u in zip(columns[0], columns[1]))
    for first in (columns[0], text_r):
        write_table(tmp_path / "t.dat", head, [first, columns[1]], " ")
        assert (tmp_path / "t.dat").read_bytes() == rows_text.encode()
        write_tabulated(tmp_path / "p.dat", first, columns[1], header="x")
        assert (tmp_path / "p.dat").read_bytes() == rows_text.encode()


def test_write_leaves_a_temp_name_it_did_not_create(tmp_path, monkeypatch):
    # a temp name already taken is refused, and the file holding it is not removed
    monkeypatch.setattr(os, "urandom", lambda k: bytes(k))
    taken = tmp_path / f".report.json.{bytes(8).hex()}.tmp"
    taken.write_text("someone else's")
    with pytest.raises(FileExistsError):
        write_json(tmp_path / "report.json", {"a": 1.0})
    assert taken.read_text() == "someone else's"
    assert [p.name for p in tmp_path.iterdir()] == [taken.name]


_JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers() | st.sampled_from([2**64, -(2**100), 10**40]),
    st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([-0.0, 5e-324, 1e16, 0.1]),
    st.text() | st.sampled_from(['"', "\\", "\x00\x1f\x7f", "\u00e9\u2603\U0001d11e", "\ud800", ""]),
)
_JSON_VALUES = st.recursive(
    _JSON_LEAVES, lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4), max_leaves=24
)


@given(value=_JSON_VALUES)
@settings(max_examples=300, deadline=None)
def test_json_layout_is_json_dumps(value):
    assert _layout(value) == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize("bad", [{1, 2}, Path("report.json"), [1.0, {"a": frozenset()}]])
def test_json_layout_refuses_what_json_refuses(tmp_path, bad):
    with pytest.raises(TypeError):
        json.dumps(jsonable(bad))
    with pytest.raises(TypeError):
        write_json(tmp_path / "report.json", {"a": bad})
    assert list(tmp_path.iterdir()) == []


def test_write_survives_one_byte_writes(tmp_path, monkeypatch):
    # os.write may write less than it was given; the rest still lands, multi-byte UTF-8 split across calls
    real_write, calls = os.write, []

    def one_byte(fd, data):
        calls.append(1)
        return real_write(fd, bytes(data[:1]))

    monkeypatch.setattr(os, "write", one_byte)
    write_csv(tmp_path / "report.csv", ["name", "value"], [["\u00e9\u2603", 0.1], ["a,b", None]])
    expected = 'name,value\n\u00e9\u2603,0.1\n"a,b",\n'
    assert (tmp_path / "report.csv").read_bytes() == expected.encode("utf-8")
    assert len(calls) == len(expected.encode("utf-8"))


def test_failed_byte_write_keeps_the_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "report.json"
    write_json(path, {"a": 1.0})
    before = path.read_bytes()

    def no_space(fd, data):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(os, "write", no_space)
    with pytest.raises(OSError):
        write_json(path, {"a": 2.0})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]  # no temporary file left


def test_write_makes_a_missing_nested_directory(tmp_path):
    path = tmp_path / "a" / "b" / "c" / "report.json"
    write_json(path, {"a": [1, 2]})
    write_csv(path.with_suffix(".csv"), ["a"], [[1.0]])
    assert json.loads(path.read_text()) == {"a": [1, 2]}
    assert sorted(p.name for p in path.parent.iterdir()) == ["report.csv", "report.json"]


_TABLE_RADII = np.geomspace(1e-3, 1e3, 4097)
_CLOSED_FORMS = {
    "euclidean": EuclideanProfile(),
    "schwarzschild": SchwarzschildLikeProfile.from_mass(1.0),
    "schwarzschild-like": SchwarzschildLikeProfile(2.0, 1.0),
    "schwarzschild-n4": SchwarzschildLikeProfile.from_mass(1.0, n=4),
    "cylinder": CylinderProfile(),
    "trumpet": TrumpetProfile(3),
    "trumpet-n4": TrumpetProfile(4),
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


def test_two_column_table_is_the_cubic_spline_in_log_r(trumpet):
    # the oracle: scipy's CubicSpline of u in t = log r, with u' = U_t / r and u'' = (U_tt - U_t) / r^2, bit for bit
    from scipy.interpolate import CubicSpline

    radii = np.geomspace(1e-4, 1e4, 512)
    tab = TabulatedProfile(radii, trumpet.u(radii))
    spline = CubicSpline(np.log(radii), trumpet.u(radii))
    r = np.geomspace(1.1e-4, 9e3, 1001)
    t = np.log(r)
    assert tab.u(r).tobytes() == spline(t).tobytes()
    assert tab.du(r).tobytes() == (spline.derivative(1)(t) / r).tobytes()
    assert tab.d2u(r).tobytes() == ((spline.derivative(2)(t) - spline.derivative(1)(t)) / r**2).tobytes()


def test_three_column_table_reads_its_first_two(tmp_path, schw):
    # only exactly four columns carry u' and u''; any other width is (r, u)
    radii = np.geomspace(1e-2, 1e2, 64)
    path = tmp_path / "three.dat"
    path.write_text("".join(f"{r!r} {u!r} 7.0\n" for r, u in zip(radii.tolist(), schw.u(radii).tolist())))
    tab, plain = read_tabulated(path), TabulatedProfile(radii, schw.u(radii))
    r = np.geomspace(1.1e-2, 90.0, 257)
    for evaluator in ("u", "du", "d2u"):
        assert getattr(tab, evaluator)(r).tobytes() == getattr(plain, evaluator)(r).tobytes()


# Exported trumpets read back against the closed form, on off-node radii in [1e-9, 9e3]: the
# largest relative error of u and u', of u'' and of the flat Laplacian on the scale
# |u''| + (n-1)|u'|/r (R >= 0 is lap u <= 0).  Measured: u 4.0e-14, 1.1e-13, 2.1e-13;
# u' 1.7e-8, 3.6e-8, 5.5e-8; u'' 1.7e-6, 2.3e-6, 3.1e-6; lap u 3.6e-8, 3.6e-8, 4.0e-8 (n = 3, 4, 5).
# The (r, u) spline of 32,768 rows read u' 4.3e-9, 4.3e-5, 0.22 and u'' 3.6e-6, 2.4e-2, 72.
EXPORT_U_TOL = 5e-13
EXPORT_DU_TOL = 1e-7
EXPORT_D2U_TOL = 1e-5
EXPORT_LAPLACIAN_TOL = 1e-6


@pytest.mark.parametrize("n", [3, 4, 5])
def test_exported_trumpet_against_the_closed_form(tmp_path, n):
    exact = TrumpetProfile(n)
    path = tmp_path / "trumpet.dat"
    export_trumpet(exact, path)
    tab = read_tabulated(path, n=n)
    r = np.geomspace(1e-9, 9e3, 200_001)
    u, du, d2u = exact.u(r), exact.du(r), exact.d2u(r)
    scale = np.abs(d2u) + (n - 1) * np.abs(du) / r
    assert np.max(np.abs(tab.u(r) - u) / u) <= EXPORT_U_TOL
    assert np.max(np.abs(tab.du(r) - du) / np.abs(du)) <= EXPORT_DU_TOL
    assert np.max(np.abs(tab.d2u(r) - d2u) / scale) <= EXPORT_D2U_TOL
    assert np.max((tab.d2u(r) + (n - 1) * tab.du(r) / r) / scale) <= EXPORT_LAPLACIAN_TOL


@pytest.mark.parametrize("n", [3, 4, 5])
def test_exported_trumpet_as_a_two_column_reader_sees_it(tmp_path, n):
    # the first two columns alone are (r, u) at the export radii: u within 1e-12 of the closed form there
    exact = TrumpetProfile(n)
    path = tmp_path / "trumpet.dat"
    export_trumpet(exact, path)
    table = np.loadtxt(path, comments="#", ndmin=2)
    assert table.shape == (EXPORT_COUNT, 4)
    old = TabulatedProfile(table[:, 0], table[:, 1], n=n)
    radii = RadialGrid(EXPORT_R_LO, EXPORT_R_HI, EXPORT_COUNT).radii()
    assert np.max(np.abs(old.u(radii) - exact.u(radii)) / exact.u(radii)) <= 1e-12


def test_four_column_table_round_trip(tmp_path, schw):
    # write_tabulated's derivatives are read back as the Hermite columns: u is the written value at
    # every node but the last, which closes the last interval's quintic
    radii = np.geomspace(1e-2, 1e2, 64)
    path = tmp_path / "four.dat"
    write_tabulated(path, radii, schw.u(radii), header="h", derivatives=(schw.du(radii), schw.d2u(radii)))
    assert path.read_text().splitlines()[:2] == ["# h", "# r u du d2u"]
    tab = read_tabulated(path)
    assert tab.u(radii[:-1]).tobytes() == schw.u(radii[:-1]).tobytes()
    assert np.max(np.abs(tab.u(radii) / schw.u(radii) - 1)) <= 1e-15
    assert np.max(np.abs(tab.du(radii) / schw.du(radii) - 1)) <= 1e-15
    r = np.geomspace(1.1e-2, 90.0, 1001)
    assert np.max(np.abs(tab.u(r) / schw.u(r) - 1)) <= 1e-9


def test_tabulated_reader_rejects_single_column(tmp_path):
    path = tmp_path / "bad.dat"
    path.write_text("# comment\n1.0\n2.0\n3.0\n4.0\n")
    with pytest.raises(ValueError):
        read_tabulated(path)


@pytest.fixture
def memo(monkeypatch):
    """An empty table memo for one test, and a counter of the np.loadtxt calls made meanwhile."""
    monkeypatch.setattr(profiles, "_PARSED", {})
    parse = np.loadtxt
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return parse(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", counted)
    return SimpleNamespace(entries=lambda: profiles._PARSED, parses=lambda: len(calls), loadtxt=parse)


def _digest(path) -> bytes:
    return hashlib.sha256(path.read_bytes()).digest()


def _assert_memo_is_the_parse(memo, path):
    # the oracle: a fresh np.loadtxt of the file's bytes, compared bit for bit
    table = memo.entries()[_digest(path)]
    parsed = memo.loadtxt(path, comments="#", ndmin=2)
    assert table.dtype == parsed.dtype and table.shape == parsed.shape
    assert table.tobytes() == parsed.tobytes()


@pytest.mark.parametrize("n", [3, 4, 5])
def test_exported_trumpet_memo_is_the_parse(tmp_path, memo, n):
    path = tmp_path / "trumpet.dat"
    export_trumpet(TrumpetProfile(n), path)
    assert len(memo.entries()) == 1
    _assert_memo_is_the_parse(memo, path)
    tab = read_tabulated(path, n=n)
    assert memo.parses() == 0
    assert tab.radii.tobytes() == RadialGrid(EXPORT_R_LO, EXPORT_R_HI, EXPORT_COUNT).radii().tobytes()


_AWKWARD = [-0.0, 5e-324, 1e-300, 1.7976931348623157e308, 0.1]


@pytest.mark.parametrize(
    "radii, values",
    [
        (_AWKWARD, _AWKWARD[::-1]),
        (np.array(_AWKWARD), np.float32([0.1, 1 / 3, 1e-38, 3.4e38, 7.0])),  # float32 widened to float64
        ([0, -1, 2**53 + 1, 10**20, 3], _AWKWARD),  # Python ints
        (RadialGrid(1e-3, 1e3, 5), (x for x in _AWKWARD)),  # a grid's cached text, and a generator drawn once
    ],
    ids=["floats", "float32", "ints", "grid-generator"],
)
def test_written_memo_is_the_parse_bit_for_bit(tmp_path, memo, radii, values):
    path = tmp_path / "t.dat"
    write_tabulated(path, radii, values, header="awkward")
    _assert_memo_is_the_parse(memo, path)


def test_table_with_a_non_finite_entry_is_not_kept(tmp_path, memo):
    # every read refuses it, and repr keeps no NaN payload: it is parsed when read
    write_tabulated(tmp_path / "t.dat", [1.0, 2.0, 3.0, 4.0], [1.0, math.nan, 1.0, 1.0])
    assert memo.entries() == {}
    with pytest.raises(ValueError, match="tabulated values must be finite"):
        read_tabulated(tmp_path / "t.dat")
    assert memo.parses() == 1


def test_written_table_every_read_refuses_leaves_the_memo(tmp_path, memo):
    # finite, so kept when written; the profile refuses it on the first read, and the entry goes with the refusal
    write_tabulated(tmp_path / "t.dat", [1.0, 2.0, 3.0, 4.0], [1.0, -1.0, 1.0, 1.0])
    assert len(memo.entries()) == 1
    with pytest.raises(ValueError, match="tabulated conformal factors must be positive"):
        read_tabulated(tmp_path / "t.dat")
    assert memo.entries() == {} and memo.parses() == 0


def test_refused_table_leaves_the_memo_as_it_was(tmp_path, memo, schw):
    # a table the profile refuses is neither kept nor allowed to evict one it accepted
    radii = np.geomspace(1e-2, 1e2, 16)
    for k in range(profiles._PARSED_KEPT):
        write_tabulated(tmp_path / f"t{k}.dat", radii, (k + 1) * schw.u(radii))
    kept = [(digest, id(table)) for digest, table in memo.entries().items()]
    refused = tmp_path / "nan.dat"
    refused.write_text("1 1\n2 nan\n3 1.75\n4 1.875\n5 1.9\n")
    for parses in (1, 2):  # so the second read parses it again
        with pytest.raises(ValueError, match="tabulated values must be finite"):
            read_tabulated(refused)
        assert memo.parses() == parses
        assert [(digest, id(table)) for digest, table in memo.entries().items()] == kept  # same keys, order, arrays


def test_rewritten_table_is_parsed_again(tmp_path, memo, schw):
    radii = np.geomspace(1e-2, 1e2, 64)
    path = tmp_path / "p.dat"
    write_tabulated(path, radii, schw.u(radii))
    assert read_tabulated(path).values.tobytes() == schw.u(radii).tobytes()
    # new bytes at the same path: a miss, so the file is parsed and the profile follows it
    path.write_text("".join(f"{r!r} {2.0 * u!r}\n" for r, u in zip(radii.tolist(), schw.u(radii).tolist())))
    tab = read_tabulated(path)
    assert memo.parses() == 1
    assert tab.values.tobytes() == memo.loadtxt(path)[:, 1].tobytes() == (2.0 * schw.u(radii)).tobytes()
    write_tabulated(path, radii, 3.0 * schw.u(radii))
    assert read_tabulated(path).values.tobytes() == (3.0 * schw.u(radii)).tobytes()
    assert memo.parses() == 1


def test_same_bytes_at_a_second_path_hit_the_memo(tmp_path, memo, schw):
    radii = np.geomspace(1e-2, 1e2, 64)
    first, second = tmp_path / "a.dat", tmp_path / "b.dat"
    write_tabulated(first, radii, schw.u(radii))
    second.write_bytes(first.read_bytes())
    tab = read_tabulated(second)
    assert memo.parses() == 0
    assert tab.params()["source"] == str(second)
    assert tab.values.tobytes() == memo.loadtxt(second)[:, 1].tobytes()


def test_memo_arrays_and_the_profiles_built_on_them_are_read_only(tmp_path, memo, schw):
    radii = np.geomspace(1e-2, 1e2, 64)
    written, direct = tmp_path / "w.dat", tmp_path / "d.dat"
    write_tabulated(written, radii, schw.u(radii))
    direct.write_text("1 1\n2 1.5\n3 1.75\n4 1.875\n")
    for path in (written, direct):
        tab = read_tabulated(path)
        for array in (memo.entries()[_digest(path)], tab.radii, tab.values):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 1.0
    assert memo.parses() == 1  # the directly written table


def test_fifth_table_evicts_the_oldest(tmp_path, memo, schw):
    radii = np.geomspace(1e-2, 1e2, 16)
    paths = [tmp_path / f"t{k}.dat" for k in range(5)]
    for k, path in enumerate(paths[:4]):
        write_tabulated(path, radii, (k + 1) * schw.u(radii))
    read_tabulated(paths[0])  # a hit makes t0 the newest, so t1 is now the oldest
    write_tabulated(paths[4], radii, 5 * schw.u(radii))
    assert list(memo.entries()) == [_digest(paths[k]) for k in (2, 3, 0, 4)]
    assert memo.parses() == 0
    tab = read_tabulated(paths[1])  # evicted: parsed again, and t2 goes
    assert memo.parses() == 1 and tab.values.tobytes() == (2 * schw.u(radii)).tobytes()
    assert list(memo.entries()) == [_digest(paths[k]) for k in (3, 0, 4, 1)]


def test_table_not_in_utf8_is_refused_as_numpy_refuses_it(tmp_path, memo):
    # bytes are decoded as np.loadtxt(path) decodes them: strictly as UTF-8, so a Latin-1 comment is refused
    path = tmp_path / "latin1.dat"
    path.write_bytes(b"# caf\xe9\n1 1\n2 1.5\n3 1.75\n4 1.875\n")
    for _ in range(2):  # and nothing is kept
        with pytest.raises(UnicodeDecodeError):
            read_tabulated(path)
    with pytest.raises(UnicodeDecodeError):
        memo.loadtxt(path)
    assert memo.entries() == {}


def test_grid_validation():
    with pytest.raises(ValueError):
        RadialGrid(1.0, 0.5)
    with pytest.raises(ValueError):
        RadialGrid(1.0, 2.0, count=1)
    # the count's bound is checked at construction, before any array of that size is made
    assert RadialGrid(1.0, 2.0, count=MAX_GRID_COUNT).count == 2**20
    with pytest.raises(ValueError, match="exceeds 1048576"):
        RadialGrid(1.0, 2.0, count=MAX_GRID_COUNT + 1)


_SHARED_GRIDS = {
    "default": lambda: default_grid(SchwarzschildLikeProfile.from_mass(1.0)),
    "tail-window": lambda: RadialGrid(DEFAULT_GRID_HI / 10.0, DEFAULT_GRID_HI, 128),
    "export": lambda: RadialGrid(EXPORT_R_LO, EXPORT_R_HI, EXPORT_COUNT),
}


@pytest.mark.parametrize("make", _SHARED_GRIDS.values(), ids=_SHARED_GRIDS.keys())
def test_grid_radii_are_geomspace_shared_and_read_only(make):
    # sampled once per distinct grid: geomspace's bits, one array per grid, and no caller can write it
    grid = make()
    radii = grid.radii()
    assert radii.tobytes() == np.geomspace(grid.r_lo, grid.r_hi, grid.count).tobytes()
    assert make().radii() is radii
    with pytest.raises(ValueError):
        radii[0] = 1.0
    with pytest.raises(ValueError):
        radii *= 2.0
    other = RadialGrid(grid.r_lo, grid.r_hi, grid.count + 1).radii()
    assert other is not radii and not np.shares_memory(other, radii)
    # the r column of the tables written on this grid: the repr of each radius, one tuple per grid
    text = grid.radii_text()
    assert isinstance(text, tuple) and make().radii_text() is text
    assert text == tuple(repr(float(r)) for r in radii)
    assert np.array([float(t) for t in text]).tobytes() == radii.tobytes()


def test_default_grid_respects_domain(tmp_path, schw):
    grid = default_grid(schw)
    assert grid.r_lo == 1e-4 and grid.r_hi == 1e4 and grid.count == 4096
    radii = np.geomspace(1e-2, 1e2, 512)
    path = tmp_path / "p.dat"
    write_tabulated(path, radii, schw.u(radii))
    tab = read_tabulated(path)
    grid = default_grid(tab)
    assert grid.r_lo >= 1e-2 and grid.r_hi <= 1e2
    for lo, hi in [(1e5, 1e6), (1e-8, 1e-6)]:  # tables wholly above or below [1e-4, 1e4]
        radii = np.geomspace(lo, hi, 8)
        with pytest.raises(DomainError, match="default grid does not intersect domain"):
            default_grid(TabulatedProfile(radii, schw.u(radii)))


@pytest.mark.parametrize(
    "value, expected",
    [
        (np.bool_(True), True),
        (np.int64(7), 7),
        (np.float32(0.5), 0.5),
        (np.float32(np.nan), "nan"),
        (np.array(2.5), 2.5),
        (np.array(-np.inf), "-inf"),
        (np.array(3), 3),
    ],
)
def test_jsonable_numpy_scalars_and_0d_arrays(value, expected):
    out = jsonable({"v": [value]})["v"][0]
    assert out == expected and type(out) is type(expected)


def test_write_json_numpy_array(tmp_path):
    write_json(tmp_path / "report.json", {"a": np.arange(3), "b": np.array([[0.5, np.nan]])})
    assert json.loads((tmp_path / "report.json").read_text()) == {"a": [0, 1, 2], "b": [[0.5, "nan"]]}


_INNER_END_PROFILES = {
    "trumpet-n3": lambda: TrumpetProfile(3),
    "trumpet-n4": lambda: TrumpetProfile(4),
    "trumpet-n5": lambda: TrumpetProfile(5),
    "schwarzschild-like": lambda: SchwarzschildLikeProfile(2.0, 0.7),
    "schwarzschild-like-n4": lambda: SchwarzschildLikeProfile(1.0, 0.5, n=4),
    "schwarzschild-like-b0": lambda: SchwarzschildLikeProfile(1.5, 0.0),
    "euclidean": lambda: EuclideanProfile(),
    "cylinder": lambda: CylinderProfile(),
    "cylinder-n5": lambda: CylinderProfile(5),
    "scaled-trumpet": lambda: scaled(TrumpetProfile(3), 2.5),
}


@pytest.mark.parametrize("make", _INNER_END_PROFILES.values(), ids=_INNER_END_PROFILES.keys())
def test_inner_exponent_matches_evaluator(make):
    # u ~ c r^{-q} at the puncture: u r^q settles to a positive constant
    profile = make()
    assert profile.domain.lo == 0.0
    q = profile.inner_exponent
    near, nearer = (profile.u(r) * r**q for r in (1e-8, 1e-12))
    assert near > 0 and nearer > 0
    assert near == pytest.approx(nearer, rel=1e-3)
