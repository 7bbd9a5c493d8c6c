import math

import numpy as np
import pytest
import sympy as sp
from scipy.integrate import quad
from scipy.special import sici

from penroselab import (
    QuadratureError,
    SchwarzschildLikeProfile,
    TrumpetProfile,
    geodesic_distance,
    volume_between,
)
from penroselab.profiles import RadialProfile
from penroselab.quadrature import (
    _GL_MEAN,
    _GL_NODES,
    _GL_TAIL,
    MAX_DOUBLINGS,
    NodeTable,
    PanelAntiderivative,
    gauss_nodes,
    node_tails,
)

# One vectorised u call per sum, at most MAX_DOUBLINGS + 1 sums per piece, and at most
# three pieces (the trumpet's two breakpoints): the most any radial integral can take.
MAX_U_EVALS = 3 * (MAX_DOUBLINGS + 1)


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
def test_schwarzschild_volume_against_sympy(r_a, r_b, counting):
    profile = counting(SchwarzschildLikeProfile.from_mass(1.0))
    exact = sp.N(_SCHW_VOLUME.subs(_R, sp.Rational(r_b)) - _SCHW_VOLUME.subs(_R, sp.Rational(r_a)), 30)
    assert volume_between(profile, r_a, r_b) == pytest.approx(float(exact), rel=1e-12, abs=0)
    assert profile.calls <= MAX_U_EVALS


@pytest.mark.parametrize("r_a,r_b", [(0.09349036408190234, 7.491869864420243), (0.0099, 886.0)])
def test_trumpet_arc_across_the_blend(r_a, r_b, counting):
    # closed forms below r0 (u = r^{-1/2} + c1) and above 2 r0 (u = alpha0 + 1/r);
    # the blend between them by a tight scipy quad run of its own.
    trumpet = counting(TrumpetProfile(3, alpha=2.3836749032336413))
    base = trumpet.base
    r0, c1, a0 = base.r0, base.c1, base.alpha0
    inner = math.log(r0 / r_a) + 4 * c1 * (math.sqrt(r0) - math.sqrt(r_a)) + c1**2 * (r0 - r_a)
    blend, _ = quad(lambda r: base.u(r) ** 2, r0, 2 * r0, epsabs=0, epsrel=1e-13, limit=200)
    outer = a0**2 * (r_b - 2 * r0) + 2 * a0 * math.log(r_b / (2 * r0)) + 1 / (2 * r0) - 1 / r_b
    assert geodesic_distance(trumpet, r_a, r_b) == pytest.approx(inner + blend + outer, rel=1e-12, abs=0)
    assert trumpet.calls <= MAX_U_EVALS


class WigglyProfile(RadialProfile):
    """u = 1.5 + sin(1e4 r): about 14,000 oscillations, more than 2^12 times three panels resolve."""

    kind = "wiggly"

    def _u(self, r):
        return 1.5 + np.sin(1e4 * r)


def test_doubling_cap_raises(counting):
    # [1, 10] is 2.3 e-folds, so three first panels, doubled 12 times to 12288
    profile = counting(WigglyProfile())
    with pytest.raises(QuadratureError, match=r"^r in \[1, 10\]: no two sums within 1e-13 in 12 doublings$"):
        geodesic_distance(profile, 1.0, 10.0)
    assert profile.calls == MAX_DOUBLINGS + 1


def test_overflowing_sum_is_never_returned():
    # u = r^{-0.495} + 1 from the puncture has a finite arc length, but on fine panels in
    # s = (r / 2)^{0.01} the nodes' r = 2 s^100 underflows, u^2 overflows and a sum reads
    # inf: the integral is refused, or else the closed form, never inf
    class OffsetPower(PowerProfile):
        def _u(self, r):
            return r ** (-0.5 * self.p) + 1.0

    q = 0.495
    exact = sum(math.comb(2, j) * 2.0 ** (1 - j * q) / (1 - j * q) for j in range(3))
    with np.errstate(all="ignore"):
        try:
            value = geodesic_distance(OffsetPower(2 * q), 0.0, 2.0)
        except QuadratureError:
            return
    assert value == pytest.approx(exact, rel=1e-10, abs=0)


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


def test_panel_antiderivative_float_is_the_array_query():
    # one query path: a float and a one-element array give the same bits
    f = lambda x: np.sin(x) / x
    edges = np.geomspace(0.1, 20.0, 257)
    anti = PanelAntiderivative(f, edges)
    for x in (0.05, 0.1, 0.37, float(edges[100]), 5.0, 19.99, 20.0, 25.0):
        assert anti(x) == anti(np.array([x]))[0]


@pytest.mark.parametrize("m", range(8))
def test_tail_matrix_exact_for_degree_seven(m):
    # row j integrates from node j to 1: exact for every polynomial of degree <= 7
    x = _GL_NODES
    exact = (1 - x ** (m + 1)) / (m + 1)
    assert np.abs(_GL_TAIL @ x**m - exact).max() <= 1e-15


@pytest.mark.parametrize("m", range(8))
def test_mean_matrix_exact_for_degree_seven(m):
    # the mean of t^m over [t, 1] is (1 + t + ... + t^m) / (m + 1)
    exact = np.where(np.arange(8) <= m, 1.0 / (m + 1), 0.0)
    assert np.abs(_GL_MEAN @ _GL_NODES**m - exact).max() <= 1e-14


def test_node_table_matches_quad():
    f = lambda x: np.sin(x) / x
    edges = np.geomspace(0.1, 20.0, 257)
    nodes, half = gauss_nodes(edges[:-1], edges[1:])
    table = NodeTable(edges, f(nodes), half)
    xs = np.array([0.1, 0.1 * (1 + 1e-9), 0.37, 5.0, 19.99, 20.0 * (1 - 1e-12), 20.0])
    ref = sici(20.0)[0] - sici(xs)[0]  # the sine integral: absolute accuracy about 1e-16 near x = 20
    for x, value, exact in zip(xs, table(xs), ref):
        assert value == table(float(x)) == pytest.approx(exact, rel=1e-13, abs=1e-15)


def test_tail_matrix_rows_sum_to_remaining_length():
    assert np.abs(_GL_TAIL.sum(axis=1) - (1 - _GL_NODES)).max() <= 1e-15


def test_node_and_edge_suffix_match_quad():
    f = lambda x: np.sin(x) / x
    edges = np.geomspace(0.1, 20.0, 257)
    nodes, half = gauss_nodes(edges[:-1], edges[1:])
    vals = f(nodes)
    at_edges = NodeTable(edges, vals, half).suffix
    at_nodes = node_tails(vals, half) + at_edges[1:, None]
    assert at_nodes.shape == nodes.shape and at_edges.shape == edges.shape
    assert np.array_equal(at_edges, PanelAntiderivative(f, edges).suffix)
    for i, j in ((0, 0), (3, 5), (100, 7), (255, 2)):
        ref, _ = quad(f, nodes[i, j], 20.0, limit=200, epsabs=0, epsrel=1e-13)
        assert at_nodes[i, j] == pytest.approx(ref, rel=1e-12, abs=0)


def test_node_table_is_the_antiderivative():
    # same edge sums as PanelAntiderivative, and each edge query returns its own sum
    f = lambda x: np.sin(x) / x
    edges = np.geomspace(0.1, 20.0, 257)
    nodes, half = gauss_nodes(edges[:-1], edges[1:])
    table = NodeTable(edges, f(nodes), half)
    assert np.array_equal(table.suffix, PanelAntiderivative(f, edges).suffix)
    assert np.array_equal(table(edges), table.suffix)
    assert [table(float(x)) for x in edges] == table.suffix.tolist()
