import gc
import math
import weakref

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from penroselab import (
    BarrierError,
    SchwarzschildLikeProfile,
    TabulatedProfile,
    DegenerateMinimizerError,
    UnsupportedDimensionError,
    adm_hawking_check,
    hawking_mass,
    DomainError,
    EpsilonTooLargeError,
    OutOfCollectionError,
    ParameterError,
    PrescribedMeanCurvature,
    build_problem,
    choose_beta,
    diameter_report,
    dist_to_anchor,
    geodesic_distance,
    halving_schedule,
    horizon_sequence,
    minimize,
    rigidity_iteration,
    select_beta,
    sphere_area,
    sphere_mean_curvature,
)
from penroselab.bubbles import MuBubbleProblem, _AnchorTable, _arccoth
from penroselab.masses import _root, penrose_check
from penroselab.profiles import RadialProfile
from penroselab.quadrature import gauss_nodes
from penroselab.reports import jsonable

from conftest import ode_residual


def coth(x):
    return 1.0 / math.tanh(x)


class TwoNecks(RadialProfile):
    """u = sqrt((1 + r^-2)/2) exp(-(s/2)(1 + tanh((log r - t1)/0.3))).

    H < 0 where d log u / d log r < -1/2: inside the Schwarzschild-type neck
    at r = 1, and again where log u steps down by s around log r = t1.
    """

    kind = "two-necks"
    inner_exponent = 1.0

    def __init__(self, s, t1):
        super().__init__(3)
        self.s, self.t1 = s, t1

    def _u(self, r):
        return np.sqrt(0.5 + 0.5 / r**2) * np.exp(-0.5 * self.s * (1 + np.tanh((np.log(r) - self.t1) / 0.3)))

    def _du(self, r):
        log_slope = -1 / (1 + r**2) - self.s / (0.6 * np.cosh((np.log(r) - self.t1) / 0.3) ** 2)
        return self._u(r) * log_slope / r


class Power30(RadialProfile):
    """u = r^30: H(S_1) = 122, and the volume weight 4 pi r^182 is too steep for 1024 panels."""

    kind = "power"
    inner_exponent = -30.0

    def _u(self, r):
        return r**30

    def _du(self, r):
        return 30 * r**29


def schwarzschild_arc(mass, r0):
    """Arc length from S_r to S_{r0} for u = 1 + c/r, c = m/2: the integral of u^2 in closed form."""
    c = 0.5 * mass
    return lambda r: (r0 - r) + 2 * c * math.log(r0 / r) + c * c * (1 / r - 1 / r0)


def schwarzschild_mean_curvature(mass, r):
    """H(S_r) = (2/u^2)(1/r - 2c/(r^2 u)) for u = 1 + c/r, c = m/2."""
    u = 1 + 0.5 * mass / r
    return 2 / u**2 * (1 / r - mass / (r * r * u))


def schwarzschild_root(mass, prob):
    """The minimizer in closed form: the root of g = H - h(-lip arc) outside the horizon c = m/2.

    The arc length runs to the problem's own anchor.
    """
    c, r0 = 0.5 * mass, prob.anchor_radius
    arc = schwarzschild_arc(mass, r0)

    def g(r):
        return schwarzschild_mean_curvature(mass, r) - prob.h(-prob.lip_factor * arc(r))

    radii = np.geomspace(c * (1 + 1e-9), r0, 2001)
    signs = np.sign([g(r) for r in radii])
    (i,) = np.nonzero((signs[:-1] < 0) & (signs[1:] > 0))[0]
    return _root(g, radii[i], radii[i + 1])


class TestPrescribedFamily:
    def test_value_example(self):
        h = PrescribedMeanCurvature(0.1, 2.0)
        assert h(0.0) == pytest.approx(0.1 * coth(2.0), rel=1e-15)

    def test_large_beta_limit(self):
        h = PrescribedMeanCurvature(0.1, 50.0)
        assert abs(h(1.0) - 0.1) <= 1e-8

    def test_blowup_at_barrier(self):
        h = PrescribedMeanCurvature(0.1, 2.0)
        values = [h(h.barrier * (1 - 10.0**-k)) for k in range(1, 8)]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert values[-1] > 1e5

    def test_barrier_error(self):
        h = PrescribedMeanCurvature(0.1, 2.0)
        with pytest.raises(BarrierError):
            h(h.barrier)
        with pytest.raises(BarrierError):
            h(h.barrier - 1.0)
        # the scalar path (float, np.float64) refuses exactly where the array path does
        for t in (h.barrier, math.nextafter(h.barrier, -math.inf), -1e300):
            for arg in (float(t), np.float64(t), np.array([t])):
                with pytest.raises(BarrierError):
                    h(arg)

    @pytest.mark.parametrize("eps", [0.0, -0.1, math.nan])
    def test_nonpositive_epsilon_refused(self, eps):
        with pytest.raises(ParameterError, match="epsilon must be positive"):
            PrescribedMeanCurvature(eps, 2.0)

    @pytest.mark.parametrize("eps, beta", [(0.1, 2.0), (0.05, 0.3), (1e-3, 7.5), (0.7, 0.02)])
    def test_float_argument_equals_array_evaluation(self, eps, beta):
        # the scalar path keeps numpy's tanh: math.tanh differs from it in the last bits
        h = PrescribedMeanCurvature(eps, beta)
        ts = h.barrier * np.random.default_rng(3).uniform(-30.0, 1.0 - 1e-9, 2000)
        values = h(ts)
        assert np.array_equal([h(float(t)) for t in ts], values)
        assert np.array_equal([h(np.float64(t)) for t in ts], values)
        assert type(h(float(ts[0]))) is float

    def test_strictly_decreasing_above_epsilon(self):
        h = PrescribedMeanCurvature(0.3, 1.5)
        ts = np.linspace(h.barrier * 0.9, 20.0, 200)
        vals = np.array([h(t) for t in ts])
        assert np.all(np.diff(vals) < 0)
        assert np.all(vals > 0.3)

    @pytest.mark.parametrize("eps,beta,t", [(0.1, 2.0, 0.0), (1.0, 1.0, 1.0), (0.5, 3.0, -1.0)])
    def test_ode_residual_examples(self, eps, beta, t):
        h = PrescribedMeanCurvature(eps, beta)
        assert abs(ode_residual(h, t)) <= 1e-12 * (1 + h(t) ** 2)

    @given(
        eps=st.floats(min_value=1e-3, max_value=1.0),
        beta=st.floats(min_value=0.05, max_value=10.0),
        frac=st.floats(min_value=-0.95, max_value=40.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_ode_residual_property(self, eps, beta, frac):
        h = PrescribedMeanCurvature(eps, beta)
        t = -frac * h.barrier if frac < 0 else frac
        residual = ode_residual(h, t)
        assert abs(residual) <= 1e-12 * (1 + h(t) ** 2)


class TestBetaSelection:
    def test_choose_beta_closed_form(self, euclid):
        # H(S_2) = 1 in flat space, so the least admissible beta is arccoth(9)
        beta = choose_beta(euclid, 2.0, 0.1)
        assert beta == pytest.approx(2 * math.atanh(1 / 9.0), rel=1e-15)
        assert beta == pytest.approx(0.22314, abs=1e-4)

    def test_choose_beta_half(self, euclid):
        beta = choose_beta(euclid, 2.0, 0.5)
        assert beta == pytest.approx(2 * math.atanh(1 / 1.8), rel=1e-15)
        h = PrescribedMeanCurvature(0.5, beta)
        assert h(0.0) <= 0.9

    def test_choose_beta_rejects_large_epsilon(self, euclid):
        with pytest.raises(EpsilonTooLargeError):
            choose_beta(euclid, 2.0, 1.0)
        with pytest.raises(EpsilonTooLargeError):
            choose_beta(euclid, 2.0, 0.95)

    def test_select_beta_floors_at_depth_bound(self, schw):
        beta = select_beta(schw, 2.0, 0.01)
        a0 = sphere_area(schw, 2.0)
        expected = _arccoth(1.8) + 0.75 * a0 / (16 * math.pi) + math.pi
        assert beta == pytest.approx(expected, rel=1e-9)


class TestProblemSetup:
    def test_barrier_condition_enforced(self, schw):
        h = PrescribedMeanCurvature(0.1, 0.01)  # h(0) huge
        with pytest.raises(BarrierError, match="at the anchor r = 2$"):
            MuBubbleProblem(schw, 2.0, h)

    def test_dist_to_anchor(self, euclid, schw, trumpet):
        lip = 1 - 1e-6
        prob = build_problem(euclid, 1.0, 0.1, beta=2.0)
        assert dist_to_anchor(prob, 1.0) == 0.0
        assert dist_to_anchor(prob, 0.5) == pytest.approx(-lip * 0.5, abs=1e-10)
        tprob = build_problem(trumpet, 4.0, 0.02)
        d = [dist_to_anchor(tprob, r) for r in (1e-2, 1e-4, 1e-6)]
        assert d[0] > d[1] > d[2]
        assert d[2] < -30.0

    def test_functional_at_anchor_is_area(self, schw):
        prob = build_problem(schw, 2.0, 0.1)
        assert prob.functional(2.0) == pytest.approx(sphere_area(schw, 2.0), rel=1e-12)

    def test_functional_euclid_against_quad_oracle(self, euclid):
        prob = build_problem(euclid, 1.0, 0.1, beta=2.0)
        lip = prob.lip_factor
        h = prob.h

        def integrand(r):
            return h(-lip * (1.0 - r)) * 4 * math.pi * r**2

        bulk, _ = quad(integrand, 0.9, 1.0, epsabs=1e-13)
        expected = 4 * math.pi * 0.81 + bulk
        value = prob.functional(0.9)
        assert value == pytest.approx(expected, rel=1e-9)
        assert value >= 4 * math.pi * 0.81

    @pytest.mark.parametrize("frac", [0.05, 0.3, 0.6, 0.9])
    def test_functional_schwarzschild_against_closed_forms(self, schw, frac):
        # u = 1 + 1/(2r): closed-form area and arc length, the bulk term by QUADPACK
        r0 = 2.0
        prob = build_problem(schw, r0, 0.05)
        lip, h = prob.lip_factor, prob.h
        r_b = prob.barrier_radius
        rho = r_b * (r0 / r_b) ** frac

        arc = schwarzschild_arc(1.0, r0)

        def integrand(r):
            return h(-lip * arc(r)) * 4 * math.pi * (1 + 0.5 / r) ** 6 * r**2

        bulk, _ = quad(integrand, rho, r0, epsabs=0, epsrel=1e-13, limit=200)
        area = 4 * math.pi * (1 + 0.5 / rho) ** 4 * rho**2
        assert prob.functional(rho) == pytest.approx(area + bulk, rel=1e-9, abs=0)

    @pytest.mark.parametrize("eps", [0.05, 0.01])
    @pytest.mark.parametrize("ratio", [1.0005, 1.001, 1.002, "band-top-", "band-top+"])
    def test_functional_near_barrier_against_closed_forms(self, schw, eps, ratio):
        # within a few per mille of the barrier radius h(rho) varies by orders of
        # magnitude; QUADPACK on 60 geometric pieces against the graded panels.
        # The last two radii lie just below and just above the band's top edge,
        # the seam between the graded panels and the bulk table
        r0 = 2.0
        prob = build_problem(schw, r0, eps, beta=choose_beta(schw, r0, eps))
        lip, h = prob.lip_factor, prob.h
        arc = schwarzschild_arc(1.0, r0)
        top = float(prob._table.edges[prob._graded_from])
        if isinstance(ratio, float):
            rho = ratio * prob.barrier_radius
        else:
            rho = top * (1 + 1e-9 if ratio.endswith("+") else 1 - 1e-9)
        assert (prob._bulk_tables(rho)[1] is None) == (ratio == "band-top+")

        def integrand(r):
            return h(-lip * arc(r)) * 4 * math.pi * (1 + 0.5 / r) ** 6 * r**2

        pieces = np.geomspace(rho, r0, 61)
        bulk = math.fsum(
            quad(integrand, a, b, epsabs=0, epsrel=1e-13, limit=200)[0] for a, b in zip(pieces[:-1], pieces[1:])
        )
        area = 4 * math.pi * (1 + 0.5 / rho) ** 4 * rho**2
        assert prob.functional(rho) == pytest.approx(area + bulk, rel=1e-10, abs=0)

    @pytest.mark.parametrize("kind, r0, eps", [("schw", 2.0, 0.1), ("schw", 2.0, 0.05), ("trumpet", 3.0, 0.02), ("trumpet", 5.0, 0.02)])
    def test_graded_band_edges_return_their_sums(self, request, kind, r0, eps):
        # the band's sums and its queries take rho from the same dist, so a
        # query at each of its fresh edges is the stored sum bit for bit
        profile = request.getfixturevalue(kind)
        prob = build_problem(profile, r0, eps, beta=choose_beta(profile, r0, eps))
        _, band = prob._bulk_tables(prob.barrier_radius)
        assert [band(x) for x in band.edges.tolist()] == band.suffix.tolist()
        assert np.array_equal(band(band.edges), band.suffix)

    def test_bulk_extends_down_without_moving_values(self, schw):
        # queries from the anchor down read bulk tables from ever lower panels; each
        # value is the one a problem first read at that radius gives, bit for bit
        table = _AnchorTable(schw, 2.0)
        prob, fresh = (build_problem(schw, 2.0, 0.05, table=table) for _ in range(2))
        radii = np.geomspace(2.0, (1 + 1e-3) * prob._table.edges[prob._graded_from], 12)  # just above the band
        before = [prob.functional(float(r)) for r in radii]
        bulk, graded = prob._bulk_tables(float(radii[-1]))
        assert bulk.edges[0] <= radii[-1] < bulk.edges[1] and graded is None
        assert before == [fresh.functional(float(r)) for r in radii[::-1]][::-1]

    def test_barrier_radius_within_two_percent_of_the_anchor(self):
        # u = r^30: H(S_1) = 122 and rho falls steeply inside r0 = 1, so a small
        # beta puts the barrier radius within two percent of r0, less than three
        # of the table's 4096 panels, and the graded panels end at the anchor
        # itself, with no bulk table above them.  Closed forms: arc (1 - r^61)/61,
        # area 4 pi r^122
        prob = MuBubbleProblem(Power30(), 1.0, PrescribedMeanCurvature(1.0, 0.0085))
        lip, h = prob.lip_factor, prob.h
        r_b = prob.barrier_radius
        assert 1 / 1.02 < r_b < 1.0
        assert prob._bulk_tables(r_b)[0] is None
        rho = 1.0005 * r_b
        def integrand(r):
            return h(-lip * (1 - r**61) / 61) * 4 * math.pi * r**182

        bulk, _ = quad(integrand, rho, 1.0, epsabs=0, epsrel=1e-13)
        assert prob.functional(rho) == pytest.approx(4 * math.pi * rho**122 + bulk, rel=1e-10, abs=0)
        sol = minimize(prob)
        assert sol.second_order_ok
        # every root lies in the graded band, so minimize reads the functional there
        bulk, _ = quad(integrand, sol.rho_star, 1.0, epsabs=0, epsrel=1e-13)
        exact = 4 * math.pi * sol.rho_star**122 + bulk
        assert sol.functional_value == pytest.approx(exact, rel=1e-10, abs=0)

    @pytest.mark.parametrize("eps", [0.2, 0.05, 0.01, 0.001])
    def test_barrier_radius_against_closed_form(self, schw, eps):
        # the table inversion lands where the closed-form rho meets the backed-off barrier
        r0 = 2.0
        prob = build_problem(schw, r0, eps)
        r_b = prob.barrier_radius
        arc = schwarzschild_arc(1.0, r0)(r_b)
        target = prob.h.barrier * (1 - 1e-6)
        assert -prob.lip_factor * arc == pytest.approx(target, rel=1e-13, abs=0)

    def test_functional_dominates_area(self, schw):
        prob = build_problem(schw, 2.0, 0.1)
        for rho in (0.6, 1.0, 1.5, 2.0):
            assert prob.functional(rho) >= sphere_area(schw, rho) - 1e-12

    def test_functional_out_of_collection(self, schw):
        prob = build_problem(schw, 2.0, 0.1)
        with pytest.raises(OutOfCollectionError):
            prob.functional(2.5)
        # outside the anchor: the balls of the collection end at r0
        with pytest.raises(OutOfCollectionError, match=r"^r = 2.5 lies outside \[2e-15, r0 = 2.0\]$"):
            dist_to_anchor(prob, 2.5)
        # below the anchor table's floor 1e-15 r0
        with pytest.raises(OutOfCollectionError):
            prob.functional(1e-16)
        with pytest.raises(OutOfCollectionError):
            dist_to_anchor(prob, 1e-16)

    def test_functional_below_barrier(self, schw):
        prob = build_problem(schw, 2.0, 0.1, beta=choose_beta(schw, 2.0, 0.1))
        r_b = prob.barrier_radius
        with pytest.raises(BarrierError):
            prob.functional(r_b * 0.5)

    def test_functional_blows_up_at_barrier(self, schw):
        # moderate beta keeps the barrier inside the domain
        prob = build_problem(schw, 2.0, 0.1, beta=choose_beta(schw, 2.0, 0.1))
        assert prob.barrier_radius is not None
        # the graded band's stored sum at the barrier radius (its fresh first
        # panel and up) plus the bulk above the band is what a query there
        # integrates afresh
        r_b = prob.barrier_radius
        at_barrier = prob.functional(r_b)
        bulk, graded = prob._bulk_tables(r_b)
        assert prob._bulk_tables(graded.edges[-1])[1] is None  # the band is read only below its top
        stored = graded.suffix[0] + bulk(graded.edges[-1])
        assert at_barrier == pytest.approx(sphere_area(schw, r_b) + stored, rel=1e-12)
        rhos = r_b * (1 + 10.0 ** -np.arange(1, 6))
        vals = [prob.functional(r) for r in rhos]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert vals[-1] > 10 * sphere_area(schw, 2.0)


class TestMinimize:
    @pytest.mark.parametrize("eps", [0.2, 0.1, 0.05])
    def test_schwarzschild_el_identity(self, schw, eps):
        sol = minimize(build_problem(schw, 2.0, eps))
        assert sol.el_residual <= 1e-12
        assert 0 < sol.mean_curvature < 2 * eps
        assert 16 * math.pi - 1e-9 <= sol.area <= sphere_area(schw, 2.0)
        assert sol.second_order_ok
        assert sol.functional_value <= sphere_area(schw, 2.0)

    @pytest.mark.parametrize("mass", [1.0, 1.7])
    @pytest.mark.parametrize("eps", [0.2, 0.1, 0.05, 0.01, 1e-3])
    def test_schwarzschild_against_closed_form_root(self, mass, eps):
        # u = 1 + c/r: H, the arc length and the area in closed form
        r0, c = 2.0, 0.5 * mass
        profile = SchwarzschildLikeProfile.from_mass(mass)
        if not eps < 0.9 * schwarzschild_mean_curvature(mass, r0):
            with pytest.raises(EpsilonTooLargeError):
                build_problem(profile, r0, eps)
            return
        prob = build_problem(profile, r0, eps)
        sol = minimize(prob)
        root = schwarzschild_root(mass, prob)
        assert sol.rho_star == pytest.approx(root, rel=4e-15, abs=0)
        assert sol.area == pytest.approx(4 * math.pi * (1 + c / root) ** 4 * root**2, rel=2e-15, abs=0)

    @pytest.mark.parametrize(
        "case",
        [("schw", 2.0, 0.2), ("schw", 2.0, 0.05), ("schw", 2.0, 1e-3), ("trumpet", 3.0, 0.05),
         ("trumpet", 4.4, 1e-3)],
    )
    def test_bracket_signs_match_scalar_first_variation(self, schw, trumpet, case):
        # g at the problem's edges comes from one vector call, and Brent's
        # method is handed those values at a bracket's ends; the scalar g it
        # evaluates inside agrees in sign at the ends on these cases
        kind, r0, eps = case
        prob = build_problem(schw if kind == "schw" else trumpet, r0, eps)
        brackets = np.nonzero((prob.g[:-1] < 0) & (prob.g[1:] >= 0))[0]
        assert len(brackets)
        for i in brackets:
            for j in (i, i + 1):
                assert np.sign(prob.first_variation(float(prob.edges[j]))) == np.sign(prob.g[j])

    @pytest.mark.parametrize("t1", [1.0, 1.5])
    def test_two_necks_keep_the_least_functional(self, t1):
        # g changes sign from - to + once past each neck; the inner root wins
        # for t1 = 1.5, the outer one for t1 = 1.0.  Oracle: the functional
        # on 400 radii across both
        prob = build_problem(TwoNecks(0.5, t1), 30.0, 0.01)
        assert np.count_nonzero((prob.g[:-1] < 0) & (prob.g[1:] >= 0)) == 2
        sol = minimize(prob)
        radii = np.geomspace(0.9, 20.0, 400)
        values = [prob.functional(r) for r in radii]
        i = int(np.argmin(values))
        assert sol.functional_value <= values[i] * (1 + 1e-14)
        assert radii[i - 1] <= sol.rho_star <= radii[i + 1]

    def test_minimizer_slightly_outside_horizon(self, schw):
        sol = minimize(build_problem(schw, 2.0, 0.05))
        assert 0.5 < sol.rho_star < 0.7
        assert 0.05 < sol.mean_curvature < 0.1

    @pytest.mark.parametrize("r0", [4.4, 6.0])
    def test_trumpet_far_anchor_first_variation(self, trumpet, r0):
        # the minimizer sits at rho* ~ 5e-8, eight decades inside the anchor;
        # rho(rho*) is recomputed by QUADPACK as an arc length in log r
        prob = build_problem(trumpet, r0, 1e-3)
        sol = minimize(prob)
        assert 0 < sol.rho_star < 1e-6

        def integrand(t):
            return trumpet.u(math.exp(t)) ** 2 * math.exp(t)

        kinks = [math.log(trumpet.r0), math.log(2 * trumpet.r0)]
        arc, _ = quad(
            integrand, math.log(sol.rho_star), math.log(r0), points=kinks, epsabs=0, epsrel=1e-13, limit=200
        )
        h = prob.h(-prob.lip_factor * arc)
        assert sphere_mean_curvature(trumpet, sol.rho_star) == pytest.approx(h, rel=1e-9)
        assert sol.second_order_ok

    def test_profile_work_bound(self, schw, counting):
        # one anchor table, 1024 x 8 u points for both the arc length and the
        # bulk weights, then g at its edges, the graded panels and root finds
        profile = counting(schw)
        minimize(build_problem(profile, 2.0, 0.05))
        assert profile.points <= 20_000

    def test_schedule_work_bounds(self, schw, counting, monkeypatch):
        # each schedule builds one anchor table (1024 x 8 points): the horizon
        # schedule shares it across its 9 steps, and each re-anchored rigidity
        # step cuts it, evaluating u at the 8 nodes of one partial panel.  rho
        # comes from the table's node weights, so Brent's iterates on the
        # barrier evaluate no u, and those on g only H's.  The bulk term
        # weights h only on the anchor panels from the lowest root up
        h_points = []
        call = PrescribedMeanCurvature.__call__
        monkeypatch.setattr(PrescribedMeanCurvature, "__call__", lambda h, t: h_points.append(np.size(t)) or call(h, t))
        profile = counting(schw)
        horizon_sequence(profile, 2.0)
        assert profile.points <= 20_000 and profile.calls <= 150
        assert sum(h_points) <= 8_000
        h_points.clear()
        profile = counting(schw)
        rigidity_iteration(profile, 2.0, 0.1, 1.5)
        assert profile.points <= 20_000 and profile.calls <= 200
        assert sum(h_points) <= 3_000

    def test_minimize_integrates_no_fresh_bulk_panel(self, schw, counting):
        # past the table's one 1024 x 8 call, every u call minimize makes is H or
        # the area at one radius: the bulk term comes from the table's node weights
        profile = counting(schw)
        prob = build_problem(profile, 2.0, 0.05)
        calls, points = profile.calls, profile.points
        minimize(prob)
        assert profile.calls > calls
        assert profile.points - points == profile.calls - calls

    def test_dist_evaluates_no_u(self, schw, counting):
        profile = counting(schw)
        prob = build_problem(profile, 2.0, 0.05)
        calls = profile.calls
        prob.dist(1.3)
        prob.dist(np.geomspace(0.6, 2.0, 50))
        assert profile.calls == calls

    def test_problem_is_a_plain_value(self, schw):
        # every read builds its bulk tables afresh and keeps none: no attribute changes
        prob = build_problem(schw, 2.0, 0.1, beta=choose_beta(schw, 2.0, 0.1))
        before = dict(vars(prob))
        minimize(prob)
        prob.functional(prob.barrier_radius)  # reads the graded band too
        assert vars(prob).keys() == before.keys()
        assert all(vars(prob)[key] is value for key, value in before.items())

    def test_functional_at_the_anchor_is_its_area(self, schw, trumpet):
        # the bulk integral over [r0, r0] is empty, so minimize compares its roots with the area itself
        for profile, r0 in ((schw, 2.0), (trumpet, 3.0)):
            assert build_problem(profile, r0, 0.02).functional(r0) == sphere_area(profile, r0)

    def test_solution_report_leaves_out_its_problem(self, schw):
        sol = minimize(build_problem(schw, 2.0, 0.05))
        record = jsonable(sol)
        assert "problem" not in record
        assert record == {k: getattr(sol, k) for k in vars(sol) if k != "problem"}

    def test_workspace_freed_without_cyclic_gc(self, schw):
        gc.disable()
        try:
            sol = minimize(build_problem(schw, 2.0, 0.05))
            ref = weakref.ref(sol.problem)
            del sol
            assert ref() is None
            result = horizon_sequence(schw, 2.0, [0.1, 0.05])
            refs = [weakref.ref(s.solution.problem) for s in result.steps]
            del result
            assert all(r() is None for r in refs)
            trace = rigidity_iteration(schw, 2.0, 0.1, 1.5)  # its steps share one table
            refs = [weakref.ref(s.solution.problem) for s in trace.steps]
            del trace
            assert len(refs) >= 3 and all(r() is None for r in refs)
        finally:
            gc.enable()

    def test_euclid_degenerate(self, euclid):
        prob = build_problem(euclid, 1.0, 0.1, beta=2.0)
        with pytest.raises(DegenerateMinimizerError):
            minimize(prob)

    def test_root_within_rounding_of_the_anchor_is_not_below_it(self, schw):
        # h(0) one part in 1e15 below H(S_1): H - h changes sign a rounding step inside the anchor,
        # where the functional cannot read below the anchor's area
        h0 = float(sphere_mean_curvature(schw, 1.0))
        prob = build_problem(schw, 1.0, 0.01, beta=_arccoth(h0 * (1 - 1e-15) / 0.01))
        with pytest.raises(DegenerateMinimizerError, match="minimized at the anchor sphere; beta too small"):
            minimize(prob)

    def test_bulb_behind_a_neck_is_no_interior_bubble(self):
        # u = 1 + exp(-((r - 1)/0.1)^2) has a neck outside a bulb around a flat core: H - h goes
        # from - to + at the neck, but with no barrier radius the functional reads lower at the inner edge
        radii = np.geomspace(1e-4, 1e2, 8192)
        bulb = TabulatedProfile(radii, 1 + np.exp(-(((radii - 1.0) / 0.1) ** 2)))
        prob = build_problem(bulb, 3.0, 0.01, beta=0.5)
        assert prob.barrier_radius is None and np.any((prob.g[:-1] < 0) & (prob.g[1:] >= 0))
        with pytest.raises(DegenerateMinimizerError, match="minimized at the inner edge; no interior bubble"):
            minimize(prob)

    def test_nesting_in_epsilon(self, schw):
        rhos = [minimize(build_problem(schw, 2.0, eps)).rho_star for eps in (0.2, 0.1, 0.05, 0.02)]
        assert all(b < a for a, b in zip(rhos, rhos[1:]))


class TestDiameter:
    def test_schwarzschild_report(self, schw):
        sol = minimize(build_problem(schw, 2.0, 0.05))
        rep = diameter_report(sol)
        expected = math.pi * schw.u(sol.rho_star) ** 2 * sol.rho_star
        assert rep.intrinsic_diameter == pytest.approx(expected, rel=1e-12)
        assert 6.2 < rep.intrinsic_diameter < 6.5
        assert rep.bound == pytest.approx(4 * math.pi / 0.15, rel=1e-12)
        assert rep.within_bound

    def test_bound_formula(self, schw):
        sol = minimize(build_problem(schw, 2.0, 0.1))
        assert diameter_report(sol).bound == pytest.approx(4 * math.pi / (3 * 0.1), rel=1e-12)


class TestSchedules:
    def test_halving_schedule(self):
        sched = halving_schedule()
        assert sched[0] == 0.2 and sched[-1] == 1e-3
        assert all(b <= a for a, b in zip(sched, sched[1:]))

    def test_horizon_sequence_schwarzschild(self, schw):
        result = horizon_sequence(schw, 2.0)
        assert all(s.error is None for s in result.steps)
        bounds = result.mass_lower_bounds
        assert all(b2 >= b1 - 1e-9 for b1, b2 in zip(bounds, bounds[1:]))
        assert bounds[-1] >= 1 - 1e-3
        areas = [s.solution.area for s in result.steps]
        assert all(a2 <= a1 + 1e-9 for a1, a2 in zip(areas, areas[1:]))
        assert min(areas) >= 16 * math.pi - 1e-6
        for s in result.steps:
            assert s.solution.mean_curvature < 2 * s.epsilon

    def test_horizon_sequence_trumpet_never_finds_horizon(self, trumpet):
        result = horizon_sequence(trumpet, 4.0, [0.04, 0.02, 0.01, 0.005])
        assert all(s.error is None for s in result.steps)
        rhos = [s.solution.rho_star for s in result.steps]
        assert all(b < a for a, b in zip(rhos, rhos[1:]))
        assert rhos[-1] < 1e-4
        assert all(s.solution.mean_curvature > 0 for s in result.steps)

    @pytest.mark.parametrize("case", ["schwarzschild", "trumpet"])
    def test_horizon_steps_equal_standalone_problems(self, schw, trumpet, case):
        # the shared anchor table changes nothing: each step is the lone problem
        profile, r0, eps = (schw, 2.0, None) if case == "schwarzschild" else (trumpet, 3.0, [0.05, 0.01])
        for step in horizon_sequence(profile, r0, eps).steps:
            alone = minimize(build_problem(profile, r0, step.epsilon, beta=step.beta))
            assert jsonable(alone) == jsonable(step.solution)

    def test_horizon_sequence_records_step_errors(self, schw):
        result = horizon_sequence(schw, 2.0, [0.2, 10.0, 0.0])
        assert result.steps[0].error is None and result.steps[0].error_type is None
        for step in result.steps[1:]:
            assert "EpsilonTooLarge" in step.error
            # the class is kept for callers that branch on it, and stays out of the report
            assert step.error_type is EpsilonTooLargeError and "error_type" not in jsonable(step)

    @pytest.mark.parametrize("r0, epsilons", [(math.nan, None), (math.inf, None), (-1.0, None), (2.0, [0.1, math.nan])])
    def test_horizon_sequence_refuses_bad_input_before_any_step(self, schw, counting, r0, epsilons):
        profile = counting(schw)
        with pytest.raises(ParameterError if epsilons else DomainError):
            horizon_sequence(profile, r0, epsilons)
        assert profile.calls == 0

    def test_horizon_sequence_far_anchor_refuses_then_converges(self):
        # H(S_5) < 0.2, so the first default step is refused and the rest run
        profile = SchwarzschildLikeProfile.from_mass(2.0)
        h0 = sphere_mean_curvature(profile, 5.0)
        result = horizon_sequence(profile, 5.0, [0.2, 0.1, 0.05, 0.02])
        refused = [s for s in result.steps if s.error]
        assert refused and all(s.epsilon >= 0.9 * h0 for s in refused)
        assert result.mass_lower_bounds[-1] == pytest.approx(2.0, abs=2e-3)

    def test_bubbles_on_tabulated_profile(self, tmp_path, trumpet):
        from penroselab import export_trumpet, read_tabulated

        dat = tmp_path / "trumpet.dat"
        export_trumpet(trumpet, dat)
        tab = read_tabulated(dat)
        result = horizon_sequence(tab, 4.0, [0.04, 0.02])
        assert all(s.error is None for s in result.steps)
        rhos = [s.solution.rho_star for s in result.steps]
        assert rhos[1] < rhos[0] and all(s.solution.mean_curvature > 0 for s in result.steps)


class TestRigidity:
    def test_preconditions(self, schw):
        with pytest.raises(ValueError):
            rigidity_iteration(schw, 2.0, 0.1, 2.5)
        with pytest.raises(EpsilonTooLargeError):
            rigidity_iteration(schw, 2.0, 0.9, 1.5)

    def test_epsilon_below_floor_refused(self, schw):
        # eps_0 = epsilon itself would already stop the schedule: no steps at all
        with pytest.raises(ParameterError, match="epsilon_floor = 1e-06"):
            rigidity_iteration(schw, 2.0, 1e-9, 1.5)
        with pytest.raises(ParameterError, match="epsilon_floor = 0.01"):
            rigidity_iteration(schw, 2.0, 0.005, 1.5, epsilon_floor=1e-2)

    def test_schwarzschild_trace(self, schw):
        trace = rigidity_iteration(schw, 2.0, 0.1, 1.5)
        assert trace.equality_case
        a0 = sphere_area(schw, 2.0)
        assert trace.epsilon0 == pytest.approx(math.sqrt(8 * math.pi / a0), rel=1e-12)
        assert trace.lambda0 == pytest.approx(16 * math.pi * a0 / (2 * math.pi), rel=1e-6)
        eps = [s.epsilon for s in trace.steps]
        assert all(b < a for a, b in zip(eps, eps[1:]))
        rhos = [s.solution.rho_star for s in trace.steps]
        assert all(b <= a for a, b in zip(rhos, rhos[1:]))
        for s in trace.steps:
            assert s.area_bound_ok
            if s.annulus_volume is not None:
                assert s.annulus_bound_ok
        assert trace.cumulative_bound_ok
        assert rhos[-1] == pytest.approx(0.5, abs=1e-3)

    def test_annulus_volumes_against_closed_form(self, schw):
        # u = 1 + 1/(2r): sympy integrates 4 pi u^6 r^2 and takes the difference at 30 digits
        r = sp.Symbol("r", positive=True)
        volume = sp.integrate(4 * sp.pi * (1 + 1 / (2 * r)) ** 6 * r**2, r)

        trace = rigidity_iteration(schw, 2.0, 0.1, 1.5)
        steps = trace.steps
        assert len(steps) >= 3 and steps[-1].annulus_volume is None
        for outer, inner in zip(steps, steps[1:]):
            ends = [volume.subs(r, sp.Rational(s.solution.rho_star)) for s in (outer, inner)]
            expected = float(sp.N(ends[0] - ends[1], 30))
            assert outer.annulus_volume == pytest.approx(expected, rel=1e-14, abs=0)
            assert outer.annulus_bound == pytest.approx(trace.lambda0 * outer.epsilon**0.5, rel=1e-15)
        volumes = [s.annulus_volume for s in steps[:-1]]
        assert trace.cumulative_volume == pytest.approx(sum(volumes), rel=1e-15)

    @pytest.mark.parametrize("mass", [1.0, 1.7])
    @pytest.mark.parametrize("r0, eps, gamma", [(2.0, 0.1, 1.5), (2.0, 0.2, 1.3), (5.0, 0.05, 1.7)])
    def test_reanchored_steps_against_closed_form_root(self, mass, r0, eps, gamma):
        # step k + 1 anchors at step k's sphere: its g takes the arc length to that anchor
        profile = SchwarzschildLikeProfile.from_mass(mass)
        if not eps < 0.9 * schwarzschild_mean_curvature(mass, r0):
            trace = rigidity_iteration(profile, r0, eps, gamma)  # step 0 refused: nothing solved
            assert not trace.steps and trace.error.startswith("EpsilonTooLargeError: ")
            return
        steps = rigidity_iteration(profile, r0, eps, gamma).steps
        assert len(steps) >= 3
        anchors = [r0] + [s.solution.rho_star for s in steps[:-1]]
        for anchor, step in zip(anchors, steps):
            assert step.solution.problem.anchor_radius == anchor
            root = schwarzschild_root(mass, step.solution.problem)
            assert step.solution.rho_star == pytest.approx(root, rel=4e-15, abs=0)

    def test_refusal_names_the_anchor_it_refused(self, schw):
        # gamma near 1: step 1's epsilon leaves no margin below 0.9 H at step 0's sphere, not at r0
        a_inf = penrose_check(schw).area_infimum
        rho0 = minimize(build_problem(schw, 2.0, 0.3, area_infimum=a_inf)).rho_star
        refused = rigidity_iteration(schw, 2.0, 0.3, 1.05).error
        assert refused.startswith("EpsilonTooLargeError: ") and "no margin below 0.9 H" in refused
        assert f"at the anchor r = {rho0:.6g}" in refused
        assert "S_r0" not in refused

    def test_refused_step_keeps_the_steps_before_it(self, schw):
        # the schedule stops at step 1 and keeps step 0, which is the horizon
        # schedule's bubble at the same anchor and curvature, bit for bit
        trace = rigidity_iteration(schw, 2.0, 0.3, 1.05)
        assert len(trace.steps) == 1 and jsonable(trace)["error"] == trace.error
        step = trace.steps[0]
        assert step.annulus_volume is None and trace.cumulative_volume == 0.0 and trace.cumulative_bound_ok
        assert jsonable(step.solution) == jsonable(horizon_sequence(schw, 2.0, [0.3]).steps[0].solution)
        # step 0 refused: nothing solved
        trace = rigidity_iteration(schw, 2.0, 0.4, 1.5)
        assert not trace.steps and trace.error.startswith("EpsilonTooLargeError: ")

    def test_trumpet_skips_equality_only_bound(self, trumpet):
        trace = rigidity_iteration(trumpet, 4.0, 0.02, 1.5, max_steps=3, epsilon_floor=1e-4)
        assert not trace.equality_case
        for s in trace.steps:
            assert s.area_bound_ok is None
            if s.annulus_volume is not None:
                assert s.annulus_bound_ok
        assert trace.cumulative_bound_ok


class TestAnchorTableCut:
    @pytest.mark.parametrize("kind, r0", [("schw", 2.0), ("trumpet", 4.0)])
    def test_arc_at_every_edge_is_its_stored_value(self, schw, trumpet, kind, r0):
        # the bracket signs come from rho at the edges as stored; Brent's
        # method sees rho through the table's query, which must agree bit for bit
        table = _AnchorTable(schw if kind == "schw" else trumpet, r0)
        anchors = np.exp(np.random.default_rng(7).uniform(math.log(table.edges[1]), math.log(r0), 40))
        for anchor in anchors:
            cut = table.cut(float(anchor))
            assert cut.edges[0] == table.edges[0] and cut.edges[-1] == anchor and cut.arc.suffix[-1] == 0
            assert np.array_equal(cut.arc(cut.edges), cut.arc.suffix)
            for i in [*range(0, len(cut.edges), 97), -3, -2, -1]:  # scalar queries, as brentq makes them
                assert cut.arc(float(cut.edges[i])) == cut.arc.suffix[i]

    @pytest.mark.parametrize("eps", [0.1, 0.01])
    def test_functional_matches_a_fresh_table(self, schw, eps):
        anchor = 0.8
        cut = build_problem(schw, anchor, eps, table=_AnchorTable(schw, 2.0).cut(anchor))
        fresh = build_problem(schw, anchor, eps, beta=cut.h.beta)
        for r in np.geomspace(1.05 * fresh.barrier_radius, anchor, 10):
            assert cut.functional(r) == pytest.approx(fresh.functional(r), rel=1e-13, abs=0)

    @pytest.mark.parametrize("kind, r0", [("schw", 2.0), ("trumpet", 4.0)])
    def test_arc_at_floats_equals_the_array_query(self, schw, trumpet, kind, r0):
        # Brent's method queries the table at floats, the bracket scan at arrays
        table = _AnchorTable(schw if kind == "schw" else trumpet, r0)
        edges = table.edges
        mids = 0.5 * (edges[:-1:97] + edges[1::97])
        below = edges[0] * np.array([0.5, 1 - 1e-12])
        above = edges[-1] * np.array([1 + 1e-12, 2.0])
        xs = np.concatenate([edges[::97], edges[-3:], mids, below, above])
        values = table.arc(xs)
        assert np.array_equal([table.arc(float(x)) for x in xs], values)
        assert np.array_equal([table.arc(np.float64(x)) for x in xs], values)
        assert type(table.arc(float(xs[0]))) is float

    def test_arc_0d_and_2d_queries_are_elementwise_floats(self, schw):
        # an array of any shape is answered element by element through the float
        # path: below the floor, at and between edges, in the partial panel, above
        table = _AnchorTable(schw, 2.0)
        cut = table.cut(0.5 * float(table.edges[-97] + table.edges[-96]))
        e = cut.edges
        xs = np.array([
            [0.5 * e[0], e[0], 0.5 * (e[0] + e[1]), e[1]],
            [e[-3], 0.5 * (e[-3] + e[-2]), e[-2], 0.5 * (e[-2] + e[-1])],
            [e[-1] * (1 - 1e-12), e[-1], e[-1] * (1 + 1e-12), 2.0 * e[-1]],
        ])
        values = cut.arc(xs)
        assert values.shape == xs.shape
        assert values.tolist() == [[cut.arc(x) for x in row] for row in xs.tolist()]
        for x in xs.ravel().tolist():
            zero_d = cut.arc(np.array(x))
            assert zero_d.shape == () and zero_d == cut.arc(x)

    @pytest.mark.parametrize("kind, panels", [("schw", 1024), ("power30", 4096)])
    def test_arc_at_panel_midpoints_against_closed_forms(self, schw, kind, panels):
        # a full table is built on 1024 panels, and on 4096 when the volume
        # weight is too steep for 1024: u = r^30 takes 4096.  Closed forms,
        # written to keep their relative accuracy: Schwarzschild's arc length to
        # r0 = 2 as a sum of positive terms, and (1 - r^61)/61 to r0 = 1 by expm1
        profile, r0 = (schw, 2.0) if kind == "schw" else (Power30(), 1.0)
        table = _AnchorTable(profile, r0)
        e = table.edges
        assert len(e) == panels + 1
        r = 0.5 * (e[:-1] + e[1:])
        d = r0 - r
        exact = d + np.log1p(d / r) + 0.25 * d / (r * r0) if kind == "schw" else -np.expm1(61 * np.log(r)) / 61
        assert np.max(np.abs(table.arc(r) - exact) / exact) <= 1e-13

    def test_queries_leave_the_parent_table_unchanged(self, schw):
        # a 0-d query (an int, a numpy scalar, a 0-d array) inside a cut's partial
        # panel reads the rows; it must not write the cut's row into the parent's
        table = _AnchorTable(schw, 2.0)
        m = int(np.searchsorted(table.edges, 1.0, side="right"))  # edges[m - 1] <= 1 < edges[m]
        cut = table.cut(0.5 * (1.0 + float(table.edges[m])))
        coef, before = table.arc.coef.copy(), table.arc(1.0)
        for x in (1, np.float32(1.0), np.float64(1.0), np.array(1.0), np.array([1.0])):
            assert cut.arc(x) == cut.arc(1.0)
        assert np.array_equal(table.arc.coef, coef)
        assert table.arc(1.0) == table.arc(np.array(1.0)) == before
        # the cut shares the parent's rows, and its node data are the parent's,
        # bit for bit: the parent's tails plus the cut's own edge sums
        assert np.shares_memory(cut.arc.coef, table.arc.coef)
        c = len(cut.edges) - 2  # the cut's partial panel
        full_half, full_tail, full_vol = table.rows
        half, arc, vol = cut.nodes(0)
        assert [len(x) for x in (half, arc, vol)] == [c + 1] * 3
        assert np.array_equal(arc[:c], full_tail[:c] + cut.arc.suffix[1 : c + 1, None])
        assert np.array_equal(vol[:c], full_vol[:c]) and np.array_equal(half[:c], full_half[:c])
        for p in (1, c - 3, c):
            assert all(np.array_equal(x, y[p:]) for x, y in zip(cut.nodes(p), (half, arc, vol)))
        assert [len(x) for x in cut.nodes(c + 1)] == [0, 0, 0]  # from the anchor edge up: no panel

    @pytest.mark.parametrize("mass, r0", [(1.0, 2.0), (1.7, 5.0), (1.0, 1.2)])
    @pytest.mark.parametrize("cut", [False, True])
    def test_dist_against_closed_form(self, mass, r0, cut):
        # rho from the node weights alone, in 10^4 log-uniform radii in [1e-3 anchor, anchor);
        # the closed form as a sum of positive terms, so it keeps its own relative accuracy
        c = 0.5 * mass
        profile = SchwarzschildLikeProfile.from_mass(mass)
        table = _AnchorTable(profile, r0)
        anchor = 0.7 * r0 if cut else r0
        table = table.cut(anchor)
        prob = build_problem(profile, anchor, 0.3 * float(sphere_mean_curvature(profile, anchor)), table=table)
        radii = np.exp(np.random.default_rng(11).uniform(math.log(1e-3 * anchor), math.log(anchor), 10_000))
        d = anchor - radii
        exact = -prob.lip_factor * (d + 2 * c * np.log1p(d / radii) + c * c * d / (radii * anchor))
        values = prob.dist(radii)
        assert np.max(np.abs(values - exact) / np.abs(exact)) <= 1e-14
        assert [prob.dist(float(r)) for r in radii] == values.tolist()
        # at every edge the stored value, bit for bit, and 0 at the anchor
        stored = -prob.lip_factor * table.arc.suffix
        assert np.array_equal(prob.dist(table.edges), stored)
        assert [prob.dist(float(r)) for r in table.edges] == stored.tolist()
        assert prob.dist(anchor) == 0.0

    @pytest.mark.parametrize("mass, r0, anchor", [(1.0, 2.0, 2.0), (1.0, 2.0, 1.4), (1.7, 5.0, 2.25), (0.5, 3.0, 0.9)])
    def test_node_data_against_closed_forms(self, mass, r0, anchor):
        # the node arc lengths and volume weights the bulk term is weighted with,
        # from the panel at 1e-3 anchor up; a full table (anchor = r0) and cuts
        c = 0.5 * mass
        profile = SchwarzschildLikeProfile.from_mass(mass)
        table = _AnchorTable(profile, r0).cut(anchor)
        e = table.edges
        p = int(np.searchsorted(e, 1e-3 * anchor, side="right")) - 1
        r, _ = gauss_nodes(e[p:-1], e[p + 1 :])
        half, arc, vol = table.nodes(p)
        assert np.array_equal(half, 0.5 * (e[p + 1 :] - e[p:-1]))
        d = anchor - r
        exact = d + 2 * c * np.log1p(d / r) + c * c * d / (r * anchor)
        # the table integrates from the exact node, r from its float rounding: ds/dr = u^2
        slack = 4 * np.finfo(float).eps * r * (1 + c / r) ** 2
        assert np.all(np.abs(arc - exact) <= 1e-14 * np.abs(exact) + slack)
        exact_vol = 4 * math.pi * (r + c) ** 6 / r**4
        assert np.max(np.abs(vol - exact_vol) / exact_vol) <= 4e-15

    @pytest.mark.parametrize("r0", [3.0, 4.4])
    def test_trumpet_dist_against_geodesic_distance(self, trumpet, r0):
        # across the blend at [2, 4] and eight decades down the cylindrical end
        prob = build_problem(trumpet, r0, 1e-3)
        for r in np.geomspace(1e-7, 0.999 * r0, 15):
            ref = -prob.lip_factor * geodesic_distance(trumpet, float(r), r0)
            assert prob.dist(float(r)) == pytest.approx(ref, rel=1e-12, abs=0)

    def test_anchor_outside_the_table_refused(self, schw):
        table = _AnchorTable(schw, 2.0)
        for anchor in (0.5 * table.edges[0], 2.0 * (1 + 1e-12), 3.0):
            with pytest.raises(OutOfCollectionError):
                table.cut(anchor)

    def test_cut_at_the_top_edge_is_the_table(self, schw):
        table = _AnchorTable(schw, 2.0)
        assert table.cut(2.0) is table


def test_dimension_guard():
    # each three-dimensional entry point refuses n = 4 in its own name, before any work
    p4 = SchwarzschildLikeProfile.from_mass(1.0, n=4)
    calls = {
        "hawking_mass": lambda: hawking_mass(p4, 1.0),
        "penrose_check": lambda: penrose_check(p4),
        "adm_hawking_check": lambda: adm_hawking_check(p4, 10.0),
        "MuBubbleProblem": lambda: build_problem(p4, 2.0, 0.1, beta=1.0),
        "horizon_sequence": lambda: horizon_sequence(p4, 2.0),  # not a schedule of refused steps
        "rigidity_iteration": lambda: rigidity_iteration(p4, 2.0, 0.1, 1.5),
    }
    for name, call in calls.items():
        with pytest.raises(UnsupportedDimensionError, match=rf"^{name} is defined only for n = 3$"):
            call()
