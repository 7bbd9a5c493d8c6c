import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from penroselab import (
    BarrierError,
    SchwarzschildLikeProfile,
    DegenerateMinimizerError,
    EpsilonTooLargeError,
    OutOfCollectionError,
    ParameterError,
    PrescribedMeanCurvature,
    build_problem,
    choose_beta,
    diameter_report,
    dist_to_anchor,
    functional_eval,
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
        assert abs(h.ode_residual(t)) <= 1e-12 * (1 + h(t) ** 2)

    @given(
        eps=st.floats(min_value=1e-3, max_value=1.0),
        beta=st.floats(min_value=0.05, max_value=10.0),
        frac=st.floats(min_value=-0.95, max_value=40.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_ode_residual_property(self, eps, beta, frac):
        h = PrescribedMeanCurvature(eps, beta)
        t = -frac * h.barrier if frac < 0 else frac
        residual = h.ode_residual(t)
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
        assert functional_eval(prob, 2.0) == pytest.approx(sphere_area(schw, 2.0), rel=1e-12)

    def test_functional_euclid_against_quad_oracle(self, euclid):
        prob = build_problem(euclid, 1.0, 0.1, beta=2.0)
        lip = prob.lip_factor
        h = prob.h

        def integrand(r):
            return h(-lip * (1.0 - r)) * 4 * math.pi * r**2

        bulk, _ = quad(integrand, 0.9, 1.0, epsabs=1e-13)
        expected = 4 * math.pi * 0.81 + bulk
        value = functional_eval(prob, 0.9)
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
        assert functional_eval(prob, rho) == pytest.approx(area + bulk, rel=1e-9, abs=0)

    @pytest.mark.parametrize("eps", [0.05, 0.01])
    @pytest.mark.parametrize("ratio", [1.0005, 1.001, 1.002])
    def test_functional_near_barrier_against_closed_forms(self, schw, eps, ratio):
        # within a few per mille of the barrier radius h(rho) varies by orders of
        # magnitude; QUADPACK on 60 geometric pieces against the graded panels
        r0 = 2.0
        prob = build_problem(schw, r0, eps, beta=choose_beta(schw, r0, eps))
        lip, h = prob.lip_factor, prob.h
        arc = schwarzschild_arc(1.0, r0)
        rho = ratio * prob.barrier_radius

        def integrand(r):
            return h(-lip * arc(r)) * 4 * math.pi * (1 + 0.5 / r) ** 6 * r**2

        pieces = np.geomspace(rho, r0, 61)
        bulk = math.fsum(
            quad(integrand, a, b, epsabs=0, epsrel=1e-13, limit=200)[0] for a, b in zip(pieces[:-1], pieces[1:])
        )
        area = 4 * math.pi * (1 + 0.5 / rho) ** 4 * rho**2
        assert functional_eval(prob, rho) == pytest.approx(area + bulk, rel=1e-10, abs=0)

    def test_barrier_radius_within_two_percent_of_the_anchor(self):
        # u = r^30: H(S_1) = 122 and rho falls steeply inside r0 = 1, so a small
        # beta puts the barrier radius above r0 / 1.02 and the graded panels
        # end at the anchor itself.  Closed forms: arc (1 - r^61)/61, area 4 pi r^122
        class Power30(RadialProfile):
            kind = "power"
            inner_exponent = -30.0

            def _u(self, r):
                return r**30

            def _du(self, r):
                return 30 * r**29

        prob = MuBubbleProblem(Power30(), 1.0, PrescribedMeanCurvature(1.0, 0.0085))
        lip, h = prob.lip_factor, prob.h
        r_b = prob.barrier_radius
        assert 1 / 1.02 < r_b < 1.0
        rho = 1.0005 * r_b
        def integrand(r):
            return h(-lip * (1 - r**61) / 61) * 4 * math.pi * r**182

        bulk, _ = quad(integrand, rho, 1.0, epsabs=0, epsrel=1e-13)
        assert functional_eval(prob, rho) == pytest.approx(4 * math.pi * rho**122 + bulk, rel=1e-10, abs=0)
        assert minimize(prob).second_order_ok

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
            assert functional_eval(prob, rho) >= sphere_area(schw, rho) - 1e-12

    def test_functional_out_of_collection(self, schw):
        prob = build_problem(schw, 2.0, 0.1)
        with pytest.raises(OutOfCollectionError):
            functional_eval(prob, 2.5)
        # below the anchor table's floor 1e-15 r0
        with pytest.raises(OutOfCollectionError):
            functional_eval(prob, 1e-16)
        with pytest.raises(OutOfCollectionError):
            dist_to_anchor(prob, 1e-16)

    def test_functional_below_barrier(self, schw):
        prob = build_problem(schw, 2.0, 0.1, beta=choose_beta(schw, 2.0, 0.1))
        r_b = prob.barrier_radius
        with pytest.raises(BarrierError):
            functional_eval(prob, r_b * 0.5)

    def test_functional_blows_up_at_barrier(self, schw):
        # moderate beta keeps the barrier inside the domain
        prob = build_problem(schw, 2.0, 0.1, beta=choose_beta(schw, 2.0, 0.1))
        assert prob.barrier_radius is not None
        # the table's own bulk term at the barrier radius (its fresh first panel)
        # is what a query there integrates afresh
        r_b = prob.barrier_radius
        at_barrier = functional_eval(prob, r_b)
        assert at_barrier == pytest.approx(sphere_area(schw, r_b) + prob.bulk.suffix[0], rel=1e-12)
        rhos = r_b * (1 + 10.0 ** -np.arange(1, 6))
        vals = [functional_eval(prob, r) for r in rhos]
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
        # g at the problem's edges comes from one vector call; Brent's method
        # sees the scalar g at a bracket's ends, which must have the same signs
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
        # for t1 = 1.5, the outer one for t1 = 1.0.  Oracle: functional_eval
        # on 400 radii across both
        prob = build_problem(TwoNecks(0.5, t1), 30.0, 0.01)
        assert np.count_nonzero((prob.g[:-1] < 0) & (prob.g[1:] >= 0)) == 2
        sol = minimize(prob)
        radii = np.geomspace(0.9, 20.0, 400)
        values = [functional_eval(prob, r) for r in radii]
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
        # one anchor table, 4096 x 8 u points for both the arc length and the
        # bulk weights, then g at its edges, the graded panels and root finds
        profile = counting(schw)
        minimize(build_problem(profile, 2.0, 0.05))
        assert profile.points <= 100_000

    def test_schedule_work_bounds(self, schw, counting):
        # each schedule builds one anchor table (4096 x 8 points): the horizon
        # schedule shares it across its 9 steps, and each re-anchored rigidity
        # step cuts it, evaluating u at the 8 nodes of one partial panel
        profile = counting(schw)
        horizon_sequence(profile, 2.0)
        assert profile.points <= 60_000
        profile = counting(schw)
        rigidity_iteration(profile, 2.0, 0.1, 1.5)
        assert profile.points <= 60_000

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
            assert alone.to_dict() == step.solution.to_dict()

    def test_horizon_sequence_records_step_errors(self, schw):
        result = horizon_sequence(schw, 2.0, [0.2, 10.0, 0.0])
        assert result.steps[0].error is None
        for step in result.steps[1:]:
            assert "EpsilonTooLarge" in step.error

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
        # u = 1 + c/r: 4 pi u^6 r^2 expands in powers of r, so the volume has a closed form
        c = 0.5

        def volume(r):
            powers = [math.log(r) if j == 3 else r ** (3 - j) / (3 - j) for j in range(7)]
            return 4 * math.pi * math.fsum(math.comb(6, j) * c**j * p for j, p in enumerate(powers))

        trace = rigidity_iteration(schw, 2.0, 0.1, 1.5)
        steps = trace.steps
        assert len(steps) >= 3 and steps[-1].annulus_volume is None
        for outer, inner in zip(steps, steps[1:]):
            expected = volume(outer.solution.rho_star) - volume(inner.solution.rho_star)
            assert outer.annulus_volume == pytest.approx(expected, rel=1e-9)
            assert outer.annulus_bound == pytest.approx(trace.lambda0 * outer.epsilon**0.5, rel=1e-15)
        volumes = [s.annulus_volume for s in steps[:-1]]
        assert trace.cumulative_volume == pytest.approx(sum(volumes), rel=1e-15)

    @pytest.mark.parametrize("mass", [1.0, 1.7])
    @pytest.mark.parametrize("r0, eps, gamma", [(2.0, 0.1, 1.5), (2.0, 0.2, 1.3), (5.0, 0.05, 1.7)])
    def test_reanchored_steps_against_closed_form_root(self, mass, r0, eps, gamma):
        # step k + 1 anchors at step k's sphere: its g takes the arc length to that anchor
        profile = SchwarzschildLikeProfile.from_mass(mass)
        if not eps < 0.9 * schwarzschild_mean_curvature(mass, r0):
            with pytest.raises(EpsilonTooLargeError):
                rigidity_iteration(profile, r0, eps, gamma)
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
        with pytest.raises(EpsilonTooLargeError, match="no margin below 0.9 H") as refused:
            rigidity_iteration(schw, 2.0, 0.3, 1.05)
        assert f"at the anchor r = {rho0:.6g}" in str(refused.value)
        assert "S_r0" not in str(refused.value)

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
            assert functional_eval(cut, r) == pytest.approx(functional_eval(fresh, r), rel=1e-13, abs=0)

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

    def test_anchor_outside_the_table_refused(self, schw):
        table = _AnchorTable(schw, 2.0)
        for anchor in (0.5 * table.edges[0], 2.0 * (1 + 1e-12), 3.0):
            with pytest.raises(OutOfCollectionError):
                table.cut(anchor)

    def test_cut_at_the_top_edge_is_the_table(self, schw):
        table = _AnchorTable(schw, 2.0)
        assert table.cut(2.0) is table


def test_dimension_guard():
    from penroselab import SchwarzschildLikeProfile, UnsupportedDimensionError

    p4 = SchwarzschildLikeProfile.from_mass(1.0, n=4)
    with pytest.raises(UnsupportedDimensionError):
        build_problem(p4, 2.0, 0.1, beta=1.0)
