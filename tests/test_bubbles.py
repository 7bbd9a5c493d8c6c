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
from penroselab.bubbles import MuBubbleProblem, _arccoth


def coth(x):
    return 1.0 / math.tanh(x)


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
        with pytest.raises(BarrierError):
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
        r_b = prob.workspace().barrier_radius
        rho = r_b * (r0 / r_b) ** frac

        def arc(r):
            return (r0 - r) + math.log(r0 / r) + 0.25 * (1 / r - 1 / r0)

        def integrand(r):
            return h(-lip * arc(r)) * 4 * math.pi * (1 + 0.5 / r) ** 6 * r**2

        bulk, _ = quad(integrand, rho, r0, epsabs=0, epsrel=1e-13, limit=200)
        area = 4 * math.pi * (1 + 0.5 / rho) ** 4 * rho**2
        assert functional_eval(prob, rho) == pytest.approx(area + bulk, rel=1e-9, abs=0)

    @pytest.mark.parametrize("eps", [0.2, 0.05, 0.01, 0.001])
    def test_barrier_radius_against_closed_form(self, schw, eps):
        # the table inversion lands where the closed-form rho meets the backed-off barrier
        r0 = 2.0
        prob = build_problem(schw, r0, eps)
        r_b = prob.workspace().barrier_radius
        arc = (r0 - r_b) + math.log(r0 / r_b) + 0.25 * (1 / r_b - 1 / r0)
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
        # below the workspace floor 1e-15 r0
        with pytest.raises(OutOfCollectionError):
            functional_eval(prob, 1e-16)
        with pytest.raises(OutOfCollectionError):
            dist_to_anchor(prob, 1e-16)

    def test_functional_below_barrier(self, schw):
        prob = build_problem(schw, 2.0, 0.1, beta=choose_beta(schw, 2.0, 0.1))
        r_b = prob.workspace().barrier_radius
        with pytest.raises(BarrierError):
            functional_eval(prob, r_b * 0.5)

    def test_functional_blows_up_at_barrier(self, schw):
        # moderate beta keeps the barrier inside the domain
        prob = build_problem(schw, 2.0, 0.1, beta=choose_beta(schw, 2.0, 0.1))
        ws = prob.workspace()
        assert ws.barrier_radius is not None
        # the table's own bulk term at the barrier radius (its fresh first panel)
        # is what a query there integrates afresh
        at_barrier = functional_eval(prob, ws.barrier_radius)
        assert at_barrier == pytest.approx(sphere_area(schw, ws.barrier_radius) + ws.bulk.suffix[0], rel=1e-12)
        rhos = ws.barrier_radius * (1 + 10.0 ** -np.arange(1, 6))
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
        # bulk weights, then the scan and root finds
        profile = counting(schw)
        minimize(build_problem(profile, 2.0, 0.05))
        assert profile.points <= 100_000

    def test_schedule_work_bounds(self, schw, counting):
        # the horizon schedule shares one anchor table (4096 x 8 points) across
        # its 9 steps; a rigidity step re-anchors, so it builds its own
        profile = counting(schw)
        horizon_sequence(profile, 2.0)
        assert profile.points <= 150_000
        profile = counting(schw)
        rigidity_iteration(profile, 2.0, 0.1, 1.5)
        assert profile.points <= 250_000

    def test_workspace_freed_without_cyclic_gc(self, schw):
        gc.disable()
        try:
            sol = minimize(build_problem(schw, 2.0, 0.05))
            ref = weakref.ref(sol.problem.workspace())
            del sol
            assert ref() is None
            result = horizon_sequence(schw, 2.0, [0.1, 0.05])
            refs = [weakref.ref(s.solution.problem.workspace()) for s in result.steps]
            del result
            assert all(r() is None for r in refs)
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
        rep = diameter_report(sol, 0.05)
        expected = math.pi * schw.u(sol.rho_star) ** 2 * sol.rho_star
        assert rep.intrinsic_diameter == pytest.approx(expected, rel=1e-12)
        assert 6.2 < rep.intrinsic_diameter < 6.5
        assert rep.bound == pytest.approx(4 * math.pi / 0.15, rel=1e-12)
        assert rep.within_bound

    def test_bound_formula(self, schw):
        sol = minimize(build_problem(schw, 2.0, 0.1))
        assert diameter_report(sol, 1.0).bound == pytest.approx(4 * math.pi / 3, rel=1e-12)


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

    def test_trumpet_skips_equality_only_bound(self, trumpet):
        trace = rigidity_iteration(trumpet, 4.0, 0.02, 1.5, max_steps=3, epsilon_floor=1e-4)
        assert not trace.equality_case
        for s in trace.steps:
            assert s.area_bound_ok is None
            if s.annulus_volume is not None:
                assert s.annulus_bound_ok
        assert trace.cumulative_bound_ok


def test_dimension_guard():
    from penroselab import SchwarzschildLikeProfile, UnsupportedDimensionError

    p4 = SchwarzschildLikeProfile.from_mass(1.0, n=4)
    with pytest.raises(UnsupportedDimensionError):
        build_problem(p4, 2.0, 0.1, beta=1.0)
