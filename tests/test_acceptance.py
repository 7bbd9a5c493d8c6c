"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings as they complete.
"""

import math
import time

import numpy as np
import pytest

from penroselab import (
    PrescribedMeanCurvature,
    SchwarzschildLikeProfile,
    adm_flux,
    adm_mass_from_tail,
    area_infimum_radial,
    build_problem,
    build_trumpet,
    default_grid,
    hawking_mass,
    horizon_sequence,
    minimize,
    penrose_check,
    required_alpha,
    rigidity_iteration,
    sphere_area,
    sphere_mean_curvature,
    verify_trumpet,
)
from penroselab.cli import main
from penroselab.masses import VERDICT_EQUALITY, VERDICT_STRICT


class _Timer:
    def __init__(self, budget):
        self.budget = budget

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        return False


def _report(name, ok, timer, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{status} {name}: {timer.elapsed:.2f}s of {timer.budget:.1f}s budget{suffix}")
    assert ok, f"{name} failed{suffix}"


def test_criterion_1_schwarzschild_equality():
    for mass in (0.5, 1.0, 2.0):
        with _Timer(1.0) as t:
            profile = SchwarzschildLikeProfile.from_mass(mass)
            m_fit, _ = adm_mass_from_tail(profile)
            inf_res = area_infimum_radial(profile)
            report = penrose_check(profile)
        ok = (
            abs(m_fit - mass) <= 1e-8
            and not inf_res.throat_limit
            and abs(inf_res.value - 16 * math.pi * mass**2) <= 1e-8 * 16 * math.pi * mass**2
            and abs(inf_res.argmin_radius - mass / 2) <= 1e-6
            and abs(report.ratio - 1.0) <= 1e-6
            and report.verdict == VERDICT_EQUALITY
            and t.elapsed < 1.0
        )
        _report(f"criterion 1 (equality, m={mass})", ok, t, f"ratio={report.ratio:.2e}")


def test_criterion_2_trumpet_horizon_free():
    with _Timer(5.0) as t:
        trumpet = build_trumpet()
        grid = default_grid(trumpet)
        verification = verify_trumpet(trumpet, grid)
        radii = grid.radii()
        terms = trumpet.laplacian_terms(radii)
        max_term = max(float(np.max(term)) for term in terms)
        min_h = float(np.min(np.asarray(sphere_mean_curvature(trumpet, radii))))
        inf_res = area_infimum_radial(trumpet, grid)
        report = penrose_check(trumpet, grid)
    ok = (
        verification.ok
        and len(grid.radii()) == 4096
        and max_term <= 1e-12
        and min_h > 0
        and inf_res.throat_limit
        and abs(inf_res.value - 4 * math.pi) <= 1e-4
        and report.verdict == VERDICT_STRICT
        and t.elapsed < 5.0
    )
    _report(
        "criterion 2 (horizon-free example)",
        ok,
        t,
        f"throat={inf_res.value:.6f}, max lap term={max_term:.1e}",
    )


def test_criterion_3_h_family_exactness():
    with _Timer(0.1) as t:
        rng = np.random.default_rng(20240817)
        worst = 0.0
        for _ in range(1000):
            eps = 10.0 ** rng.uniform(-3, 0)
            beta = 10.0 ** rng.uniform(-1, 1)
            h = PrescribedMeanCurvature(eps, beta)
            # sample both sides of t = 0, staying above the barrier
            span = rng.uniform(0.0, 0.98)
            t_val = h.barrier * span if rng.random() < 0.5 else rng.uniform(0.0, 50.0)
            ratio = abs(h.ode_residual(t_val)) / (1 + h(t_val) ** 2)
            worst = max(worst, ratio)
    ok = worst <= 1e-12 and t.elapsed < 0.1
    _report("criterion 3 (prescribed family identity)", ok, t, f"worst residual ratio={worst:.1e}")


def test_criterion_4_euler_lagrange():
    profile = SchwarzschildLikeProfile.from_mass(1.0)
    area_r0 = float(sphere_area(profile, 2.0))
    for eps in (0.2, 0.1, 0.05):
        with _Timer(2.0) as t:
            solution = minimize(build_problem(profile, 2.0, eps))
        ok = (
            solution.el_residual <= 1e-12
            and 0 < solution.mean_curvature < 2 * eps
            and 16 * math.pi - 1e-9 <= solution.area <= area_r0
            and t.elapsed < 2.0
        )
        _report(
            f"criterion 4 (first variation, eps={eps})",
            ok,
            t,
            f"H={solution.mean_curvature:.5f}, el={solution.el_residual:.1e}",
        )


def test_criterion_5_mass_recovery():
    profile = SchwarzschildLikeProfile.from_mass(1.0)
    with _Timer(30.0) as t:
        result = horizon_sequence(profile, 2.0)
    bounds = result.mass_lower_bounds
    ok = (
        all(s.error is None for s in result.steps)
        and len(bounds) == len(result.steps)
        and all(b2 >= b1 - 1e-9 for b1, b2 in zip(bounds, bounds[1:]))
        and bounds[-1] >= 1 - 1e-3
        and t.elapsed < 30.0
    )
    _report("criterion 5 (mass recovery)", ok, t, f"final bound={bounds[-1]:.6f}")


def test_criterion_6_rigidity_bounds():
    profile = SchwarzschildLikeProfile.from_mass(1.0)
    with _Timer(60.0) as t:
        trace = rigidity_iteration(profile, 2.0, 0.1, 1.5)
    final_rho = trace.steps[-1].solution.rho_star
    ok = (
        trace.equality_case
        and all(s.area_bound_ok for s in trace.steps)
        and all(s.annulus_bound_ok for s in trace.steps if s.annulus_volume is not None)
        and trace.cumulative_bound_ok
        and abs(final_rho - 0.5) <= 1e-3
        and t.elapsed < 60.0
    )
    _report(
        "criterion 6 (rigidity bounds)",
        ok,
        t,
        f"final rho*={final_rho:.6f}, cumulative {trace.cumulative_volume:.3f}"
        f" <= {trace.cumulative_bound:.3f}",
    )


def test_criterion_7_hawking_identity():
    profile = SchwarzschildLikeProfile.from_mass(1.0)
    with _Timer(0.5) as t:
        radii = np.geomspace(0.5 * 1.001, 5e3, 100)
        worst = max(abs(hawking_mass(profile, float(r)) - 1.0) for r in radii)
    ok = worst <= 1e-8 and t.elapsed < 0.5
    _report("criterion 7 (constant quasi-local mass)", ok, t, f"worst dev={worst:.1e}")


def test_criterion_8_flux_consistency():
    profiles = [
        SchwarzschildLikeProfile.from_mass(1.0),
        SchwarzschildLikeProfile(2.0, 1.0),
        build_trumpet(),
    ]
    with _Timer(2.0) as t:
        ok = True
        detail = []
        for profile in profiles:
            m, _ = adm_mass_from_tail(profile)
            errs = [abs(adm_flux(profile, rho) - m) for rho in (1e2, 2e2, 4e2, 8e2, 1.6e3)]
            halves = all(b <= 0.5 * a * (1 + 1e-6) for a, b in zip(errs, errs[1:]))
            ok = ok and halves
            detail.append(f"{profile.kind}: {errs[0]:.1e}->{errs[-1]:.1e}")
    ok = ok and t.elapsed < 2.0
    _report("criterion 8 (flux consistency)", ok, t, "; ".join(detail))


def test_criterion_9_negative_control(tmp_path):
    with _Timer(5.0) as t:
        weak_alpha = required_alpha(3, 2.0) / 2
        with pytest.warns(UserWarning):
            code = main(["trumpet", "--alpha", str(weak_alpha), "--out-dir", str(tmp_path)])
        import json

        payload = json.loads((tmp_path / "trumpet" / "trumpet.json").read_text())
        failing = [c["name"] for c in payload["verification"]["checks"] if not c["passed"]]
    ok = code == 5 and failing == ["mean_convexity"] and t.elapsed < 5.0
    _report("criterion 9 (weak-alpha control)", ok, t, f"exit={code}, failing={failing}")
