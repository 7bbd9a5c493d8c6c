"""The five seeded workloads: what each op is, and how its output is checked.

An op is one ``penroselab.cli.run_command`` scenario (the call ``batch``
makes per scenario) or, in ``radial-integrals``, one
``geometry.geodesic_distance`` / ``geometry.volume_between`` call.  Ops come
in rounds.  Round k depends only on the seed and k (see ``Draws``), and a
run measures whole rounds.

Fixed probes of known defects ride along: in every radial round one of four
integrals that do not terminate, and in the first ``bubble-trumpet`` round a
trumpet schedule that ends in DegenerateMinimizerError.  They stay in on
purpose; a fix must show up as fewer failed ops and more ops per second.
``bubble-schedules`` runs the same schedules on Schwarzschild alone, where
no op fails; the trumpet schedules and their known defects are in
``bubble-trumpet``.

An op ends in one of three states.  ``ok``: the expected exit code and
every oracle within its tolerance.  ``failed``: the per-op deadline, an
exception, a refusal exit code (2, 4) where 0 was expected, or a missed
oracle of a known defect (``KNOWN_MISSES``).  ``wrong``: a verdict or exit
code that contradicts the closed form, or any other missed oracle; any
wrong op makes the run incorrect.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

import oracles as O

# A result within these of its closed form passes; beyond them the op missed
# its oracle, which is wrong unless the miss is listed in KNOWN_MISSES.
MASS_TOL = 1e-6
# At n = 5 the r^{-3} tail is ~1e-12 of u on the fit window [1e3, 1e4], so
# rounding alone limits a fitted mass to ~1e-5.
TAIL_FIT_TOL = {3: MASS_TOL, 4: MASS_TOL, 5: 1e-4}
AREA_TOL = 1e-4
INTEGRAL_TOL = 1e-6
INTEGRAL_ABS_TOL = 1e-8
EL_TOL = 1e-6
CURVATURE_TOL = 1e-8

# The trumpet certificate's own tolerances, against which its slack is measured.
TAIL_MASS_TOL = 1e-8
TAIL_RESIDUAL_TOL = 1e-6
LAPLACIAN_TERM_TOL = 1e-12
SCALAR_CURVATURE_TOL = 1e-10
THROAT_AREA_TOL = 1e-4

# Oracle misses of known defects: (profile kind, accuracy sample).  Such a
# miss fails the op instead of making the run incorrect.
KNOWN_MISSES = {
    # Bubbles anchored near the trumpet throat: the first-variation residual
    # |H - h(rho)| reaches ~1.1e-6 (trumpet bubbles, seeds 1-10).
    ("trumpet", "el_residual"),
}

EXIT_OK, EXIT_VIOLATED, EXIT_TRUMPET = 0, 3, 5
VERDICT_CODES = {EXIT_OK, EXIT_VIOLATED, EXIT_TRUMPET}


def _primes(count: int) -> list[int]:
    found: list[int] = []
    candidate = 2
    while len(found) < count:
        if all(candidate % p for p in found):
            found.append(candidate)
        candidate += 1
    return found


# Irrational steps of a Kronecker sequence, one per draw position in a round.
_STEPS = [math.sqrt(p) % 1.0 for p in _primes(128)]


class Draws:
    """Seeded draws for round k: the j-th uniform is (shift_j + k step_j) mod 1.

    Each draw position j of a round is one dimension of a randomly shifted
    Kronecker sequence.  Over the rounds of a run its values fill [0, 1)
    evenly, so the share of ops that land in an expensive region (a large
    volume, a far anchor) hardly varies from seed to seed, while the seed
    still moves every input.  Each draw on its own is uniform.
    """

    def __init__(self, key: str, k: int):
        self.key, self.k, self.j = key, k, 0
        self.order = random.Random(f"{key}:order:{k}")

    def random(self) -> float:
        shift = random.Random(f"{self.key}:shift:{self.j}").random()
        value = (shift + self.k * _STEPS[self.j]) % 1.0
        self.j += 1
        return value

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.random()

    def log_uniform(self, lo: float, hi: float) -> float:
        return math.exp(self.uniform(math.log(lo), math.log(hi)))

    def randint(self, lo: int, hi: int) -> int:
        return lo + min(int(self.random() * (hi - lo + 1)), hi - lo)

    def shuffle(self, items: list) -> None:
        self.order.shuffle(items)


@lru_cache(maxsize=None)
def oracle_for(kind: str, a: float = 0.0, b: float = 0.0, n: int = 3):
    """Closed-form model of a profile (``a`` is alpha for a trumpet).

    Cached because a trumpet model needs a quadrature of its blend.
    """
    if kind == "euclidean":
        return O.Euclidean()
    if kind == "schwarzschild-like":
        return O.SchwarzschildLike(a, b)
    if kind == "cylinder":
        return O.Cylinder()
    if kind == "trumpet":
        return O.Trumpet(a, n)
    raise ValueError(f"no oracle for profile kind {kind!r}")


def profile_oracle(spec: dict, n: int = 3):
    kind = spec["kind"]
    if kind == "schwarzschild":
        return oracle_for("schwarzschild-like", 1.0, 0.5 * spec["mass"])
    if kind == "schwarzschild-like":
        return oracle_for(kind, spec["a"], spec["b"])
    if kind == "trumpet":
        return oracle_for(kind, spec.get("alpha", O.certified_alpha(n)), n=n)
    return oracle_for(kind)


def anchor_curvature(model, r: float) -> float:
    return O.mean_curvature(model.u(r), model.du(r), r)


@dataclass
class Check:
    """Outcome of one op: status, reason, and accuracy samples by metric."""

    kind: str = ""  # profile kind of the op, to match KNOWN_MISSES
    status: str = "ok"
    reason: str = ""
    samples: dict = field(default_factory=dict)

    def sample(self, metric: str, value: float) -> None:
        self.samples.setdefault(metric, []).append(value)

    def fail(self, reason: str) -> None:
        if self.status == "ok":
            self.status, self.reason = "failed", reason

    def wrong(self, reason: str) -> None:
        if self.status != "wrong":
            self.status, self.reason = "wrong", reason

    def compare(self, metric: str, what: str, value, exact: float, tol: float) -> None:
        """Record the relative error of ``value`` against its closed form."""
        if value is None or isinstance(value, str):
            self.wrong(f"{what}: got {value!r}, expected {exact:.12g}")
            return
        self.bound(metric, what, O.rel_err(value, exact), tol)

    def bound(self, metric: str, what: str, err: float, tol: float) -> None:
        """Beyond ``tol`` the op missed its oracle: failed if the miss is a known defect, else wrong."""
        self.sample(metric, err)
        if err <= tol:
            return
        if (self.kind, metric) in KNOWN_MISSES:
            self.fail(f"missed oracle (known defect): {metric} of {self.kind} beyond {tol:g}")
        else:
            self.wrong(f"{what}: error {err:.2e} beyond {tol:g}")


def check_exit(check: Check, code: int, expected: int) -> bool:
    """True when the output files can be read for oracle checks."""
    if code == expected:
        return True
    if code in VERDICT_CODES and expected in VERDICT_CODES:
        check.wrong(f"exit {code}, expected {expected}")
    else:
        check.fail(f"exit {code}")
    return False


def read_json(out: Path, command: str) -> dict:
    return json.loads((out / command / f"{command}.json").read_text())


# ---------------------------------------------------------------- verdicts


def verdicts_round(rng: Draws, k: int) -> list[dict]:
    specs = [{"kind": "euclidean"}]
    specs += [{"kind": "schwarzschild", "mass": rng.log_uniform(0.1, 10.0)} for _ in range(4)]
    specs += [
        {"kind": "schwarzschild-like", "a": rng.log_uniform(0.5, 2.0), "b": rng.log_uniform(0.05, 5.0)}
        for _ in range(4)
    ]
    specs += [{"kind": "trumpet", "alpha": O.certified_alpha(3) * rng.uniform(1.0, 1.3)} for _ in range(2)]
    rng.shuffle(specs)
    ops = []
    for spec in specs:
        op = {"label": f"penrose/{spec['kind']}", "cli": {"command": "penrose", "profile": spec}}
        if spec["kind"] in ("schwarzschild", "schwarzschild-like"):
            op["hawking_radius"] = 1.0001 * profile_oracle(spec).horizon_radius
        ops.append(op)
    return ops


def check_penrose(op: dict, result, out: Path, check: Check) -> None:
    spec = op["cli"]["profile"]
    if not check_exit(check, result.code, EXIT_OK):
        return
    report = read_json(out, "penrose")["report"]
    kind = spec["kind"]
    if kind == "euclidean":
        if abs(report["adm_mass"]) > 1e-9 or report["area_infimum"] > 1e-9:
            check.wrong(f"flat space: mass {report['adm_mass']!r}, area {report['area_infimum']!r}")
        expected_verdict = "equality-within-tol"
    elif kind in ("trumpet", "tabulated"):
        model = profile_oracle(spec) if kind == "trumpet" else oracle_for("trumpet", op["alpha"])
        check.compare("mass_rel_err", "trumpet mass", report["adm_mass"], model.mass, MASS_TOL)
        check.compare("area_inf_rel_err", "throat area", report["area_infimum"], model.throat_area, AREA_TOL)
        expected_verdict = "strict"
    else:
        model = profile_oracle(spec)
        check.compare("mass_rel_err", "mass 2ab", report["adm_mass"], model.mass, MASS_TOL)
        check.compare("area_inf_rel_err", "area 64 pi a^2 b^2", report["area_infimum"], model.area_infimum, AREA_TOL)
        check.compare("area_inf_rel_err", "horizon b/a", report["horizon_radius"], model.horizon_radius, AREA_TOL)
        check.compare("mass_rel_err", "Hawking mass outside the horizon", result.hawking.hawking_mass, model.mass, MASS_TOL)
        if not result.hawking.passed:
            check.wrong("adm_hawking_check failed on a Schwarzschild-like profile")
        expected_verdict = "equality-within-tol"
    if report["verdict"] != expected_verdict:
        check.wrong(f"verdict {report['verdict']!r}, expected {expected_verdict!r}")


# -------------------------------------------------------- bubble-schedules

# Trumpet anchored at r0 = 6 with eps down to 1e-3 raises DegenerateMinimizerError.
BUBBLE_PROBE = {
    "label": "probe:horizon/trumpet r0=6 eps->1e-3",
    "cli": {"command": "horizon", "profile": {"kind": "trumpet"}, "r0": 6.0, "epsilons": [0.02, 0.01, 0.005, 0.002, 0.001]},
}
EPS_FLOOR = 1e-3


def _schedule(rng: Draws, h0: float) -> list[float]:
    """5-9 admissible curvature scales, geometric from below 0.9 H(S_r0) to 1e-3."""
    steps = rng.randint(5, 9)
    top = rng.uniform(0.5, 0.95) * 0.9 * h0
    return [top * (EPS_FLOOR / top) ** (i / (steps - 1)) for i in range(steps)]


def _rigidity_cfg(rng: Draws, spec: dict, r0: float) -> dict:
    model = profile_oracle(spec)
    u = model.u(r0)
    eps0 = math.sqrt(8.0 * math.pi / O.sphere_area(u, r0))
    eps = rng.uniform(0.3, 0.9) * min(eps0, 0.9 * anchor_curvature(model, r0))
    return {"command": "rigidity", "profile": spec, "r0": r0, "epsilon": eps, "gamma": rng.uniform(1.3, 1.8)}


def bubbles_round(rng: Draws, k: int) -> list[dict]:
    """Schwarzschild horizon and rigidity schedules, four of each."""
    ops = []
    for _ in range(4):
        mass = rng.log_uniform(0.5, 2.0)
        spec = {"kind": "schwarzschild", "mass": mass}
        r0 = mass * rng.uniform(1.0, 4.0)
        eps = _schedule(rng, anchor_curvature(profile_oracle(spec), r0))
        ops.append({"label": "horizon/schwarzschild", "cli": {"command": "horizon", "profile": spec, "r0": r0, "epsilons": eps}})
    for _ in range(4):
        mass = rng.log_uniform(0.5, 2.0)
        spec = {"kind": "schwarzschild", "mass": mass}
        ops.append({"label": "rigidity/schwarzschild", "cli": _rigidity_cfg(rng, spec, mass * rng.uniform(1.0, 4.0))})
    rng.shuffle(ops)
    return ops


def trumpet_bubbles_round(rng: Draws, k: int) -> list[dict]:
    """One trumpet horizon and one rigidity schedule anchored in [2, 6], and the probe in round 0."""
    spec = {"kind": "trumpet"}
    r0 = rng.uniform(2.0, 6.0)
    eps = _schedule(rng, anchor_curvature(profile_oracle(spec), r0))
    ops = [
        {"label": "horizon/trumpet", "cli": {"command": "horizon", "profile": spec, "r0": r0, "epsilons": eps}},
        {"label": "rigidity/trumpet", "cli": _rigidity_cfg(rng, {"kind": "trumpet"}, rng.uniform(2.0, 6.0))},
    ]
    rng.shuffle(ops)
    return ops + [BUBBLE_PROBE] if k == 0 else ops


def _bubble_residual(model, anchor, step) -> float:
    """|H(S_rho) - h(dist(rho))| from closed forms, independent of the solver."""
    rho = step["rho_star"]
    dist = -O.LIP_FACTOR * model.arc(rho, anchor)
    h = O.prescribed_h(step["epsilon"], step["beta"], dist)
    return abs(anchor_curvature(model, rho) - h)


def _check_bubble(check: Check, model, anchor, step) -> None:
    h_exact = anchor_curvature(model, step["rho_star"])
    check.bound("curvature_rel_err", "H(S_rho)", O.rel_err(step["mean_curvature"], h_exact), CURVATURE_TOL)
    el = _bubble_residual(model, anchor, step)
    check.bound("el_residual", f"first-variation residual at eps {step['epsilon']:.3g}", el, EL_TOL)


def check_horizon(op: dict, result, out: Path, check: Check) -> None:
    cfg = op["cli"]
    payload = read_json(out, "horizon")["result"]
    model = profile_oracle(cfg["profile"])
    exact_area = model.throat_area if cfg["profile"]["kind"] == "trumpet" else model.area_infimum
    check.compare("area_inf_rel_err", "area infimum", payload["area_infimum"], exact_area, AREA_TOL)
    bounds = []
    for step in payload["steps"]:
        if step["error"]:
            continue
        _check_bubble(check, model, cfg["r0"], step)
        bounds.append(step["mass_lower_bound"])
        if step["mass_lower_bound"] > model.mass * (1.0 + 1e-9):
            check.wrong(f"mass lower bound {step['mass_lower_bound']!r} exceeds the mass {model.mass!r}")
    if cfg["profile"]["kind"] == "schwarzschild" and bounds and payload["steps"][-1]["error"] is None:
        check.sample("horizon_bound_gap", abs(model.mass - bounds[-1]) / model.mass)
    check_exit(check, result.code, EXIT_OK)


def check_rigidity(op: dict, result, out: Path, check: Check) -> None:
    cfg = op["cli"]
    if not check_exit(check, result.code, EXIT_OK):
        return
    trace = read_json(out, "rigidity")["trace"]
    model = profile_oracle(cfg["profile"])
    exact_area = model.throat_area if cfg["profile"]["kind"] == "trumpet" else model.area_infimum
    check.compare("area_inf_rel_err", "area infimum", trace["area_infimum"], exact_area, AREA_TOL)
    anchor = cfg["r0"]
    steps = trace["steps"]
    for k, step in enumerate(steps):
        _check_bubble(check, model, anchor, step)
        if k + 1 < len(steps):
            exact = model.volume(steps[k + 1]["rho_star"], step["rho_star"])
            check.compare("integral_rel_err", "annulus volume", step["annulus_volume"], exact, INTEGRAL_TOL)
        anchor = step["rho_star"]


# -------------------------------------------------------- radial-integrals

# Known non-terminating integrals; each also has a closed form.
RADIAL_PROBES = [
    ("schwarzschild-like", {"a": 1.0, "b": 0.5}, "volume", 1.0, 90.0),
    ("schwarzschild-like", {"a": 1.0, "b": 0.5}, "volume", 1.0, 100.0),
    ("trumpet", {}, "volume", 1.0, 50.0),
    ("schwarzschild-like", {"a": 1.0, "b": 0.5}, "arc", 1e-3, 1e3),
]
SPAN_LO, SPAN_HI = 1e-3, 1e3


def _integral_op(label, spec, quantity, r_a, r_b):
    return {"label": label, "integral": {"profile": spec, "quantity": quantity, "r_a": r_a, "r_b": r_b}}


def radial_round(rng: Draws, k: int) -> list[dict]:
    """Arc length and volume on four profiles, plus one probe in turn.

    Per profile and quantity: two spans, each a sorted pair of log-uniform
    points on [1e-3, 1e3], and one improper integral from the open inner
    end r = 0.
    """
    specs = [
        {"kind": "euclidean"},
        {"kind": "schwarzschild-like", "a": rng.log_uniform(0.5, 2.0), "b": rng.log_uniform(0.1, 2.0)},
        {"kind": "cylinder"},
        {"kind": "trumpet", "alpha": O.certified_alpha(3) * rng.uniform(1.0, 1.3)},
    ]
    ops = []
    for spec in specs:
        for quantity in ("arc", "volume"):
            for _ in range(2):
                r_a, r_b = sorted(rng.log_uniform(SPAN_LO, SPAN_HI) for _ in range(2))
                ops.append(_integral_op(f"{quantity}/{spec['kind']}", spec, quantity, r_a, r_b))
            r_b = rng.log_uniform(SPAN_LO, SPAN_HI)
            ops.append(_integral_op(f"{quantity}/{spec['kind']} from 0", spec, quantity, 0.0, r_b))
    rng.shuffle(ops)
    kind, params, q, a, b = RADIAL_PROBES[k % len(RADIAL_PROBES)]
    return ops + [_integral_op(f"probe:{q} {kind} [{a:g}, {b:g}]", {"kind": kind, **params}, q, a, b)]


def check_integral(op: dict, result, out: Path, check: Check) -> None:
    spec = op["integral"]
    model = profile_oracle(spec["profile"])
    r_a, r_b = spec["r_a"], spec["r_b"]
    exact = model.arc(r_a, r_b) if spec["quantity"] == "arc" else model.volume(r_a, r_b)
    value = result.value
    if math.isinf(exact) or math.isinf(value):
        if value != exact:
            check.wrong(f"{spec['quantity']} over [{r_a!r}, {r_b!r}]: {value!r}, expected {exact!r}")
        return
    err = abs(value - exact)
    what = f"{spec['quantity']} over [{r_a:.3g}, {r_b:.3g}]"
    check.bound("integral_rel_err", what, err / abs(exact), INTEGRAL_TOL + INTEGRAL_ABS_TOL / abs(exact))


# ------------------------------------------------------- trumpet-roundtrip


def trumpet_round(rng: Draws, k: int) -> list[dict]:
    ops = []
    for slot, n in enumerate((3, 4, 5)):
        alpha = O.certified_alpha(n) * rng.uniform(0.8, 1.3)
        ops.append({"label": f"trumpet/n={n}", "slot": slot, "cli": {"command": "trumpet", "n": n, "alpha": alpha}})
        table = {"kind": "tabulated", "trumpet_slot": slot}
        ops.append({"label": f"analyze/tabulated n={n}", "slot": slot, "alpha": alpha, "cli": {"command": "analyze", "n": n, "profile": table}})
        if n == 3:
            ops.append({"label": "penrose/tabulated n=3", "slot": slot, "alpha": alpha, "cli": {"command": "penrose", "n": 3, "profile": table}})
    return ops


def _margins(checks: dict, model) -> list[float]:
    """Relative slack of the tail-mass, Laplacian, curvature and throat checks."""
    tail = checks["asymptotically_flat"]["detail"]
    if "fit_mass" in tail:
        tail_slack = 1.0 - abs(tail["fit_mass"] - model.mass) / (TAIL_MASS_TOL * max(1.0, model.mass))
    else:
        tail_slack = 1.0 - tail["fit_residual"] / (TAIL_RESIDUAL_TOL * tail["a"])
    curv = checks["scalar_curvature_nonnegative"]["detail"]
    throat = checks["throat_area"]["detail"]
    return [
        tail_slack,
        min(1.0, (LAPLACIAN_TERM_TOL - curv["max_laplacian_term"]) / LAPLACIAN_TERM_TOL),
        min(1.0, (curv["min_scalar_curvature"] + SCALAR_CURVATURE_TOL) / SCALAR_CURVATURE_TOL),
        1.0 - abs(throat["limit"] - model.throat_area) / THROAT_AREA_TOL,
    ]


def expected_trumpet_exit(n: int, alpha: float) -> int:
    """The trumpet command fails verification (exit 5) exactly below the certified bound."""
    return EXIT_OK if alpha >= O.certified_bound(n) else EXIT_TRUMPET


def check_trumpet(op: dict, result, out: Path, check: Check) -> None:
    cfg = op["cli"]
    n, alpha = cfg["n"], cfg["alpha"]
    certified = expected_trumpet_exit(n, alpha) == EXIT_OK
    if result.weak_alpha != (alpha < O.certified_alpha(n)):
        check.wrong(f"WeakAlphaWarning {'raised' if result.weak_alpha else 'missing'} at alpha {alpha!r}")
    if not check_exit(check, result.code, expected_trumpet_exit(n, alpha)):
        return
    payload = read_json(out, "trumpet")
    model = oracle_for("trumpet", alpha, n=n)
    check.compare("mass_rel_err", "alpha0", payload["params"]["alpha0"], model.alpha0, MASS_TOL)
    check.compare("area_inf_rel_err", "throat area", payload["verification"]["throat_area"], model.throat_area, AREA_TOL)
    checks = {c["name"]: c for c in payload["verification"]["checks"]}
    tail = checks["asymptotically_flat"]["detail"]
    fit_mass = tail["fit_mass"] if n == 3 else 2.0 * tail["a"] * tail["b"]
    check.compare("mass_rel_err", "tail mass 2 alpha0", fit_mass, model.mass, TAIL_FIT_TOL[n])
    if n == 3:
        check.compare("mass_rel_err", "penrose mass", payload["penrose"]["adm_mass"], model.mass, MASS_TOL)
    if certified:
        for margin in _margins(checks, model):
            check.sample("trumpet_margin", margin)


def _csv_arc_checks(check: Check, csv_path: Path, model) -> None:
    """Arc length accumulated in analyze.csv across each closed-form region."""
    with open(csv_path, newline="") as fh:
        rows = [(float(row["r"]), float(row["geodesic_s"])) for row in csv.DictReader(fh)]
    inner = [row for row in rows if row[0] <= model.r0]
    outer = [row for row in rows if row[0] >= 2.0 * model.r0]
    for region in (inner, outer):
        (r_a, s_a), (r_b, s_b) = region[0], region[-1]
        exact = model.exact_region_arc(r_a, r_b)
        if exact is not None:
            check.compare("integral_rel_err", f"analyze arc over [{r_a:.3g}, {r_b:.3g}]", s_b - s_a, exact, INTEGRAL_TOL)


def check_analyze(op: dict, result, out: Path, check: Check) -> None:
    if not check_exit(check, result.code, EXIT_OK):
        return
    n = op["cli"]["n"]
    model = oracle_for("trumpet", op["alpha"], n=n)
    summary = read_json(out, "analyze")
    check.compare("mass_rel_err", "tabulated tail mass", summary["adm_mass"], model.mass, TAIL_FIT_TOL[n])
    check.compare("area_inf_rel_err", "tabulated throat area", summary["area_infimum"], model.throat_area, AREA_TOL)
    _csv_arc_checks(check, out / "analyze" / "analyze.csv", model)


CHECKS = {
    "penrose": check_penrose,
    "horizon": check_horizon,
    "rigidity": check_rigidity,
    "trumpet": check_trumpet,
    "analyze": check_analyze,
}


def checker(op: dict):
    return check_integral if "integral" in op else CHECKS[op["cli"]["command"]]


def op_kind(op: dict) -> str:
    """The profile kind an op runs on ("" for the trumpet command, which has none)."""
    return (op.get("integral") or op["cli"]).get("profile", {}).get("kind", "")


@dataclass(frozen=True)
class Workload:
    name: str
    make_round: object
    deadline_s: float  # per-op wall-clock limit
    trace_rounds: int  # rounds in the fixed op list of a traced run

    def round(self, seed: int, k: int) -> list[dict]:
        return self.make_round(Draws(f"{self.name}:{seed}", k), k)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("verdicts", verdicts_round, deadline_s=5.0, trace_rounds=40),
        Workload("bubble-schedules", bubbles_round, deadline_s=5.0, trace_rounds=2),
        Workload("bubble-trumpet", trumpet_bubbles_round, deadline_s=5.0, trace_rounds=6),
        # On a 2-vCPU x86 VM integrals that finish took at most ~0.65 s (seeds 1-2,
        # rounds 0-3, 3 s deadline); the rest, ~15% of spans, ran past 3 s.  1 s
        # separates the two.  Four traced rounds cover every probe once.
        Workload("radial-integrals", radial_round, deadline_s=1.0, trace_rounds=len(RADIAL_PROBES)),
        Workload("trumpet-roundtrip", trumpet_round, deadline_s=5.0, trace_rounds=3),
    )
}
