#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of penroselab: the standard library and numpy only.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ./src.  The
workloads, their ops and their oracles are in workloads.py.  Ops run one at
a time in a closed loop, each under a wall-clock deadline (an interval
timer, so one hung integral cannot stall the run), and whole rounds of ops
run until ``--seconds`` have passed and at least MIN_OPS ops have ended
before the deadline.  The op-time percentiles are over those ops; a
deadline hit counts only in ok_ratio and in ops_per_s.  Every timing is
scaled to a nominal host speed (see HostSpeed).  All CLI output goes to a
temporary directory under .bench_tmp/ that is removed at the end.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs a fixed
op list twice, untraced and then traced (see tracer.py), and reports the
per-layer metrics and the tracing overhead.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.  The exit
code is 1 when an op returned a result that contradicts its closed form
(see workloads.py), 2 when the package is missing or a warm-up op does not
pass.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import hashlib
import io
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import tracer
import workloads
from tracer import DeadlineExceeded

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 5
MIN_OPS = 100  # ops ended before the deadline, so that at least ten lie beyond op_ms_p90
DIGITS_CAP = 16.0  # an error below 1e-16, or no quantity of that kind, reads as 16 digits
# Integrand calls that one second of deadline buys untraced (scalar adaptive
# Simpson on a 2-vCPU x86 VM); a traced op ends on this many calls per second.
CALLS_PER_SECOND = 250_000
TRACE_STALL_S = 30.0  # traced ops end on their call budget; this timer only guards against a stall

REF_EVERY_S = 0.5  # seconds between two timings of the reference kernel while measuring
REF_NOMINAL_S = 0.015  # the reference kernel's time at nominal host speed (2-vCPU x86 VM)

ACCURACY = {  # end-to-end accuracy metric -> sample key in workloads.Check
    "el_residual_digits": "el_residual",
    "horizon_bound_gap_digits": "horizon_bound_gap",
    "mass_rel_err_digits": "mass_rel_err",
    "area_inf_rel_err_digits": "area_inf_rel_err",
    "integral_rel_err_digits": "integral_rel_err",
}

# Fixed, seed-independent ops that warm caches before measuring.
WARMUP = {
    "verdicts": [
        {"label": "penrose/schwarzschild", "cli": {"command": "penrose", "profile": {"kind": "schwarzschild", "mass": 1.0}}, "hawking_radius": 0.50005},
        {"label": "penrose/trumpet", "cli": {"command": "penrose", "profile": {"kind": "trumpet", "alpha": 2.0}}},
    ],
    "bubble-schedules": [
        {"label": "horizon/schwarzschild", "cli": {"command": "horizon", "profile": {"kind": "schwarzschild", "mass": 1.0}, "r0": 2.0, "epsilons": [0.1, 0.01, 0.001]}},
        {"label": "rigidity/schwarzschild", "cli": {"command": "rigidity", "profile": {"kind": "schwarzschild", "mass": 1.0}, "r0": 2.0, "epsilon": 0.04, "gamma": 1.5}},
    ],
    "bubble-trumpet": [
        {"label": "horizon/trumpet", "cli": {"command": "horizon", "profile": {"kind": "trumpet"}, "r0": 3.0, "epsilons": [0.04, 0.01, 0.001]}},
        {"label": "rigidity/trumpet", "cli": {"command": "rigidity", "profile": {"kind": "trumpet"}, "r0": 3.0, "epsilon": 0.03, "gamma": 1.5}},
    ],
    "radial-integrals": [
        {"label": "arc/cylinder", "integral": {"profile": {"kind": "cylinder"}, "quantity": "arc", "r_a": 1.0, "r_b": 3.0}},
        {"label": "volume/euclidean", "integral": {"profile": {"kind": "euclidean"}, "quantity": "volume", "r_a": 1.0, "r_b": 3.0}},
    ],
    "trumpet-roundtrip": [
        {"label": "trumpet/n=3", "slot": 0, "cli": {"command": "trumpet", "n": 3, "alpha": 2.0}},
        {"label": "analyze/tabulated n=3", "slot": 0, "alpha": 2.0, "cli": {"command": "analyze", "n": 3, "profile": {"kind": "tabulated", "trumpet_slot": 0}}},
        {"label": "penrose/tabulated n=3", "slot": 0, "alpha": 2.0, "cli": {"command": "penrose", "n": 3, "profile": {"kind": "tabulated", "trumpet_slot": 0}}},
    ],
}


class HostSpeed:
    """Times a fixed reference kernel now and then, to scale op times to a nominal host speed.

    On a shared VM the same op can take half as long again in one minute as
    in the next, and that drift swamps the spread between seeds.  The kernel
    (a Python dict-and-float loop and small numpy array arithmetic, like the
    package's own mix) slows with the host, not with the package.  On a
    2-vCPU x86 VM, over three minutes of bubble ops with the kernel timed
    before each ~1-s block, the op time of 20-s spans varied by 11%
    (coefficient of variation) and the op time over the kernel time by 3.7%.
    """

    _x = np.linspace(1.0, 2.0, 500)

    def __init__(self):
        self.samples: list[float] = []
        self.last = -math.inf

    def sample(self, every: float = 0.0) -> None:
        """Time the kernel, unless it was timed less than ``every`` seconds ago."""
        t0 = time.perf_counter()
        if t0 - self.last < every:
            return
        table: dict[int, float] = {}
        total = 0.0
        for i in range(40_000):
            table[i % 97] = table.get(i % 97, 0.0) + 0.5 * i
            total += math.sqrt(i)
        for _ in range(300):
            total += float((np.sqrt(self._x) * np.exp(-self._x) + self._x**1.5).sum())
        self.last = time.perf_counter()
        self.samples.append(self.last - t0)

    def scale(self) -> float:
        """Factor from a time measured while these samples were taken to one at nominal speed."""
        return REF_NOMINAL_S / statistics.fmean(self.samples)

    def line(self, what: str) -> str:
        return (f"host speed during {what}: reference kernel {1e3 * statistics.fmean(self.samples):.2f} ms "
                f"(mean of {len(self.samples)}), nominal {1e3 * REF_NOMINAL_S:g} ms, times scaled by {self.scale():.4f}")


def die(message: str) -> None:
    print(f"benchmark: {message}", file=sys.stderr)
    raise SystemExit(2)


class Runner:
    """Executes ops against the package and checks them against the oracles."""

    def __init__(self, lib, tmp: Path, deadline_s: float):
        self.lib = lib
        self.tmp = tmp
        self.deadline_s = deadline_s
        self.tracer = None
        self.armed = False
        self.profiles: dict[str, object] = {}  # radial profiles, built untraced or under the tracer
        signal.signal(signal.SIGALRM, self._alarm)

    def _alarm(self, signum, frame):
        if self.armed:
            self.armed = False
            raise DeadlineExceeded(f"op ran past {self.deadline_s:g} s")

    def _prepare(self, op: dict):
        """Untimed: a fresh output directory and the arguments of the call."""
        out = self.tmp / (f"slot{op['slot']}" if "slot" in op else "op")
        if "integral" in op:
            spec = op["integral"]
            key = json.dumps(spec["profile"], sort_keys=True)
            if key not in self.profiles:
                self.profiles[key] = self.lib.cli.build_profile({"profile": spec["profile"], "n": 3})
            return out, self.profiles[key]
        cfg = copy.deepcopy(op["cli"])
        cfg["out_dir"] = str(out)
        profile = cfg.get("profile", {})
        if "trumpet_slot" in profile:
            slot = profile.pop("trumpet_slot")
            profile["path"] = str(self.tmp / f"slot{slot}" / "trumpet" / "trumpet_profile.dat")
        shutil.rmtree(out / cfg["command"], ignore_errors=True)
        return out, cfg

    def _call(self, op: dict, arg):
        lib = self.lib
        result = SimpleNamespace(code=None, value=None, hawking=None, weak_alpha=False)
        if "integral" in op:
            spec = op["integral"]
            fn = lib.geometry.geodesic_distance if spec["quantity"] == "arc" else lib.geometry.volume_between
            result.value = fn(arg, spec["r_a"], spec["r_b"])
            return result
        result.code = lib.cli.run_command(arg)
        if "hawking_radius" in op:
            # the quasi-local check just outside the horizon, as scripts/run_corpus.py does
            profile = lib.cli.build_profile(arg)
            result.hawking = lib.masses.adm_hawking_check(profile, op["hawking_radius"])
        return result

    def run(self, op: dict):
        """One op: returns (seconds, Check)."""
        if self.tracer is not None:
            self.tracer.start_op()
        out, arg = self._prepare(op)
        sink = io.StringIO()
        error = None
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            self.armed = True
            signal.setitimer(signal.ITIMER_REAL, self.deadline_s)  # one shot
            t0 = time.perf_counter()
            # The outer handler also catches an alarm that lands while the inner
            # handlers run; the timer fires at most once per op.
            try:
                try:
                    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                        result = self._call(op, arg)
                except Exception as exc:  # an op that raises is a failed op, not a benchmark crash
                    error = f"exception {type(exc).__name__}"
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
                    self.armed = False
            except DeadlineExceeded:
                self.armed = False
                error = "deadline"
            elapsed = time.perf_counter() - t0
        check = workloads.Check(kind=workloads.op_kind(op))
        if error is not None:
            check.fail(error)
            return elapsed, check
        result.weak_alpha = any(w.category.__name__ == "WeakAlphaWarning" for w in caught)
        try:
            workloads.checker(op)(op, result, out, check)
        except (OSError, KeyError, ValueError, TypeError) as exc:
            check.wrong(f"unreadable output: {type(exc).__name__}: {exc}")
        return elapsed, check


IMPORT = "import penroselab.cli, penroselab.geometry, penroselab.masses"
IMPORT_PROBE = f"import time; t = time.perf_counter(); {IMPORT}; print(time.perf_counter() - t)"


def import_library(speed: HostSpeed):
    """The package from ./src, and the median time to import it (here and in fresh interpreters)."""
    if not (SRC / "penroselab" / "__init__.py").is_file():
        die(f"package source not found under {SRC}; run from the root of a penroselab checkout")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import penroselab.cli
    import penroselab.geometry
    import penroselab.masses

    times = [time.perf_counter() - t0]
    if not Path(penroselab.__file__).resolve().is_relative_to(SRC.resolve()):
        die(f"imported penroselab from {penroselab.__file__}, not from {SRC}")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    for _ in range(SETUP_REPEATS - 1):
        speed.sample()
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True, text=True, check=True, timeout=120)
        times.append(float(probe.stdout))
    lib = SimpleNamespace(cli=penroselab.cli, geometry=penroselab.geometry, masses=penroselab.masses)
    return lib, statistics.median(times)


def inputs_line(wl, seed: int, ops: list[dict]) -> str:
    """The workload, the seed and the hash of every op a run measured."""
    digest = hashlib.sha256(json.dumps(ops, sort_keys=True).encode()).hexdigest()
    return f"workload {wl.name}  seed {seed}  inputs_sha256 {digest}  ({len(ops)} ops)"


def set_up(wl, seed: int, runner: Runner, speed: HostSpeed) -> float:
    """Generate the first inputs and run the warm-up ops, several times; returns the median time."""
    times = []
    for _ in range(SETUP_REPEATS):
        speed.sample()
        t0 = time.perf_counter()
        workloads.oracle_for.cache_clear()
        runner.profiles.clear()
        for k in range(wl.trace_rounds):
            wl.round(seed, k)
        for op in WARMUP[wl.name]:
            _elapsed, check = runner.run(op)
            if check.status != "ok":
                die(f"warm-up op {op['label']} did not pass: {check.status} {check.reason}")
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def measure(runner: Runner, ops) -> list[tuple[str, float, object]]:
    return [(op["label"], *runner.run(op)) for op in ops]


def measure_for(runner: Runner, wl, seed: int, seconds: float, speed: HostSpeed) -> tuple[list, list[dict]]:
    """Whole rounds until ``seconds`` have passed and at least MIN_OPS ops ended before the deadline.

    The reference kernel is timed between ops, every REF_EVERY_S seconds.
    """
    t0 = time.perf_counter()
    records, ops = [], []
    k = finished = 0
    while finished < MIN_OPS or time.perf_counter() - t0 < seconds:
        batch = wl.round(seed, k)
        ops += batch
        for op in batch:
            speed.sample(REF_EVERY_S)
            records.append((op["label"], *runner.run(op)))
            finished += records[-1][2].reason != "deadline"
        k += 1
    return records, ops


def digits(errors: list[float]) -> float:
    worst = max(errors, default=0.0)
    return DIGITS_CAP if worst <= 10.0**-DIGITS_CAP else min(DIGITS_CAP, -math.log10(worst))


def end_to_end(records, setup_s: float, scale: float) -> tuple[dict, dict]:
    """The end-to-end metrics, and the worst error of each accuracy sample kind.

    Op times are multiplied by ``scale``; ``setup_s`` is already scaled.
    """
    times = [scale * t for _label, t, _check in records]
    finished = [scale * t for _label, t, check in records if check.reason != "deadline"]
    samples: dict[str, list[float]] = {}
    for _label, _t, check in records:
        for key, values in check.samples.items():
            samples.setdefault(key, []).extend(values)
    attempted = len(records)
    ok = sum(check.status == "ok" for _l, _t, check in records)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (attempted / sum(times), "1/s"),
        "op_ms_p50": (1e3 * statistics.median(finished), "ms"),
        "op_ms_p90": (1e3 * statistics.quantiles(finished, n=10)[8], "ms"),
        "ok_ratio": (ok / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    for name, key in ACCURACY.items():
        metrics[name] = (digits(samples.get(key, [])), "digits")
    metrics["trumpet_margin_min"] = (min(samples.get("trumpet_margin", []), default=1.0), "ratio")
    worst = {key: max(values) for key, values in samples.items() if key != "trumpet_margin"}
    return metrics, worst


def per_layer(tr, records, untraced) -> dict:
    """The per-layer metrics of a traced pass; ``untraced`` ran the same ops first."""
    spans = tr.total_ms
    counts = tr.counts.get
    steps = counts("bubbles.steps", 0)
    steps_failed = steps - counts("bubbles.steps_ok", 0)
    both_ok = [
        (t_u, t_t)
        for (_l, t_u, c_u), (_l2, t_t, c_t) in zip(untraced, records)
        if c_u.status == "ok" and c_t.status == "ok"
    ]
    metrics = {
        "profiles.eval_calls": (counts("profiles.eval_calls", 0), "count"),
        "profiles.points": (counts("profiles.points", 0), "count"),
        "profiles.points_per_call": (counts("profiles.points", 0) / max(1, counts("profiles.eval_calls", 0)), "points/call"),
        "profiles.self_ms": (tr.self_ms("profiles"), "ms"),
        "profiles.read_tabulated_ms": (spans("profiles.read_tabulated"), "ms"),
        "profiles.write_tabulated_ms": (spans("profiles.write_tabulated"), "ms"),
        "quadrature.integrand_calls": (counts("quadrature.integrand_calls", 0), "count"),
        "quadrature.integrand_points": (counts("quadrature.integrand_points", 0), "count"),
        "quadrature.panel_builds": (counts("quadrature.panel_builds", 0), "count"),
        "quadrature.deadline_hits": (sum(c.reason == "deadline" for _l, _t, c in records), "count"),
        "quadrature.self_ms": (tr.self_ms("quadrature"), "ms"),
        "geometry.integral_calls": (counts("geometry.integral_calls", 0), "count"),
        "geometry.self_ms": (tr.self_ms("geometry"), "ms"),
        "masses.tail_fits": (counts("masses.tail_fits", 0), "count"),
        "masses.area_infima": (counts("masses.area_infima", 0), "count"),
        "masses.horizon_finds": (counts("masses.horizon_finds", 0), "count"),
        "masses.self_ms": (tr.self_ms("masses"), "ms"),
        "bubbles.minimize_calls": (counts("bubbles.minimize_calls", 0), "count"),
        "bubbles.minimize_ms": (spans("bubbles.minimize"), "ms"),
        "bubbles.build_problem_ms": (spans("bubbles.build_problem"), "ms"),
        "bubbles.steps": (steps, "count"),
        "bubbles.steps_failed": (steps_failed, "count"),
        "bubbles.step_ok_ratio": ((steps - steps_failed) / steps if steps else 1.0, "ratio"),
        "bubbles.self_ms": (tr.self_ms("bubbles"), "ms"),
        "trumpet.build_ms": (spans("trumpet.build_trumpet"), "ms"),
        "trumpet.verify_ms": (spans("trumpet.verify_trumpet"), "ms"),
        "trumpet.export_ms": (spans("trumpet.export_trumpet"), "ms"),
        "reports.write_ms": (spans("reports.write_json", "reports.write_csv"), "ms"),
        "reports.bytes_written": (counts("reports.bytes_written", 0), "bytes"),
        "cli.calls": (counts("cli.calls", 0), "count"),
        "cli.self_ms": (tr.self_ms("cli"), "ms"),
        "trace.ops_per_s_ratio": (
            sum(t_u for t_u, _ in both_ok) / sum(t_t for _, t_t in both_ok) if both_ok else 1.0,
            "ratio",
        ),
    }
    return metrics


def report(records, metrics: dict, extra: list[str]) -> int:
    attempted = len(records)
    failed = [(label, check) for label, _t, check in records if check.status != "ok"]
    wrong = [(label, check) for label, check in failed if check.status == "wrong"]
    reasons: dict[str, int] = {}
    for label, check in failed:
        key = f"{label}: {check.reason}" if check.status == "wrong" or label.startswith("probe:") else check.reason
        reasons[key] = reasons.get(key, 0) + 1
    for line in extra:
        print(line)
    by_label: dict[str, list[float]] = {}
    for label, t, _check in records:
        by_label.setdefault(label, []).append(t)
    for label, times in sorted(by_label.items()):
        print(f"  {label:44s} ops {len(times):6d}  mean {1e3 * statistics.fmean(times):9.2f} ms")
    print(f"ops attempted {attempted}, failed {len(failed)} (of which wrong {len(wrong)})")
    for reason, n in sorted(reasons.items()):
        print(f"  {n:5d} x {reason}")
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:16.6f} {unit}")
    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not wrong else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # a terminated run still removes its temporary directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    setup_speed = HostSpeed()
    lib, import_s = import_library(setup_speed)
    if args.workload not in workloads.WORKLOADS:
        die(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=scratch))
    try:
        runner = Runner(lib, tmp, wl.deadline_s)
        setup_s = set_up(wl, args.seed, runner, setup_speed)
        if not args.trace:
            speed = HostSpeed()
            records, ops = measure_for(runner, wl, args.seed, args.seconds, speed)
            metrics, worst = end_to_end(records, setup_speed.scale() * (import_s + setup_s), speed.scale())
            finished = sum(check.reason != "deadline" for _l, _t, check in records)
            extra = [inputs_line(wl, args.seed, ops), setup_speed.line("set-up"), speed.line("the run")]
            extra += [f"op_ms percentiles over the {finished} ops that ended before the deadline"]
            extra += [f"worst {key} {value:.3e}" for key, value in sorted(worst.items())]
            return report(records, metrics, extra)
        ops = [op for k in range(wl.trace_rounds) for op in wl.round(args.seed, k)]
        extra = [inputs_line(wl, args.seed, ops)]
        untraced = measure(runner, ops)
        tr = tracer.Tracer(call_budget=int(wl.deadline_s * CALLS_PER_SECOND))
        runner.tracer, runner.deadline_s = tr, TRACE_STALL_S
        runner.profiles.clear()  # rebuilt under the tracer, so their integrands are counted
        with tr.installed():
            records = measure(runner, ops)
        extra += ["busiest spans by self time:", *tr.table()]
        return report(records, per_layer(tr, records, untraced), extra)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()


if __name__ == "__main__":
    sys.exit(main())
