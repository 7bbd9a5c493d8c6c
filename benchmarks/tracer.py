"""Per-layer tracing of penroselab from outside the package.

``Tracer.installed()`` wraps every public function of each layer module,
``RadialProfile.u/du/d2u`` and the ``PanelAntiderivative`` constructor, and
rebinds every module attribute that refers to them, including names one
module imported from another (``bubbles.area_infimum_radial``,
``geometry.adaptive_simpson``); on exit every binding is restored.  The
integrand handed to each quadrature call is wrapped too, so integrand calls
and points are counted where the work happens.

Each wrapper is a span.  A span stack gives self time (duration minus the
time of child spans); spans are aggregated per function in memory and
reported when the run ends, not written while it runs.

A traced op ends on a budget of integrand calls instead of the wall-clock
deadline, so the work counts of a traced run repeat exactly.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
from contextlib import contextmanager
from time import perf_counter

import numpy as np

LAYERS = ("cli", "reports", "profiles", "geometry", "quadrature", "masses", "bubbles", "trumpet")
QUADRATURE_CALLS = ("adaptive_simpson", "improper_lower", "gauss_panel")


class DeadlineExceeded(BaseException):
    """An op ran past its limit.  Not an Exception, so no handler in the package swallows it."""


class Tracer:
    """Spans and work counters at every layer boundary, and the per-op call budget."""

    def __init__(self, call_budget: int):
        self.call_budget = call_budget
        self.op_calls = 0
        self._bindings: list[tuple[object, str, object]] = []
        self.stack: list[list[float]] = []
        self.spans: dict[str, list] = {}  # qualified name -> [layer, calls, total_s, self_s]
        self.counts: dict[str, float] = {}
        self.schedule_depth = 0

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    # ------------------------------------------------------------ spans

    def span(self, name: str, layer: str, fn, before=None, after=None):
        """Wrap ``fn`` in a span; ``before`` may rewrite the arguments, ``after`` sees the result."""
        record = self.spans.setdefault(name, [layer, 0, 0.0, 0.0])
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args = before(args)
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                record[1] += 1
                record[2] += dt
                record[3] += dt - frame[0]
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def start_op(self) -> None:
        self.op_calls = 0

    def integrand(self, f):
        """``f`` counted against the op's call budget, as a span of the layer that defined it."""
        if getattr(f, "_bench_counted", False):
            return f
        module = getattr(f, "__module__", "") or ""
        layer = module.rsplit(".", 1)[-1] if module.startswith("penroselab") else "quadrature"

        def counted(x):
            self.op_calls += 1
            if self.op_calls > self.call_budget:
                raise DeadlineExceeded(f"integrand call budget {self.call_budget} spent")
            self.count("quadrature.integrand_calls")
            self.count("quadrature.integrand_points", np.size(x))
            return f(x)

        wrapped = self.span(f"{layer}.<integrand>", layer, counted)
        wrapped._bench_counted = True
        return wrapped

    # ------------------------------------------------------------ hooks

    def _hooks(self, layer: str, name: str):
        """Counters attached to particular functions: (before, after)."""
        qual = f"{layer}.{name}"

        def counter(key):
            def before(args):
                self.count(key)
                return args

            return before, None

        if layer == "quadrature" and name in QUADRATURE_CALLS:
            return (lambda args: (self.integrand(args[0]),) + tuple(args[1:])), None
        if layer == "geometry" and name in ("geodesic_distance", "volume_between"):
            return counter("geometry.integral_calls")
        masses = {"adm_mass_from_tail": "tail_fits", "area_infimum_radial": "area_infima", "find_horizon": "horizon_finds"}
        if layer == "masses" and name in masses:
            return counter(f"masses.{masses[name]}")
        if qual in ("reports.write_json", "reports.write_csv"):
            return None, lambda args, result: self.count("reports.bytes_written", os.path.getsize(args[0]))
        if qual == "cli.run_command":
            return counter("cli.calls")
        if qual == "bubbles.minimize":
            return counter("bubbles.minimize_calls")[0], lambda args, result: self.count(
                "bubbles.steps_ok", self.schedule_depth > 0
            )
        if qual == "bubbles.select_beta":

            def step(args):
                self.count("bubbles.steps", self.schedule_depth > 0)
                return args

            return step, None
        return None, None

    def _schedule(self, fn):
        """Mark the extent of horizon_sequence / rigidity_iteration, where bubble steps are counted."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.schedule_depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self.schedule_depth -= 1

        return wrapper

    # ------------------------------------------------------------ install

    def wrappers(self, modules: dict) -> dict[int, object]:
        """Replacement for each wrapped object, keyed by the id of the original."""
        out: dict[int, object] = {}
        for layer, module in modules.items():
            for name, fn in vars(module).items():
                if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                before, after = self._hooks(layer, name)
                wrapped = self.span(f"{layer}.{name}", layer, fn, before, after)
                if name in ("horizon_sequence", "rigidity_iteration"):
                    wrapped = self._schedule(wrapped)
                out[id(fn)] = wrapped
        panel = modules["quadrature"].PanelAntiderivative

        def build_panels(f, edges):
            self.count("quadrature.panel_builds")
            return panel(self.integrand(f), edges)

        out[id(panel)] = self.span("quadrature.PanelAntiderivative", "quadrature", build_panels)
        return out

    @contextmanager
    def installed(self):
        modules = {layer: sys.modules[f"penroselab.{layer}"] for layer in LAYERS}
        wrappers = self.wrappers(modules)
        try:
            for module in [sys.modules["penroselab"], *modules.values()]:
                for name, value in list(vars(module).items()):
                    if id(value) in wrappers:
                        self._rebind(module, name, wrappers[id(value)])
            base = modules["profiles"].RadialProfile
            for name in ("u", "du", "d2u"):
                self._rebind(base, name, self._evaluator(name, getattr(base, name)))
            yield self
        finally:
            for owner, name, value in reversed(self._bindings):
                setattr(owner, name, value)
            self._bindings.clear()

    def _rebind(self, owner, name, value) -> None:
        self._bindings.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def _evaluator(self, name, method):
        def after(args, result):
            self.count("profiles.eval_calls")
            self.count("profiles.points", np.size(args[1]))

        return self.span(f"profiles.RadialProfile.{name}", "profiles", method, after=after)

    # ------------------------------------------------------------ report

    def total_ms(self, *names: str) -> float:
        return 1e3 * sum(self.spans[n][2] for n in names if n in self.spans)

    def self_ms(self, layer: str) -> float:
        return 1e3 * sum(rec[3] for rec in self.spans.values() if rec[0] == layer)

    def table(self, limit: int = 25) -> list[str]:
        """The busiest spans by self time, for the run log."""
        rows = sorted(self.spans.items(), key=lambda item: -item[1][3])[:limit]
        return [
            f"  {name:48s} calls {rec[1]:>9d}  total {1e3 * rec[2]:10.1f} ms  self {1e3 * rec[3]:10.1f} ms"
            for name, rec in rows
            if rec[1]
        ]
