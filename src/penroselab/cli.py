"""Batch front-end: scenario configs in, machine-readable reports out.

Runs are config-first: a JSON file with a ``command`` field plus profile,
grid, and command parameters (a field its command does not read is ignored);
each override flag (one row of ``_FLAGS``) sets its config field.  Every
command writes its report through ``_report``, which reads each CSV row from
a JSON record, and ``run_command`` maps an ``OSError`` (an unwritable report
path) to a config error, for ``main`` and ``batch`` alike.
Exit codes: 0 ok, 2 config error (also an unreadable config or profile file,
an unwritable ``out_dir`` or a non-finite profile parameter), 3 inequality
violated, 4 degenerate minimizer (for ``horizon``, curvatures refused as too
large do not count; for ``rigidity``, such a refusal ends the schedule and
counts only at step 0), 5 trumpet verification failure, 6 hypothesis
refused (the profile is not asymptotically flat).  A closed stdout changes
no exit code: summary lines that cannot be printed are dropped.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import bubbles, trumpet as trumpet_mod
from .errors import (
    ConfigError,
    DegenerateMinimizerError,
    EpsilonTooLargeError,
    NotAsymptoticallyFlatError,
    PenroseLabError,
)
from .geometry import _Sphere
from .masses import VERDICT_VIOLATED, GridScan
from .profiles import (
    DEFAULT_GRID_COUNT,
    DEFAULT_GRID_HI,
    DEFAULT_GRID_LO,
    CylinderProfile,
    EuclideanProfile,
    RadialGrid,
    SchwarzschildLikeProfile,
    default_grid,
    read_tabulated,
)
from .quadrature import gauss_panel
from .reports import jsonable, write_csv, write_json, write_table

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VIOLATED = 3
EXIT_DEGENERATE = 4
EXIT_TRUMPET = 5
EXIT_REFUSED = 6

# One row per override flag: (flag, argparse type, config path, help).  A
# ``profile.*`` or ``grid.*`` path sets one field of that object.
_FLAGS = (
    ("--out-dir", str, "out_dir", None),
    ("--profile", str, "profile.kind", "profile kind"),
    ("--mass", float, "profile.mass", None),
    ("--a", float, "profile.a", None),
    ("--b", float, "profile.b", None),
    ("--path", str, "profile.path", "tabulated profile file"),
    ("--n", int, "n", None),
    ("--r0", float, "r0", "anchor sphere radius"),
    ("--alpha", float, "profile.alpha", None),
    ("--epsilon", float, "epsilon", None),
    ("--epsilons", str, "epsilons", "comma-separated schedule"),
    ("--gamma", float, "gamma", None),
    ("--beta", float, "beta", None),
    ("--grid-lo", float, "grid.r_lo", None),
    ("--grid-hi", float, "grid.r_hi", None),
    ("--grid-count", int, "grid.count", None),
)


def build_profile(cfg: dict):
    spec = cfg.get("profile")
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("config needs a 'profile' object with a 'kind' field")
    kind = spec["kind"]
    try:
        n = _number(cfg, "n")  # the profile refuses any n but an integer >= 3
        if kind == "euclidean":
            return EuclideanProfile(n=n)
        if kind == "schwarzschild":
            return SchwarzschildLikeProfile.from_mass(float(spec.get("mass", 1.0)), n=n)
        if kind == "schwarzschild-like":
            return SchwarzschildLikeProfile(float(spec["a"]), float(spec["b"]), n=n)
        if kind == "cylinder":
            return CylinderProfile(n=n)
        if kind == "trumpet":
            return trumpet_mod.TrumpetProfile(n=n, alpha=spec.get("alpha"))
        if kind == "tabulated":
            path = spec.get("path")
            if not path or not Path(path).exists():
                raise ConfigError(f"tabulated profile file not found: {path!r}")
            return read_tabulated(path, n=n)
        raise ConfigError(f"unknown profile kind {kind!r}")
    except KeyError as exc:
        raise ConfigError(f"profile {kind!r} needs the field {exc.args[0]!r}") from exc
    except (OSError, TypeError, ValueError) as exc:
        raise ConfigError(f"profile {kind!r}: {exc}") from exc


def build_grid(cfg: dict, profile) -> RadialGrid:
    """``profiles.default_grid`` with the fields the config's ``grid`` object sets."""
    g = _object(cfg, "grid")
    fields = {}
    if "count" in g:
        count = _float("grid.count", g["count"])
        if not count.is_integer():
            raise ConfigError(f"config field 'grid.count' must be an integer, got {g['count']!r}")
        fields["count"] = int(count)
    try:
        fields.update((key, float(g[key])) for key in ("r_lo", "r_hi") if key in g)
        return default_grid(profile, **fields)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"grid: {exc}") from exc


def _say(line: str) -> None:
    """Print a summary line; once stdout's reader is gone, the rest goes to devnull and the exit code stands."""
    try:
        print(line, flush=True)
    except BrokenPipeError:  # the Python docs' recipe: no traceback now, and no failed flush at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _load_config(args) -> dict:
    cfg: dict = {}
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            cfg = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: line {exc.lineno}, col {exc.colno}: {exc.msg}") from exc
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
        except OSError as exc:  # a directory, say
            raise ConfigError(str(exc)) from exc
        if not isinstance(cfg, dict):
            raise ConfigError(f"{path}: top-level config must be a JSON object")
    # flag overrides, config-first semantics
    cfg["profile"] = _object(cfg, "profile")
    for flag, _, target, _ in _FLAGS:
        value = getattr(args, flag[2:].replace("-", "_"))  # argparse's name for the flag
        if value is None:
            continue
        if target == "epsilons":  # split here: a ConfigError raised inside argparse would escape main
            value = [_float("epsilons", x) for x in value.split(",") if x.strip()]
        key, _, field = target.partition(".")
        cfg[key] = {**_object(cfg, key), field: value} if field else value
    if not cfg["profile"]:
        del cfg["profile"]
    cfg["command"] = args.command
    return cfg


def _out_dir(cfg: dict) -> Path:
    return Path(cfg.get("out_dir", "out")) / cfg["command"]


def _report(cfg: dict, payload: dict, header=None, records=()) -> Path:
    """Write <out_dir>/<command>/<command>.json echoing the config, and with a header the CSV.

    The CSV has one row per record, its fields in header order (absent ones empty).
    """
    out = _out_dir(cfg)
    stem = cfg["command"].replace("-", "_")
    write_json(out / f"{stem}.json", {"command": cfg["command"], "config": cfg, **payload})
    if header is not None:
        write_csv(out / f"{stem}.csv", header, [[record.get(c) for c in header] for record in records])
    return out


def cmd_analyze(cfg: dict) -> int:
    profile = build_profile(cfg)
    grid = build_grid(cfg, profile)
    scan = GridScan(profile, grid)
    r_curv, sphere = scan.scalar_curvature(), scan.sphere
    u, du, h, area = sphere.u, sphere.du, sphere.mean_curvature, sphere.area
    # arc length from the inner grid edge, on a grid m times as fine: no wider in log r than the default grid
    step = lambda lo, hi, count: (math.log(hi) - math.log(lo)) / (count - 1)
    m = math.ceil(step(grid.r_lo, grid.r_hi, grid.count) / step(DEFAULT_GRID_LO, DEFAULT_GRID_HI, DEFAULT_GRID_COUNT))
    fine = RadialGrid(grid.r_lo, grid.r_hi, (grid.count - 1) * m + 1).radii()  # the grid's own radii when m = 1
    seg = gauss_panel(lambda s: _Sphere(profile.n, s, profile.u(s)).ds, fine[:-1], fine[1:])
    s = np.concatenate([[0.0], np.cumsum(seg)[m - 1 :: m]])
    mh = sphere.hawking_mass if profile.n == 3 else np.full_like(area, np.nan)

    summary: dict = {"profile": profile.describe()}
    try:
        summary["adm_mass"], summary["tail"] = scan.tail
    except PenroseLabError as exc:
        summary["adm_mass"] = None
        summary["tail_error"] = str(exc)
    inf_res = scan.area_infimum
    summary["area_infimum"] = inf_res.value
    summary["area_infimum_argmin"] = inf_res.argmin_radius
    summary["area_infimum_throat_limit"] = inf_res.throat_limit
    out = _report(cfg, summary)
    head = "r,u,du,scalar_curvature,mean_curvature,area,geodesic_s,hawking_mass\n"
    write_table(out / "analyze.csv", head, [grid.radii_text(), u, du, r_curv, h, area, s, mh], ",")
    _say(f"analyze: {grid.count} rows -> {out}/analyze.csv")
    a_mass = summary["adm_mass"]
    mass_txt = f"{a_mass:.9g}" if a_mass is not None else "n/a"
    _say(f"adm_mass = {mass_txt}  area_infimum = {inf_res.value:.9g}")
    return EXIT_OK


def cmd_penrose(cfg: dict) -> int:
    profile = build_profile(cfg)
    report = GridScan(profile, build_grid(cfg, profile)).penrose()
    cols = ["adm_mass", "area_infimum", "bound", "ratio", "verdict", "horizon_radius"]
    _report(cfg, {"report": report}, cols, [jsonable(report)])
    _say(
        f"penrose: mass = {report.adm_mass:.9g}, bound = {report.bound:.9g}, "
        f"ratio = {report.ratio:.9g}, verdict = {report.verdict}"
    )
    return EXIT_VIOLATED if report.verdict == VERDICT_VIOLATED else EXIT_OK


def _float(key: str, value) -> float:
    try:
        return float(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config field {key!r} must be a number, got {value!r}") from exc


def _object(cfg: dict, key: str) -> dict:
    """Config field ``key`` as a JSON object; empty when it is absent or null."""
    value = cfg.get(key)
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"config field {key!r} must be an object, got {value!r}")
    return value


_DEFAULTS = {"n": 3.0, "r0": 2.0, "epsilon": 0.1, "gamma": 1.5}


def _number(cfg: dict, key: str):
    """Config field ``key`` as a float; its ``_DEFAULTS`` entry (``beta`` has none) when absent or null."""
    value = cfg.get(key)
    return _DEFAULTS.get(key) if value is None else _float(key, value)


def _epsilons(cfg: dict):
    """The horizon schedule: None for the default one, else a non-empty list of numbers."""
    value = cfg.get("epsilons")
    if value is None:
        return None
    if not isinstance(value, list) or not value:
        raise ConfigError(f"config field 'epsilons' must be a non-empty list of numbers, got {value!r}")
    return [_float("epsilons", v) for v in value]


_BUBBLE_COLS = ["epsilon", "beta", "rho_star", "area", "mean_curvature", "el_residual"]


def _flat(record) -> dict:
    """A CSV record: its own fields, then its solution's inline."""
    row = jsonable(record)
    row.update(row.pop("solution") or {})
    return row


def cmd_mu_bubble(cfg: dict) -> int:
    profile = build_profile(cfg)
    r0 = _number(cfg, "r0")
    epsilon = _number(cfg, "epsilon")
    problem = bubbles.build_problem(profile, r0, epsilon, beta=_number(cfg, "beta"))
    sol = bubbles.minimize(problem)
    payload = {
        "epsilon": epsilon,
        "beta": problem.h.beta,
        "solution": sol,
        "el_within_tol": sol.el_residual <= bubbles.EL_RESIDUAL_TOL,
        "diameter": bubbles.diameter_report(sol),
    }
    _report(cfg, payload, _BUBBLE_COLS, [_flat(payload)])
    _say(
        f"mu-bubble: rho_star = {sol.rho_star:.9g}, H = {sol.mean_curvature:.9g}, "
        f"el_residual = {sol.el_residual:.3g}"
    )
    return EXIT_OK


_STEP_COLS = [*_BUBBLE_COLS, "mass_lower_bound", "error"]


def cmd_horizon(cfg: dict) -> int:
    profile = build_profile(cfg)
    result = bubbles.horizon_sequence(profile, _number(cfg, "r0"), _epsilons(cfg))
    steps = [_flat(s) for s in result.steps]
    _report(cfg, {"result": {**vars(result), "steps": steps}}, _STEP_COLS, steps)
    bounds = result.mass_lower_bounds
    final = f"{bounds[-1]:.9g}" if bounds else "n/a"
    _say(f"horizon: {len(result.steps)} steps, final mass lower bound = {final}")
    for s in result.steps:
        if s.error:
            _say(f"  eps = {s.epsilon:g}: {s.error}")
    # a curvature too large for the anchor is refused, not failed; far out, the default schedule starts so
    failed = any(s.error and not issubclass(s.error_type, EpsilonTooLargeError) for s in result.steps)
    return EXIT_DEGENERATE if failed or not bounds else EXIT_OK


_RIGIDITY_COLS = [
    "k", *_BUBBLE_COLS, "area_bound", "area_bound_ok", "annulus_volume", "annulus_bound", "annulus_bound_ok"
]


def cmd_rigidity(cfg: dict) -> int:
    profile = build_profile(cfg)
    trace = bubbles.rigidity_iteration(profile, _number(cfg, "r0"), _number(cfg, "epsilon"), _number(cfg, "gamma"))
    record = {**vars(trace), "steps": [_flat(s) for s in trace.steps]}
    if record["error"] is None:  # a schedule that ran to its floor names no refusal
        del record["error"]
    _report(cfg, {"trace": record}, _RIGIDITY_COLS, record["steps"])
    final = f"{trace.steps[-1].solution.rho_star:.9g}" if trace.steps else "n/a"
    _say(
        f"rigidity: {len(trace.steps)} steps, final rho_star = {final}, "
        f"cumulative volume {trace.cumulative_volume:.6g} <= {trace.cumulative_bound:.6g}: "
        f"{trace.cumulative_bound_ok}"
    )
    if trace.error:  # a step refused as too large for its anchor; the steps before it stand
        _say(f"  stopped: {trace.error}")
    return EXIT_OK if trace.steps else EXIT_DEGENERATE


def cmd_trumpet(cfg: dict) -> int:
    spec = _object(cfg, "profile")
    if spec.get("kind") not in (None, "trumpet"):
        raise ConfigError("the trumpet command builds its own profile")
    alpha = spec.get("alpha", cfg.get("alpha"))  # --alpha sets profile.alpha, so it wins
    profile = build_profile({**cfg, "profile": {**spec, "kind": "trumpet", "alpha": alpha}})
    scan = GridScan(profile, build_grid(cfg, profile))
    report = scan.penrose() if profile.n == 3 else None  # a refused tail writes nothing
    verification = trumpet_mod.verify_trumpet(scan)
    trumpet_mod.export_trumpet(profile, _out_dir(cfg) / "trumpet_profile.dat")
    payload = {"params": profile.describe(), "verification": verification}
    if report is not None:
        payload["penrose"] = report
        _say(
            f"trumpet: mass = {report.adm_mass:.9g}, area_infimum = {report.area_infimum:.9g}, "
            f"verdict = {report.verdict}"
        )
    _report(cfg, payload)
    if not verification.ok:
        _say(f"trumpet: verification FAILED: {', '.join(verification.failing())}")
        return EXIT_TRUMPET
    _say(f"trumpet: all {len(verification.checks)} checks passed")
    return EXIT_OK


def cmd_batch(cfg: dict) -> int:
    scenarios = cfg.get("scenarios")
    if not isinstance(scenarios, list) or not scenarios:
        raise ConfigError("batch config needs a non-empty 'scenarios' list")
    out_root = _out_dir(cfg)
    results = []
    worst = EXIT_OK
    for idx, scenario in enumerate(scenarios):
        if not isinstance(scenario, dict) or "command" not in scenario:
            raise ConfigError(f"scenario {idx} must be an object with a 'command' field")
        sub = dict(scenario)
        sub["out_dir"] = str(out_root / f"scenario_{idx:03d}")
        try:
            code = run_command(sub)
            error = None
        except PenroseLabError as exc:  # the refusals main maps to exit 2
            code = EXIT_CONFIG
            error = f"{type(exc).__name__}: {exc}"
        results.append({"index": idx, "command": sub["command"], "exit_code": code, "error": error})
        if code != EXIT_OK and worst == EXIT_OK:
            worst = code
    _report(cfg, {"scenarios": results})
    _say(f"batch: {len(results)} scenarios, exit = {worst}")
    return worst


_HANDLERS = {
    "analyze": cmd_analyze,
    "penrose": cmd_penrose,
    "mu-bubble": cmd_mu_bubble,
    "horizon": cmd_horizon,
    "rigidity": cmd_rigidity,
    "trumpet": cmd_trumpet,
    "batch": cmd_batch,
}


def run_command(cfg: dict) -> int:
    command = cfg.get("command")
    if command not in _HANDLERS:
        raise ConfigError(f"unknown command {command!r}")
    started = time.perf_counter()
    try:
        code = _HANDLERS[command](cfg)
    except DegenerateMinimizerError as exc:
        print(f"{command}: degenerate minimizer: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except NotAsymptoticallyFlatError as exc:
        print(f"{command}: hypothesis refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except OSError as exc:  # a report path that cannot be written: a config error with the OSError's text
        raise ConfigError(str(exc)) from exc
    elapsed = time.perf_counter() - started
    _say(f"{command}: done in {elapsed:.3f}s")
    return code


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="penroselab",
        description="Mass inequalities and curvature bubbles on radial conformally flat metrics",
    )
    parser.add_argument("command", choices=_HANDLERS)
    parser.add_argument("--config", help="JSON scenario file")
    for flag, kind, _, help_text in _FLAGS:
        parser.add_argument(flag, type=kind, help=help_text)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return run_command(_load_config(args))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except PenroseLabError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
