"""Batch front-end: scenario configs in, machine-readable reports out.

Runs are config-first: a JSON file with a ``command`` field plus profile,
grid, and command parameters; every long-form flag overrides its config
field.  Exit codes: 0 ok, 2 config error, 3 inequality violated, 4 degenerate
minimizer, 5 trumpet verification failure, 6 hypothesis refused (the profile
is not asymptotically flat).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import bubbles, trumpet as trumpet_mod
from .errors import ConfigError, DegenerateMinimizerError, NotAsymptoticallyFlatError, PenroseLabError
from .geometry import (
    _arc_weight,
    scalar_curvature,
    sphere_area,
    sphere_mean_curvature,
)
from .masses import (
    VERDICT_VIOLATED,
    _hawking_value,
    adm_mass_from_tail,
    area_infimum_radial,
    penrose_check,
)
from .profiles import (
    CylinderProfile,
    EuclideanProfile,
    RadialGrid,
    SchwarzschildLikeProfile,
    default_grid,
    read_tabulated,
)
from .quadrature import gauss_panel
from .reports import write_csv, write_json

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VIOLATED = 3
EXIT_DEGENERATE = 4
EXIT_TRUMPET = 5
EXIT_REFUSED = 6

COMMANDS = ("analyze", "penrose", "mu-bubble", "horizon", "rigidity", "trumpet", "batch")


def build_profile(cfg: dict):
    spec = cfg.get("profile")
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("config needs a 'profile' object with a 'kind' field")
    try:
        return _build_profile(spec, cfg)
    except KeyError as exc:
        raise ConfigError(f"profile {spec['kind']!r} needs the field {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"profile {spec['kind']!r}: {exc}") from exc


def _build_profile(spec: dict, cfg: dict):
    kind = spec["kind"]
    n = _dimension(cfg)
    if kind == "euclidean":
        return EuclideanProfile(n=n)
    if kind == "schwarzschild":
        mass = float(spec.get("mass", 1.0))
        return SchwarzschildLikeProfile.from_mass(mass, n=n)
    if kind == "schwarzschild-like":
        return SchwarzschildLikeProfile(float(spec["a"]), float(spec["b"]), n=n)
    if kind == "cylinder":
        return CylinderProfile(n=n)
    if kind == "trumpet":
        return trumpet_mod.build_trumpet(
            n=n,
            r0=spec.get("r0_glue"),
            alpha=spec.get("alpha"),
        )
    if kind == "tabulated":
        path = spec.get("path")
        if not path or not Path(path).exists():
            raise ConfigError(f"tabulated profile file not found: {path!r}")
        return read_tabulated(path, n=n)
    raise ConfigError(f"unknown profile kind {kind!r}")


def build_grid(cfg: dict, profile) -> RadialGrid:
    g = _object(cfg, "grid")
    try:
        return default_grid(
            profile,
            r_lo=float(g.get("r_lo", 1e-4)),
            r_hi=float(g.get("r_hi", 1e4)),
            count=int(g.get("count", 4096)),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"grid: {exc}") from exc


_TOLERANCE_DEFAULTS = {"el_residual": 1e-6, "equality": 1e-6}


def tolerances(cfg: dict) -> dict:
    tol = {**_TOLERANCE_DEFAULTS, **_object(cfg, "tolerances")}
    for key, value in tol.items():
        if key not in _TOLERANCE_DEFAULTS:
            raise ConfigError(f"unknown tolerance {key!r}")
        if not _float(f"tolerances.{key}", value) > 0:
            raise ConfigError(f"tolerance {key!r} must be positive, got {value}")
    return tol


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
        if not isinstance(cfg, dict):
            raise ConfigError(f"{path}: top-level config must be a JSON object")
    # flag overrides, config-first semantics
    cfg["profile"] = _object(cfg, "profile")
    if args.profile is not None:
        cfg["profile"]["kind"] = args.profile
    for key in ("mass", "a", "b", "alpha", "r0_glue"):
        val = getattr(args, key.replace("-", "_"), None)
        if val is not None:
            cfg["profile"][key] = val
    if args.path is not None:
        cfg["profile"]["path"] = args.path
    if not cfg["profile"]:
        del cfg["profile"]
    for key in ("n", "r0", "epsilon", "gamma", "lip_factor", "beta", "out_dir"):
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    if args.epsilons is not None:
        cfg["epsilons"] = [_float("epsilons", x) for x in args.epsilons.split(",") if x.strip()]
    grid_over = {}
    if args.grid_lo is not None:
        grid_over["r_lo"] = args.grid_lo
    if args.grid_hi is not None:
        grid_over["r_hi"] = args.grid_hi
    if args.grid_count is not None:
        grid_over["count"] = args.grid_count
    if grid_over:
        cfg["grid"] = {**_object(cfg, "grid"), **grid_over}
    cfg["command"] = args.command
    return cfg


def _out_dir(cfg: dict) -> Path:
    out = Path(cfg.get("out_dir", "out")) / cfg["command"]
    return out


def cmd_analyze(cfg: dict) -> int:
    profile = build_profile(cfg)
    grid = build_grid(cfg, profile)
    radii = grid.radii()
    u = profile.u(radii)
    du = profile.du(radii)
    r_curv = scalar_curvature(profile, radii)
    h = sphere_mean_curvature(profile, radii)
    area = sphere_area(profile, radii)
    # arc length measured from the inner grid edge, accumulated per interval
    seg = gauss_panel(_arc_weight(profile), radii[:-1], radii[1:])
    s = np.concatenate([[0.0], np.cumsum(seg)])
    if profile.n == 3:
        mh = _hawking_value(area, h)
    else:
        mh = np.full_like(area, np.nan)

    out = _out_dir(cfg)
    header = ["r", "u", "du", "scalar_curvature", "mean_curvature", "area", "geodesic_s", "hawking_mass"]
    rows = [
        [radii[i], u[i], du[i], r_curv[i], h[i], area[i], s[i], mh[i]]
        for i in range(len(radii))
    ]
    write_csv(out / "analyze.csv", header, rows)

    summary: dict = {"command": "analyze", "config": cfg, "profile": profile.describe()}
    try:
        m, tail = adm_mass_from_tail(profile, grid)
        summary["adm_mass"] = m
        summary["tail"] = {"a": tail.a, "b": tail.b, "fit_residual": tail.fit_residual}
    except PenroseLabError as exc:
        summary["adm_mass"] = None
        summary["tail_error"] = str(exc)
    inf_res = area_infimum_radial(profile, grid)
    summary["area_infimum"] = inf_res.value
    summary["area_infimum_argmin"] = inf_res.argmin_radius
    summary["area_infimum_throat_limit"] = inf_res.throat_limit
    write_json(out / "analyze.json", summary)
    print(f"analyze: {len(radii)} rows -> {out}/analyze.csv")
    a_mass = summary["adm_mass"]
    mass_txt = f"{a_mass:.9g}" if a_mass is not None else "n/a"
    print(f"adm_mass = {mass_txt}  area_infimum = {inf_res.value:.9g}")
    return EXIT_OK


def cmd_penrose(cfg: dict) -> int:
    profile = build_profile(cfg)
    grid = build_grid(cfg, profile)
    report = penrose_check(profile, grid, equality_tol=tolerances(cfg)["equality"])
    out = _out_dir(cfg)
    write_json(out / "penrose.json", {"command": "penrose", "config": cfg, "report": report.to_dict()})
    cols = ["adm_mass", "area_infimum", "bound", "ratio", "verdict", "horizon_radius"]
    write_csv(out / "penrose.csv", cols, [[report.to_dict()[c] for c in cols]])
    print(
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


def _dimension(cfg: dict) -> int:
    """Config field ``n``, an integer >= 3; 3 when it is absent or null."""
    n = _number(cfg, "n", 3.0)
    if not (n.is_integer() and n >= 3):
        raise ConfigError(f"config field 'n' must be an integer >= 3, got {cfg['n']!r}")
    return int(n)


def _number(cfg: dict, key: str, default):
    """Config field ``key`` as a float; ``default`` when it is absent or null."""
    value = cfg.get(key)
    return default if value is None else _float(key, value)


def _epsilons(cfg: dict):
    """The horizon schedule: None for the default one, else a non-empty list of numbers."""
    value = cfg.get("epsilons")
    if value is None:
        return None
    if not isinstance(value, list) or not value:
        raise ConfigError(f"config field 'epsilons' must be a non-empty list of numbers, got {value!r}")
    return [_float("epsilons", v) for v in value]


def cmd_mu_bubble(cfg: dict) -> int:
    profile = build_profile(cfg)
    r0 = _number(cfg, "r0", 2.0)
    epsilon = _number(cfg, "epsilon", 0.1)
    problem = bubbles.build_problem(
        profile,
        r0,
        epsilon,
        beta=_number(cfg, "beta", None),
        lip_factor=_number(cfg, "lip_factor", bubbles.LIP_FACTOR_DEFAULT),
    )
    sol = bubbles.minimize(problem)
    diam = bubbles.diameter_report(sol, epsilon)
    out = _out_dir(cfg)
    payload = {
        "command": "mu-bubble",
        "config": cfg,
        "epsilon": epsilon,
        "beta": problem.h.beta,
        "solution": sol.to_dict(),
        "el_within_tol": sol.el_residual <= tolerances(cfg)["el_residual"],
        "diameter": {
            "intrinsic_diameter": diam.intrinsic_diameter,
            "bound": diam.bound,
            "within_bound": diam.within_bound,
        },
    }
    write_json(out / "mu_bubble.json", payload)
    cols = ["epsilon", "beta", "rho_star", "area", "mean_curvature", "el_residual"]
    row = [epsilon, problem.h.beta, sol.rho_star, sol.area, sol.mean_curvature, sol.el_residual]
    write_csv(out / "mu_bubble.csv", cols, [row])
    print(
        f"mu-bubble: rho_star = {sol.rho_star:.9g}, H = {sol.mean_curvature:.9g}, "
        f"el_residual = {sol.el_residual:.3g}"
    )
    return EXIT_OK


_STEP_COLS = [
    "epsilon",
    "beta",
    "rho_star",
    "area",
    "mean_curvature",
    "el_residual",
    "mass_lower_bound",
    "error",
]


def cmd_horizon(cfg: dict) -> int:
    profile = build_profile(cfg)
    result = bubbles.horizon_sequence(profile, _number(cfg, "r0", 2.0), _epsilons(cfg))
    out = _out_dir(cfg)
    write_json(out / "horizon.json", {"command": "horizon", "config": cfg, "result": result.to_dict()})
    records = [s.to_dict() for s in result.steps]
    write_csv(out / "horizon.csv", _STEP_COLS, [[r.get(c) for c in _STEP_COLS] for r in records])
    bounds = result.mass_lower_bounds
    final = f"{bounds[-1]:.9g}" if bounds else "n/a"
    print(f"horizon: {len(result.steps)} steps, final mass lower bound = {final}")
    if any(s.error for s in result.steps):
        for s in result.steps:
            if s.error:
                print(f"  eps = {s.epsilon:g}: {s.error}")
        return EXIT_DEGENERATE
    return EXIT_OK


_RIGIDITY_COLS = [
    "k",
    "epsilon",
    "beta",
    "rho_star",
    "area",
    "mean_curvature",
    "el_residual",
    "area_bound",
    "area_bound_ok",
    "annulus_volume",
    "annulus_bound",
    "annulus_bound_ok",
]


def cmd_rigidity(cfg: dict) -> int:
    profile = build_profile(cfg)
    trace = bubbles.rigidity_iteration(
        profile, _number(cfg, "r0", 2.0), _number(cfg, "epsilon", 0.1), _number(cfg, "gamma", 1.5)
    )
    out = _out_dir(cfg)
    write_json(out / "rigidity.json", {"command": "rigidity", "config": cfg, "trace": trace.to_dict()})
    records = [s.to_dict() for s in trace.steps]
    write_csv(out / "rigidity.csv", _RIGIDITY_COLS, [[r.get(c) for c in _RIGIDITY_COLS] for r in records])
    print(
        f"rigidity: {len(trace.steps)} steps, final rho_star = {trace.steps[-1].solution.rho_star:.9g}, "
        f"cumulative volume {trace.cumulative_volume:.6g} <= {trace.cumulative_bound:.6g}: "
        f"{trace.cumulative_bound_ok}"
    )
    return EXIT_OK


def cmd_trumpet(cfg: dict) -> int:
    spec = _object(cfg, "profile")
    if spec.get("kind") not in (None, "trumpet"):
        raise ConfigError("the trumpet command builds its own profile")
    alpha = cfg.get("alpha", spec.get("alpha"))
    profile = build_profile({**cfg, "profile": {**spec, "kind": "trumpet", "alpha": alpha}})
    grid = build_grid(cfg, profile)
    verification = trumpet_mod.verify_trumpet(profile, grid)
    out = _out_dir(cfg)
    trumpet_mod.export_trumpet(profile, out / "trumpet_profile.dat")
    payload = {
        "command": "trumpet",
        "config": cfg,
        "params": profile.describe(),
        "verification": verification.to_dict(),
    }
    if profile.n == 3:
        report = penrose_check(profile, grid)
        payload["penrose"] = report.to_dict()
        print(
            f"trumpet: mass = {report.adm_mass:.9g}, area_infimum = {report.area_infimum:.9g}, "
            f"verdict = {report.verdict}"
        )
    write_json(out / "trumpet.json", payload)
    if not verification.ok:
        print(f"trumpet: verification FAILED: {', '.join(verification.failing())}")
        return EXIT_TRUMPET
    print(f"trumpet: all {len(verification.checks)} checks passed")
    return EXIT_OK


def cmd_batch(cfg: dict) -> int:
    scenarios = cfg.get("scenarios")
    if not isinstance(scenarios, list) or not scenarios:
        raise ConfigError("batch config needs a non-empty 'scenarios' list")
    out_root = Path(cfg.get("out_dir", "out")) / "batch"
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
        except PenroseLabError as exc:
            code = EXIT_CONFIG
            error = f"{type(exc).__name__}: {exc}"
        results.append({"index": idx, "command": sub["command"], "exit_code": code, "error": error})
        if code != EXIT_OK and worst == EXIT_OK:
            worst = code
    write_json(out_root / "batch.json", {"command": "batch", "config": cfg, "scenarios": results})
    print(f"batch: {len(results)} scenarios, exit = {worst}")
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
    # out_dir is created per command under out_dir/<command>
    started = time.perf_counter()
    try:
        code = _HANDLERS[command](cfg)
    except DegenerateMinimizerError as exc:
        print(f"{command}: degenerate minimizer: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except NotAsymptoticallyFlatError as exc:
        print(f"{command}: hypothesis refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    elapsed = time.perf_counter() - started
    print(f"{command}: done in {elapsed:.3f}s")
    return code


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="penroselab",
        description="Mass inequalities and curvature bubbles on radial conformally flat metrics",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None, help="JSON scenario file")
        p.add_argument("--out-dir", dest="out_dir", type=str, default=None)
        p.add_argument("--profile", type=str, default=None, help="profile kind")
        p.add_argument("--mass", type=float, default=None)
        p.add_argument("--a", type=float, default=None)
        p.add_argument("--b", type=float, default=None)
        p.add_argument("--path", type=str, default=None, help="tabulated profile file")
        p.add_argument("--n", type=int, default=None)
        p.add_argument("--r0", type=float, default=None, help="anchor sphere radius")
        p.add_argument("--r0-glue", dest="r0_glue", type=float, default=None)
        p.add_argument("--alpha", type=float, default=None)
        p.add_argument("--epsilon", type=float, default=None)
        p.add_argument("--epsilons", type=str, default=None, help="comma-separated schedule")
        p.add_argument("--gamma", type=float, default=None)
        p.add_argument("--beta", type=float, default=None)
        p.add_argument("--lip-factor", dest="lip_factor", type=float, default=None)
        p.add_argument("--grid-lo", dest="grid_lo", type=float, default=None)
        p.add_argument("--grid-hi", dest="grid_hi", type=float, default=None)
        p.add_argument("--grid-count", dest="grid_count", type=int, default=None)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        return run_command(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except PenroseLabError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
