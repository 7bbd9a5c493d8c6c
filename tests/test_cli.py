import csv
import json
import math
import os
import runpy
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import penroselab
from penroselab import (
    GridScan,
    RadialGrid,
    SchwarzschildLikeProfile,
    TrumpetProfile,
    export_trumpet,
    hawking_mass,
    profiles,
    reports,
    scalar_curvature,
    sphere_area,
    sphere_mean_curvature,
    write_tabulated,
)
from penroselab.cli import build_grid, build_profile, main, run_command
from penroselab.errors import ConfigError
from penroselab.reports import jsonable
from penroselab.trumpet import EXPORT_COUNT, EXPORT_R_LO

from conftest import count_evaluations


SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run(tmp_path, *args):
    return main([*args, "--out-dir", str(tmp_path)])


def run_script(monkeypatch, name, *args):
    """Run ``scripts/<name>`` as ``__main__`` with ``args``; its exit code."""
    monkeypatch.setattr(sys, "argv", [name, *args])
    try:
        runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    except SystemExit as exc:
        return 0 if exc.code is None else exc.code
    return 0


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_analyze_euclidean(tmp_path):
    assert run(tmp_path, "analyze", "--profile", "euclidean") == 0
    header, rows = read_csv(tmp_path / "analyze" / "analyze.csv")
    assert header == ["r", "u", "du", "scalar_curvature", "mean_curvature", "area", "geodesic_s", "hawking_mass"]
    r_col = header.index("scalar_curvature")
    mh_col = header.index("hawking_mass")
    assert all(float(row[r_col]) == 0.0 for row in rows)
    # u' = 0, so -r^2 u'(u + w) is +0.0 on every row, with no cancellation noise
    assert {row[mh_col] for row in rows} == {"0.0"}
    summary = json.loads((tmp_path / "analyze" / "analyze.json").read_text())
    assert abs(summary["adm_mass"]) < 1e-9


def test_analyze_schwarzschild_horizon_row(tmp_path):
    assert run(tmp_path, "analyze", "--profile", "schwarzschild", "--mass", "1") == 0
    header, rows = read_csv(tmp_path / "analyze" / "analyze.csv")
    r_i, h_i, a_i = header.index("r"), header.index("mean_curvature"), header.index("area")
    nearest = min(rows, key=lambda row: abs(float(row[r_i]) - 0.5))
    assert abs(float(nearest[h_i])) < 1e-2
    assert float(nearest[a_i]) == pytest.approx(16 * math.pi, rel=1e-3)


_HAWKING_COLUMN = {  # analyze flags, the profile, and its total mass 2ab from the tail a + b/r
    "schwarzschild": (["--mass", "1"], lambda: SchwarzschildLikeProfile.from_mass(1.0), lambda p: 1.0),
    "trumpet-1e10": (["--alpha", "1e10"], lambda: TrumpetProfile(alpha=1e10), lambda p: 2 * p.alpha0),
    "trumpet-1e16": (["--alpha", "1e16"], lambda: TrumpetProfile(alpha=1e16), lambda p: 2 * p.alpha0),
}


@pytest.mark.parametrize("case", _HAWKING_COLUMN)
def test_analyze_hawking_column_is_hawking_mass(tmp_path, case):
    # every n = 3 row is the library's hawking_mass at its radius, bit for bit, and at r_hi it is
    # the total mass; the definition's own difference reads 8.0e-4 low there at alpha 1e10 and
    # 0.0 at 1e16
    flags, make, mass = _HAWKING_COLUMN[case]
    assert run(tmp_path, "analyze", "--profile", case.split("-")[0], *flags) == 0
    header, rows = read_csv(tmp_path / "analyze" / "analyze.csv")
    r_i, mh_i = header.index("r"), header.index("hawking_mass")
    profile = make()
    assert [float(row[mh_i]) for row in rows] == [hawking_mass(profile, float(row[r_i])) for row in rows]
    assert float(rows[-1][mh_i]) == pytest.approx(mass(profile), rel=1e-15)


def test_penrose_exit_codes(tmp_path):
    assert run(tmp_path / "s", "penrose", "--profile", "schwarzschild", "--mass", "2") == 0
    assert run(tmp_path / "e", "penrose", "--profile", "euclidean") == 0
    assert run(tmp_path / "t", "penrose", "--profile", "trumpet") == 0
    assert run(tmp_path / "c", "penrose", "--profile", "cylinder") == 6  # not asymptotically flat
    report = json.loads((tmp_path / "s" / "penrose" / "penrose.json").read_text())
    assert report["report"]["verdict"] == "equality-within-tol"
    strict = json.loads((tmp_path / "t" / "penrose" / "penrose.json").read_text())
    assert strict["report"]["verdict"] == "strict"


def test_penrose_violated_exits_3(tmp_path):
    radii = np.geomspace(1e-4, 1e4, 8192)
    u = 1 + 0.4 / radii + 0.8 * np.exp(-(((radii - 0.6) / 0.15) ** 2))
    path = tmp_path / "deficient.dat"
    write_tabulated(path, radii, u)
    code = run(tmp_path, "penrose", "--profile", "tabulated", "--path", str(path))
    assert code == 3
    report = json.loads((tmp_path / "penrose" / "penrose.json").read_text())
    assert report["report"]["verdict"] == "violated"


@pytest.mark.parametrize("grid", [["--grid-lo", "1"], ["--grid-lo", "0.7"], ["--grid-count", "2"]])
def test_penrose_grid_starting_outside_the_horizon(tmp_path, grid):
    # the horizon lies below the grid: still the equality case, not a throat extrapolation
    assert run(tmp_path, "penrose", "--profile", "schwarzschild", "--mass", "1", *grid) == 0
    report = json.loads((tmp_path / "penrose" / "penrose.json").read_text())["report"]
    assert report["area_infimum"] == pytest.approx(16 * math.pi, rel=1e-12)
    assert report["verdict"] == "equality-within-tol"


def test_penrose_table_with_least_area_at_its_inner_edge(tmp_path, capsys):
    # a trumpet table cut at 1e-3: the least sphere is the closed inner edge itself
    radii = np.geomspace(1e-3, 1e3, 4096)
    path = tmp_path / "trumpet.dat"
    write_tabulated(path, radii, TrumpetProfile().u(radii))
    assert run(tmp_path, "penrose", "--profile", "tabulated", "--path", str(path)) == 0
    assert "Traceback" not in capsys.readouterr().err
    report = json.loads((tmp_path / "penrose" / "penrose.json").read_text())
    assert report["report"]["verdict"] == "strict"


def test_mu_bubble_echo(tmp_path, capsys):
    code = run(tmp_path, "mu-bubble", "--profile", "schwarzschild", "--mass", "1", "--r0", "2", "--epsilon", "0.1")
    assert code == 0
    out = capsys.readouterr().out
    assert "rho_star" in out and "el_residual" in out
    payload = json.loads((tmp_path / "mu-bubble" / "mu_bubble.json").read_text())
    assert payload["solution"]["el_residual"] <= 1e-6


def test_mu_bubble_degenerate_exits_4(tmp_path):
    code = run(
        tmp_path, "mu-bubble", "--profile", "euclidean", "--r0", "1", "--epsilon", "0.1", "--beta", "2"
    )
    assert code == 4


def test_horizon_command(tmp_path):
    code = run(
        tmp_path, "horizon", "--profile", "schwarzschild", "--mass", "1", "--r0", "2",
        "--epsilons", "0.2,0.1,0.05",
    )
    assert code == 0
    header, rows = read_csv(tmp_path / "horizon" / "horizon.csv")
    assert len(rows) == 3
    bound_i = header.index("mass_lower_bound")
    assert float(rows[-1][bound_i]) == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize(
    "flags, code",
    [
        # far anchors: the largest curvatures of the default schedule are refused, the rest solve
        (["--profile", "trumpet", "--r0", "3"], 0),
        (["--profile", "schwarzschild", "--mass", "1", "--r0", "10"], 0),
        (["--profile", "euclidean", "--r0", "1"], 4),  # no step has an interior bubble
        # every step refused: nothing solved
        (["--profile", "schwarzschild", "--mass", "1", "--r0", "10", "--epsilons", "0.2"], 4),
    ],
)
def test_horizon_exit_code_ignores_refused_steps(tmp_path, flags, code):
    assert run(tmp_path, "horizon", *flags) == code
    steps = json.loads((tmp_path / "horizon" / "horizon.json").read_text())["result"]["steps"]
    refused = [s for s in steps if s["error"] and s["error"].startswith("EpsilonTooLargeError:")]
    solved = [s for s in steps if s["error"] is None]
    if code == 0:
        assert refused and solved and len(refused) + len(solved) == len(steps)
    else:
        assert not solved or len(refused) + len(solved) < len(steps)


def test_rigidity_command(tmp_path):
    code = run(
        tmp_path, "rigidity", "--profile", "schwarzschild", "--mass", "1",
        "--r0", "2", "--epsilon", "0.1", "--gamma", "1.5",
    )
    assert code == 0
    trace = json.loads((tmp_path / "rigidity" / "rigidity.json").read_text())["trace"]
    assert trace["cumulative_bound_ok"] is True
    assert "error" not in trace


@pytest.mark.parametrize("epsilon, gamma, code, solved", [("0.3", "1.05", 0, 1), ("0.4", "1.5", 4, 0)])
def test_rigidity_refused_step_keeps_the_report(tmp_path, epsilon, gamma, code, solved):
    # a step refused as too large for its anchor ends the schedule, and the
    # steps solved before it are reported; with none solved the exit is 4
    flags = ["--profile", "schwarzschild", "--mass", "1", "--r0", "2", "--epsilon", epsilon, "--gamma", gamma]
    assert run(tmp_path, "rigidity", *flags) == code
    trace = json.loads((tmp_path / "rigidity" / "rigidity.json").read_text())["trace"]
    assert len(trace["steps"]) == solved
    assert trace["error"].startswith("EpsilonTooLargeError: ")
    _, rows = read_csv(tmp_path / "rigidity" / "rigidity.csv")
    assert len(rows) == solved


def test_trumpet_command_pass_and_fail(tmp_path):
    assert run(tmp_path / "ok", "trumpet") == 0
    assert (tmp_path / "ok" / "trumpet" / "trumpet_profile.dat").exists()
    with pytest.warns(UserWarning):
        code = run(tmp_path / "weak", "trumpet", "--alpha", "0.9")
    assert code == 5
    payload = json.loads((tmp_path / "weak" / "trumpet" / "trumpet.json").read_text())
    failing = [c["name"] for c in payload["verification"]["checks"] if not c["passed"]]
    assert failing == ["mean_convexity"]


def test_trumpet_alpha_flag_wins_over_config(tmp_path):
    # --alpha sets profile.alpha, which wins over a top-level alpha; that one still counts alone
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "trumpet", "alpha": 2.0}))
    assert main(["trumpet", "--config", str(cfg), "--alpha", "5", "--out-dir", str(tmp_path / "flag")]) == 0
    assert main(["trumpet", "--config", str(cfg), "--out-dir", str(tmp_path / "file")]) == 0
    for out, alpha in (("flag", 5.0), ("file", 2.0)):
        payload = json.loads((tmp_path / out / "trumpet" / "trumpet.json").read_text())
        assert payload["params"]["alpha"] == alpha


def test_trumpet_dimension_four(tmp_path):
    assert run(tmp_path, "trumpet", "--n", "4") == 0
    payload = json.loads((tmp_path / "trumpet" / "trumpet.json").read_text())
    assert payload["verification"]["ok"] is True
    assert "penrose" not in payload


def test_config_error_exit_2(tmp_path, capsys):
    assert main(["penrose", "--config", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["penrose", "--config", str(bad)]) == 2
    assert run(tmp_path, "penrose", "--profile", "nonesuch") == 2
    capsys.readouterr()
    # unreadable config files and an out_dir that is a file: one line naming the path, no traceback
    not_utf8 = tmp_path / "latin1.json"
    not_utf8.write_bytes(b'{"profile": "\xe9"}')
    a_file = tmp_path / "a_file"
    a_file.write_text("x")
    for argv, named in [
        (["penrose", "--config", str(tmp_path)], tmp_path),
        (["penrose", "--config", str(not_utf8)], not_utf8),
        (["penrose", "--profile", "euclidean", "--out-dir", str(a_file)], a_file),
        (["penrose", "--profile", "euclidean", "--out-dir", str(a_file / "sub")], a_file / "sub"),
        (["trumpet", "--out-dir", str(a_file)], a_file),
    ]:
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: ") and str(named) in err[0]


@pytest.mark.parametrize(
    "flags",
    [
        ["penrose", "--profile", "schwarzschild", "--mass", "-1"],
        ["penrose", "--profile", "schwarzschild-like", "--a", "1"],
        ["penrose", "--profile", "schwarzschild", "--grid-count", "1"],
        ["mu-bubble", "--profile", "schwarzschild", "--beta", "-1"],
        ["penrose", "--profile", "schwarzschild", "--grid-lo", "-1"],  # no grid reaches below the domain
        ["rigidity", "--profile", "schwarzschild", "--gamma", "3"],
        ["rigidity", "--profile", "schwarzschild", "--epsilon", "1e-9"],  # below epsilon_floor
        ["horizon", "--profile", "schwarzschild", "--epsilons", "0.1,a"],
        ["analyze", "--profile", "tabulated", "--path", "."],  # a directory, not a table
        # non-finite parameters: not a verdict on a NaN mass, nor a weak-alpha failure
        ["penrose", "--profile", "schwarzschild", "--mass", "nan"],
        ["penrose", "--profile", "schwarzschild", "--mass", "inf"],
        ["penrose", "--profile", "schwarzschild-like", "--a", "inf", "--b", "1"],
        ["penrose", "--profile", "schwarzschild-like", "--a", "1", "--b", "nan"],
        ["penrose", "--profile", "trumpet", "--alpha", "nan"],
        ["trumpet", {"alpha": -math.inf}],
        ["trumpet", "--alpha", "nan"],
        ["penrose", "--profile", "schwarzschild", "--grid-hi", "inf"],  # a grid bound, not a NaN array
        ["penrose", "--profile", "schwarzschild", "--grid-count", "1000000000000"],  # refused before sampling
        ["penrose", {"profile": {"kind": "schwarzschild"}, "grid": {"count": 2.9}}],  # not truncated to 2
    ],
)
def test_bad_profile_or_grid_exit_2(tmp_path, capsys, flags):
    if isinstance(flags[-1], dict):  # a config file's content
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(flags[-1]))
        flags = [*flags[:-1], "--config", str(cfg)]
    assert run(tmp_path, *flags) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / flags[0]).exists()  # no report written


@pytest.mark.parametrize(
    "flags, named",
    [
        (["--r0", "nan"], "DomainError"),
        (["--r0", "inf"], "DomainError"),
        (["--r0", "-1"], "DomainError"),
        (["--epsilons", "nan"], "config error"),
        (["--epsilons", "0.1,inf"], "config error"),
        (["--epsilons", "0.1,-1"], "config error"),  # refused up front, not recorded as a failed step
        (["--epsilons", "0.1,0"], "config error"),
    ],
)
def test_horizon_bad_anchor_or_epsilon_exit_2(tmp_path, capsys, flags, named):
    # refused before any step: not a schedule of failed steps (exit 4) with a report
    assert run(tmp_path, "horizon", "--profile", "schwarzschild", "--mass", "1", *flags) == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "horizon").exists()


@pytest.mark.parametrize(
    "kind, r0, bound",
    [
        # area(S_r0) is finite but tiny, so eps_0 = sqrt(8 pi / area) is below the default epsilon
        pytest.param("schwarzschild", "1e-80", "5.65685e-80", id="schwarzschild-1e-80"),
        # u^2 overflows, so area(S_r0) is inf, eps_0 is 0 and every epsilon is refused
        pytest.param("schwarzschild", "1e-300", "0", id="schwarzschild-1e-300"),
    ],
)
def test_rigidity_tiny_anchor_exit_2(tmp_path, capsys, kind, r0, bound):
    assert run(tmp_path, "rigidity", "--profile", kind, "--r0", r0) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: EpsilonTooLargeError: need 0 < epsilon < {bound},") and "Traceback" not in err
    assert not (tmp_path / "rigidity").exists()


def test_rigidity_tiny_cylinder_anchor_exit_6(tmp_path, capsys):
    # area(S_r0) = 4 pi is admitted; refused, as at r0 = 1, because the cylinder is not asymptotically flat
    assert run(tmp_path, "rigidity", "--profile", "cylinder", "--r0", "1e-300") == 6
    err = capsys.readouterr().err
    assert err.startswith("rigidity: hypothesis refused:") and "Traceback" not in err
    assert not (tmp_path / "rigidity").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # u' = -1/(2 r^2) itself overflows below r = 1e-154
@pytest.mark.parametrize("kind, verdict", [("schwarzschild", "equality-within-tol"), ("trumpet", "strict")])
def test_penrose_grid_from_1e_300(tmp_path, kind, verdict):
    # sphere areas are formed from R = u^2 r, so no inf * 0 = nan reaches the area infimum
    assert run(tmp_path, "penrose", "--profile", kind, "--grid-lo", "1e-300") == 0
    report = json.loads((tmp_path / "penrose" / "penrose.json").read_text())["report"]
    assert report["verdict"] == verdict


@pytest.mark.parametrize("grid_hi", ["0.6", "0.5005", "0.5001"])
def test_penrose_minimal_sphere_between_the_top_two_nodes(tmp_path, grid_hi):
    # two nodes, the least area at the top one: the horizon r = 1/2 below it is refined, not read off the node
    grid = ["--grid-lo", "0.4", "--grid-hi", grid_hi, "--grid-count", "2"]
    assert run(tmp_path, "penrose", "--profile", "schwarzschild", *grid) == 0
    report = json.loads((tmp_path / "penrose" / "penrose.json").read_text())["report"]
    assert abs(report["bound"] - 1.0) <= 1e-15
    assert report["verdict"] == "equality-within-tol"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # r^{n-1} in the sphere areas overflows for n = 100
@pytest.mark.parametrize(
    "args, code, message",
    [
        pytest.param(["analyze", "--profile", "euclidean", "--n", "100"], 0, "adm_mass = n/a", id="analyze-n-100"),
        pytest.param(["trumpet", "--n", "100"], 5, "verification FAILED: asymptotically_flat", id="trumpet-n-100"),
        pytest.param(
            ["analyze", "--profile", "euclidean", "--n", "344"], 2,
            "config error: profile 'euclidean': dimension 344 is too large", id="analyze-n-344",
        ),
        pytest.param(
            ["penrose", "--profile", "schwarzschild", "--grid-hi", "1e155"], 6,
            "penrose: hypothesis refused: tail fit on [1e+154, 1e+155] failed: overflow", id="penrose-1e155",
        ),
        pytest.param(
            ["penrose", "--profile", "schwarzschild", "--grid-hi", "1e308"], 6,
            "penrose: hypothesis refused: tail fit on [1e+307, 1e+308] failed: overflow", id="penrose-1e308",
        ),
    ],
)
def test_tail_fit_and_sphere_area_overflows_refused(tmp_path, capsys, args, code, message):
    # an overflowing tail fit is a refusal in the fit window's words, and a dimension whose
    # unit-sphere area overflows is a config error: no traceback either way
    assert run(tmp_path, *args) == code
    out, err = capsys.readouterr()
    assert message in out + err and "Traceback" not in err
    if code == 0:  # analyze records the refusal and goes on
        summary = json.loads((tmp_path / "analyze" / "analyze.json").read_text())
        assert summary["adm_mass"] is None
        assert summary["tail_error"] == "tail fit on [1000, 10000] failed: Numerical result out of range"


@pytest.mark.parametrize("count", [2, 8])
def test_analyze_arc_length_on_a_coarse_grid(tmp_path, count):
    # every interval is cut into panels no wider in log r than the default grid's: on Schwarzschild
    # m = 1 the arc length from a is the closed form (r - a) + log(r / a) + (1/a - 1/r) / 4
    assert run(tmp_path, "analyze", "--profile", "schwarzschild", "--grid-count", str(count)) == 0
    header, rows = read_csv(tmp_path / "analyze" / "analyze.csv")
    a, col = 1e-4, header.index("geodesic_s")
    for row in rows[1:]:
        r = float(row[0])
        exact = math.fsum([r, -a, math.log(r / a), 0.25 / a, -0.25 / r])
        assert float(row[col]) == pytest.approx(exact, rel=1e-12, abs=0)


@pytest.mark.parametrize(
    "args,code,message",
    [
        (["analyze", "--profile", "schwarzschild", "--n", "80"], 2,
         "config error: dimension 80: the sphere area at r = 0.0001 is NaN"),
        (["analyze", "--profile", "euclidean", "--n", "80"], 0, "area_infimum = 0\n"),
        (["trumpet", "--n", "80"], 5, "trumpet: verification FAILED"),
        # both sampled areas overflow to inf, and the throat extrapolation over the nodes below gives NaN
        (["analyze", "--profile", "schwarzschild", "--grid-lo", "1e-300", "--grid-hi", "1e300", "--grid-count", "2"], 2,
         "config error: dimension 3: the throat extrapolation below r = 1e-300 gives area nan"),
        # penrose fits the tail before it evaluates the grid, so the overflowing fit is refused first
        (["penrose", "--profile", "schwarzschild", "--grid-lo", "1e-300", "--grid-hi", "1e300", "--grid-count", "2"], 6,
         "penrose: hypothesis refused: tail fit on [1e+299, 1e+300]"),
        # trumpet at n = 3 reads its verdict first, so the same refusal comes before its grid and its table
        (["trumpet", "--n", "3", "--grid-hi", "1e155"], 6, "trumpet: hypothesis refused: tail fit on [1e+154, 1e+155]"),
    ],
    ids=["schwarzschild", "euclidean", "trumpet", "infinite-areas", "tail-refused-first", "trumpet-tail-refused-first"],
)
def test_nan_sphere_area_refused_by_name(tmp_path, args, code, message):
    # in a fresh interpreter: in this one the overflow of u raises as a RuntimeWarning first.
    # A NaN area (an underflowed r^79 times an overflowed power of u) is refused; infinite ones, far
    # out on flat space and the trumpet, are never least and stay: the trumpet fails its checks as before
    src = str(Path(penroselab.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    argv = [sys.executable, "-m", "penroselab.cli", *args, "--out-dir", str(tmp_path)]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == code
    assert message in proc.stdout + proc.stderr and "Traceback" not in proc.stderr
    if code == 2:
        assert not (tmp_path / "analyze").exists()
    if code == 6:  # refused before u and u' overflow on the grid, and before any file is written
        assert "RuntimeWarning" not in proc.stderr
        assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["mu-bubble", "horizon", "rigidity", "penrose"])
def test_bubble_and_penrose_commands_refuse_n_4_exit_2(tmp_path, capsys, command):
    # refused before any work: not a horizon schedule of failed steps (exit 4) with a report
    assert run(tmp_path, command, "--profile", "schwarzschild", "--n", "4") == 2
    assert "UnsupportedDimensionError" in capsys.readouterr().err
    assert not (tmp_path / command).exists()


@pytest.mark.parametrize(
    "command,fields",
    [
        ("horizon", {"epsilons": 0.1}),
        ("horizon", {"epsilons": ["a"]}),
        ("horizon", {"epsilons": []}),
        ("horizon", {"r0": [2.0]}),
        ("rigidity", {"r0": "x"}),
        ("rigidity", {"epsilon": "x"}),
        ("rigidity", {"gamma": {}}),
        ("mu-bubble", {"beta": "x"}),
        ("mu-bubble", {"epsilon": "x"}),
        ("trumpet", {"profile": {"kind": "trumpet"}, "n": "x"}),
        ("trumpet", {"profile": {"kind": "trumpet"}, "n": 2}),
        ("trumpet", {"profile": {"kind": "trumpet"}, "n": 3.5}),  # not an integer, so not truncated to 3
        ("trumpet", {"profile": {"kind": "trumpet"}, "alpha": "x"}),
        ("trumpet", {"profile": "x"}),
        ("penrose", {"n": 4.9}),
        ("penrose", {"grid": {"r_lo": "x"}}),
        ("penrose", {"grid": {"count": "x"}}),
        ("analyze", {"grid": "x"}),
    ],
)
def test_bad_schedule_config_exit_2(tmp_path, capsys, command, fields):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"profile": {"kind": "schwarzschild"}, "out_dir": str(tmp_path), **fields}))
    assert main([command, "--config", str(cfg)]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, content, message",
    [
        ("penrose", {"profile": {"mass": 1.0}}, "config needs a 'profile' object with a 'kind' field"),
        ("penrose", {}, "config needs a 'profile' object with a 'kind' field"),
        ("penrose", {"profile": {"kind": "tabulated", "path": "no/such/table.dat"}}, "tabulated profile file not found"),
        ("penrose", {"profile": {"kind": "tabulated"}}, "tabulated profile file not found: None"),
        ("penrose", [{"profile": {"kind": "euclidean"}}], "top-level config must be a JSON object"),
        ("trumpet", {"profile": {"kind": "cylinder"}}, "the trumpet command builds its own profile"),
        ("batch", {}, "batch config needs a non-empty 'scenarios' list"),
        ("batch", {"scenarios": []}, "batch config needs a non-empty 'scenarios' list"),
        ("batch", {"scenarios": {"command": "penrose"}}, "batch config needs a non-empty 'scenarios' list"),
        ("batch", {"scenarios": ["penrose"]}, "scenario 0 must be an object with a 'command' field"),
        ("batch", {"scenarios": [{"profile": {"kind": "euclidean"}}]}, "scenario 0 must be an object"),
    ],
)
def test_front_door_refusals_exit_2(tmp_path, capsys, command, content, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(content))
    assert run(tmp_path, command, "--config", str(cfg)) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ") and message in err[0]
    assert not (tmp_path / command).exists()


@pytest.mark.parametrize("n", ["NaN", "Infinity", "3.5", "344"])
def test_dimension_refused_by_the_profile_exit_2(tmp_path, capsys, n):
    # JSON's NaN and Infinity parse as floats; the profile's one dimension rule refuses them like 3.5 and 344
    cfg = tmp_path / "cfg.json"
    cfg.write_text(f'{{"profile": {{"kind": "euclidean"}}, "n": {n}}}')
    assert run(tmp_path, "analyze", "--config", str(cfg)) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: profile 'euclidean': dimension")
    assert not (tmp_path / "analyze").exists()


@pytest.mark.parametrize("row, message", [("2.0 nan", "values"), ("2.0 1e999", "values"), ("inf 1.0", "radii")])
def test_non_finite_table_exit_2(tmp_path, capsys, row, message):
    # read by np.loadtxt, refused by TabulatedProfile before the spline sees it
    path = tmp_path / "table.dat"
    path.write_text(f"# r u\n1.0 1.0\n{row}\n3.0 1.0\n4.0 1.0\n")
    assert run(tmp_path, "analyze", "--profile", "tabulated", "--path", str(path)) == 2
    assert f"tabulated {message} must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("row, message", [("2 1.5 -0.25 nan", "derivatives"), ("2 1.5 inf 0.1", "derivatives")])
def test_refused_four_column_table_exit_2(tmp_path, capsys, row, message):
    # four columns are (r, u, u', u''): a non-finite derivative is refused by name, with no traceback
    path = tmp_path / "table.dat"
    path.write_text(f"# r u du d2u\n1 2 -1 2\n{row}\n3 1.25 -0.1 0.07\n4 1.2 -0.06 0.03\n")
    assert run(tmp_path, "penrose", "--profile", "tabulated", "--path", str(path)) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"config error: profile 'tabulated': tabulated {message} must be finite"]
    assert not (tmp_path / "penrose").exists()


@pytest.mark.parametrize("cfg", [{"command": "nonesuch"}, {}])
def test_run_command_refuses_an_unknown_command(cfg):
    with pytest.raises(ConfigError, match=f"unknown command {cfg.get('command')!r}"):
        run_command(cfg)


@pytest.mark.parametrize(
    "command, removed",
    [
        ("mu-bubble", {"lip_factor": 2.0, "tolerances": {"el_residual": -1.0}}),
        ("penrose", {"profile": {"kind": "trumpet", "r0_glue": "x"}, "tolerances": [1]}),
        ("trumpet", {"profile": {"r0_glue": 0.0}, "tolerances": {"equality": "x"}}),
    ],
)
def test_removed_fields_are_ignored(tmp_path, command, removed):
    # lip_factor, tolerances and profile.r0_glue are constants now: a config that still sets them reads as one without
    base = {"command": command, "profile": {"kind": "trumpet" if command != "mu-bubble" else "schwarzschild"}}
    reports = []
    for name, cfg in (("plain", base), ("removed", {**base, **removed})):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({**cfg, "out_dir": str(tmp_path / "out")}))
        assert main([command, "--config", str(path)]) == 0
        report = json.loads((tmp_path / "out" / command / f"{command.replace('-', '_')}.json").read_text())
        assert report.pop("config") == {**cfg, "out_dir": str(tmp_path / "out")}
        reports.append(report)
    assert reports[0] == reports[1]


@pytest.mark.parametrize("flag", ["--lip-factor", "--r0-glue"])
def test_removed_flags_exit_2(tmp_path, capsys, flag):
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, "penrose", "--profile", "trumpet", flag, "0.5")
    assert exc.value.code == 2 and f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not (tmp_path / "penrose").exists()


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "command": "penrose",
        "profile": {"kind": "schwarzschild", "mass": 1.0},
        "out_dir": str(tmp_path / "a"),
    }))
    assert main(["penrose", "--config", str(cfg)]) == 0
    assert main(["penrose", "--config", str(cfg), "--mass", "2", "--out-dir", str(tmp_path / "b")]) == 0
    rep_a = json.loads((tmp_path / "a" / "penrose" / "penrose.json").read_text())
    rep_b = json.loads((tmp_path / "b" / "penrose" / "penrose.json").read_text())
    assert rep_a["report"]["adm_mass"] == pytest.approx(1.0, abs=1e-8)
    assert rep_b["report"]["adm_mass"] == pytest.approx(2.0, abs=1e-8)


def test_every_flag_lands_at_its_config_path(tmp_path):
    argv = [
        "mu-bubble", "--out-dir", str(tmp_path), "--profile", "schwarzschild", "--mass", "1.5",
        "--a", "1", "--b", "0.5", "--path", "p.dat", "--n", "3", "--r0", "3",
        "--alpha", "2", "--epsilon", "0.1", "--epsilons", "0.2,0.1", "--gamma", "1.5", "--beta", "0.75",
        "--grid-lo", "1e-3", "--grid-hi", "1e3", "--grid-count", "1024",
    ]
    assert main(argv) == 0
    config = json.loads((tmp_path / "mu-bubble" / "mu_bubble.json").read_text())["config"]
    assert config == {
        "command": "mu-bubble",
        "out_dir": str(tmp_path),
        "profile": {
            "kind": "schwarzschild", "mass": 1.5, "a": 1.0, "b": 0.5, "path": "p.dat", "alpha": 2.0,
        },
        "n": 3,
        "r0": 3.0,
        "epsilon": 0.1,
        "epsilons": [0.2, 0.1],
        "gamma": 1.5,
        "beta": 0.75,
        "grid": {"r_lo": 1e-3, "r_hi": 1e3, "count": 1024},
    }
    assert type(config["n"]) is int and type(config["grid"]["count"]) is int


def test_batch_runs_scenarios(tmp_path):
    cfg = tmp_path / "batch.json"
    cfg.write_text(json.dumps({
        "command": "batch",
        "out_dir": str(tmp_path),
        "scenarios": [
            {"command": "penrose", "profile": {"kind": "schwarzschild", "mass": 1.0}},
            {"command": "penrose", "profile": {"kind": "euclidean"}},
        ],
    }))
    assert main(["batch", "--config", str(cfg)]) == 0
    summary = json.loads((tmp_path / "batch" / "batch.json").read_text())
    assert [s["exit_code"] for s in summary["scenarios"]] == [0, 0]
    assert (tmp_path / "batch" / "scenario_000" / "penrose" / "penrose.json").exists()


def test_batch_records_config_errors(tmp_path):
    cfg = tmp_path / "batch.json"
    cfg.write_text(json.dumps({
        "command": "batch",
        "out_dir": str(tmp_path),
        "scenarios": [
            {"command": "trumpet", "n": "x"},
            {"command": "analyze", "profile": {"kind": "euclidean"}, "grid": "x"},
            {"command": "penrose", "profile": {"kind": "euclidean"}, "grid": [1]},
            {"command": "penrose", "profile": {"kind": "tabulated", "path": str(tmp_path)}},  # a directory
            {"command": "penrose", "profile": {"kind": "schwarzschild", "mass": 1.0}},
        ],
    }))
    assert main(["batch", "--config", str(cfg)]) == 2
    summary = json.loads((tmp_path / "batch" / "batch.json").read_text())
    assert [s["exit_code"] for s in summary["scenarios"]] == [2, 2, 2, 2, 0]
    assert all("ConfigError" in s["error"] for s in summary["scenarios"][:4])
    assert str(tmp_path) in summary["scenarios"][3]["error"]


def test_batch_records_refused_hypothesis(tmp_path):
    cfg = tmp_path / "batch.json"
    cfg.write_text(json.dumps({
        "command": "batch",
        "out_dir": str(tmp_path),
        "scenarios": [
            {"command": "penrose", "profile": {"kind": "schwarzschild", "mass": 1.0}},
            {"command": "penrose", "profile": {"kind": "euclidean"}},
            {"command": "penrose", "profile": {"kind": "cylinder"}},
        ],
    }))
    assert main(["batch", "--config", str(cfg)]) == 6
    summary = json.loads((tmp_path / "batch" / "batch.json").read_text())
    assert [s["exit_code"] for s in summary["scenarios"]] == [0, 0, 6]


def test_batch_exit_codes_are_the_commands_own(tmp_path):
    # each scenario's recorded exit code is what main returns for it run alone
    radii = np.geomspace(1e-4, 1e4, 8192)
    deficient = tmp_path / "deficient.dat"
    write_tabulated(deficient, radii, 1 + 0.4 / radii + 0.8 * np.exp(-(((radii - 0.6) / 0.15) ** 2)))
    scenarios = [
        {"command": "penrose", "profile": {"kind": "schwarzschild", "mass": 1.0}},
        {"command": "penrose", "profile": {"kind": "schwarzschild", "mass": "nan"}},  # ConfigError
        {"command": "rigidity", "profile": {"kind": "schwarzschild", "mass": 1.0}, "r0": 2.0, "epsilon": 0.95},
        {"command": "penrose", "profile": {"kind": "tabulated", "path": str(deficient)}},
        {"command": "mu-bubble", "profile": {"kind": "euclidean"}, "r0": 1.0, "epsilon": 0.1, "beta": 2.0},
        {"command": "trumpet", "alpha": 0.9},
        {"command": "penrose", "profile": {"kind": "cylinder"}},
    ]
    cfg = tmp_path / "batch.json"
    cfg.write_text(json.dumps({"command": "batch", "out_dir": str(tmp_path / "batch"), "scenarios": scenarios}))
    with pytest.warns(UserWarning):  # the weak trumpet alpha
        assert main(["batch", "--config", str(cfg)]) == 2
    summary = json.loads((tmp_path / "batch" / "batch" / "batch.json").read_text())
    alone = []
    for idx, scenario in enumerate(scenarios):
        path = tmp_path / f"scenario_{idx}.json"
        path.write_text(json.dumps({**scenario, "out_dir": str(tmp_path / f"alone_{idx}")}))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            alone.append(main([scenario["command"], "--config", str(path)]))
    assert alone == [0, 2, 2, 3, 4, 5, 6]
    assert [s["exit_code"] for s in summary["scenarios"]] == alone


def test_batch_records_an_unwritable_scenario_and_goes_on(tmp_path):
    # scenario 0's out_dir is a plain file: exit 2, a config error with the OSError's text, as main gives it alone
    (tmp_path / "batch").mkdir()
    blocked = tmp_path / "batch" / "scenario_000"
    blocked.write_text("x")
    scenarios = [
        {"command": "penrose", "profile": {"kind": "schwarzschild", "mass": 1.0}},
        {"command": "penrose", "profile": {"kind": "cylinder"}},
    ]
    cfg = tmp_path / "batch.json"
    cfg.write_text(json.dumps({"command": "batch", "out_dir": str(tmp_path), "scenarios": scenarios}))
    assert main(["batch", "--config", str(cfg)]) == 2
    summary = json.loads((tmp_path / "batch" / "batch.json").read_text())["scenarios"]
    assert [s["exit_code"] for s in summary] == [2, 6]
    assert summary[0]["error"].startswith("ConfigError: [Errno 20] Not a directory: ") and str(blocked) in summary[0]["error"]
    assert summary[1]["error"] is None
    alone = []
    for scenario, out_dir in zip(scenarios, [blocked, tmp_path / "alone"]):
        cfg.write_text(json.dumps({**scenario, "out_dir": str(out_dir)}))
        alone.append(main([scenario["command"], "--config", str(cfg)]))
    assert alone == [2, 6]


def test_reports_are_bit_identical(tmp_path):
    assert run(tmp_path, "penrose", "--profile", "schwarzschild", "--mass", "1") == 0
    a = (tmp_path / "penrose" / "penrose.json").read_bytes()
    a_csv = (tmp_path / "penrose" / "penrose.csv").read_bytes()
    assert run(tmp_path, "penrose", "--profile", "schwarzschild", "--mass", "1") == 0
    assert (tmp_path / "penrose" / "penrose.json").read_bytes() == a
    assert (tmp_path / "penrose" / "penrose.csv").read_bytes() == a_csv

    # the trumpet round trip, first with no grid's radii text made yet, then again from the cache
    RadialGrid.radii_text.cache_clear()
    tables = []
    for _ in range(2):
        assert run(tmp_path, "trumpet") == 0
        dat = tmp_path / "trumpet" / "trumpet_profile.dat"
        assert run(tmp_path, "analyze", "--profile", "tabulated", "--path", str(dat)) == 0
        tables.append((dat.read_bytes(), (tmp_path / "analyze" / "analyze.csv").read_bytes()))
    assert tables[1] == tables[0]


def test_batch_json_reports_are_json_dumps(tmp_path, monkeypatch):
    # every .json a batch of all seven commands writes is json.dumps of the payload's plain values
    expected = {}

    def write_json(path, payload):
        expected[Path(path)] = json.dumps(jsonable(payload), indent=2, sort_keys=True) + "\n"
        reports.write_json(path, payload)

    monkeypatch.setattr("penroselab.cli.write_json", write_json)
    schw = {"kind": "schwarzschild", "mass": 1.0}
    scenarios = [
        {"command": "analyze", "profile": schw, "grid": {"count": 64}},
        {"command": "penrose", "profile": schw},
        {"command": "mu-bubble", "profile": schw, "epsilon": 0.05},
        {"command": "horizon", "profile": schw, "r0": 2.0, "epsilons": [0.1, 0.05]},
        {"command": "rigidity", "profile": {"kind": "trumpet"}, "r0": 4.0, "epsilon": 0.02, "gamma": 1.5},
        {"command": "trumpet"},
    ]
    cfg = tmp_path / "batch.json"
    cfg.write_text(json.dumps({"command": "batch", "out_dir": str(tmp_path), "scenarios": scenarios}))
    assert main(["batch", "--config", str(cfg)]) == 0
    assert len(expected) == 1 + len(scenarios)  # batch.json and one report per scenario
    assert set(expected) == set(tmp_path.rglob("*.json")) - {cfg}
    for path, text in expected.items():
        assert path.read_bytes() == text.encode()


def test_csv_json_numeric_roundtrip(tmp_path):
    assert run(tmp_path, "penrose", "--profile", "schwarzschild", "--mass", "1") == 0
    header, rows = read_csv(tmp_path / "penrose" / "penrose.csv")
    report = json.loads((tmp_path / "penrose" / "penrose.json").read_text())["report"]
    for name, cell in zip(header, rows[0]):
        ref = report[name]
        if isinstance(ref, float):
            assert float(cell) == pytest.approx(ref, rel=1e-15)


def test_analyze_roundtrip_through_export(tmp_path):
    trumpet = TrumpetProfile()
    dat = tmp_path / "trumpet.dat"
    export_trumpet(trumpet, dat)
    assert run(tmp_path / "direct", "trumpet") == 0
    assert run(tmp_path / "direct", "analyze", "--profile", "trumpet") == 0
    assert run(tmp_path / "tab", "analyze", "--profile", "tabulated", "--path", str(dat)) == 0

    _, rows_direct = read_csv(tmp_path / "direct" / "analyze" / "analyze.csv")
    _, rows_tab = read_csv(tmp_path / "tab" / "analyze" / "analyze.csv")
    assert len(rows_direct) == len(rows_tab)
    for row_d, row_t in zip(rows_direct[:: len(rows_direct) // 128], rows_tab[:: len(rows_tab) // 128]):
        for x, y in zip(row_d, row_t):
            assert float(y) == pytest.approx(float(x), rel=1e-6, abs=1e-6)

    direct = json.loads((tmp_path / "direct" / "analyze" / "analyze.json").read_text())
    tab = json.loads((tmp_path / "tab" / "analyze" / "analyze.json").read_text())
    assert tab["adm_mass"] == pytest.approx(direct["adm_mass"], abs=1e-8)
    # the exported table truncates the throat at its inner edge, so the
    # extrapolated area limit agrees only to the truncation scale
    assert tab["area_infimum"] == pytest.approx(direct["area_infimum"], abs=5e-3)


def test_tabulated_analyze_evaluates_its_grid_once(tmp_path, monkeypatch):
    # u, u' and u'' on the whole grid once each: one sphere for R, H, the areas and the area infimum
    dat = tmp_path / "trumpet.dat"
    export_trumpet(TrumpetProfile(), dat)
    sizes = count_evaluations(monkeypatch, profiles.TabulatedProfile)
    assert run(tmp_path, "analyze", "--profile", "tabulated", "--path", str(dat)) == 0
    assert {name: calls.count(profiles.DEFAULT_GRID_COUNT) for name, calls in sizes.items()} == {"_u": 1, "_du": 1, "_d2u": 1}


def test_trumpet_n3_evaluates_its_grid_once(tmp_path, monkeypatch):
    # the checks and the penrose block read one scan: u, u' and u'' once each on the default grid (from 1e-4),
    # told apart from the export's 4,096 radii (from 1e-10) by the first radius of each call, and u once
    # on the 128-point tail window (from 1e3)
    firsts = {"_u": [], "_du": [], "_d2u": []}
    for name, calls in firsts.items():
        f = getattr(TrumpetProfile, name)
        record = lambda self, r, f=f, calls=calls: calls.append((np.size(r), np.ravel(r)[0])) or f(self, r)
        monkeypatch.setattr(TrumpetProfile, name, record)
    assert run(tmp_path, "trumpet", "--n", "3") == 0
    grid = (profiles.DEFAULT_GRID_COUNT, profiles.DEFAULT_GRID_LO)
    export = (EXPORT_COUNT, EXPORT_R_LO)
    assert {name: calls.count(grid) for name, calls in firsts.items()} == {"_u": 1, "_du": 1, "_d2u": 1}
    assert {name: calls.count(export) for name, calls in firsts.items()} == {"_u": 1, "_du": 1, "_d2u": 1}
    window = (128, 1e3)
    assert {name: calls.count(window) for name, calls in firsts.items()} == {"_u": 1, "_du": 0, "_d2u": 0}


@pytest.mark.parametrize("kind", ["trumpet", "tabulated"])
def test_analyze_columns_are_the_library_on_the_grid(tmp_path, kind):
    # R, H, the area and m_H of each row are the library's functions on the grid, repr for repr
    flags = ["--profile", kind]
    if kind == "tabulated":  # the exported closed-form trumpet
        export_trumpet(TrumpetProfile(), tmp_path / "trumpet.dat")
        flags += ["--path", str(tmp_path / "trumpet.dat")]
    assert run(tmp_path, "analyze", *flags) == 0
    config = json.loads((tmp_path / "analyze" / "analyze.json").read_text())["config"]
    profile = build_profile(config)
    radii = build_grid(config, profile).radii()
    library = {
        "scalar_curvature": scalar_curvature(profile, radii).tolist(),
        "mean_curvature": sphere_mean_curvature(profile, radii).tolist(),
        "area": sphere_area(profile, radii).tolist(),
        "hawking_mass": [hawking_mass(profile, r) for r in radii.tolist()],
    }
    header, rows = read_csv(tmp_path / "analyze" / "analyze.csv")
    for name, values in library.items():
        column = header.index(name)
        assert [row[column] for row in rows] == list(map(repr, values)), name


@pytest.mark.parametrize("kind", ["schwarzschild", "trumpet", "cylinder", "tabulated"])
def test_analyze_area_infimum_is_area_infimum_radial(tmp_path, kind):
    # read from the grid analyze already evaluated, A_g is the library's bit for bit on each path:
    # an interior root of H, the throat limit, the sampled minimum and a table's closed inner edge
    flags = ["--profile", kind]
    if kind == "tabulated":  # Schwarzschild m = 1 outside its horizon, from r = 1
        grid = RadialGrid(1.0, 1e4, 512)
        write_tabulated(tmp_path / "schw.dat", grid, 1.0 + 0.5 / grid.radii())
        flags += ["--path", str(tmp_path / "schw.dat")]
    assert run(tmp_path, "analyze", *flags) == 0
    summary = json.loads((tmp_path / "analyze" / "analyze.json").read_text())
    profile = build_profile(summary["config"])
    grid = build_grid(summary["config"], profile)
    expected = GridScan(profile, grid).area_infimum
    assert summary["area_infimum"] == expected.value
    assert summary["area_infimum_argmin"] == expected.argmin_radius
    assert summary["area_infimum_throat_limit"] is expected.throat_limit
    if kind == "cylinder":  # H = 0 to rounding: the sampled minimum stands
        assert expected.argmin_radius in grid.radii()
    else:
        argmin = {"schwarzschild": pytest.approx(0.5, rel=1e-12), "trumpet": None, "tabulated": 1.0}[kind]
        assert expected.argmin_radius == argmin and expected.throat_limit is (kind == "trumpet")


@pytest.mark.parametrize(
    "scenario, target",
    [
        ({"command": "penrose", "profile": {"kind": "schwarzschild"}}, "penrose/penrose.json"),
        ({"command": "penrose", "profile": {"kind": "schwarzschild"}}, "penrose/penrose.csv"),
        ({"command": "analyze", "profile": {"kind": "schwarzschild"}}, "analyze/analyze.csv"),
        ({"command": "trumpet"}, "trumpet/trumpet_profile.dat"),
    ],
)
def test_report_path_that_is_a_directory_exit_2(tmp_path, capsys, scenario, target):
    # every write site: one config error line naming the path alone, and a recorded ConfigError in a batch that goes on
    cfg = tmp_path / "cfg.json"
    blocked = tmp_path / "alone" / target
    blocked.mkdir(parents=True)
    cfg.write_text(json.dumps({**scenario, "out_dir": str(tmp_path / "alone")}))
    assert main([scenario["command"], "--config", str(cfg)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ") and str(blocked) in err[0]

    blocked = tmp_path / "batch" / "scenario_000" / target
    blocked.mkdir(parents=True)
    scenarios = [scenario, {"command": "penrose", "profile": {"kind": "euclidean"}}]
    cfg.write_text(json.dumps({"command": "batch", "out_dir": str(tmp_path), "scenarios": scenarios}))
    assert main(["batch", "--config", str(cfg)]) == 2
    summary = json.loads((tmp_path / "batch" / "batch.json").read_text())["scenarios"]
    assert [s["exit_code"] for s in summary] == [2, 0]
    assert summary[0]["error"].startswith("ConfigError: ") and str(blocked) in summary[0]["error"]
    assert summary[1]["error"] is None


@pytest.mark.parametrize("beta", ["inf", "nan", "0", "-1"])
def test_mu_bubble_beta_outside_zero_to_infinity_exit_2(tmp_path, capsys, beta):
    # beta = inf would make h = eps, which has no barrier
    assert run(tmp_path, "mu-bubble", "--profile", "schwarzschild", "--beta", beta) == 2
    assert capsys.readouterr().err.splitlines() == [f"config error: beta must be positive and finite, got {float(beta)}"]
    assert not (tmp_path / "mu-bubble").exists()


@pytest.fixture
def loadtxt_calls(monkeypatch):
    """The np.loadtxt calls made during one test, with the table memo empty at its start."""
    monkeypatch.setattr(profiles, "_PARSED", {})
    parse, calls = np.loadtxt, []

    def counted(*args, **kwargs):
        calls.append(args)
        return parse(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", counted)
    return calls


def test_trumpet_round_trip_parses_no_table(tmp_path, loadtxt_calls):
    # the exported table is kept as written, so reading it back in this process parses nothing
    def analyze(n):
        dat = tmp_path / f"n{n}" / "trumpet" / "trumpet_profile.dat"
        assert run(tmp_path / f"n{n}", "analyze", "--n", str(n), "--profile", "tabulated", "--path", str(dat)) == 0
        return [(tmp_path / f"n{n}" / "analyze" / name).read_bytes() for name in ("analyze.json", "analyze.csv")]

    reports = {}
    for n in (3, 4, 5):
        assert run(tmp_path / f"n{n}", "trumpet", "--n", str(n)) == 0
        reports[n] = analyze(n)
        if n == 3:
            dat = tmp_path / "n3" / "trumpet" / "trumpet_profile.dat"
            assert run(tmp_path / "n3", "penrose", "--profile", "tabulated", "--path", str(dat)) == 0
    assert loadtxt_calls == []
    # the same reports from a parse of the file, with the memo emptied
    profiles._PARSED.clear()
    assert analyze(3) == reports[3]
    assert len(loadtxt_calls) == 1


def test_table_written_elsewhere_is_parsed_once(tmp_path, loadtxt_calls, schw):
    radii = np.geomspace(1e-4, 1e4, 512)
    path = tmp_path / "table.dat"
    path.write_text("# r u\n" + "".join(f"{r!r} {u!r}\n" for r, u in zip(radii.tolist(), schw.u(radii).tolist())))
    assert run(tmp_path, "analyze", "--profile", "tabulated", "--path", str(path)) == 0
    assert len(loadtxt_calls) == 1
    assert run(tmp_path, "penrose", "--profile", "tabulated", "--path", str(path)) == 0
    assert len(loadtxt_calls) == 1


def test_table_not_in_utf8_exit_2(tmp_path, capsys):
    # a Latin-1 byte in a comment: refused as a config error, as np.loadtxt(path) refuses it, not read as Latin-1
    path = tmp_path / "latin1.dat"
    path.write_bytes(b"# caf\xe9\n1 1\n2 1.5\n3 1.75\n4 1.875\n")
    assert run(tmp_path, "penrose", "--profile", "tabulated", "--path", str(path)) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: profile 'tabulated': 'utf-8' codec can't decode byte 0xe9")
    assert not (tmp_path / "penrose").exists()


@pytest.mark.parametrize(
    "argv, code",
    [
        (["penrose", "--profile", "schwarzschild"], 0),
        (["trumpet", "--alpha", "0.9"], 5),  # a weak alpha: verification fails, and the reports are written
    ],
)
def test_closed_stdout_keeps_the_exit_code(tmp_path, monkeypatch, capsys, argv, code):
    # stdout is a pipe whose reader is gone: the summary line cannot be printed, the run still stands
    reader, writer = os.pipe()
    os.close(reader)
    with open(writer, "w") as stdout:
        monkeypatch.setattr(sys, "stdout", stdout)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            assert run(tmp_path, *argv) == code
            assert run(tmp_path, *argv) == code  # stdout is devnull now
    names = {"penrose": ["penrose.csv", "penrose.json"], "trumpet": ["trumpet.json", "trumpet_profile.dat"]}[argv[0]]
    assert sorted(p.name for p in (tmp_path / argv[0]).iterdir()) == names
    assert "config error" not in capsys.readouterr().err


@pytest.mark.parametrize("unbuffered", ["1", None], ids=["unbuffered", "buffered"])
def test_closed_stdout_in_a_process(tmp_path, unbuffered):
    # the command line as a shell pipe into `true` runs it: the reports, the exit code, and no traceback
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join([str(Path(penroselab.__file__).parent.parent), env.get("PYTHONPATH", "")])
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    (tmp_path / "a_file").write_text("x")
    results = []
    for out_dir in (tmp_path / "out", tmp_path / "a_file"):
        reader, writer = os.pipe()
        os.close(reader)
        argv = [sys.executable, "-m", "penroselab.cli", "penrose", "--profile", "schwarzschild", "--out-dir", str(out_dir)]
        proc = subprocess.run(argv, stdout=writer, stderr=subprocess.PIPE, text=True, env=env, timeout=120)
        os.close(writer)
        results.append((proc.returncode, proc.stderr))
    assert results[0] == (0, "")
    assert sorted(p.name for p in (tmp_path / "out" / "penrose").iterdir()) == ["penrose.csv", "penrose.json"]
    # an out_dir that cannot be written is still a config error
    assert results[1][0] == 2 and results[1][1].startswith("config error: ") and "Traceback" not in results[1][1]


@pytest.mark.parametrize("epsilon", ["-1", "0", "nan", "inf"])
@pytest.mark.parametrize("command", ["mu-bubble", "rigidity", "horizon"])
def test_bad_epsilon_is_one_refusal_across_commands(tmp_path, capsys, command, epsilon):
    # the same input, the same error: a config error before any step, with one message
    flags = ["--epsilons", f"0.1,{epsilon}"] if command == "horizon" else ["--epsilon", epsilon]
    assert run(tmp_path, command, "--profile", "schwarzschild", *flags) == 2
    err = capsys.readouterr().err
    assert err == f"config error: epsilon must be positive and finite, got {float(epsilon)}\n"
    assert not (tmp_path / command).exists()


def test_run_corpus_script(tmp_path, monkeypatch, capsys):
    assert run_script(monkeypatch, "run_corpus.py", "--out-dir", str(tmp_path)) == 0
    header, rows = read_csv(tmp_path / "corpus_penrose.csv")
    assert header == ["name", "adm_mass", "area_infimum", "bound", "ratio", "verdict", "horizon_radius"]
    report = json.loads((tmp_path / "corpus_penrose.json").read_text())
    verdicts = {row[0]: row[header.index("verdict")] for row in rows}
    assert verdicts == {name: entry["verdict"] for name, entry in report.items()} and len(rows) == 6
    assert verdicts["schwarzschild_m1"] == "equality-within-tol" and verdicts["trumpet"] == "strict"
    assert "passed=True" in capsys.readouterr().out


def test_rigidity_demo_script(monkeypatch, capsys):
    assert run_script(monkeypatch, "rigidity_demo.py") == 0
    out = capsys.readouterr().out
    cumulative = [line for line in out.splitlines() if line.strip().startswith("cumulative volume")]
    assert len(cumulative) == 2 and all(line.endswith(": True") for line in cumulative)


def test_line_trace_lists_the_statements_a_test_file_leaves_unrun(tmp_path):
    # in a subprocess, as the script owns sys.settrace: test_quadrature.py runs the integrator's
    # refusal (test_doubling_cap_raises) but minimises no bubble
    repo = SCRIPTS.parent
    args = [str(repo / "tests" / "test_quadrature.py"), "-q", "-p", "no:cacheprovider"]
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "line_trace.py"), *args], capture_output=True, text=True, cwd=tmp_path
    )
    # the tests passed, but part of the suite leaves more than the one known statement unrun: the gate fails
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1].endswith("run by no test beyond the 1 known one")
    listed = {line.split()[0] for line in proc.stdout.splitlines() if line.startswith("src/penroselab/")}

    def at(module, text):
        lines = (repo / "src" / "penroselab" / f"{module}.py").read_text().splitlines()
        return {f"src/penroselab/{module}.py:{i}" for i, line in enumerate(lines, 1) if line.strip().startswith(text)}

    scan, refusal = at("bubbles", "brackets = "), at("quadrature", "raise QuadratureError")
    assert (len(scan), len(refusal)) == (1, 1)
    assert scan <= listed
    assert not refusal & listed and not at("quadrature", "def gauss_adaptive") & listed  # defs run on import


def test_line_trace_exit_code_is_pytests_first(tmp_path):
    # a file with no test: pytest's exit code 5 (nothing collected), not the gate's 1
    (tmp_path / "test_none.py").write_text("")
    args = [str(tmp_path / "test_none.py"), "-q", "-p", "no:cacheprovider"]
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "line_trace.py"), *args], capture_output=True, text=True, cwd=tmp_path
    )
    assert proc.returncode == 5 and "beyond the 1 known one" in proc.stdout, proc.stdout + proc.stderr


def test_replay_script_finds_a_changed_byte(tmp_path, monkeypatch, capsys):
    # two records of the same tree agree op for op; one changed output digest is named
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends src/ and benchmarks/
    digests = [tmp_path / "a.json", tmp_path / "b.json"]
    for out in digests:
        args = ["record", "--out", str(out), "--work", str(tmp_path / "work"), "--workloads", "verdicts"]
        assert run_script(monkeypatch, "replay.py", *args, "--seeds", "1", "--rounds", "1") == 0
    assert run_script(monkeypatch, "replay.py", "diff", *map(str, digests)) == 0
    assert "0 of 11 ops differ" in capsys.readouterr().out
    record = json.loads(digests[1].read_text())
    key = sorted(record["ops"])[0]
    assert record["ops"][key]["exit"] == 0 and "penrose.json" in record["ops"][key]["files"]
    record["ops"][key]["files"]["penrose.json"] = "0" * 64
    digests[1].write_text(json.dumps(record))
    assert run_script(monkeypatch, "replay.py", "diff", *map(str, digests)) == 1
    out = capsys.readouterr().out
    assert f"{key}: penrose.json differs" in out and "1 of 11 ops differ" in out


def test_replay_commands_cover_every_command(tmp_path, monkeypatch):
    # the fixed list runs all seven commands, with their refusal exits and a raised config error
    monkeypatch.setattr(sys, "path", list(sys.path))
    out = tmp_path / "commands.json"
    args = ["record", "--out", str(out), "--work", str(tmp_path / "work"), "--workloads", "commands"]
    assert run_script(monkeypatch, "replay.py", *args) == 0
    ops = json.loads(out.read_text())["ops"]
    commands = {key.split()[1] for key in ops}
    assert commands == {"analyze", "penrose", "mu-bubble", "horizon", "rigidity", "trumpet", "batch"}
    exits = [op["exit"] for op in ops.values()]
    assert {0, 4, 5, 6} <= set(exits) and exits.count("exception ParameterError") == 1
    assert all(isinstance(code, int) for code in exits if code != "exception ParameterError")
    # the ops run through main: flags alone, a config file under flags, and a flag argparse refuses
    main_ops = {key.split(maxsplit=1)[1]: op for key, op in ops.items() if key.endswith(("flags", "unknown flag"))}
    assert {label: op["exit"] for label, op in main_ops.items()} == {
        "penrose flags": 0, "mu-bubble config and flags": 0, "horizon unknown flag": 2,
    }
    config = main_ops["mu-bubble config and flags"]["reports"]["mu_bubble.json"]["config"]
    assert config["profile"] == {"kind": "schwarzschild", "mass": 2.0} and config["epsilon"] == 0.05
    assert config["beta"] == 3.0 and not main_ops["horizon unknown flag"]["files"]


def test_replay_diff_names_the_number_that_moved(tmp_path, monkeypatch, capsys):
    # one float perturbed in a stored report: diff names its path and its relative change
    monkeypatch.setattr(sys, "path", list(sys.path))
    old, new = tmp_path / "a.json", tmp_path / "b.json"
    args = ["record", "--out", str(old), "--work", str(tmp_path / "work"), "--workloads", "verdicts"]
    assert run_script(monkeypatch, "replay.py", *args, "--seeds", "1", "--rounds", "1") == 0
    record = json.loads(old.read_text())
    key = sorted(record["ops"])[0]
    report = record["ops"][key]["reports"]["penrose.json"]["report"]
    report["adm_mass"] *= 1 + 1e-9
    new.write_text(json.dumps(record))
    capsys.readouterr()
    assert run_script(monkeypatch, "replay.py", "diff", str(old), str(new)) == 1
    lines = capsys.readouterr().out.splitlines()
    moved = [line for line in lines if line.startswith(f"{key}: penrose.json: report.adm_mass: ")]
    assert len(moved) == 1 and moved[0].endswith("(relative change 1e-09)")
    assert f"{key}: penrose.json: largest relative change 1e-09" in lines
    assert "1 of 11 ops differ" in lines


def test_replay_diff_names_a_moved_hawking_field(tmp_path, monkeypatch, capsys):
    # a verdict op with a hawking radius records adm_hawking_check's fields; one perturbed is named
    monkeypatch.setattr(sys, "path", list(sys.path))
    old, new = tmp_path / "a.json", tmp_path / "b.json"
    args = ["record", "--out", str(old), "--work", str(tmp_path / "work"), "--workloads", "verdicts"]
    assert run_script(monkeypatch, "replay.py", *args, "--seeds", "1", "--rounds", "1") == 0
    record = json.loads(old.read_text())
    key = next(key for key in sorted(record["ops"]) if "hawking" in record["ops"][key])
    hawking = record["ops"][key]["hawking"]
    assert set(hawking) == {"radius", "adm_mass", "hawking_mass", "passed"} and hawking["passed"] is True
    hawking["hawking_mass"] *= 1 + 1e-9
    new.write_text(json.dumps(record))
    capsys.readouterr()
    assert run_script(monkeypatch, "replay.py", "diff", str(old), str(new)) == 1
    lines = capsys.readouterr().out.splitlines()
    moved = [line for line in lines if line.startswith(f"{key}: hawking: hawking_mass: ")]
    assert len(moved) == 1 and moved[0].endswith("(relative change 1e-09)")
    assert f"{key}: hawking differs" in lines and "1 of 11 ops differ" in lines


def _digest_op(exit_code=0, verdict="strict", mass=1.0, passed=True):
    report = {"report": {"adm_mass": mass, "verdict": verdict}}
    return {"exit": exit_code, "files": {"penrose.json": f"{mass}{verdict}"}, "reports": {"penrose.json": report},
            "hawking": {"radius": 2.0, "passed": passed}}


def test_replay_diff_ends_with_the_exit_and_verdict_counts(tmp_path, monkeypatch, capsys):
    # one exit code moved (with its verdict), one float only, one hawking boolean: 1 exit, 2 verdicts
    old = {"a": _digest_op(), "b": _digest_op(), "c": _digest_op(), "d": _digest_op()}
    new = {"a": _digest_op(3, "violated"), "b": _digest_op(mass=1.0 + 1e-15), "c": _digest_op(passed=False),
           "d": _digest_op()}
    for name, ops in (("old", old), ("new", new)):
        (tmp_path / f"{name}.json").write_text(json.dumps({"ops": ops}))
    assert run_script(monkeypatch, "replay.py", "diff", str(tmp_path / "old.json"), str(tmp_path / "new.json")) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2:] == ["3 of 4 ops differ", "exit codes changed: 1; verdicts changed: 2"]


def test_replay_diff_into_a_closed_pipe(tmp_path):
    # a reader that stops after one line (| head -1): no traceback, and the diff's exit code stands
    ops = {f"op{i:05d}": _digest_op() for i in range(4000)}
    (tmp_path / "old.json").write_text(json.dumps({"ops": ops}))
    (tmp_path / "new.json").write_text(json.dumps({"ops": {key: _digest_op(3) for key in ops}}))
    args = [sys.executable, str(SCRIPTS / "replay.py"), "diff", str(tmp_path / "old.json"), str(tmp_path / "new.json")]
    proc = subprocess.Popen(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    assert proc.stdout.readline() == "op00000: exit 0 -> 3\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1 and err == ""


_SCIPY_PROBE = """
import sys
from penroselab.cli import main, run_command
from penroselab.errors import ConfigError
from penroselab.reports import jsonable

def scipy_loaded():
    return sorted(k for k in sys.modules if k == "scipy" or k.startswith("scipy."))

out = sys.argv[1]
print("probe", scipy_loaded())
for args in (
    ["penrose", "--profile", "schwarzschild"],
    ["penrose", "--profile", "trumpet"],
    ["horizon", "--profile", "schwarzschild"],
    ["mu-bubble", "--profile", "schwarzschild"],
    ["analyze", "--profile", "schwarzschild"],
    ["rigidity", "--profile", "schwarzschild"],
    ["trumpet"],
):
    print("probe", main([*args, "--out-dir", out]), scipy_loaded())
table = out + "/trumpet/trumpet_profile.dat"
print("probe", main(["analyze", "--profile", "tabulated", "--path", table, "--out-dir", out + "/scipy"]))
"""


def test_closed_form_commands_load_no_scipy(tmp_path):
    # in a fresh interpreter: pytest's own filterwarnings setting imports scipy.integrate into this one
    src = str(Path(penroselab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, str(tmp_path)], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    probes = [line for line in proc.stdout.splitlines() if line.startswith("probe ")]
    assert probes == ["probe []"] + ["probe 0 []"] * 7 + ["probe 0"]  # a table, which needs scipy, still runs
