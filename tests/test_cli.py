import csv
import json
import math

import numpy as np
import pytest

from penroselab import build_trumpet, export_trumpet, write_tabulated
from penroselab.cli import main


def run(tmp_path, *args):
    return main([*args, "--out-dir", str(tmp_path)])


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
    r_idx = header.index("r")
    assert all(float(row[r_col]) == 0.0 for row in rows)
    # zero up to cancellation noise, which scales with the sphere radius
    assert all(abs(float(row[mh_col])) <= 1e-14 * (1 + float(row[r_idx])) for row in rows)
    summary = json.loads((tmp_path / "analyze" / "analyze.json").read_text())
    assert abs(summary["adm_mass"]) < 1e-9


def test_analyze_schwarzschild_horizon_row(tmp_path):
    assert run(tmp_path, "analyze", "--profile", "schwarzschild", "--mass", "1") == 0
    header, rows = read_csv(tmp_path / "analyze" / "analyze.csv")
    r_i, h_i, a_i = header.index("r"), header.index("mean_curvature"), header.index("area")
    nearest = min(rows, key=lambda row: abs(float(row[r_i]) - 0.5))
    assert abs(float(nearest[h_i])) < 1e-2
    assert float(nearest[a_i]) == pytest.approx(16 * math.pi, rel=1e-3)


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


def test_penrose_table_with_least_area_at_its_inner_edge(tmp_path, capsys):
    # a trumpet table cut at 1e-3: the least sphere is the closed inner edge itself
    radii = np.geomspace(1e-3, 1e3, 4096)
    path = tmp_path / "trumpet.dat"
    write_tabulated(path, radii, build_trumpet().u(radii))
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


def test_rigidity_command(tmp_path):
    code = run(
        tmp_path, "rigidity", "--profile", "schwarzschild", "--mass", "1",
        "--r0", "2", "--epsilon", "0.1", "--gamma", "1.5",
    )
    assert code == 0
    trace = json.loads((tmp_path / "rigidity" / "rigidity.json").read_text())["trace"]
    assert trace["cumulative_bound_ok"] is True


def test_trumpet_command_pass_and_fail(tmp_path):
    assert run(tmp_path / "ok", "trumpet") == 0
    assert (tmp_path / "ok" / "trumpet" / "trumpet_profile.dat").exists()
    with pytest.warns(UserWarning):
        code = run(tmp_path / "weak", "trumpet", "--alpha", "0.9")
    assert code == 5
    payload = json.loads((tmp_path / "weak" / "trumpet" / "trumpet.json").read_text())
    failing = [c["name"] for c in payload["verification"]["checks"] if not c["passed"]]
    assert failing == ["mean_convexity"]


def test_trumpet_dimension_four(tmp_path):
    assert run(tmp_path, "trumpet", "--n", "4") == 0
    payload = json.loads((tmp_path / "trumpet" / "trumpet.json").read_text())
    assert payload["verification"]["ok"] is True
    assert "penrose" not in payload


def test_config_error_exit_2(tmp_path):
    assert main(["penrose", "--config", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["penrose", "--config", str(bad)]) == 2
    assert run(tmp_path, "penrose", "--profile", "nonesuch") == 2


@pytest.mark.parametrize(
    "flags",
    [
        ["penrose", "--profile", "schwarzschild", "--mass", "-1"],
        ["penrose", "--profile", "schwarzschild-like", "--a", "1"],
        ["penrose", "--profile", "schwarzschild", "--grid-count", "1"],
        ["mu-bubble", "--profile", "schwarzschild", "--beta", "-1"],
        ["mu-bubble", "--profile", "schwarzschild", "--lip-factor", "2"],
        ["rigidity", "--profile", "schwarzschild", "--gamma", "3"],
        ["rigidity", "--profile", "schwarzschild", "--epsilon", "1e-9"],  # below epsilon_floor
        ["horizon", "--profile", "schwarzschild", "--epsilons", "0.1,a"],
    ],
)
def test_bad_profile_or_grid_exit_2(tmp_path, capsys, flags):
    assert run(tmp_path, *flags) == 2
    assert "config error" in capsys.readouterr().err


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
        ("mu-bubble", {"lip_factor": "x"}),
        ("trumpet", {"profile": {"kind": "trumpet"}, "n": "x"}),
        ("trumpet", {"profile": {"kind": "trumpet"}, "n": 2}),
        ("trumpet", {"profile": {"kind": "trumpet"}, "n": 3.5}),  # not an integer, so not truncated to 3
        ("trumpet", {"profile": {"kind": "trumpet"}, "alpha": "x"}),
        ("trumpet", {"profile": "x"}),
        ("penrose", {"n": 4.9}),
        ("penrose", {"tolerances": {"equality": "x"}}),
        ("penrose", {"tolerances": [1]}),
        ("analyze", {"grid": "x"}),
    ],
)
def test_bad_schedule_config_exit_2(tmp_path, capsys, command, fields):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"profile": {"kind": "schwarzschild"}, "out_dir": str(tmp_path), **fields}))
    assert main([command, "--config", str(cfg)]) == 2
    assert "config error" in capsys.readouterr().err


def test_bad_tolerances_exit_2(tmp_path):
    cfg = tmp_path / "cfg.json"
    # "quadrature" is unknown too: the radial integrals have a fixed tolerance
    for tolerances in ({"equality": -1.0}, {"bogus": 1.0}, {"quadrature": 1e-10}):
        cfg.write_text(json.dumps({
            "command": "penrose",
            "profile": {"kind": "euclidean"},
            "tolerances": tolerances,
            "out_dir": str(tmp_path),
        }))
        assert main(["penrose", "--config", str(cfg)]) == 2


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
            {"command": "penrose", "profile": {"kind": "euclidean"}, "tolerances": [1]},
            {"command": "penrose", "profile": {"kind": "schwarzschild", "mass": 1.0}},
        ],
    }))
    assert main(["batch", "--config", str(cfg)]) == 2
    summary = json.loads((tmp_path / "batch" / "batch.json").read_text())
    assert [s["exit_code"] for s in summary["scenarios"]] == [2, 2, 2, 0]
    assert all("ConfigError" in s["error"] for s in summary["scenarios"][:3])


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


def test_reports_are_bit_identical(tmp_path):
    assert run(tmp_path, "penrose", "--profile", "schwarzschild", "--mass", "1") == 0
    a = (tmp_path / "penrose" / "penrose.json").read_bytes()
    a_csv = (tmp_path / "penrose" / "penrose.csv").read_bytes()
    assert run(tmp_path, "penrose", "--profile", "schwarzschild", "--mass", "1") == 0
    assert (tmp_path / "penrose" / "penrose.json").read_bytes() == a
    assert (tmp_path / "penrose" / "penrose.csv").read_bytes() == a_csv


def test_csv_json_numeric_roundtrip(tmp_path):
    assert run(tmp_path, "penrose", "--profile", "schwarzschild", "--mass", "1") == 0
    header, rows = read_csv(tmp_path / "penrose" / "penrose.csv")
    report = json.loads((tmp_path / "penrose" / "penrose.json").read_text())["report"]
    for name, cell in zip(header, rows[0]):
        ref = report[name]
        if isinstance(ref, float):
            assert float(cell) == pytest.approx(ref, rel=1e-15)


def test_analyze_roundtrip_through_export(tmp_path):
    trumpet = build_trumpet()
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
