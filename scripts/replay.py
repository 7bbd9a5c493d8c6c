#!/usr/bin/env python3
"""Replay the benchmark's CLI ops and digest their outputs, to show a change moves no byte.

``record`` draws the CLI ops of four seeded workloads from
``benchmarks/workloads.py`` (verdicts, bubble-schedules, bubble-trumpet and
trumpet-roundtrip; by default seeds 1-3, rounds 0-1: 171 ops) and the fixed
``commands`` lists below (27 ops over all seven commands, including the exit
codes and the refusals the workloads never reach, and a two-column (r, u)
table that no process wrote, so its first read parses it), runs each through
``penroselab.cli.run_command`` of the package under ``--src`` (the
``MAIN_ARGV`` ops through ``penroselab.cli.main``, so the argument parser
and the flag overrides are replayed too), and writes one digest per op: its
exit code, the SHA-256 of every file it wrote and the contents of every
JSON report.  An op that carries ``hawking_radius``
also records the four fields of ``adm_hawking_check`` at that radius under
``hawking``, as ``benchmarks/run.py`` times it.  A tabulated profile from an earlier
``trumpet`` op is resolved as ``benchmarks/run.py`` resolves it.  The output
directory is fixed (``--work``), because the reports echo ``out_dir``: two
trees compared must be recorded with the same one.

``diff`` compares two digest files op by op and exits 1 if any differ.  For
a JSON report or ``hawking`` record that differs it prints the path of each
differing leaf, with the relative change of a number, and the largest
relative change per file.  It ends with one line per field name (the last
key of a leaf path): the ops it moved in, its largest relative change off a
nonzero value and its largest absolute change, each with the op holding it,
so a field moving off 0.0 (relative change inf) still reads as a size.
Its last line counts the ops whose exit code changed and those whose
verdicts changed (a verdict is any boolean leaf or ``verdict`` field of a
report or ``hawking`` record).  Piped into ``head``, it stops printing
without a traceback, and its exit code stands.  Records made before
``hawking`` was added lack it, so re-record both trees with the same script.

    python scripts/replay.py record --src src --out out/new.json
    python scripts/replay.py record --src ../parent/src --out out/old.json
    python scripts/replay.py diff out/old.json out/new.json
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
import shutil
import sys
import tempfile
import warnings
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
WORKLOADS = ("verdicts", "bubble-schedules", "bubble-trumpet", "trumpet-roundtrip", "commands")

SCHW, TRUMPET = {"kind": "schwarzschild", "mass": 1.0}, {"kind": "trumpet"}
SCHW_TABLE = {"kind": "tabulated", "schwarzschild_table": True}  # ``prepare`` writes the (r, u) file and names it
# (label, config): every command, with the exits 4, 5 and 6, the refusals, a raised config error and a (r, u) table
COMMANDS = (
    ("mu-bubble default", {"command": "mu-bubble", "profile": SCHW}),
    ("mu-bubble beta 3", {"command": "mu-bubble", "profile": SCHW, "beta": 3.0}),
    ("mu-bubble trumpet r0 4", {"command": "mu-bubble", "profile": TRUMPET, "r0": 4.0, "epsilon": 0.02}),
    ("mu-bubble euclidean", {"command": "mu-bubble", "profile": {"kind": "euclidean"}}),
    ("mu-bubble beta -1", {"command": "mu-bubble", "profile": SCHW, "beta": -1.0}),
    ("horizon schwarzschild r0 2", {"command": "horizon", "profile": SCHW, "r0": 2.0}),
    ("horizon schwarzschild r0 10", {"command": "horizon", "profile": SCHW, "r0": 10.0}),
    ("horizon trumpet r0 3", {"command": "horizon", "profile": TRUMPET, "r0": 3.0}),
    ("rigidity refused", {"command": "rigidity", "profile": SCHW, "r0": 2.0, "epsilon": 0.3, "gamma": 1.05}),
    ("rigidity trumpet", {"command": "rigidity", "profile": TRUMPET, "r0": 4.0, "epsilon": 0.02, "gamma": 1.5}),
    ("analyze euclidean", {"command": "analyze", "profile": {"kind": "euclidean"}}),
    ("analyze schwarzschild", {"command": "analyze", "profile": SCHW}),
    ("analyze cylinder", {"command": "analyze", "profile": {"kind": "cylinder"}}),
    ("analyze trumpet n 4", {"command": "analyze", "profile": TRUMPET, "n": 4}),
    ("analyze grid-count 2", {"command": "analyze", "profile": SCHW, "grid": {"count": 2}}),
    ("penrose cylinder", {"command": "penrose", "profile": {"kind": "cylinder"}}),
    ("penrose grid-lo 1", {"command": "penrose", "profile": SCHW, "grid": {"r_lo": 1.0}}),
    ("analyze schwarzschild table", {"command": "analyze", "profile": SCHW_TABLE}),
    ("penrose schwarzschild table", {"command": "penrose", "profile": SCHW_TABLE}),
    ("trumpet alpha 0.9", {"command": "trumpet", "alpha": 0.9}),
    ("batch", {"command": "batch", "scenarios": [
        {"command": "penrose", "profile": SCHW},
        {"command": "mu-bubble", "profile": SCHW, "epsilon": 0.05},
        {"command": "penrose", "profile": {"kind": "cylinder"}},
    ]}),
    ("batch config error", {"command": "batch", "scenarios": [
        {"command": "penrose", "profile": {"kind": "schwarzschild", "mass": "nan"}},
        {"command": "mu-bubble", "profile": SCHW, "epsilon": 0.05},
    ]}),
)
# (label, argv, config file content or None): run as ``cli.main(argv)`` with ``--out-dir`` added, and
# ``--config`` naming a file of that content; an argparse refusal is recorded as its exit code
MAIN_ARGV = (
    ("penrose flags", ["penrose", "--profile", "schwarzschild", "--mass", "2", "--grid-lo", "0.01", "--grid-count", "1024"],
     None),
    ("mu-bubble config and flags", ["mu-bubble", "--epsilon", "0.05", "--mass", "2"],
     {"profile": SCHW, "epsilon": 0.1, "beta": 3.0}),
    ("horizon unknown flag", ["horizon", "--profile", "schwarzschild", "--bogus", "1"], None),
    ("analyze n 80", ["analyze", "--profile", "schwarzschild", "--n", "80"], None),
    ("trumpet n 3 grid-hi 1e155", ["trumpet", "--n", "3", "--grid-hi", "1e155"], None),
)


def draw_ops(workloads, names, seeds, rounds):
    for name in names:
        if name == "commands":
            fixed = [{"label": label, "cli": cfg} for label, cfg in COMMANDS]
            fixed += [{"label": label, "argv": argv, "config": content} for label, argv, content in MAIN_ARGV]
            yield from ((f"commands:{i} {op['label']}", op) for i, op in enumerate(fixed))
            continue
        for seed in seeds:
            for k in range(rounds):
                for i, op in enumerate(workloads.WORKLOADS[name].round(seed, k)):
                    yield f"{name}:{seed}:{k}:{i} {op['label']}", op


def prepare(op: dict, work: Path) -> tuple[dict, list | None]:
    """The op's config with a fixed out_dir, its earlier output removed; as ``run.py``'s ``_prepare``.

    A ``MAIN_ARGV`` op also gets its argv, with ``--out-dir`` and any ``--config`` file added; its config
    then names only the command and the out_dir.  A ``schwarzschild_table`` profile gets the path of
    a (r, u) table of Schwarzschild m = 1, 512 rows on [1e-4, 1e4], written here as plain text (not by
    ``write_tabulated``, whose table the reader would find kept).
    """
    cfg = {"command": op["argv"][0]} if "argv" in op else copy.deepcopy(op["cli"])
    out = work / (f"slot{op['slot']}" if "slot" in op else "op")
    cfg["out_dir"] = str(out)
    profile = cfg.get("profile", {})
    if "trumpet_slot" in profile:
        profile["path"] = str(work / f"slot{profile.pop('trumpet_slot')}" / "trumpet" / "trumpet_profile.dat")
    if profile.pop("schwarzschild_table", False):
        radii = [10.0 ** (-4.0 + 8.0 * k / 511) for k in range(512)]
        work.mkdir(parents=True, exist_ok=True)
        profile["path"] = str(work / "schwarzschild.dat")
        Path(profile["path"]).write_text("# r u\n" + "".join(f"{r!r} {1.0 + 0.5 / r!r}\n" for r in radii))
    shutil.rmtree(out / cfg["command"], ignore_errors=True)
    if "argv" not in op:
        return cfg, None
    argv = [*op["argv"], "--out-dir", str(out)]
    if op["config"] is not None:
        work.mkdir(parents=True, exist_ok=True)
        path = work / "op.json"
        path.write_text(json.dumps(op["config"]))
        argv += ["--config", str(path)]
    return cfg, argv


def run_op(cli, cfg: dict, argv: list | None = None, hawking_radius: float | None = None) -> dict:
    """Exit code (or the escaping exception's type), the SHA-256 of each file written, each JSON report.

    Given ``argv``, the op runs as ``cli.main(argv)``, else as ``cli.run_command(cfg)``.  Given
    ``hawking_radius``, also the fields of ``adm_hawking_check`` there (or the exception's type).
    """
    extra = {}
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        warnings.simplefilter("ignore")
        try:
            code = cli.run_command(cfg) if argv is None else cli.main(argv)
        except SystemExit as exc:  # argparse refusing the argv
            code = exc.code
        except Exception as exc:  # a raising op is recorded, not fatal
            code = f"exception {type(exc).__name__}"
        if hawking_radius is not None:
            from penroselab.masses import adm_hawking_check  # from the package under --src, as cli is
            from penroselab.reports import jsonable

            try:
                extra["hawking"] = jsonable(adm_hawking_check(cli.build_profile(cfg), hawking_radius))
            except Exception as exc:
                extra["hawking"] = f"exception {type(exc).__name__}"
    out = Path(cfg["out_dir"]) / cfg["command"]
    files = sorted(p for p in out.rglob("*") if p.is_file()) if out.is_dir() else []
    names = {p: str(p.relative_to(out)) for p in files}
    return {
        "exit": code,
        "files": {names[p]: hashlib.sha256(p.read_bytes()).hexdigest() for p in files},
        "reports": {names[p]: json.loads(p.read_text()) for p in files if p.suffix == ".json"},
        **extra,
    }


def record(args) -> int:
    sys.path[:0] = [str(Path(args.src).resolve()), str(BENCHMARKS)]
    import workloads

    import penroselab.cli as cli

    work = Path(args.work)
    ops = draw_ops(workloads, args.workloads, args.seeds, args.rounds)
    digests = {key: run_op(cli, *prepare(op, work), op.get("hawking_radius")) for key, op in ops}
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps({"src": str(Path(cli.__file__).parent), "ops": digests}, indent=1) + "\n")
    say(f"{len(digests)} ops from {Path(cli.__file__).parent} -> {args.out}")
    return 0


def say(line: str) -> None:
    """Print a line; once stdout's reader is gone (``| head``), the rest goes to devnull and the exit code stands."""
    try:
        print(line, flush=True)
    except BrokenPipeError:  # the Python docs' recipe: no traceback now, and no failed flush at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def leaves(obj, path=""):
    """(path, value) of every leaf of a JSON value, paths like ``report.steps[2].area``."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from leaves(value, f"{path}.{key}" if path else key)
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from leaves(value, f"{path}[{i}]")
    else:
        yield path, obj


def _field(path: str) -> str:
    """The field name of a leaf path: its last key, list indices dropped (``steps[2].area`` -> ``area``)."""
    return path.rsplit(".", 1)[-1].split("[", 1)[0]


def verdicts(op: dict) -> dict:
    """The verdict leaves of an op's reports and ``hawking`` record: each boolean and each ``verdict`` field."""
    records = {**op.get("reports", {}), "hawking": op.get("hawking")}
    return {
        path: value
        for name, record in records.items()
        for path, value in leaves(record, name)
        if isinstance(value, bool) or _field(path) == "verdict"
    }


def _relative(x, y) -> float | None:
    """|y - x| / |x| for two numbers (inf when only x is 0), else None."""
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (x, y)):
        return None
    return abs(y - x) / abs(x) if x else math.inf


def report_diff(prefix: str, old, new, moves: dict) -> None:
    """Print each differing leaf of two JSON reports, the relative change of numbers, and the largest.

    Each move is also added to ``moves[field]`` as (op prefix, old value, new value).
    """
    a, b = dict(leaves(old)), dict(leaves(new))
    worst = 0.0
    for path in sorted(a.keys() | b.keys()):
        x, y = a.get(path), b.get(path)
        if x == y and type(x) is type(y):
            continue
        moves.setdefault(_field(path), []).append((prefix, x, y))
        line = f"{prefix}: {path}: {x!r} -> {y!r}"
        rel = _relative(x, y)
        if rel is not None:
            worst = max(worst, rel)
            line += f" (relative change {rel:.3g})"
        say(line)
    say(f"{prefix}: largest relative change {worst:.3g}")


def field_summary(moves: dict) -> None:
    """One line per field: the ops it moved in, its largest relative change off a nonzero value, and
    its largest absolute change, each with the op that holds it; non-numeric changes are counted."""
    for name in sorted(moves):
        items = moves[name]
        ops = len({prefix.split(": ", 1)[0] for prefix, _, _ in items})
        numeric = [(prefix, x, y) for prefix, x, y in items if _relative(x, y) is not None]
        line = f"field {name}: moved in {ops} ops"
        rel = [(_relative(x, y), prefix) for prefix, x, y in numeric if x]
        if rel:
            line += "; largest relative change {:.3g} at {}".format(*max(rel))
        if numeric:
            line += "; largest absolute change {:.3g} at {}".format(*max((abs(y - x), p) for p, x, y in numeric))
        if len(numeric) < len(items):
            line += f"; {len(items) - len(numeric)} non-numeric changes"
        say(line)


def diff(args) -> int:
    old, new = (json.loads(Path(p).read_text())["ops"] for p in (args.old, args.new))
    differ = exits = verdict_ops = 0
    moves: dict = {}
    for key in sorted(old.keys() | new.keys()):
        a, b = old.get(key), new.get(key)
        if a == b:
            continue
        differ += 1
        if a is None or b is None:
            say(f"{key}: only in {'new' if a is None else 'old'}")
            continue
        if a["exit"] != b["exit"]:
            exits += 1
            say(f"{key}: exit {a['exit']} -> {b['exit']}")
        verdict_ops += verdicts(a) != verdicts(b)
        for name in sorted(a["files"].keys() | b["files"].keys()):
            old_report, new_report = (op.get("reports", {}).get(name) for op in (a, b))
            if a["files"].get(name) != b["files"].get(name) or old_report != new_report:
                say(f"{key}: {name} differs")
                if old_report is not None and new_report is not None:
                    report_diff(f"{key}: {name}", old_report, new_report, moves)
        if a.get("hawking") != b.get("hawking"):
            say(f"{key}: hawking differs")
            report_diff(f"{key}: hawking", a.get("hawking"), b.get("hawking"), moves)
    field_summary(moves)
    say(f"{differ} of {len(old.keys() | new.keys())} ops differ")
    say(f"exit codes changed: {exits}; verdicts changed: {verdict_ops}")
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    rec = sub.add_parser("record", help="run the ops from one source tree and write their digests")
    rec.add_argument("--src", default="src", help="directory holding the penroselab package")
    rec.add_argument("--out", required=True, help="digest file to write")
    rec.add_argument("--work", default=str(Path(tempfile.gettempdir()) / "penroselab-replay"), help="fixed output directory")
    rec.add_argument("--workloads", nargs="+", default=list(WORKLOADS), choices=WORKLOADS)
    rec.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 3])
    rec.add_argument("--rounds", type=int, default=2, help="rounds 0 .. ROUNDS-1 of each seed")
    cmp_ = sub.add_parser("diff", help="compare two digest files")
    cmp_.add_argument("old")
    cmp_.add_argument("new")
    args = parser.parse_args(argv)
    return record(args) if args.mode == "record" else diff(args)


if __name__ == "__main__":
    sys.exit(main())
