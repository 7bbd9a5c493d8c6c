#!/usr/bin/env python3
"""Time each CLI command from a cold interpreter, and list the scipy subpackages it loads.

Every run is a fresh ``python -c`` that imports ``penroselab.cli`` from
``--src``, runs one command through ``main`` and reports its exit code and
the ``scipy.*`` subpackages then in ``sys.modules``.  The wall time is taken
around the whole child process, interpreter start-up included, since that
is what a user waits for.  Each command runs ``--repeat`` times; with more
than one ``--src`` the trees take turns run by run, so a slow spell of the
machine falls on all of them alike.  The table gives the best and median
wall time per command and tree; ``--json`` writes every run.

    python scripts/cold_start.py --src src
    python scripts/cold_start.py --src ../parent/src src --repeat 7 --json out/cold_start.json
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# (label, argv): all seven commands, penrose on two profiles; none of them loads scipy
COMMANDS = (
    ("penrose schwarzschild", ["penrose", "--profile", "schwarzschild"]),
    ("penrose trumpet", ["penrose", "--profile", "trumpet"]),
    ("horizon", ["horizon", "--profile", "schwarzschild"]),
    ("analyze", ["analyze", "--profile", "schwarzschild"]),
    ("mu-bubble", ["mu-bubble", "--profile", "schwarzschild"]),
    ("trumpet", ["trumpet"]),
    ("rigidity", ["rigidity", "--profile", "schwarzschild"]),
    ("batch", ["batch", "--config", "{work}/batch.json"]),
)
BATCH = {
    "command": "batch",
    "scenarios": [
        {"command": "penrose", "profile": {"kind": "schwarzschild", "mass": 1.0}},
        {"command": "mu-bubble", "profile": {"kind": "schwarzschild", "mass": 1.0}, "epsilon": 0.05},
    ],
}
CHILD = """
import contextlib, io, json, sys
from penroselab.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
scipy = sorted({k.split(".")[1] for k in sys.modules if k.startswith("scipy.") and not k.split(".")[1].startswith("_")})
print(json.dumps({"exit": code, "scipy": scipy}))
"""


def run_once(src: str, argv: list[str], work: str) -> tuple[float, dict]:
    """Wall time of one fresh interpreter running ``argv``, and what it reported."""
    env = {**os.environ, "PYTHONPATH": src}
    cmd = [sys.executable, "-c", CHILD, *[a.format(work=work) for a in argv], "--out-dir", work]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} under {src} failed ({proc.returncode}):\n{proc.stderr}")
    return wall, json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", nargs="+", default=["src"], help="directories holding a penroselab package")
    parser.add_argument("--repeat", type=int, default=7, help="runs per command and tree")
    parser.add_argument("--json", type=Path, default=None, help="write every run here")
    args = parser.parse_args(argv)
    srcs = [str(Path(s).resolve()) for s in args.src]
    results = {src: {label: {"runs_s": []} for label, _ in COMMANDS} for src in srcs}
    with tempfile.TemporaryDirectory(prefix="penroselab-cold-") as work:
        (Path(work) / "batch.json").write_text(json.dumps(BATCH))
        for label, cmd in COMMANDS:
            for _ in range(args.repeat):
                for src in srcs:
                    wall, seen = run_once(src, cmd, work)
                    record = results[src][label]
                    record["runs_s"].append(wall)
                    record.update(seen)
    print(f"{'command':<22} {'exit':>4} {'best s':>8} {'median s':>9}  scipy subpackages loaded")
    for src in srcs:
        print(f"-- {src}")
        for label, record in results[src].items():
            record["best_s"], record["median_s"] = min(record["runs_s"]), statistics.median(record["runs_s"])
            print(f"{label:<22} {record['exit']:4d} {record['best_s']:8.3f} {record['median_s']:9.3f}  {', '.join(record['scipy']) or '-'}")
    if args.json:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        meta = {"python": sys.version.split()[0], "repeat": args.repeat, "cpus": os.cpu_count()}
        args.json.write_text(json.dumps({**meta, "trees": results}, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
