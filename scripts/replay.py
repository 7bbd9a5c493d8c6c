#!/usr/bin/env python3
"""Replay the benchmark's CLI ops and digest their outputs, to show a change moves no byte.

``record`` draws the CLI ops of four seeded workloads from
``benchmarks/workloads.py`` (verdicts, bubble-schedules, bubble-trumpet and
trumpet-roundtrip; by default seeds 1-3, rounds 0-1: 171 ops), runs each
through ``penroselab.cli.run_command`` of the package under ``--src``, and
writes one digest per op: its exit code and the SHA-256 of every file it
wrote.  A tabulated profile from an earlier ``trumpet`` op is resolved as
``benchmarks/run.py`` resolves it.  The output directory is fixed
(``--work``), because the reports echo ``out_dir``: two trees compared
must be recorded with the same one.

``diff`` compares two digest files op by op and exits 1 if any differ.

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
import shutil
import sys
import tempfile
import warnings
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
WORKLOADS = ("verdicts", "bubble-schedules", "bubble-trumpet", "trumpet-roundtrip")


def draw_ops(workloads, names, seeds, rounds):
    for name in names:
        for seed in seeds:
            for k in range(rounds):
                for i, op in enumerate(workloads.WORKLOADS[name].round(seed, k)):
                    yield f"{name}:{seed}:{k}:{i} {op['label']}", op


def prepare(op: dict, work: Path) -> dict:
    """The op's config with a fixed out_dir, its earlier output removed; as ``run.py``'s ``_prepare``."""
    cfg = copy.deepcopy(op["cli"])
    out = work / (f"slot{op['slot']}" if "slot" in op else "op")
    cfg["out_dir"] = str(out)
    profile = cfg.get("profile", {})
    if "trumpet_slot" in profile:
        profile["path"] = str(work / f"slot{profile.pop('trumpet_slot')}" / "trumpet" / "trumpet_profile.dat")
    shutil.rmtree(out / cfg["command"], ignore_errors=True)
    return cfg


def run_op(cli, cfg: dict) -> dict:
    """Exit code (or the escaping exception's type) and the SHA-256 of each file written."""
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        warnings.simplefilter("ignore")
        try:
            code = cli.run_command(cfg)
        except Exception as exc:  # a raising op is recorded, not fatal
            code = f"exception {type(exc).__name__}"
    out = Path(cfg["out_dir"]) / cfg["command"]
    files = sorted(p for p in out.rglob("*") if p.is_file()) if out.is_dir() else []
    return {"exit": code, "files": {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest() for p in files}}


def record(args) -> int:
    sys.path[:0] = [str(Path(args.src).resolve()), str(BENCHMARKS)]
    import workloads

    import penroselab.cli as cli

    work = Path(args.work)
    digests = {key: run_op(cli, prepare(op, work)) for key, op in draw_ops(workloads, args.workloads, args.seeds, args.rounds)}
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps({"src": str(Path(cli.__file__).parent), "ops": digests}, indent=1) + "\n")
    print(f"{len(digests)} ops from {Path(cli.__file__).parent} -> {args.out}")
    return 0


def diff(args) -> int:
    old, new = (json.loads(Path(p).read_text())["ops"] for p in (args.old, args.new))
    differ = 0
    for key in sorted(old.keys() | new.keys()):
        a, b = old.get(key), new.get(key)
        if a == b:
            continue
        differ += 1
        if a is None or b is None:
            print(f"{key}: only in {'new' if a is None else 'old'}")
            continue
        if a["exit"] != b["exit"]:
            print(f"{key}: exit {a['exit']} -> {b['exit']}")
        for name in sorted(a["files"].keys() | b["files"].keys()):
            if a["files"].get(name) != b["files"].get(name):
                print(f"{key}: {name} differs")
    print(f"{differ} of {len(old.keys() | new.keys())} ops differ")
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
