#!/usr/bin/env python3
"""Run the mass-vs-area verdict over the standard profile corpus.

Writes one CSV row per profile plus a JSON report, and prints a summary
table.  Usage: python scripts/run_corpus.py [--out-dir out/corpus]
"""

import argparse
from pathlib import Path

from penroselab import (
    EuclideanProfile,
    SchwarzschildLikeProfile,
    GridScan,
    TrumpetProfile,
    adm_hawking_check,
)
from penroselab.reports import jsonable, write_csv, write_json


def corpus():
    yield "euclidean", EuclideanProfile()
    for mass in (0.5, 1.0, 2.0):
        yield f"schwarzschild_m{mass:g}", SchwarzschildLikeProfile.from_mass(mass)
    yield "schwarzschild_a2_b1", SchwarzschildLikeProfile(2.0, 1.0)
    yield "trumpet", TrumpetProfile()


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--out-dir", type=Path, default=Path("out/corpus"))
    args = parser.parse_args()

    columns = ["name", "adm_mass", "area_infimum", "bound", "ratio", "verdict", "horizon_radius"]
    rows = []
    reports = {}
    for name, profile in corpus():
        report = GridScan(profile).penrose()
        reports[name] = record = jsonable(report)
        rows.append([name] + [record[c] for c in columns[1:]])
        hr = "none" if report.horizon_radius is None else f"{report.horizon_radius:.6g}"
        print(
            f"{name:22s} m={report.adm_mass:12.6g} bound={report.bound:12.6g} "
            f"ratio={report.ratio:10.6g} verdict={report.verdict:20s} horizon={hr}"
        )
        if report.horizon_radius is not None:
            check = adm_hawking_check(profile, report.horizon_radius * 1.0001)
            print(f"{'':22s} quasi-local check just outside the horizon: passed={check.passed}")

    write_csv(args.out_dir / "corpus_penrose.csv", columns, rows)
    write_json(args.out_dir / "corpus_penrose.json", reports)
    print(f"\nwrote {args.out_dir}/corpus_penrose.csv and .json")


if __name__ == "__main__":
    main()
