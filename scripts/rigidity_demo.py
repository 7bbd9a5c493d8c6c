#!/usr/bin/env python3
"""Shrinking-curvature bubble schedule on a unit-mass Schwarzschild profile.

Prints the per-step table (radius, area against its bound, annulus volumes)
and, for contrast, the same schedule on the horizon-free trumpet profile.
Usage: python scripts/rigidity_demo.py [--epsilon 0.1] [--gamma 1.5]
"""

import argparse

from penroselab import SchwarzschildLikeProfile, TrumpetProfile, rigidity_iteration


def show(trace, label):
    print(f"\n{label}: gamma={trace.gamma}, eps0={trace.epsilon0:.4f}, "
          f"Lambda0={trace.lambda0:.2f}, equality_case={trace.equality_case}")
    for s in trace.steps:
        ann = "" if s.annulus_volume is None else (
            f" annulus={s.annulus_volume:9.4g} <= {s.annulus_bound:9.4g}"
        )
        area_flag = "" if s.area_bound_ok is None else f" area_ok={s.area_bound_ok}"
        print(
            f"  k={s.k} eps={s.epsilon:10.4g} rho*={s.solution.rho_star:.8f} "
            f"area={s.solution.area:12.8f} H={s.solution.mean_curvature:10.4g}"
            f"{area_flag}{ann}"
        )
    if trace.error:
        print(f"  stopped: {trace.error}")
    print(
        f"  cumulative volume {trace.cumulative_volume:.4f} <= {trace.cumulative_bound:.4f}: "
        f"{trace.cumulative_bound_ok}"
    )


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--epsilon", type=float, default=0.1)
    parser.add_argument("--gamma", type=float, default=1.5)
    args = parser.parse_args()

    schw = SchwarzschildLikeProfile.from_mass(1.0)
    show(rigidity_iteration(schw, 2.0, args.epsilon, args.gamma), "schwarzschild m=1, r0=2")

    trumpet = TrumpetProfile()
    show(rigidity_iteration(trumpet, 4.0, min(args.epsilon, 0.04), args.gamma), "trumpet, r0=4")


if __name__ == "__main__":
    main()
