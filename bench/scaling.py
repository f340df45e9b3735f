"""Scaling report: throughput and tail latency as the input grows.

    python3 bench/scaling.py [--seed N]

Runs one ``bounce`` round for each transfer count n, and ``fleet`` walks
for each user count, and prints steps_per_s and op_ms_p90 per point, in
CPU time corrected for host speed as in run.py.  It is a curve for
reading slopes, not a gate: nothing here has a bound.
"""
from __future__ import annotations

import argparse
import json

import workloads
from run import machine_context, p90, timed_pass

BOUNCE_POINTS = (10, 20, 40, 60, 80)
FLEET_POINTS = (4, 8, 12, 16, 24)
FLEET_WALKS_PER_POINT = 2
USER_LETTERS = "ABCDEFGHIJKLMNOPQRTUVWXYZ"  # every letter but S, the server


def point(wl) -> str:
    """One round of `wl`: steps_per_s, op_ms_p90, ops and fail_share."""
    rec, (steps_per_s,), _ = timed_pass(wl, 0, min_ops=1)
    ops = len(rec.latencies)
    if wl.problems:
        raise SystemExit(f"output check failed: {wl.problems[0]}")
    return (f"{steps_per_s:>12.1f} {1000 * p90(rec.latencies):>10.3f} "
            f"{ops:>5} {rec.failed / ops:>10.3f}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    context = machine_context(tracing=False, tracemalloc_pass=False)
    print("context " + json.dumps(context, sort_keys=True))

    header = f"{'steps_per_s':>12} {'op_ms_p90':>10} {'ops':>5} {'fail_share':>10}"
    print("bounce: one square, n transfers, symbolic backend, tables rendered")
    print(f"  {'n':>5} {header}")
    for n in BOUNCE_POINTS:
        print(f"  {n:>5} {point(workloads.Bounce(args.seed, n))}")

    print(f"fleet: {FLEET_WALKS_PER_POINT} walks, each a prelude plus "
          f"{workloads.FLEET_RANDOM_STEPS} random steps, concrete backend")
    print(f"  {'users':>5} {header}")
    for users in FLEET_POINTS:
        fleet = workloads.Fleet(args.seed, USER_LETTERS[:users], walks=FLEET_WALKS_PER_POINT)
        print(f"  {users:>5} {point(fleet)}")


if __name__ == "__main__":
    main()
