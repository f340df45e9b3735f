"""Benchmark entry point.

    python3 bench/run.py --workload {canonical,bounce,fleet,audit} --seed N
                         --seconds S --trace {0,1}

Run from the root of a checkout.  ``fleet`` is not among the workloads
that BENCHMARK.json gates: protocol defects make about a quarter of its
ops fail at this commit (NOTES.md), and a gated workload must run without
failures.  It stays runnable for its breakdown and failure counts.

The workload is closed-loop: one process, one thread, one caller that
issues the next op when the previous one has returned.  With ``--trace 0``
the run measures set-up (a median over fresh interpreters), peak memory (a
pass under tracemalloc), then repeats rounds of the workload for S seconds
and reports the end-to-end metrics.  With ``--trace 1`` it runs one warm-up
round, then half of S untraced and half traced, and reports the per-layer
metrics.  Every round's outputs are checked.  Times are CPU time corrected
for host speed (hostspeed.py).  The last line of stdout is one JSON object:
correct, attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import hostspeed
from hostspeed import clock

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_RUNS = 5
MIN_OPS = 100


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("canonical", "bounce", "fleet", "audit"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up, then print the CPU seconds spent so far "
                             "and one timing of the calibration kernel")
    return parser.parse_args(argv)


def machine_context(tracing: bool, tracemalloc_pass: bool) -> dict:
    import cryptography

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cryptography": cryptography.__version__,
        "platform": platform.platform(),
        "tracing": tracing,
        "tracemalloc_pass": tracemalloc_pass,
        "tracemalloc_during_timing": False,
    }


def measure_setup(workload: str, seed: int) -> float:
    """CPU seconds a fresh interpreter spends until its inputs are ready.

    The probe reports its own process time, which counts from process
    start and so includes starting the interpreter and every import, and
    then times the calibration kernel.
    """
    command = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
               "--seed", str(seed), "--setup-probe"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=150, check=True)
    cpu, kernel = map(float, done.stdout.split()[-2:])
    return cpu * hostspeed.REFERENCE_S / kernel


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def timed_pass(wl, seconds: float, tracer=None, min_ops: int = MIN_OPS):
    """Repeat rounds for `seconds` of wall time (and at least `min_ops` ops).

    Returns the recorder, with op times corrected for host speed, the
    corrected steps per second of each round, and the kernel timings.
    """
    from workloads import Recorder

    calibration = hostspeed.Calibration()
    rec = Recorder(tracer, calibration)
    rounds = []  # first op, end op, steps, CPU seconds, kernel timings before and after
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(rec.latencies) < min_ops:
        first, steps, spent = len(rec.latencies), rec.steps, calibration.spent
        before, round_start = len(calibration.timings) - 1, clock()
        wl.round(rec)
        cpu = clock() - round_start - (calibration.spent - spent)
        rounds.append((first, len(rec.latencies), rec.steps - steps, cpu,
                       before, len(calibration.timings)))
    calibration.sample()
    rates = []
    for first, end, steps, cpu, before, after in rounds:
        scale = calibration.scale(before, after)
        rec.latencies[first:end] = [t * scale for t in rec.latencies[first:end]]
        rates.append(steps / (cpu * scale))
    return rec, rates, calibration.timings


def print_host_speed(timings: list[float]) -> None:
    median = statistics.median(timings)
    print(f"  host speed: calibration kernel took {1000 * median:.3f} ms (median of "
          f"{len(timings)} timings); times are scaled by {hostspeed.REFERENCE_S / median:.4f}")


def end_to_end(args, wl) -> tuple[dict, object]:
    setups = [measure_setup(args.workload, args.seed) for _ in range(SETUP_RUNS)]

    tracemalloc.start()
    peak = wl.peak_bytes()
    tracemalloc.stop()
    gc.collect()

    rec, rates, kernels = timed_pass(wl, args.seconds)
    print_host_speed(kernels)
    ops = len(rec.latencies)
    metrics = {
        "setup_s": (statistics.median(setups), "s", f"median of {SETUP_RUNS} set-ups"),
        "steps_per_s": (statistics.median(rates), "1/s",
                        f"median of {len(rates)} rounds; {rec.steps} steps"),
        "op_ms_p50": (1000 * statistics.median(rec.latencies), "ms", f"{ops} ops"),
        "op_ms_p90": (1000 * p90(rec.latencies), "ms", f"{ops} ops"),
        "peak_mib": (peak / 2**20, "MiB", "tracemalloc peak of an untimed pass"),
        "ok_share": ((ops - rec.failed) / ops, "share", f"{ops - rec.failed} of {ops} ops"),
    }
    print(f"  {'fail_share':<28} {rec.failed / ops:>14.6g} share  "
          f"({rec.failed} of {ops} ops failed)")
    return metrics, rec


def per_layer(args, wl) -> tuple[dict, object]:
    from tracer import Tracer
    import report

    from workloads import Recorder

    wl.round(Recorder())  # warm-up, as the tracemalloc pass is for --trace 0
    half = args.seconds / 2
    plain, plain_rates, kernels = timed_pass(wl, half)
    gc.collect()
    with Tracer() as tracer:
        rec, rates, traced_kernels = timed_pass(wl, half, tracer)
    print_host_speed(kernels + traced_kernels)
    spans_path = ROOT / ".bench_out" / f"spans-{args.workload}.tsv"
    spans_path.parent.mkdir(exist_ok=True)
    tracer.write(spans_path)
    overhead = statistics.median(rates) / statistics.median(plain_rates)
    metrics = report.layer_metrics(tracer, len(rec.latencies), overhead)
    report.print_breakdown(args.workload, tracer, len(rec.latencies))
    print(f"  spans written to {spans_path.relative_to(ROOT)}")
    plain.latencies += rec.latencies
    plain.failed += rec.failed
    return metrics, plain


def main(argv=None) -> int:
    args = parse_args(argv)
    import workloads

    wl = workloads.make(args.workload, args.seed)
    if args.setup_probe:
        print(clock(), hostspeed.kernel_seconds())
        return 0
    gc.collect()
    context = machine_context(tracing=bool(args.trace), tracemalloc_pass=not args.trace)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("context " + json.dumps(context, sort_keys=True))
    metrics, rec = (per_layer if args.trace else end_to_end)(args, wl)
    for name, (value, unit, base) in metrics.items():
        print(f"  {name:<28} {value:>14.6g} {unit:<6} ({base})")
    for problem in wl.problems[:20]:
        print(f"  CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": not wl.problems,
        "attempted": len(rec.latencies),
        "failed": rec.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
