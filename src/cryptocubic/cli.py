"""Command line front end.

    cryptocubic SCRIPT [--seed N] [--mode M] [--backend B]
                       [--trace PATH] [--ledger PATH] [--journal PATH]
                       [--quiet]

Runs a scenario script and prints the holdings tables plus any attack
verdict lines.  The output streams: each table is rendered once, printed
(and written to the --trace file) once its command has run, and then
dropped, and no step is recorded, so a long run keeps no history.  Exit
status 0 when every expectation in the script holds, 1 when one fails or a
command errors, 2 on a script syntax error, an unreadable script, an
unwritable output path or standard output, or a missing backend package.
Output is a pure function of (script, seed, mode, backend).
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys

from .backend import BACKENDS
from .protocol import MODES
from .scenario import ScenarioSyntaxError, parse_scenario, run_scenario


def _stdout(call, *args) -> None:
    """`call(*args)`, a write or flush of standard output.  A failure names it and points
    it at the null device, so that what its buffer still holds cannot fail again at exit."""
    try:
        call(*args)
    except OSError as exc:
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)  # the duplicate alone stays open
        exc.filename = "standard output"
        raise


@functools.cache  # parsing leaves the parser as it was, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cryptocubic",
        description="run an off-chain transfer scenario and report attack verdicts",
    )
    parser.add_argument("script", help="scenario script file")
    parser.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    parser.add_argument("--mode", choices=MODES, default="cryptocubic")
    parser.add_argument("--backend", choices=BACKENDS, default="symbolic")
    parser.add_argument("--trace", metavar="PATH", help="also write the holdings tables here")
    parser.add_argument("--ledger", metavar="PATH", help="write the final ledger dump here")
    parser.add_argument("--journal", metavar="PATH", help="append store mutations here")
    parser.add_argument("--quiet", action="store_true", help="suppress the holdings tables")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with open(args.script, encoding="utf-8") as fh:
            text = fh.read().removeprefix("\ufeff")  # a leading byte-order mark is no command
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read {args.script}: {exc}", file=sys.stderr)
        return 2
    try:
        script = parse_scenario(text, seed=args.seed, mode=args.mode, backend=args.backend)
    except ScenarioSyntaxError as exc:
        print(f"{args.script}: {exc}", file=sys.stderr)
        return 2

    try:  # the trace is opened before the run, so an unwritable path prints no table
        with open(args.trace, "w", encoding="utf-8") if args.trace else contextlib.nullcontext() as trace:
            result = run_scenario(script, quiet=args.quiet, journal_path=args.journal,
                                  write=functools.partial(_stdout, sys.stdout.write),
                                  trace=args.trace and trace.write)
        _stdout(sys.stdout.flush)  # a full standard output fails here, not at the exit flush
    except OSError as exc:  # an open, `_stdout` and the journal name the file; a trace write names none
        print(f"cannot write {exc.filename or args.trace}: {exc.strerror}", file=sys.stderr)
        return 2
    except ModuleNotFoundError as exc:  # the concrete backend without `cryptography`
        print(exc, file=sys.stderr)
        return 2
    if args.ledger:
        try:
            with open(args.ledger, "w", encoding="utf-8") as fh:
                fh.write(result.sim.ledger.dump())
        except OSError as exc:
            print(f"cannot write {args.ledger}: {exc.strerror}", file=sys.stderr)
            return 2
    for failure in result.failures:
        print(f"FAIL {failure}", file=sys.stderr)
    return 0 if result.ok else 1


if __name__ == "__main__":
    sys.exit(main())
