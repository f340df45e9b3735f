"""Command line front end.

    cryptocubic SCRIPT [--seed N] [--mode M] [--backend B]
                       [--trace PATH] [--ledger PATH] [--journal PATH]
                       [--quiet]

Runs a scenario script and prints the holdings tables plus any attack
verdict lines.  Exit status 0 when every expectation in the script holds,
1 when one fails or a command errors, 2 on a script syntax error, an
unreadable script, an unwritable output path or a backend whose package is
not installed.  Output is a pure function of (script, seed, mode, backend).
"""
from __future__ import annotations

import argparse
import functools
import sys

from .backend import BACKENDS
from .protocol import MODES
from .scenario import ScenarioSyntaxError, parse_scenario, run_scenario


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
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read {args.script}: {exc}", file=sys.stderr)
        return 2
    try:
        script = parse_scenario(text, seed=args.seed, mode=args.mode, backend=args.backend)
    except ScenarioSyntaxError as exc:
        print(f"{args.script}: {exc}", file=sys.stderr)
        return 2

    try:
        result = run_scenario(script, quiet=args.quiet, journal_path=args.journal)
    except OSError as exc:
        print(f"cannot write {args.journal}: {exc.strerror}", file=sys.stderr)
        return 2
    except ModuleNotFoundError as exc:  # the concrete backend without `cryptography`
        print(exc, file=sys.stderr)
        return 2
    sim = result.sim
    if result.output:
        sys.stdout.write(result.output)
    for path, dump in ((args.trace, sim.render), (args.ledger, sim.ledger.dump)):
        try:
            if path:
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(dump())
        except OSError as exc:
            print(f"cannot write {path}: {exc.strerror}", file=sys.stderr)
            return 2
    for failure in result.failures:
        print(f"FAIL {failure}", file=sys.stderr)
    return 0 if result.ok else 1


if __name__ == "__main__":
    sys.exit(main())
