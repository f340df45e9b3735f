"""Scenario scripts.

One command per line, ``#`` starts a comment:

    setup <user>
    fund <user> <cents>
    transfer <from> <to>
    redeem <user> <dest> <cents>
    attack <scenario>
    expect-holdings <party> <var,...>
    expect-verdict <scenario> <true|false>

Users and parties are single letters (``S`` is the server).  A user argument
is checked by `protocol.user_letter`, so `Simulation` refuses, with
`BadLetter`, the same letters.  A command is its head word and its checked
values, ``("redeem", "B", "ext", 1000)``, and `pretty` prints it back as its
line.  Parsing then pretty-printing then parsing again is a fixed point.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable

from .adversary import SCENARIOS, Stager, Verdict, run_attack
from .backend import CryptoError
from .ledger import LedgerError
from .protocol import MODES, SERVER, BadLetter, ProtocolError, Simulation, user_letter, user_name
from .store import StoreError
from .trace import Tables, render_table


class ScenarioSyntaxError(ValueError):
    def __init__(self, line: int, column: int, message: str) -> None:
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
        self.message = message


@dataclass
class ScenarioScript:
    commands: list[tuple]
    seed: int = 0
    mode: str = "cryptocubic"
    backend: str = "symbolic"


def _check_party(token: str) -> str:
    t = token.upper()
    try:
        return "S" if t in (SERVER, "S") else user_letter(t.removeprefix("USER_"))
    except BadLetter:
        raise ValueError(f"expected a party, got {token!r}") from None


def _check_cents(token: str) -> int:
    if not token.isdecimal() or int(token) <= 0:  # isdigit also takes "²", which int refuses
        raise ValueError(f"expected a positive cent amount, got {token!r}")
    return int(token)


def _check_scenario(token: str) -> str:
    if token not in SCENARIOS:
        raise ValueError(f"unknown attack scenario {token!r}")
    return token


def _check_items(token: str) -> tuple[str, ...]:
    items = tuple(i for i in token.split(",") if i)
    if not items:
        raise ValueError("expected a comma-separated variable list")
    return items


def _check_flag(token: str) -> bool:
    flag = token.lower()
    if flag not in ("true", "false"):
        raise ValueError(f"expected true or false, got {token!r}")
    return flag == "true"


# the script grammar: each command head and a checker per argument, which takes
# the token and returns its value or raises with its message (`parse_scenario`
# adds the line and column); a destination is any account name
GRAMMAR = {
    "setup": (user_letter,),
    "fund": (user_letter, _check_cents),
    "transfer": (user_letter, user_letter),
    "redeem": (user_letter, str, _check_cents),
    "attack": (_check_scenario,),
    "expect-holdings": (_check_party, _check_items),
    "expect-verdict": (_check_scenario, _check_flag),
}


def pretty(command: tuple) -> str:
    """A command as one script line: its head word, then each value."""
    words = []
    for value in command:
        if isinstance(value, tuple):
            value = ",".join(value)
        elif isinstance(value, bool):
            value = str(value).lower()
        words.append(str(value))
    return " ".join(words)


def parse_scenario(
    text: str, seed: int = 0, mode: str = "cryptocubic", backend: str = "symbolic"
) -> ScenarioScript:
    if mode not in MODES:
        raise ValueError(f"unknown mode: {mode!r}")
    commands: list[tuple] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        # each token with its 1-based column
        tokens = [(m.group(), m.start() + 1) for m in re.finditer(r"\S+", line)]
        if not tokens:
            continue
        (head, _), *args = tokens
        if head not in GRAMMAR:
            raise ScenarioSyntaxError(lineno, 1, f"unknown command {head!r}")
        checkers = GRAMMAR[head]
        n = len(checkers)
        if len(args) != n:
            # the first extra token, or the end of a line that stops short
            column = args[n][1] if len(args) > n else len(line) + 1
            raise ScenarioSyntaxError(
                lineno, column, f"{head} takes {n} argument{'s' if n != 1 else ''}"
            )
        values = []
        for check, (arg, column) in zip(checkers, args):
            try:
                values.append(check(arg))
            except (ValueError, BadLetter) as exc:
                raise ScenarioSyntaxError(lineno, column, str(exc)) from None
        commands.append((head, *values))
    return ScenarioScript(commands, seed=seed, mode=mode, backend=backend)


@dataclass
class RunResult:
    failures: list[str] = field(default_factory=list)
    output: str = ""
    sim: Simulation | None = None
    verdicts: dict[str, Verdict] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures


class _Stream:
    """Writes each chunk, a table or a verdict or note line, as it comes.  The
    blank line owed after a table goes out once another chunk comes; at the
    end, one newline takes its place."""

    def __init__(self, write: Callable[[str], object]) -> None:
        self.write = write
        self.owed = ""

    def __call__(self, chunk: str, owed: str = "") -> None:
        if self.owed:
            self.write(self.owed)
        self.write(chunk)
        self.owed = owed

    def close(self) -> None:
        if self.owed:
            self.write("\n")


def run_scenario(
    script: ScenarioScript, quiet: bool = False, journal_path: str | None = None,
    write: Callable[[str], object] | None = None, trace: Callable[[str], object] | None = None,
) -> RunResult:
    """Run a script.

    The output is each table (none when `quiet`) and each verdict and note
    line, in order, tables parted from what follows by a blank line.
    Without `write` the run records every step and keeps its output whole as
    `RunResult.output`.  Given `write`, it records nothing and streams.
    Either way the tables come from the run's table observer (`Tables`): the
    recording one, or one registered when a table is read.  Each command's
    tables are rendered once the command has run (never inside a step),
    written to `write` and to `trace` when given, and, when streamed,
    dropped.  `trace` gets the tables alone.

    Each verdict comes from a `Stager`, which is offered a fork of this run
    after each state-changing command while those commands may still be an
    attack's prefix, unless the run keeps a journal.
    """
    sim = Simulation(mode=script.mode, backend=script.backend, seed=script.seed,
                     journal_path=journal_path, record=write is None)
    result = RunResult(sim=sim)
    chunks: list[str] = []
    out = _Stream(write or chunks.append)
    tee = _Stream(trace) if trace else None
    readers = [stream for stream in (None if quiet else out, tee) if stream]  # where each table goes
    tables = sim.observers[0] if sim.observers else Tables()  # the recording run's, or one of its own
    if readers and not sim.observers:
        sim.observers.append(tables)
    shown = 0  # the steps whose tables have gone out

    def flush_trace() -> None:
        nonlocal shown
        for event in tables.events[shown:] if readers else ():
            table = render_table(event, tables.memo)  # once, whoever reads it
            for reader in readers:
                reader(table, "\n\n")
        if write:
            tables.events.clear()  # a streamed run keeps no table
        shown = len(tables.events)

    # each attack's prefix is staged once for every attack that starts from it
    stager = Stager([cmd[1] for cmd in script.commands if cmd[0] in ("attack", "expect-verdict")],
                    script.mode, script.backend, script.seed)
    done: tuple | None = None if journal_path else ()  # a journalled run is never forked

    def verdict_for(name: str) -> Verdict:
        if name not in result.verdicts:
            result.verdicts[name] = run_attack(name, script.mode, script.backend, script.seed, stager)
        return result.verdicts[name]

    for at, cmd in enumerate(script.commands):
        head, *values = cmd
        try:
            if head == "attack":
                verdict = verdict_for(*values)
                out(f"verdict: {verdict.report_line()}\n")
                for note in verdict.notes:
                    out(f"  note: {note}\n")
            elif head == "expect-holdings":
                party, items = values
                actual = frozenset(sim.holdings(SERVER if party == "S" else user_name(party)))
                if actual != frozenset(items):
                    result.failures.append(f"{pretty(cmd)}: holdings are {sorted(actual)}")
            elif head == "expect-verdict":
                name, expected = values
                verdict = verdict_for(name)
                if verdict.can_spend != expected:
                    result.failures.append(f"{pretty(cmd)}: verdict is {str(verdict.can_spend).lower()}")
            else:  # setup, fund, transfer, redeem: the Simulation method of the same name
                getattr(sim, head)(*values)
                if done is not None:  # the commands so far may yet be an attack's prefix
                    done += (cmd,)
                    then = next((c for c in script.commands[at + 1:] if c[0] != "expect-holdings"), None)
                    done = done if stager.offer(done, sim, then) else None
        except (ProtocolError, StoreError, LedgerError, CryptoError) as exc:
            result.failures.append(f"{pretty(cmd)}: {type(exc).__name__}: {exc}")
            break
        flush_trace()
    flush_trace()
    for stream in (out, tee):
        if stream:
            stream.close()
    result.output = "".join(chunks)
    return result
