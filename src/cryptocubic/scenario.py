"""Scenario scripts.

One command per line, ``#`` starts a comment:

    setup <user>
    fund <user> <cents>
    transfer <from> <to>
    redeem <user> <dest> <cents>
    attack <scenario>
    expect-holdings <party> <var,...>
    expect-verdict <scenario> <true|false>

Users and parties are single letters (``S`` is the server).  Parsing then
pretty-printing then parsing again is a fixed point.
"""
from __future__ import annotations

import re
from dataclasses import astuple, dataclass, field, fields

from .adversary import SCENARIOS, Verdict, run_attack
from .backend import CryptoError
from .ledger import LedgerError
from .protocol import MODES, SERVER, ProtocolError, Simulation
from .store import StoreError
from .trace import render_table


class ScenarioSyntaxError(ValueError):
    def __init__(self, line: int, column: int, message: str) -> None:
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
        self.message = message


class Command:
    """A script command: its head word, then each field in order, as one line."""

    def pretty(self) -> str:
        words = [_HEADS[type(self)]]
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                words.append(",".join(value))
            elif isinstance(value, bool):
                words.append(str(value).lower())
            else:
                words.append(str(value))
        return " ".join(words)


@dataclass(frozen=True)
class Setup(Command):
    user: str


@dataclass(frozen=True)
class Fund(Command):
    user: str
    cents: int


@dataclass(frozen=True)
class Transfer(Command):
    sender: str
    receiver: str


@dataclass(frozen=True)
class Redeem(Command):
    user: str
    dest: str
    cents: int


@dataclass(frozen=True)
class Attack(Command):
    scenario: str


@dataclass(frozen=True)
class ExpectHoldings(Command):
    party: str  # single letter, S for the server
    items: tuple[str, ...]


@dataclass(frozen=True)
class ExpectVerdict(Command):
    scenario: str
    expected: bool


@dataclass
class ScenarioScript:
    commands: list[Command]
    seed: int = 0
    mode: str = "cryptocubic"
    backend: str = "symbolic"


def _check_user(token: str, lineno: int, col: int) -> str:
    if len(token) == 1 and token.isalpha() and token.upper() != "S":
        return token.upper()
    raise ScenarioSyntaxError(lineno, col, f"expected a user letter, got {token!r}")


def _check_party(token: str, lineno: int, col: int) -> str:
    t = token.upper()
    if t == "SERVER_S":
        return "S"
    if t.startswith("USER_") and len(t) == 6:
        t = t[5]
    if len(t) == 1 and t.isalpha():
        return t
    raise ScenarioSyntaxError(lineno, col, f"expected a party, got {token!r}")


def _check_cents(token: str, lineno: int, col: int) -> int:
    if not token.isdigit() or int(token) <= 0:
        raise ScenarioSyntaxError(lineno, col, f"expected a positive cent amount, got {token!r}")
    return int(token)


def _check_scenario(token: str, lineno: int, col: int) -> str:
    if token not in SCENARIOS:
        raise ScenarioSyntaxError(lineno, col, f"unknown attack scenario {token!r}")
    return token


def _check_dest(token: str, lineno: int, col: int) -> str:
    return token  # any account name


def _check_items(token: str, lineno: int, col: int) -> tuple[str, ...]:
    items = tuple(i for i in token.split(",") if i)
    if not items:
        raise ScenarioSyntaxError(lineno, col, "expected a comma-separated variable list")
    return items


def _check_flag(token: str, lineno: int, col: int) -> bool:
    flag = token.lower()
    if flag not in ("true", "false"):
        raise ScenarioSyntaxError(lineno, col, f"expected true or false, got {token!r}")
    return flag == "true"


# the script grammar: each command head, its class and a checker per argument
GRAMMAR = {
    "setup": (Setup, (_check_user,)),
    "fund": (Fund, (_check_user, _check_cents)),
    "transfer": (Transfer, (_check_user, _check_user)),
    "redeem": (Redeem, (_check_user, _check_dest, _check_cents)),
    "attack": (Attack, (_check_scenario,)),
    "expect-holdings": (ExpectHoldings, (_check_party, _check_items)),
    "expect-verdict": (ExpectVerdict, (_check_scenario, _check_flag)),
}
_HEADS = {cls: head for head, (cls, _) in GRAMMAR.items()}


def parse_scenario(
    text: str, seed: int = 0, mode: str = "cryptocubic", backend: str = "symbolic"
) -> ScenarioScript:
    if mode not in MODES:
        raise ValueError(f"unknown mode: {mode!r}")
    commands: list[Command] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        # each token with its 1-based column
        tokens = [(m.group(), m.start() + 1) for m in re.finditer(r"\S+", line)]
        if not tokens:
            continue
        (head, _), *args = tokens
        if head not in GRAMMAR:
            raise ScenarioSyntaxError(lineno, 1, f"unknown command {head!r}")
        cls, checkers = GRAMMAR[head]
        n = len(checkers)
        if len(args) != n:
            # the first extra token, or the end of a line that stops short
            column = args[n][1] if len(args) > n else len(line) + 1
            raise ScenarioSyntaxError(
                lineno, column, f"{head} takes {n} argument{'s' if n != 1 else ''}"
            )
        commands.append(cls(*(check(arg, lineno, column)
                              for check, (arg, column) in zip(checkers, args))))
    return ScenarioScript(commands, seed=seed, mode=mode, backend=backend)


@dataclass
class RunResult:
    ok: bool
    failures: list[str] = field(default_factory=list)
    output: str = ""
    sim: Simulation | None = None
    verdicts: dict[str, Verdict] = field(default_factory=dict)


def _party_name(letter: str) -> str:
    return SERVER if letter == "S" else f"USER_{letter}"


def _base_names(items) -> frozenset[str]:
    # balance annotations are display sugar, not part of the name
    return frozenset(item.split(" (")[0] for item in items)


def run_scenario(
    script: ScenarioScript, quiet: bool = False, journal_path: str | None = None
) -> RunResult:
    sim = Simulation(
        mode=script.mode, backend=script.backend, seed=script.seed, journal_path=journal_path
    )
    result = RunResult(ok=True, sim=sim)
    chunks: list[str] = []
    rendered = 0

    def flush_trace() -> None:
        nonlocal rendered
        if not quiet:
            for event in sim.events[rendered:]:
                chunks.extend((render_table(event), "\n\n"))
        rendered = len(sim.events)

    def verdict_for(name: str) -> Verdict:
        if name not in result.verdicts:
            result.verdicts[name] = run_attack(
                name, mode=script.mode, backend=script.backend, seed=script.seed
            )
        return result.verdicts[name]

    for cmd in script.commands:
        try:
            if isinstance(cmd, (Setup, Fund, Transfer, Redeem)):
                # the Simulation method of the same name, fields in order
                getattr(sim, _HEADS[type(cmd)])(*astuple(cmd))
            elif isinstance(cmd, Attack):
                verdict = verdict_for(cmd.scenario)
                flush_trace()
                chunks.append(f"verdict: {verdict.report_line()}\n")
                for note in verdict.notes:
                    chunks.append(f"  note: {note}\n")
            elif isinstance(cmd, ExpectHoldings):
                actual = _base_names(sim.holdings(_party_name(cmd.party)))
                expected = frozenset(cmd.items)
                if actual != expected:
                    result.failures.append(
                        f"{cmd.pretty()}: holdings are {sorted(actual)}"
                    )
            elif isinstance(cmd, ExpectVerdict):
                verdict = verdict_for(cmd.scenario)
                if verdict.can_spend != cmd.expected:
                    result.failures.append(
                        f"{cmd.pretty()}: verdict is {str(verdict.can_spend).lower()}"
                    )
        except (ProtocolError, StoreError, LedgerError, CryptoError) as exc:
            result.failures.append(f"{cmd.pretty()}: {type(exc).__name__}: {exc}")
            break
        flush_trace()
    flush_trace()
    if chunks and chunks[-1] == "\n\n":  # the last table's separator
        chunks.pop()
    if chunks:  # end on one newline; a table or verdict line holds more than newlines
        chunks[-1] = chunks[-1].rstrip("\n") + "\n"
    result.output = "".join(chunks)
    result.ok = not result.failures
    return result
