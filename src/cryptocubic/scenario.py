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

from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class Setup:
    user: str

    def pretty(self) -> str:
        return f"setup {self.user}"


@dataclass(frozen=True)
class Fund:
    user: str
    cents: int

    def pretty(self) -> str:
        return f"fund {self.user} {self.cents}"


@dataclass(frozen=True)
class Transfer:
    sender: str
    receiver: str

    def pretty(self) -> str:
        return f"transfer {self.sender} {self.receiver}"


@dataclass(frozen=True)
class Redeem:
    user: str
    dest: str
    cents: int

    def pretty(self) -> str:
        return f"redeem {self.user} {self.dest} {self.cents}"


@dataclass(frozen=True)
class Attack:
    scenario: str

    def pretty(self) -> str:
        return f"attack {self.scenario}"


@dataclass(frozen=True)
class ExpectHoldings:
    party: str  # single letter, S for the server
    items: tuple[str, ...]

    def pretty(self) -> str:
        return f"expect-holdings {self.party} {','.join(self.items)}"


@dataclass(frozen=True)
class ExpectVerdict:
    scenario: str
    expected: bool

    def pretty(self) -> str:
        return f"expect-verdict {self.scenario} {str(self.expected).lower()}"


Command = Setup | Fund | Transfer | Redeem | Attack | ExpectHoldings | ExpectVerdict


@dataclass
class ScenarioScript:
    commands: list[Command]
    seed: int = 0
    mode: str = "cryptocubic"
    backend: str = "symbolic"


def _column_of(line: str, token_index: int) -> int:
    # 1-based column of the given whitespace-separated token
    pos = 0
    for _ in range(token_index):
        while pos < len(line) and line[pos].isspace():
            pos += 1
        while pos < len(line) and not line[pos].isspace():
            pos += 1
    while pos < len(line) and line[pos].isspace():
        pos += 1
    return pos + 1


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


def _arity(tokens: list[str], n: int, lineno: int, line: str) -> None:
    if len(tokens) - 1 != n:
        raise ScenarioSyntaxError(
            lineno,
            _column_of(line, min(len(tokens), n + 1)),
            f"{tokens[0]} takes {n} argument{'s' if n != 1 else ''}",
        )


def parse_scenario(
    text: str, seed: int = 0, mode: str = "cryptocubic", backend: str = "symbolic"
) -> ScenarioScript:
    if mode not in MODES:
        raise ValueError(f"unknown mode: {mode!r}")
    commands: list[Command] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        tokens = line.split()
        head = tokens[0]
        if head == "setup":
            _arity(tokens, 1, lineno, line)
            commands.append(Setup(_check_user(tokens[1], lineno, _column_of(line, 1))))
        elif head == "fund":
            _arity(tokens, 2, lineno, line)
            commands.append(
                Fund(
                    _check_user(tokens[1], lineno, _column_of(line, 1)),
                    _check_cents(tokens[2], lineno, _column_of(line, 2)),
                )
            )
        elif head == "transfer":
            _arity(tokens, 2, lineno, line)
            commands.append(
                Transfer(
                    _check_user(tokens[1], lineno, _column_of(line, 1)),
                    _check_user(tokens[2], lineno, _column_of(line, 2)),
                )
            )
        elif head == "redeem":
            _arity(tokens, 3, lineno, line)
            commands.append(
                Redeem(
                    _check_user(tokens[1], lineno, _column_of(line, 1)),
                    tokens[2],
                    _check_cents(tokens[3], lineno, _column_of(line, 3)),
                )
            )
        elif head == "attack":
            _arity(tokens, 1, lineno, line)
            commands.append(Attack(_check_scenario(tokens[1], lineno, _column_of(line, 1))))
        elif head == "expect-holdings":
            _arity(tokens, 2, lineno, line)
            party = _check_party(tokens[1], lineno, _column_of(line, 1))
            items = tuple(i for i in tokens[2].split(",") if i)
            if not items:
                raise ScenarioSyntaxError(
                    lineno, _column_of(line, 2), "expected a comma-separated variable list"
                )
            commands.append(ExpectHoldings(party, items))
        elif head == "expect-verdict":
            _arity(tokens, 2, lineno, line)
            scenario = _check_scenario(tokens[1], lineno, _column_of(line, 1))
            flag = tokens[2].lower()
            if flag not in ("true", "false"):
                raise ScenarioSyntaxError(
                    lineno, _column_of(line, 2), f"expected true or false, got {tokens[2]!r}"
                )
            commands.append(ExpectVerdict(scenario, flag == "true"))
        else:
            raise ScenarioSyntaxError(lineno, 1, f"unknown command {head!r}")
    return ScenarioScript(commands, seed=seed, mode=mode, backend=backend)


def pretty(script: ScenarioScript) -> str:
    return "\n".join(cmd.pretty() for cmd in script.commands) + "\n"


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
                chunks.append(render_table(event) + "\n\n")
        rendered = len(sim.events)

    def verdict_for(name: str) -> Verdict:
        if name not in result.verdicts:
            result.verdicts[name] = run_attack(
                name, mode=script.mode, backend=script.backend, seed=script.seed
            )
        return result.verdicts[name]

    for cmd in script.commands:
        try:
            if isinstance(cmd, Setup):
                sim.setup(cmd.user.lower())
            elif isinstance(cmd, Fund):
                sim.fund(cmd.user.lower(), cmd.cents)
            elif isinstance(cmd, Transfer):
                sim.transfer(cmd.sender.lower(), cmd.receiver.lower())
            elif isinstance(cmd, Redeem):
                sim.redeem(cmd.user.lower(), cmd.dest, cmd.cents)
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
    output = "".join(chunks)
    result.output = output.rstrip("\n") + "\n" if output else ""
    result.ok = not result.failures
    return result
