"""The four benchmark workloads.

Each workload builds its inputs from the seed when it is constructed (that
is its set-up) and then runs rounds: ``round(rec)`` performs one round of
ops over all of its inputs, reports every op to ``rec`` and appends any
failed output check to ``self.problems``.  Rounds of one workload are
identical, so a timed pass repeats them and every repetition is checked.

Only the public API of ``cryptocubic`` is used.  The one hook is
``_StampedSimulation``, which notes the start of each command so that
``bounce`` can time single commands inside ``run_scenario``.
"""
from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import random
import statistics
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

from hostspeed import clock

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "cryptocubic" / "__init__.py").is_file():
    raise ImportError(f"no cryptocubic sources under {SRC}")
sys.path.insert(0, str(SRC))

import cryptocubic  # noqa: E402
from cryptocubic import adversary, cli, protocol, scenario, trace  # noqa: E402
from cryptocubic.backend import CryptoError  # noqa: E402
from cryptocubic.ledger import LedgerError  # noqa: E402
from cryptocubic.store import StoreError  # noqa: E402
from cryptocubic.terms import SigningKeyTerm  # noqa: E402

if Path(cryptocubic.__file__).resolve().parent != (SRC / "cryptocubic").resolve():
    raise ImportError(f"cryptocubic was imported from {cryptocubic.__file__}, not {SRC}")

DOMAIN_ERRORS = (protocol.ProtocolError, StoreError, LedgerError, CryptoError)


class Recorder:
    """Collects per-op latencies, outcomes and emitted steps of one pass.

    Between ops it lets `calibration`, if given, time the host-speed kernel.
    """

    def __init__(self, tracer=None, calibration=None) -> None:
        self.tracer = tracer
        self.calibration = calibration
        self.latencies: list[float] = []
        self.failed = 0
        self.steps = 0

    def op(self, seconds: float, ok: bool) -> None:
        self.latencies.append(seconds)
        if not ok:
            self.failed += 1
        if self.calibration:
            self.calibration.sample_if_due()

    def call(self):
        """Root span of one call from the benchmark into the program."""
        return self.tracer.call() if self.tracer else contextlib.nullcontext()


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def traced_peak(run) -> int:
    """Peak bytes tracemalloc sees while `run()` executes, above where it began."""
    gc.collect()
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    run()
    return tracemalloc.get_traced_memory()[1] - base


class Workload:
    def __init__(self) -> None:
        self.problems: list[str] = []

    def round(self, rec: Recorder) -> None:
        raise NotImplementedError

    def peak_bytes(self) -> float:
        """Peak memory of one round; tracemalloc must be tracing."""
        return traced_peak(lambda: self.round(Recorder()))


# ---------------------------------------------------------------------------
# canonical: the bundled scripts through the command line, concrete backend

MODES = ("baseline3", "bare4", "cryptocubic")


class Canonical(Workload):
    def __init__(self, seed: int) -> None:
        super().__init__()
        self.runs = []
        for mode in MODES:
            golden = (ROOT / "scenarios" / "golden" / f"{mode}.txt").read_text(encoding="utf-8")
            argv = [str(ROOT / "scenarios" / f"{mode}.scen"), "--mode", mode,
                    "--backend", "concrete", "--seed", str(seed)]
            tables = sum(1 for line in golden.splitlines() if line.startswith("== "))
            self.runs.append((mode, argv, golden, tables))

    def round(self, rec: Recorder) -> None:
        for mode, argv, golden, tables in self.runs:
            out, err = io.StringIO(), io.StringIO()
            with rec.call(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                start = clock()
                status = cli.main(argv)
                elapsed = clock() - start
            rec.op(elapsed, status == 0)
            rec.steps += tables
            if status != 0 or out.getvalue() != golden:
                self.problems.append(
                    f"canonical {mode}: exit {status}, stdout differs from golden: "
                    f"{out.getvalue() != golden}, stderr {err.getvalue()!r}")


# ---------------------------------------------------------------------------
# bounce: one square handed back and forth, symbolic backend, tables rendered

BOUNCE_N = 40
# recorded at the commit that added the benchmark; independent of the seed
BOUNCE_EXPECTED = {
    40: {
        "steps": 857,
        "output_sha256": "6bc8636867d3eab9ec2d5062e9b33f5d9966f6227a8de9bda951ae44b080e629",
        "ledger": "533eb9fca7a944640bab8435ab49bc029efeb14b 0\next 1000\n",
    },
}


def bounce_script(n: int) -> str:
    lines = ["setup A", "fund A 1000"]
    lines += ["transfer A B" if i % 2 == 0 else "transfer B A" for i in range(n)]
    lines.append(f"redeem {'B' if n % 2 else 'A'} ext 1000")
    return "\n".join(lines) + "\n"


class _StampedSimulation(protocol.Simulation):
    """Notes when each scenario command starts, so commands can be timed."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.stamps: list[float] = []

    def setup(self, *args):
        self.stamps.append(clock())
        return super().setup(*args)

    def fund(self, *args):
        self.stamps.append(clock())
        return super().fund(*args)

    def transfer(self, *args):
        self.stamps.append(clock())
        return super().transfer(*args)

    def redeem(self, *args):
        self.stamps.append(clock())
        return super().redeem(*args)


@contextlib.contextmanager
def stamped_scenarios():
    """Let run_scenario build stamped simulations for the duration."""
    original = scenario.Simulation
    scenario.Simulation = _StampedSimulation
    try:
        yield
    finally:
        scenario.Simulation = original


class Bounce(Workload):
    def __init__(self, seed: int, n: int = BOUNCE_N) -> None:
        super().__init__()
        self.seed = seed
        self.n = n
        self.text = bounce_script(n)
        self.expected = BOUNCE_EXPECTED.get(n)
        self.last = None

    def round(self, rec: Recorder) -> None:
        with rec.call(), stamped_scenarios():
            start = clock()
            script = scenario.parse_scenario(
                self.text, seed=self.seed, mode="cryptocubic", backend="symbolic")
            result = scenario.run_scenario(script)
            end = clock()
        stamps = [start, *result.sim.stamps[1:], end]
        for begin, finish in zip(stamps, stamps[1:]):
            rec.op(finish - begin, result.ok)
        rec.steps += len(result.sim.events)
        self.last = {
            "ok": result.ok,
            "commands": len(result.sim.stamps),
            "steps": len(result.sim.events),
            "output_sha256": sha256(result.output),
            "ledger": result.sim.ledger.dump(),
        }
        if not result.ok or self.last["commands"] != self.n + 3:
            self.problems.append(f"bounce: failures {result.failures}")
        if self.expected is not None:
            for key, want in self.expected.items():
                if self.last[key] != want:
                    self.problems.append(f"bounce: {key} is {self.last[key]!r}, expected {want!r}")


# ---------------------------------------------------------------------------
# fleet: a seeded random walk over a dozen users, concrete backend

FLEET_USERS = "ABCDEFGHIJKL"
FLEET_WALKS = 24
FLEET_MEMORY_WALKS = 5
# a walk ends once its random part has emitted this many holdings tables;
# a length in steps rather than ops keeps the walks alike in size
FLEET_RANDOM_STEPS = 150
# op kinds of the random part come from shuffled decks of this mix, so that
# every walk has nearly the same mix and seeds differ in order, users and
# amounts rather than in how many ops of each kind they issue
FLEET_MIX = {"setup": 2, "fund": 4, "transfer": 10, "redeem": 4}


class FleetModel:
    """The generator's belief of who owns which square and what it holds.

    It changes only when an op succeeds.  Each user's squares are kept in
    the order the user got them; ``fund`` and ``redeem`` address a user's
    latest square, since the protocol addresses squares by user.
    """

    def __init__(self, users: str) -> None:
        self.users = users
        self.owned: dict[str, list[str]] = {u: [] for u in users}
        self.balance: dict[str, int] = {}
        self.funded = 0

    def owners(self) -> list[str]:
        return [u for u in self.users if self.owned[u]]

    def redeemers(self) -> list[str]:
        return [u for u in self.users if self.owned[u] and self.balance[self.owned[u][-1]] > 0]

    def is_valid(self, op: tuple) -> bool:
        kind, user = op[0], op[1]
        if user not in self.owned:
            return False
        if kind == "setup":
            return len(op) == 2
        if kind == "fund":
            return bool(self.owned[user]) and op[2] > 0
        if kind == "transfer":
            return bool(self.owned[user]) and op[2] in self.owned and op[2] != user
        if kind == "redeem":
            return (bool(self.owned[user])
                    and op[3] == self.balance[self.owned[user][-1]] > 0)
        return False

    def apply(self, op: tuple, result) -> None:
        """Record a successful op; `result` is what the protocol returned."""
        kind, user = op[0], op[1]
        if kind == "setup":
            self.owned[user].append(result)
            self.balance[result] = 0
        elif kind == "fund":
            self.balance[self.owned[user][-1]] += op[2]
            self.funded += op[2]
        elif kind == "transfer":
            for squares in self.owned.values():
                if result in squares:
                    squares.remove(result)
            self.owned[op[2]].append(result)
        elif kind == "redeem":
            del self.balance[self.owned[user].pop()]


class FleetWalk:
    """Issues ops that are valid under its own model.

    Every user first opens a square and funds it, in an order drawn from
    the seed, so that all users and squares are live from the start.  Each
    later op takes the first kind left in the current deck that the model
    allows (a setup when none is), with users and amounts drawn from the
    model's valid moves.
    """

    def __init__(self, seed: int, users: str = FLEET_USERS) -> None:
        self.rng = random.Random(seed)
        self.model = FleetModel(users)
        order = list(users)
        self.rng.shuffle(order)
        self.prelude = [("setup", u) for u in order]
        self.prelude += [("fund", u, self._cents()) for u in order]
        self.deck: list[str] = []
        self.issued = 0

    def _cents(self) -> int:
        return self.rng.randint(1, 50) * 100

    def next_op(self) -> tuple:
        self.issued += 1
        if self.issued <= len(self.prelude):
            return self.prelude[self.issued - 1]
        model, rng = self.model, self.rng
        if not self.deck:
            self.deck = [kind for kind, count in FLEET_MIX.items() for _ in range(count)]
            rng.shuffle(self.deck)
        owners, redeemers = model.owners(), model.redeemers()
        allowed = {"setup"}
        if owners:
            allowed |= {"fund", "transfer"}
        if redeemers:
            allowed.add("redeem")
        kind = next((k for k in self.deck if k in allowed), "setup")
        if kind in self.deck:
            self.deck.remove(kind)
        if kind == "setup":
            return ("setup", rng.choice(model.users))
        if kind == "fund":
            return ("fund", rng.choice(owners), self._cents())
        if kind == "transfer":
            sender = rng.choice(owners)
            return ("transfer", sender, rng.choice([u for u in model.users if u != sender]))
        user = rng.choice(redeemers)
        return ("redeem", user, "ext", model.balance[model.owned[user][-1]])


def execute(sim: protocol.Simulation, op: tuple):
    """Run one fleet op: (ok, failure reason, protocol result).

    Domain errors and aborted sessions are failures; any other exception
    propagates.
    """
    kind = op[0]
    try:
        if kind == "setup":
            return True, None, sim.setup(op[1].lower())
        if kind == "fund":
            sim.fund(op[1].lower(), op[2])
            return True, None, None
        if kind == "transfer":
            session = sim.transfer(op[1].lower(), op[2].lower())
            if session.phase == "completed":
                return True, None, session.square_id
            return False, session.abort_reason, None
        return True, None, sim.redeem(op[1].lower(), op[2], op[3])
    except DOMAIN_ERRORS as exc:
        return False, type(exc).__name__, None


def fleet_walk_seeds(seed: int, walks: int = FLEET_WALKS) -> list[int]:
    rng = random.Random(seed)
    return [rng.getrandbits(32) for _ in range(walks)]


def run_walk(walk_seed: int, rec: Recorder, users: str = FLEET_USERS,
             random_steps: int = FLEET_RANDOM_STEPS) -> dict:
    """One fleet walk; returns what it did, for checking against a repeat."""
    sim = protocol.Simulation(mode="cryptocubic", backend="concrete", seed=walk_seed)
    walk = FleetWalk(walk_seed, users)
    rendered = hashlib.sha256()
    failures: Counter[str] = Counter()
    ops: list[tuple] = []
    outcomes: list[bool] = []
    seen = 0
    prelude_steps = None
    while prelude_steps is None or seen - prelude_steps < random_steps:
        op = walk.next_op()
        with rec.call():
            start = clock()
            ok, reason, result = execute(sim, op)
            tables = [trace.render_table(event) for event in sim.events[seen:]]
            elapsed = clock() - start
        rec.op(elapsed, ok)
        rec.steps += len(tables)
        seen = len(sim.events)
        for table in tables:
            rendered.update(table.encode())
        ops.append(op)
        outcomes.append(ok)
        if ok:
            walk.model.apply(op, result)
        else:
            failures[reason] += 1
        if prelude_steps is None and walk.issued == len(walk.prelude):
            prelude_steps = seen
    return {
        "ops": ops,
        "outcomes": outcomes,
        "failures": dict(sorted(failures.items())),
        "rendered_sha256": rendered.hexdigest(),
        "steps": seen,
        "funded": walk.model.funded,
        "supply": sim.ledger.total_supply(),
    }


class Fleet(Workload):
    def __init__(self, seed: int, users: str = FLEET_USERS,
                 random_steps: int = FLEET_RANDOM_STEPS, walks: int = FLEET_WALKS) -> None:
        super().__init__()
        self.users = users
        self.random_steps = random_steps
        self.walk_seeds = fleet_walk_seeds(seed, walks)
        # what each walk did the first time; later runs must repeat it
        self.reference: dict[int, dict] = {}

    def round(self, rec: Recorder) -> None:
        for walk, walk_seed in enumerate(self.walk_seeds):
            try:
                summary = run_walk(walk_seed, rec, self.users, self.random_steps)
            except Exception as exc:  # anything but a domain error fails the benchmark
                self.problems.append(f"fleet walk {walk}: {type(exc).__name__}: {exc}")
                continue
            if summary["supply"] != summary["funded"]:
                self.problems.append(
                    f"fleet walk {walk}: supply {summary['supply']} != funded {summary['funded']}")
            reference = self.reference.setdefault(walk, summary)
            if summary != reference:
                self.problems.append(f"fleet walk {walk}: differs from its first run")

    def peak_bytes(self) -> float:
        """Median peak of the first few walks; a whole round would take too long."""
        return statistics.median(
            traced_peak(lambda: run_walk(walk_seed, Recorder(), self.users, self.random_steps))
            for walk_seed in self.walk_seeds[:FLEET_MEMORY_WALKS])


# ---------------------------------------------------------------------------
# audit: judge every step of a bounce run for fixed coalitions

AUDIT_N = 60
# recorded at the commit that added the benchmark; independent of the seed
AUDIT_EXPECTED = {
    60: {
        "steps": 1277,
        "positive": {"server": 0, "server+slots": 0, "USER_A+slots": 0, "USER_B+slots": 0,
                     "server+USER_A+slots": 217, "wiretap": 0},
    },
}


def bundle_id(sim: protocol.Simulation) -> str:
    return next(t.bundle_id for t in sim.value_of if isinstance(t, SigningKeyTerm))


class Audit(Workload):
    def __init__(self, seed: int, n: int = AUDIT_N) -> None:
        super().__init__()
        script = scenario.parse_scenario(
            bounce_script(n), seed=seed, mode="cryptocubic", backend="symbolic")
        result = scenario.run_scenario(script, quiet=True)
        if not result.ok:
            raise RuntimeError(f"audit set-up run failed: {result.failures}")
        self.sim = result.sim
        self.bundle = bundle_id(self.sim)
        self.expected = AUDIT_EXPECTED.get(n)
        self.last = None

    def coalitions(self, record):
        knowledge = record.knowledge
        slots = {t for t in record.slot_terms.values() if t is not None}
        server = knowledge[protocol.SERVER]
        yield "server", server
        yield "server+slots", server | slots
        for party in sorted(knowledge):
            if party.startswith("USER_"):
                yield f"{party}+slots", knowledge[party] | slots
        yield "server+USER_A+slots", server | knowledge["USER_A"] | slots
        yield "wiretap", adversary.wiretap_knowledge(self.sim, upto=record.transcript_len)

    def round(self, rec: Recorder) -> None:
        positive: Counter[str] = Counter()
        tracer = rec.tracer
        for record in self.sim.step_records:
            with rec.call():
                start = clock()
                for name, knowledge in self.coalitions(record):
                    if tracer:
                        tracer.context = name
                    if adversary.can_spend(knowledge, self.bundle).possible:
                        positive[name] += 1
                elapsed = clock() - start
            rec.op(elapsed, True)
        if tracer:
            tracer.context = None
        rec.steps += len(self.sim.step_records)
        self.last = {"steps": len(self.sim.step_records), "positive": dict(positive)}
        if self.expected is not None:
            want = {k: v for k, v in self.expected["positive"].items() if v}
            if self.last["steps"] != self.expected["steps"] or self.last["positive"] != want:
                self.problems.append(f"audit: {self.last}, expected {self.expected}")


WORKLOADS = {"canonical": Canonical, "bounce": Bounce, "fleet": Fleet, "audit": Audit}


def make(name: str, seed: int) -> Workload:
    """Build a workload's inputs from the seed; this is its set-up."""
    return WORKLOADS[name](seed)
