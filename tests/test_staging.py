"""Shared attack stagings: `Simulation.fork` and the per-run `Stager`.

A fork must be a run of its own: nothing it does may reach the run it was
forked from, or the other way round, and it must go on exactly as the run
itself would.  A stager must judge every attack, in any order and any
subset, as `run_attack` judges it alone, whether it builds a prefix or keeps
a fork of the script's own run.
"""
import random
import weakref
from collections import Counter
from contextlib import ExitStack, contextmanager
from dataclasses import is_dataclass
from pathlib import Path
from types import FunctionType, MethodType
from unittest import mock

import pytest

from cryptocubic import adversary, scenario
from cryptocubic.adversary import PREFIXES, SCENARIOS, Stager, run_attack
from cryptocubic.protocol import MODES, Simulation
from cryptocubic.scenario import parse_scenario, run_scenario
from cryptocubic.terms import Term
from cryptocubic.trace import Tables, render_table
from test_emit_cache import bounce_script

SCENARIOS_DIR = Path(__file__).resolve().parent.parent / "scenarios"
BACKENDS = ("symbolic", "concrete")
# values no step changes, which a fork may share with its run
SHARED = (int, float, str, bytes, bool, type(None), Term)


def _frozen(value):
    return is_dataclass(value) and not isinstance(value, type) and value.__dataclass_params__.frozen


def structure(value):
    """`value` as plain data: containers and objects by their contents, a
    generator by its state, a shared value or frozen record as itself."""
    if isinstance(value, SHARED) or _frozen(value) or isinstance(value, FunctionType):
        return value
    if isinstance(value, random.Random):
        return "rng", value.getstate()
    if isinstance(value, (list, tuple)):
        return type(value).__name__, [structure(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return type(value).__name__, frozenset(map(structure, value))
    if isinstance(value, dict):
        return "dict", [(structure(key), structure(item)) for key, item in value.items()]
    if isinstance(value, MethodType):
        return "method", value.__name__, type(value.__self__).__name__
    if hasattr(value, "__dict__"):
        return type(value).__name__, structure(vars(value))
    return type(value).__name__  # a lock: no state to compare


def mutables(value, found=None):
    """id -> object, for each mutable object `value` reaches."""
    found = {} if found is None else found
    if (isinstance(value, SHARED) or _frozen(value) or isinstance(value, FunctionType)
            or id(value) in found):
        return found
    if not isinstance(value, (tuple, frozenset)):
        found[id(value)] = value
    if isinstance(value, dict):
        items = [*value, *value.values()]
    elif isinstance(value, (list, tuple, set, frozenset)):
        items = value
    elif isinstance(value, MethodType):
        items = [value.__self__]
    else:
        items = vars(value).values() if hasattr(value, "__dict__") else ()
    for item in items:
        mutables(item, found)
    return found


def funded(mode, backend, seed=0):
    sim = Simulation(mode=mode, backend=backend, seed=seed, record=False)
    sim.setup("a")
    sim.fund("a", 1000)
    return sim


def go_on(sim):
    """A transfer and a redemption: they draw keys and tokens, take and
    insert slots, spend a nonce and send messages."""
    sim.transfer("a", "b")
    sim.redeem("b", "ext", 600)


# ---------------------------------------------------------------------------
# Simulation.fork


# what a transfer and a redemption change, each of which the dump must cover
CHANGED = {
    "generator": lambda sim: sim.rng.getstate(),
    "store sequence": lambda sim: sim.store._seq,
    "slots": lambda sim: [vars(slot) for slot in sim.store._slots.values()],
    "nonce set": lambda sim: sim.ledger._accounts[sim.squares["sq1"].address_value].used_nonces,
    "transcript": lambda sim: sim.transport.transcript,
    "heard terms": lambda sim: sim.transport.heard_at,
    "parties": lambda sim: {name: dict(party.memory) for name, party in sim.parties.items()},
    "squares": lambda sim: vars(sim.squares["sq1"]),
    "backend ids": lambda sim: sim.backend._counters,
    "sessions": lambda sim: sim._session_seq,
}


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("mode", MODES)
def test_a_fork_and_its_run_leave_each_other_unchanged(mode, backend):
    sim = funded(mode, backend)
    before = structure(sim)
    twin = sim.fork()
    assert structure(twin) == before
    go_on(twin)
    assert structure(sim) == before
    changed = {name for name, read in CHANGED.items() if read(twin) != read(sim)}
    assert changed >= {"store sequence", "nonce set", "transcript", "heard terms", "parties", "sessions"}
    if mode == "cryptocubic":  # a transfer here draws keys and tokens and moves the slot
        assert changed == set(CHANGED)
        assert twin._issued > sim._issued and twin._challenge_counts != sim._challenge_counts
    kept = structure(twin)
    go_on(sim)
    assert structure(twin) == kept


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("mode", MODES)
def test_a_fork_goes_on_as_its_run_would(mode, backend):
    replayed = funded(mode, backend, seed=7)
    go_on(replayed)
    forked = funded(mode, backend, seed=7).fork()
    go_on(forked)
    assert structure(forked) == structure(replayed)
    assert forked.ledger.dump() == replayed.ledger.dump()


@pytest.mark.parametrize("mode", MODES)
def test_a_fork_shares_no_mutable_object_with_its_run(mode):
    # a field that `Simulation.__init__` sets and `fork` neither copies nor
    # resets is missing from the fork, or shared with the run
    sim = funded(mode, "concrete")
    sim.transfer("a", "b")
    sim.redeem("b", "ext", 1)
    twin = sim.fork()
    assert list(vars(twin)) == list(vars(sim))
    ours, theirs = mutables(sim), mutables(twin)
    shared = sorted(type(ours[key]).__name__ for key in ours.keys() & theirs.keys())
    assert shared == []
    assert twin.observers == [] and twin.events == [] and twin.step_records == []


def test_a_fork_records_nothing_of_a_recording_run():
    sim = Simulation(mode="cryptocubic")
    sim.setup("a")
    twin = sim.fork()
    assert sim.events and twin.events == [] and twin.observers == []
    twin.fund("a", 1000)
    assert twin.events == [] and len(sim.events) == sim.steps == twin.steps - 1


def test_a_fork_is_refused_where_no_copy_can_carry_the_state(tmp_path):
    sim = funded("cryptocubic", "symbolic")
    session = sim.begin_transfer("a", "b")
    sim.withdraw_for_transfer(session)  # the transfer's scope is open
    with pytest.raises(ValueError, match="open procedure"):
        sim.fork()
    sim = funded("cryptocubic", "symbolic")
    sim.transport.interposer = lambda msg: msg
    with pytest.raises(ValueError, match="interposer"):
        sim.fork()
    journalled = Simulation(journal_path=str(tmp_path / "journal"), record=False)
    journalled.setup("a")
    with pytest.raises(ValueError, match="journal"):
        journalled.fork()


# ---------------------------------------------------------------------------
# the stager


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("mode", MODES)
def test_shared_stagings_judge_as_each_attack_alone(mode, backend, seed):
    alone = {name: run_attack(name, mode, backend, seed) for name in SCENARIOS}
    draw = random.Random(f"{mode} {backend} {seed}")
    # the first order forks "funded" and then takes it to build "transferred"
    orders = [["counterfeit_es", "post_transfer_grab", "store_raid"], list(SCENARIOS)]
    orders += [draw.sample(SCENARIOS, draw.randint(1, len(SCENARIOS))) for _ in range(4)]
    for order in orders:
        # counted for every attack, and for every other one only
        for counted in (order, order[::2]):
            stager = Stager(counted, mode, backend, seed)
            for name in order:
                verdict = run_attack(name, mode, backend, seed, stager=stager)
                assert verdict == alone[name], (order, counted, name)


@contextmanager
def counting(*methods):
    """Count the calls of the `Simulation` methods named while the block runs."""
    calls = Counter()
    with ExitStack() as patches:
        for name in methods:
            def counted(self, *args, _original=getattr(Simulation, name), _name=name):
                calls[_name] += 1
                return _original(self, *args)

            patches.enter_context(mock.patch.object(Simulation, name, counted))
        yield calls


def test_a_stager_builds_each_prefix_once():
    built = []

    def build(*args, **kwargs):
        built.append(Simulation(*args, **kwargs))
        return built[-1]

    with counting("setup", "transfer", "fork") as calls, mock.patch.object(adversary, "Simulation", build):
        stager = Stager(SCENARIOS, "cryptocubic", "symbolic", 0)
        for name in SCENARIOS:
            run_attack(name, stager=stager)
    assert len(built) == 1
    # counterfeit_es makes the one transfer of its own
    assert calls == {"setup": 1, "transfer": 2, "fork": 5}
    assert stager._runs == {}  # each prefix is let go after its last consumer


def test_a_standalone_attack_forks_nothing():
    with counting("setup", "fork") as calls:
        for name in SCENARIOS:
            run_attack(name)
    assert calls == {"setup": len(SCENARIOS)}


def test_a_stager_refuses_another_runs_attack_and_unknown_attacks():
    stager = Stager(["store_raid"], "bare4", "symbolic", 3)
    with pytest.raises(ValueError):
        run_attack("store_raid", "cryptocubic", "symbolic", 3, stager=stager)
    with pytest.raises(ValueError):
        run_attack("teleport", "bare4", "symbolic", 3, stager=stager)
    assert stager._runs == {}  # nothing was staged


def test_an_expected_verdict_without_an_attack_line_shares_the_prefix():
    text = ("setup A\nfund A 1000\nattack store_raid\n"
            "expect-verdict post_transfer_grab false\nexpect-verdict double_transfer false\n")
    with counting("setup") as calls:
        result = run_scenario(parse_scenario(text, seed=4))
    assert result.ok
    assert calls == {"setup": 1}  # the script's own, whose run is forked for the prefix
    assert result.verdicts == {name: run_attack(name, seed=4) for name in result.verdicts}
    assert set(result.verdicts) == {"store_raid", "post_transfer_grab", "double_transfer"}


# each bundled script, run in its own mode: the calls it and its stagings
# now make, each prefix forked from the script's own run
STAGED_CALLS = {
    "baseline3": {"setup": 1, "transfer": 3, "begin_transfer": 3},
    "bare4": {"setup": 1, "transfer": 1, "begin_transfer": 3},
    "cryptocubic": {"setup": 1, "transfer": 2, "begin_transfer": 4},
}


@pytest.mark.parametrize("mode", MODES)
def test_each_bundled_script_stages_its_prefixes_once(mode):
    text = (SCENARIOS_DIR / f"{mode}.scen").read_text(encoding="utf-8")
    with counting("setup", "transfer", "begin_transfer") as calls:
        result = run_scenario(parse_scenario(text, mode=mode, backend="concrete"))
    assert result.ok
    assert calls == STAGED_CALLS[mode]


def test_a_fork_shares_messages_and_heard_sets():
    sim = funded("bare4", "symbolic")
    sim.transfer("a", "b")
    sim.transport.heard_by()
    twin = sim.fork()
    assert all(a is b for a, b in zip(twin.transport.transcript, sim.transport.transcript))
    assert twin.transport.heard_by() is sim.transport.heard_by()


# ---------------------------------------------------------------------------
# the script's own run as a prefix


FUNDED, TRANSFERRED, REDEEMED = sorted(set(PREFIXES.values()), key=len)
# one attack that starts from each prefix
CONSUMER = {prefix: name for name, prefix in PREFIXES.items()}


def run_commands(sim, commands):
    for head, *values in commands:
        getattr(sim, head)(*values)


@pytest.mark.parametrize("record", [True, False])
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("mode", MODES)
def test_a_donated_fork_equals_the_prefix_built(mode, backend, record):
    for prefix in (FUNDED, TRANSFERRED, REDEEMED):
        sim = Simulation(mode=mode, backend=backend, seed=1, record=record)
        stager = Stager([CONSUMER[prefix]], mode, backend, 1)
        for n in range(1, len(prefix) + 1):
            run_commands(sim, prefix[n - 1:n])
            # tracking stops once the one wanted prefix is reached
            assert stager.offer(prefix[:n], sim, prefix[n] if n < len(prefix) else None) is (n < len(prefix))
        assert list(stager._runs) == [prefix]  # each shorter prefix let go once its child came
        donated = stager.take(prefix)
        built = Stager((), mode, backend, 1).take(prefix)
        for run in (donated, built):  # a recording run has filled each party's snapshot memo
            for party in run.parties.values():
                party.snapshot()
        assert structure(donated) == structure(built), prefix


@contextmanager
def donations():
    """The prefixes each `Stager.offer` kept while the block runs, and the
    number of offers made."""
    kept, offers = [], Counter()
    original = Stager.offer

    def offer(self, done, sim, then):
        offers["offers"] += 1
        held = self._runs.get(done)
        more = original(self, done, sim, then)
        if self._runs.get(done) is not held:
            kept.append(done)
        return more

    with mock.patch.object(Stager, "offer", offer):
        yield kept, offers


def judged_alone(result, seed=0):
    return result.verdicts == {name: run_attack(name, seed=seed) for name in result.verdicts}


def test_an_attack_before_the_prefix_builds_it_and_keeps_no_run():
    # "funded" is built by the first attack and still held for `double_transfer`
    # when the script passes through it
    text = ("attack post_transfer_grab\nattack counterfeit_es\nsetup A\nfund A 1000\n"
            "transfer A B\nexpect-verdict double_transfer false\nredeem B ext 1000\n")
    made = []

    def make(*args):
        made.append(Stager(*args))
        return made[-1]

    with donations() as (kept, offers), mock.patch.object(scenario, "Stager", make):
        result = run_scenario(parse_scenario(text, seed=5))
    assert result.ok and judged_alone(result, seed=5)
    assert kept == [] and offers["offers"] == 2  # nothing longer is wanted after `fund A 1000`
    assert made[0]._runs == {}


@pytest.mark.parametrize("diverging, kept_prefixes, offered", [
    ("setup A\nfund A 500\ntransfer A B\nredeem B ext 500\n", [], 2),
    ("setup A\nfund A 1000\ntransfer A C\nredeem C ext 1000\n", [FUNDED], 3),
])
def test_a_script_that_diverges_is_offered_no_further(diverging, kept_prefixes, offered):
    attacks = "".join(f"attack {name}\n" for name in SCENARIOS)
    with donations() as (kept, offers):
        result = run_scenario(parse_scenario(diverging + attacks, seed=2))
    assert result.ok and judged_alone(result, seed=2)
    assert kept == kept_prefixes
    assert offers["offers"] == offered  # none after the first command that matches no prefix


@pytest.mark.parametrize("text, kept_prefixes", [
    ("setup A\nfund A 1000\ntransfer A B\nattack store_raid\n", [TRANSFERRED]),
    ("setup A\nfund A 1000\nexpect-holdings A ADD\ntransfer A B\nattack store_raid\n", [TRANSFERRED]),
    # an attack before the child takes the parent to build the child
    ("setup A\nfund A 1000\nattack store_raid\ntransfer A B\n", [FUNDED]),
], ids=["child-next", "holdings-check-between", "attack-between"])
def test_a_prefix_whose_only_consumer_the_script_makes_next_is_not_forked(text, kept_prefixes):
    with counting("fork") as calls, donations() as (kept, _):
        result = run_scenario(parse_scenario(text))
    assert judged_alone(result)
    assert kept == kept_prefixes
    assert calls == {"fork": 1}


def test_no_fork_outlives_the_script_run():
    forks = []
    original = Simulation.fork

    def fork(self):
        twin = original(self)
        forks.append(weakref.ref(twin))
        return twin

    text = (SCENARIOS_DIR / "cryptocubic.scen").read_text(encoding="utf-8")
    with donations() as (kept, _), mock.patch.object(Simulation, "fork", fork):
        result = run_scenario(parse_scenario(text, backend="concrete"))
    assert result.ok and kept == [FUNDED, TRANSFERRED, REDEEMED]
    assert len(forks) == 6 and [alive() for alive in forks] == [None] * 6


def test_a_script_with_no_attack_forks_nothing():
    with counting("fork") as calls, donations() as (_, offers):
        assert run_scenario(parse_scenario(bounce_script(40))).ok
    assert calls == {} and offers["offers"] == 1


@pytest.mark.parametrize("record", [True, False], ids=["recording", "streaming"])
@pytest.mark.parametrize("mode", MODES)
def test_forking_an_observed_run_leaves_it_untouched(mode, record):
    def observed():
        """A run whose tables are rendered after each command, as `run_scenario` streams them."""
        sim = Simulation(mode=mode, backend="concrete", seed=3, record=record)
        steps, tables = Tables(), []
        sim.observers.append(steps)

        def run(*commands):
            for command in commands:
                run_commands(sim, [command])
                tables.extend(render_table(event, steps.memo) for event in steps.events)
                steps.events.clear()

        return sim, run, tables

    forked, run, tables = observed()
    run(*TRANSFERRED)
    stager = Stager(["wiretap_passive", "post_transfer_grab"], mode, "concrete", 3)
    assert stager.offer(TRANSFERRED, forked, None)
    # a fork of the donated fork goes through the redemption, then the fork
    # itself has its slots raided and, in baseline3, its square spent
    for name in ("wiretap_passive", "post_transfer_grab"):
        assert run_attack(name, mode, "concrete", 3, stager=stager) == run_attack(name, mode, "concrete", 3)
    rest = [("redeem", "B", "ext", 600), ("redeem", "B", "ext", 400)]
    run(*rest)
    plain, run, plain_tables = observed()
    run(*TRANSFERRED, *rest)
    assert tables == plain_tables and len(tables) == plain.steps
    assert forked.events == plain.events and forked.step_records == plain.step_records
    assert bool(forked.events) is record
    assert forked.ledger.dump() == plain.ledger.dump()
    assert {name: party.memory for name, party in forked.parties.items()} == {
        name: party.memory for name, party in plain.parties.items()}
