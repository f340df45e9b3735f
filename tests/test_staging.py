"""Attack stagings on forks: `Simulation.fork` and `run_scenario`'s judging.

A fork must be a run of its own: nothing it does may reach the run it was
forked from, or the other way round, and it must go on exactly as the run
itself would.  `run_scenario` must judge every attack a script names as
`run_attack` judges it alone, whether it forks the script's own run where the
run passes the attack's prefix or builds the prefix afresh.
"""
import functools
import random
import weakref
from collections import Counter
from contextlib import ExitStack, contextmanager
from dataclasses import is_dataclass
from pathlib import Path
from types import FunctionType, MethodType
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cryptocubic.adversary import PREFIXES, SCENARIOS, run_attack, take_all_slots
from cryptocubic.backend import CryptoError
from cryptocubic.ledger import LedgerError
from cryptocubic.protocol import MODES, ProtocolError, Simulation
from cryptocubic.scenario import parse_scenario, run_scenario
from cryptocubic.store import StoreError
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


def test_a_fork_is_refused_where_no_copy_can_carry_the_state():
    sim = funded("cryptocubic", "symbolic")
    session = sim.begin_transfer("a", "b")
    sim.withdraw_for_transfer(session)  # the transfer's scope is open
    with pytest.raises(ValueError, match="open procedure"):
        sim.fork()
    sim = funded("cryptocubic", "symbolic")
    sim.transport.interposer = lambda msg: msg
    with pytest.raises(ValueError, match="interposer"):
        sim.fork()


def test_a_fork_shares_messages_and_heard_sets():
    sim = funded("bare4", "symbolic")
    sim.transfer("a", "b")
    sim.transport.heard_by()
    twin = sim.fork()
    assert all(a is b for a, b in zip(twin.transport.transcript, sim.transport.transcript))
    assert twin.transport.heard_by() is sim.transport.heard_by()


# ---------------------------------------------------------------------------
# run_attack on a given run


FUNDED, TRANSFERRED, REDEEMED = sorted(set(PREFIXES.values()), key=len)


def run_commands(sim, commands):
    for head, *values in commands:
        getattr(sim, head)(*values)


@pytest.mark.parametrize("record", [True, False])
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("mode", MODES)
def test_a_fork_of_a_run_equals_the_prefix_built(mode, backend, record):
    for prefix in (FUNDED, TRANSFERRED, REDEEMED):
        sim = Simulation(mode=mode, backend=backend, seed=1, record=record)
        run_commands(sim, prefix)
        forked = sim.fork()
        built = Simulation(mode=mode, backend=backend, seed=1, record=False)  # as `run_attack` builds it
        run_commands(built, prefix)
        for run in (forked, built):  # a recording run has filled each party's snapshot memo
            for party in run.parties.values():
                party.snapshot()
        assert structure(forked) == structure(built), prefix


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("mode", MODES)
def test_an_attack_on_a_fork_judges_as_the_attack_alone(mode, backend, seed):
    for prefix in (FUNDED, TRANSFERRED, REDEEMED):
        sim = Simulation(mode=mode, backend=backend, seed=seed)
        run_commands(sim, prefix)
        for name in (name for name in SCENARIOS if PREFIXES[name] == prefix):
            alone = run_attack(name, mode, backend, seed)
            assert run_attack(name, mode, backend, seed, sim.fork()) == alone, name


def test_run_attack_refuses_a_run_of_another_mode_or_backend_and_unknown_attacks():
    sim = funded("bare4", "symbolic", seed=3)
    sim.transfer("a", "b")
    before = structure(sim)
    for mode, backend in (("cryptocubic", "symbolic"), ("bare4", "concrete")):
        with pytest.raises(ValueError):
            run_attack("store_raid", mode, backend, 3, sim)
    with pytest.raises(ValueError):
        run_attack("teleport", "bare4", "symbolic", 3, sim)
    assert structure(sim) == before  # nothing was staged on it


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


def test_a_standalone_attack_forks_nothing():
    with counting("setup", "fork") as calls:
        for name in SCENARIOS:
            run_attack(name)
    assert calls == {"setup": len(SCENARIOS)}


# ---------------------------------------------------------------------------
# run_scenario judges each attack where its run passes the attack's prefix


def judged_alone(result, seed=0):
    return result.verdicts == {name: run_attack(name, seed=seed) for name in result.verdicts}


ALL_ATTACKS = "".join(f"attack {name}\n" for name in SCENARIOS)


# each bundled script, run in its own mode: the calls it and its stagings
# make, each prefix forked from the script's own run
STAGED_CALLS = {
    "baseline3": {"setup": 1, "transfer": 3, "begin_transfer": 3, "fork": 2},
    "bare4": {"setup": 1, "transfer": 1, "begin_transfer": 3, "fork": 2},
    "cryptocubic": {"setup": 1, "transfer": 2, "begin_transfer": 4, "fork": 6},
}


@pytest.mark.parametrize("mode", MODES)
def test_each_bundled_script_stages_its_prefixes_once(mode):
    text = (SCENARIOS_DIR / f"{mode}.scen").read_text(encoding="utf-8")
    with counting("setup", "transfer", "begin_transfer", "fork") as calls:
        result = run_scenario(parse_scenario(text, mode=mode, backend="concrete"))
    assert result.ok
    assert calls == STAGED_CALLS[mode]


@pytest.mark.parametrize("mode", MODES)
def test_a_journalled_run_forks_and_its_forks_journal_nothing(mode, tmp_path):
    # each bundled script journals what the same script without its attack
    # and expect-verdict lines journals, though its attacks go on from forks
    text = (SCENARIOS_DIR / f"{mode}.scen").read_text(encoding="utf-8")
    bare = "".join(f"{line}\n" for line in text.splitlines()
                   if not line.startswith(("attack ", "expect-verdict ")))
    journals, forks = [], []
    for n, source in enumerate((text, bare)):
        path = tmp_path / f"journal{n}"
        with counting("fork") as calls:
            assert run_scenario(parse_scenario(source, mode=mode), journal_path=str(path)).ok
        journals.append(path.read_bytes())
        forks.append(calls["fork"])
    assert journals[0] and journals[0] == journals[1]
    assert forks == [STAGED_CALLS[mode]["fork"], 0]
    # what a fork of a journalled run does reaches no journal; the run's own steps still do
    path = tmp_path / "journal"
    sim = Simulation(mode=mode, journal_path=str(path), record=False)
    run_commands(sim, TRANSFERRED)
    kept = path.read_bytes()
    twin = sim.fork()
    twin.redeem("b", "ext", 600)
    take_all_slots(twin)
    assert path.read_bytes() == kept
    sim.redeem("b", "ext", 600)
    assert len(path.read_bytes()) > len(kept)


def test_an_expected_verdict_without_an_attack_line_is_judged_alone():
    # the run passes `funded` alone, so only `double_transfer` is judged on its fork
    text = ("setup A\nfund A 1000\nattack store_raid\n"
            "expect-verdict post_transfer_grab false\nexpect-verdict double_transfer false\n")
    with counting("setup", "fork") as calls:
        result = run_scenario(parse_scenario(text, seed=4))
    assert result.ok and judged_alone(result, seed=4)
    assert calls == {"setup": 3, "fork": 1}
    assert set(result.verdicts) == {"store_raid", "post_transfer_grab", "double_transfer"}


@pytest.mark.parametrize("text, setups, forks", [
    # each attack whose line comes before its prefix builds the prefix afresh
    ("attack post_transfer_grab\nattack counterfeit_es\nsetup A\nfund A 1000\n"
     "transfer A B\nexpect-verdict double_transfer false\nredeem B ext 1000\n", 3, 1),
    ("setup A\nfund A 1000\ntransfer A B\nattack store_raid\n", 1, 1),
    ("setup A\nfund A 1000\nexpect-holdings A ADD,Es,Ka,Ka_Public\ntransfer A B\nattack store_raid\n", 1, 1),
    ("setup A\nfund A 1000\nattack store_raid\ntransfer A B\n", 2, 0),
    # a run that leaves every prefix stages the rest afresh
    ("setup A\nfund A 500\ntransfer A B\nredeem B ext 500\n" + ALL_ATTACKS, 1 + 6, 0),
    ("setup A\nfund A 1000\ntransfer A C\nredeem C ext 1000\n" + ALL_ATTACKS, 1 + 4, 2),
], ids=["attack-first", "attack-after", "holdings-check-between", "attack-between",
        "fund-500", "transfer-A-C"])
def test_each_attack_is_forked_where_the_run_passes_its_prefix(text, setups, forks):
    with counting("setup", "fork") as calls:
        result = run_scenario(parse_scenario(text, seed=5))
    assert result.ok and judged_alone(result, seed=5)
    assert calls == {"setup": setups, **({"fork": forks} if forks else {})}


def test_a_run_that_fails_before_an_attack_line_has_no_verdict_for_it():
    # the run passes `transferred`, so store_raid is judged, but its line is never reached
    text = ("setup A\nfund A 1000\ntransfer A B\nattack token_replay\n"
            "redeem B ext 1000\nredeem B ext 1000\nattack store_raid\n")
    with counting("fork") as calls:
        result = run_scenario(parse_scenario(text))
    assert not result.ok and calls == {"fork": 2}
    assert list(result.verdicts) == ["token_replay"] and judged_alone(result)
    assert "store_raid" not in result.output


# the prefix commands and their diverging variants, and the lines that name an attack
STEPS = ("setup A", "fund A 1000", "fund A 500", "transfer A B", "transfer A C", "redeem B ext 1000")
ATTACK_LINES = st.sampled_from(SCENARIOS).flatmap(
    lambda name: st.sampled_from([f"attack {name}", f"expect-verdict {name} true",
                                  f"expect-verdict {name} false"]))
@st.composite
def placed_scripts(draw):
    """Script lines: the prefix steps in order, each maybe its variant and cut
    short anywhere, then a random tail that may fail; and attack lines at
    random positions."""
    steps = ["setup A", draw(st.sampled_from(STEPS[1:3])), draw(st.sampled_from(STEPS[3:5])), STEPS[5]]
    lines = steps[:draw(st.integers(0, 4))] + draw(st.lists(st.sampled_from(STEPS), max_size=2))
    for attack in draw(st.lists(ATTACK_LINES, max_size=6)):
        lines.insert(draw(st.integers(0, len(lines))), attack)
    return lines


def reached(lines, mode, seed):
    """The lines a run reaches: all, or those up to the step that fails."""
    sim = Simulation(mode=mode, seed=seed, record=False)
    for n, line in enumerate(lines):
        if not line.startswith(("attack", "expect-verdict")):
            try:
                run_commands(sim, [parse_scenario(line).commands[0]])
            except (ProtocolError, StoreError, LedgerError, CryptoError):
                return lines[:n]
    return lines


@settings(max_examples=60, deadline=None)
@given(lines=placed_scripts(), mode=st.sampled_from(MODES), seed=st.integers(0, 2))
def test_every_verdict_wherever_its_line_sits_is_the_attack_alone(lines, mode, seed):
    result = run_scenario(parse_scenario("".join(f"{line}\n" for line in lines), seed=seed, mode=mode),
                          quiet=True)
    names = {line.split()[1] for line in reached(lines, mode, seed)
             if line.startswith(("attack", "expect-verdict"))}
    assert set(result.verdicts) == names
    for name, verdict in result.verdicts.items():
        assert verdict == alone(name, mode, seed), name


@functools.cache
def alone(name, mode, seed):
    return run_attack(name, mode, "symbolic", seed)


def test_no_fork_outlives_the_script_run():
    forks = []
    original = Simulation.fork

    def fork(self):
        twin = original(self)
        forks.append(weakref.ref(twin))
        return twin

    text = (SCENARIOS_DIR / "cryptocubic.scen").read_text(encoding="utf-8")
    with mock.patch.object(Simulation, "fork", fork):
        result = run_scenario(parse_scenario(text, backend="concrete"))
    assert result.ok
    assert len(forks) == 6 and [alive() for alive in forks] == [None] * 6


class Watched(tuple):
    """A script command that counts the times it is compared."""
    compared = Counter()

    def __eq__(self, other):
        Watched.compared[self] += 1
        return tuple.__eq__(self, other)

    __hash__ = tuple.__hash__


def test_tracking_stops_at_the_first_command_that_leaves_every_prefix():
    script = parse_scenario(bounce_script(40) + "attack wiretap_passive\n")
    script.commands = [Watched(command) for command in script.commands]
    Watched.compared.clear()
    assert run_scenario(script).ok
    # the second transfer, `transfer B A`, is no prefix's fourth command
    assert set(Watched.compared) == set(script.commands[:4])


def test_a_script_with_no_attack_forks_nothing():
    with counting("fork") as calls:
        assert run_scenario(parse_scenario(bounce_script(40))).ok
    assert calls == {}


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
    # one fork has its slots raided and, in baseline3, its square spent;
    # another goes through the redemption and is wiretapped
    assert run_attack("post_transfer_grab", mode, "concrete", 3, forked.fork()) == run_attack(
        "post_transfer_grab", mode, "concrete", 3)
    twin = forked.fork()
    run_commands(twin, REDEEMED[len(TRANSFERRED):])
    assert run_attack("wiretap_passive", mode, "concrete", 3, twin) == run_attack(
        "wiretap_passive", mode, "concrete", 3)
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
