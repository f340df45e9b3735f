"""Per-step emission reuses what did not change.

The table observer (`trace.Tables`) reuses each party's memory items while
neither the party nor the ledger has moved since they were built, and
`Simulation._record` each party's knowledge snapshot while its memory is
unchanged.  These tests compare every emitted table and
step record with a from-scratch recomputation over random operation
sequences, check each party's count of names holding a signing key against
its memory at every step, check that emitted columns and snapshots are never
mutated afterwards, and bound how the per-step work, the square lookup's
included, grows with the length of a run, recorded or not.
"""
import gc
import sys
import weakref
from collections import Counter
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import dropped_link, interposed, lost_requests, wrong_private_key
from cryptocubic import adversary, backend, parties, protocol, trace
from cryptocubic.adversary import SCENARIOS, counterfeit_handover, run_attack
from cryptocubic.backend import Address, CryptoError, term_of
from cryptocubic.ledger import LedgerError
from cryptocubic.parties import TransportFailure
from cryptocubic.protocol import MODES, SERVER, ProtocolError, Simulation
from cryptocubic.scenario import parse_scenario, run_scenario
from cryptocubic.store import StoreError
from cryptocubic.terms import SigningKeyTerm
from cryptocubic.trace import Tables, format_money

DOMAIN_ERRORS = (ProtocolError, StoreError, LedgerError, CryptoError, TransportFailure)
USERS = "abc"


# ---------------------------------------------------------------------------
# from-scratch reference of one emitted step


def reference_annotation(sim, name, value):
    if isinstance(value, Address):
        try:
            balance = sim.ledger.balance(value.value)
        except LedgerError:
            balance = 0
        if balance > 0:
            return f"{name} ({format_money(balance)})"
    return name


def reference_column(sim, party, handoff):
    items = []
    pending = set()
    for proc in party.procedures:
        rendered = f"<{','.join(proc.bindings)}>"
        if handoff is not None and proc is handoff[0]:
            rendered += f" -- [{handoff[1]}]"
            pending.add(handoff[1])
        items.append(rendered)
    if party is sim.server:
        for square in sim.squares.values():
            slot_id, display = square.slot_id, square.slot_display
            if display not in pending and sim.store.ping(slot_id):
                items.append(f"[{display}]")
    for name, value in party.memory.items():
        items.append(reference_annotation(sim, name, value))
    return items


def reference_step(sim, handoff):
    server, *users = sim.parties  # the first user, then the server, then the other users
    columns = {
        name: reference_column(sim, sim.parties[name], handoff) for name in [*users[:1], server, *users[1:]]
    }
    knowledge = {
        name: frozenset(term_of(v) for v in party.memory.values())
        for name, party in sim.parties.items()
    }
    slot_terms = {}
    for slot_id in (square.slot_id for square in sim.squares.values()):
        value = sim.store._slots[slot_id].value
        slot_terms[slot_id] = term_of(value) if value is not None else None
    return columns, knowledge, slot_terms


class CheckedSimulation(Simulation):
    """Checks every emitted step against `reference_step` as it is emitted,
    and keeps copies of what it emitted for `check_unmutated`."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.emitted = []

    def _emit(self, label, handoff=None):
        columns, knowledge, slot_terms = reference_step(self, handoff)
        super()._emit(label, handoff)
        event, record = self.events[-1], self.step_records[-1]
        assert list(event.columns) == list(columns), label
        assert event.columns == columns, label
        assert record.knowledge == knowledge, label
        assert record.slot_terms == slot_terms, label
        for party in self.parties.values():
            kinds = Counter(type(term_of(value)) for value in party.memory.values())
            assert party.signing_keys == kinds[SigningKeyTerm], (label, party.name)
        self.emitted.append(
            ({name: list(items) for name, items in columns.items()}, dict(knowledge))
        )

    def check_unmutated(self):
        assert len(self.emitted) == len(self.events)
        for (columns, knowledge), event, record in zip(
            self.emitted, self.events, self.step_records
        ):
            assert event.columns == columns
            assert record.knowledge == knowledge


# ---------------------------------------------------------------------------
# random operation sequences

user = st.sampled_from(USERS)
operations = st.one_of(
    st.tuples(st.just("setup"), user),
    st.tuples(st.just("setup_link_drop"), user, st.integers(0, 1)),
    st.tuples(st.just("fund"), user, st.integers(1, 2000)),
    st.tuples(st.just("transfer"), user, user),
    st.tuples(st.just("transfer_timeout"), user, user, st.booleans()),
    st.tuples(st.just("transfer_wrong_ka"), user, user),
    st.tuples(st.just("transfer_counterfeit"), user, user),
    st.tuples(st.just("redeem"), user, st.integers(1, 2000)),
)


def execute(sim, op):
    kind, *args = op
    if kind == "setup":
        sim.setup(args[0])
    elif kind == "setup_link_drop":
        with dropped_link(sim, args[1]):
            sim.setup(args[0])
    elif kind == "fund":
        sim.fund(args[0], args[1])
    elif kind == "transfer":
        sim.transfer(args[0], args[1])
    elif kind == "transfer_timeout":
        # a sender that never answers times out at the key request, a
        # receiver at its challenge
        with lost_requests(sim, args[0] if args[2] else args[1]):
            sim.transfer(args[0], args[1])
    elif kind == "transfer_wrong_ka":
        with wrong_private_key(sim):
            sim.transfer(args[0], args[1])
    elif kind == "transfer_counterfeit":
        with interposed(sim, counterfeit_handover(sim)):
            sim.transfer(args[0], args[1])
    elif kind == "redeem":
        sim.redeem(args[0], "ext", args[1])


def run_sequence(sim, ops):
    for op in ops:
        try:
            execute(sim, op)
        except DOMAIN_ERRORS:
            pass
    sim.check_unmutated()


@settings(max_examples=60, deadline=None)
@given(
    mode=st.sampled_from(MODES),
    seed=st.integers(0, 3),
    ops=st.lists(operations, max_size=14),
)
def test_emitted_steps_match_a_recomputation(mode, seed, ops):
    sim = CheckedSimulation(mode=mode, seed=seed)
    sim.setup("a")
    sim.fund("a", 1000)
    run_sequence(sim, ops)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    mode=st.sampled_from(MODES),
    scenario=st.sampled_from(SCENARIOS),
    ops=st.lists(operations, max_size=6),
)
def test_attack_stagings_match_a_recomputation(mode, scenario, ops):
    # the stagings take slots and spend on the ledger between steps; every
    # step they emit is checked, and so is every step of the operations
    # that continue on each staged run afterwards.  A staged run keeps no
    # tables, so this one is made to keep them.
    staged = []

    def checked(*args, **kwargs):
        sim = CheckedSimulation(*args, **{**kwargs, "record": True})
        staged.append(sim)
        return sim

    with mock.patch.object(adversary, "Simulation", checked):
        run_attack(scenario, mode=mode)
    assert staged
    for sim in staged:
        run_sequence(sim, ops)


@pytest.mark.parametrize("mode", ["bare4", "cryptocubic"])
def test_rollback_restores_columns_and_snapshots(mode):
    sim = CheckedSimulation(mode=mode)
    sim.setup("a")
    sim.fund("a", 1000)
    sim.user("b")
    before = {name: party.snapshot() for name, party in sim.parties.items()}
    for after in (0, 1):
        with dropped_link(sim, after), pytest.raises(TransportFailure):
            sim.setup("b")
        # every party is scrubbed back to its memory before the attempt
        assert {name: party.snapshot() for name, party in sim.parties.items()} == before
    sim.transfer("a", "b")
    sim.check_unmutated()


@pytest.mark.parametrize("mode", MODES)
def test_rollback_leaves_bystanders_alone(mode):
    # only the user being set up and the server can change during a setup
    sim = CheckedSimulation(mode=mode)
    sim.setup("a")
    sim.fund("a", 1000)
    sim.transfer("a", "b")
    b = sim.user("b")
    snapshot, column = b.snapshot(), sim.events[-1].columns["USER_B"]
    with dropped_link(sim, 0), pytest.raises(TransportFailure):
        sim.setup("c")
    assert b.snapshot() is snapshot
    assert sim.events[-1].columns["USER_B"] is column
    sim.check_unmutated()


def test_failed_first_setup_leaves_no_column():
    # a user whom only the failed setup added leaves after the rollback
    # table, which still shows the emptied column; a later setup adds it last
    sim = CheckedSimulation(mode="cryptocubic")
    sim.setup("a")
    sim.fund("a", 1000)
    with dropped_link(sim, 0), pytest.raises(TransportFailure):
        sim.setup("c")
    assert sim.events[-1].columns["USER_C"] == []
    sim.transfer("a", "b")
    assert list(sim.events[-1].columns) == ["USER_A", SERVER, "USER_B"]
    sim.setup("c")
    assert list(sim.events[-1].columns) == ["USER_A", SERVER, "USER_B", "USER_C"]
    sim.check_unmutated()


@pytest.mark.parametrize("mode", MODES)
def test_failed_first_setup_frees_its_user(mode):
    # no per-party memo keeps alive the user that a rolled-back setup removed
    sim = Simulation(mode=mode)
    user = []

    def drop_payload(msg):
        if msg.msg_type != "square_payload":
            return msg
        user.append(weakref.ref(sim.parties["USER_A"]))
        return None

    with interposed(sim, drop_payload), pytest.raises(TransportFailure):
        sim.setup("a")
    assert list(sim.parties) == [SERVER]
    gc.collect()
    assert user[0]() is None


def test_memory_changes_between_two_steps_keep_the_column_order():
    sim = CheckedSimulation(mode="cryptocubic")
    sim.setup("a")
    server = sim.server
    ks = server.recall("Ks")
    # a name that leaves memory and comes back moves to the end
    server.forget("Ks")
    server.remember("Ks", ks)
    sim._emit("the server files its symmetric key again")
    assert sim.events[-1].columns[SERVER][-1] == "Ks"
    # overwriting in place keeps the position
    first = next(iter(server.memory))
    server.remember(first, server.recall(first))
    server.forget("Ks")
    sim._emit("the server drops its symmetric key")
    # a restore may reorder everything
    server.restore(dict(reversed(list(server.memory.items()))))
    sim._emit("the server's memory is restored in reverse")
    sim.check_unmutated()


def test_unchanged_parties_share_their_snapshot_and_column():
    sim = Simulation(mode="cryptocubic")
    sim.setup("a")
    sim.fund("a", 1000)
    before, after = sim.step_records[-2], sim.step_records[-1]
    # funding changes no memory, only the address annotation
    assert after.knowledge["USER_A"] is before.knowledge["USER_A"]
    assert after.knowledge[SERVER] is before.knowledge[SERVER]
    assert sim.events[-1].columns["USER_A"] != sim.events[-2].columns["USER_A"]
    sim.user("b")
    sim._emit("user B appears")
    sim._emit("nothing changes")
    last, previous = sim.events[-1].columns, sim.events[-2].columns
    assert last["USER_A"] is previous["USER_A"]
    assert sim.user("a").snapshot() is sim.step_records[-1].knowledge["USER_A"]
    # a server column, knowledge map or slot map the step left alone is the last step's
    assert last[SERVER] is previous[SERVER]
    record, earlier = sim.step_records[-1], sim.step_records[-2]
    assert record.knowledge is earlier.knowledge and record.slot_terms is earlier.slot_terms
    assert after.knowledge is before.knowledge and after.slot_terms is before.slot_terms


def test_a_snapshot_changes_only_when_a_term_enters_or_leaves():
    sim = Simulation(mode="cryptocubic")
    sim.setup("a")
    a = sim.user("a")
    held = a.snapshot()
    a.remember("ADD_again", a.recall("ADD"))  # a new name for a held term
    assert a.snapshot() is held
    a.forget("ADD_again")  # ADD still holds the term
    assert a.snapshot() is held
    a.remember("Note", b"fresh")
    entered = a.snapshot()
    assert entered is not held and entered == held | {term_of(b"fresh")}
    a.forget("Note")
    assert a.snapshot() is not entered and a.snapshot() == held
    address = term_of(a.recall("ADD"))
    a.remember("ADD", b"fresh")  # under one name, the address leaves and the blob enters
    assert a.snapshot() == held - {address} | {term_of(b"fresh")}


@pytest.mark.parametrize("mode", ["bare4", "cryptocubic"])
def test_remembering_the_object_a_name_holds_changes_nothing(mode):
    sim = Simulation(mode=mode)
    sim.setup("a")
    sim.fund("a", 1000)
    sim.transfer("a", "b")
    # the transfer notice gives B the address object B already holds
    assert sim.step_records[-2].knowledge["USER_B"] is sim.step_records[-3].knowledge["USER_B"]
    assert sim.events[-2].columns["USER_B"] is sim.events[-3].columns["USER_B"]


# ---------------------------------------------------------------------------
# the signing-key leak check sees values changed since the last step


@pytest.mark.parametrize("record", [True, False])
@pytest.mark.parametrize("mode", MODES)
def test_resting_signing_key_fails_the_next_step(mode, record):
    # a run that keeps no tables, as a staged attack's, checks as well
    sim = Simulation(mode=mode, record=record)
    square_id = sim.setup("a")
    sim.fund("a", 1000)
    sim.transfer("a", "b")
    steps = len(sim.events)
    if not record:
        assert sim.events == [] and sim.step_records == []
    # only USER_B changes; every other party is as it was at the last step
    sim.user("b").remember("Leaked", sim.squares[square_id].bundle.sig_user)
    if mode == "baseline3":
        sim._emit("a bare signing key rests in user memory")
        sim._emit("and stays there")
        assert len(sim.events) == (steps + 2 if record else 0)
        return
    for _ in range(2):
        with pytest.raises(AssertionError, match=r"signing key in USER_B memory: \['Leaked'\]"):
            sim._emit("a bare signing key rests in user memory")
    sim.user("b").forget("Leaked")
    sim._emit("the key is gone again")


def test_overwriting_a_leaked_key_clears_the_check():
    sim = Simulation(mode="cryptocubic")
    square_id = sim.setup("a")
    sim.server.remember("Ks", sim.squares[square_id].bundle.sig_server)
    sim.server.remember("Ks", sim.squares[square_id].sym_key)
    sim._emit("the server key slot holds a symmetric key again")


# ---------------------------------------------------------------------------
# per-step work grows with what changed, not with the run so far


def bounce_script(n):
    lines = ["setup A", "fund A 1000"]
    lines += ["transfer A B" if i % 2 == 0 else "transfer B A" for i in range(n)]
    lines.append(f"redeem {'B' if n % 2 else 'A'} ext 1000")
    return "\n".join(lines) + "\n"


def count_emit_work(n, monkeypatch, record=True):
    counts = {"term_of": 0, "annotate": 0, "lookup": 0}

    def counting_term_of(value):
        counts["term_of"] += 1
        return term_of(value)

    def counting_annotate(ledger, name, value):
        counts["annotate"] += 1
        return annotate(ledger, name, value)

    def count_lines(frame, event, arg):
        counts["lookup"] += event == "line"
        return count_lines

    def traced_square_for(self, party_name):
        # every line run inside the square lookup and what it calls
        previous = sys.gettrace()
        sys.settrace(count_lines)
        try:
            return square_for(self, party_name)
        finally:
            sys.settrace(previous)

    annotate, square_for = trace._annotate, Simulation._square_for
    with monkeypatch.context() as patch:
        for module in (backend, parties, protocol):
            patch.setattr(module, "term_of", counting_term_of)
        patch.setattr(trace, "_annotate", counting_annotate)
        patch.setattr(Simulation, "_square_for", traced_square_for)
        script = parse_scenario(bounce_script(n), mode="cryptocubic", backend="symbolic")
        result = run_scenario(script, quiet=True, write=None if record else lambda chunk: None)
    assert result.ok, result.failures
    return counts


@pytest.mark.parametrize("record", [True, False])
def test_per_step_work_is_linear_in_run_length(monkeypatch, record):
    # an unrecorded run is what a staged attack or a quiet CLI run does
    short = count_emit_work(20, monkeypatch, record)
    long = count_emit_work(80, monkeypatch, record)
    for what in short:
        assert long[what] <= 5 * short[what], (what, short[what], long[what])


# ---------------------------------------------------------------------------
# a memory column is rebuilt only when a name went, an address was replaced
# or the ledger moved


def funded_and_empty_addresses():
    """User A holding a funded address and user B an empty one, in a run that
    builds no column of its own, and a table observer of the test's own."""
    sim = Simulation(mode="cryptocubic", record=False)
    sim.setup("a")
    sim.fund("a", 1000)
    sim.setup("b")
    return Tables(), sim, sim.user("a"), sim.user("b")


def memory_column(tables, sim, party):
    """The party's memory column, and how many addresses building it annotated."""
    with mock.patch.object(trace, "_annotate", side_effect=trace._annotate) as annotate:
        items = tables._memory_items(party, sim.ledger)
    assert items == [reference_annotation(sim, name, value) for name, value in party.memory.items()]
    return items, annotate.call_count


def test_a_value_replaced_under_a_name_reuses_the_memory_column():
    tables, sim, a, b = funded_and_empty_addresses()
    before, _ = memory_column(tables, sim, a)
    a.remember("Es", b.recall("Es"))
    a.remember("Ka", b.recall("Kb"))
    assert memory_column(tables, sim, a) == (before, 0)
    assert memory_column(tables, sim, a)[0] is before


def test_names_added_at_the_end_extend_a_copy_of_the_memory_column():
    tables, sim, a, b = funded_and_empty_addresses()
    before, _ = memory_column(tables, sim, a)
    kept = list(before)
    a.remember("Kb_Public", b.recall("Kb_Public"))
    a.remember("ADD_B", b.recall("ADD"))
    after, annotated = memory_column(tables, sim, a)
    assert after is not before and before == kept
    assert after[-2:] == ["Kb_Public", "ADD_B"]
    assert annotated == 1  # the added address alone


@pytest.mark.parametrize("change", [
    lambda sim, a, b: a.forget("Ka_Public"),
    lambda sim, a, b: a.remember("ADD", b.recall("ADD")),
    lambda sim, a, b: a.remember("Es", b.recall("ADD")),
    lambda sim, a, b: sim.fund("b", 500),
], ids=["forget", "address-replaced", "address-over-a-cypher", "ledger-move"])
def test_any_other_change_rebuilds_the_memory_column(change):
    tables, sim, a, b = funded_and_empty_addresses()
    before, _ = memory_column(tables, sim, a)
    kept = list(before)
    change(sim, a, b)
    after, annotated = memory_column(tables, sim, a)
    assert after is not before and before == kept
    # every address the column shows is annotated again
    assert annotated == sum(type(value) is Address for value in a.memory.values())


def test_a_bounce_annotates_only_addresses_that_came_or_moved():
    sim = Simulation(mode="cryptocubic")
    with mock.patch.object(trace, "_annotate", side_effect=trace._annotate) as annotate:
        sim.setup("A")
        sim.fund("A", 1000)
        for sender, receiver in ["AB", "BA"] * 20:
            sim.transfer(sender, receiver)
    # rebuilding each column at every memory change annotates 205 times
    assert annotate.call_count == 3
