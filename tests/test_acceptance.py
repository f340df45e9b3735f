"""Top-level acceptance checks, one test per shipped guarantee.

Each test prints a single PASS/FAIL line naming the guarantee it covers, so
a verbose run reads as a checklist.  Everything here is also covered in
finer grain by the per-module suites.
"""
import functools
import hashlib
import pathlib
import random

import pytest

from canonical_tables import EXPECTED, diff_step
from test_adversary import random_knowledge
from cryptocubic.adversary import (
    SCENARIOS,
    can_spend,
    closure,
    replay_witness,
    run_attack,
    snapshot_knowledge,
    take_all_slots,
    verdict_report,
    wiretap_knowledge,
)
from cryptocubic.backend import get_backend
from cryptocubic.protocol import SERVER, AuthFailure, Simulation
from cryptocubic.scenario import parse_scenario, run_scenario
from cryptocubic.store import DestructiveStore, SlotEmpty, ValueMismatch, replay_journal

MODES = ("baseline3", "bare4", "cryptocubic")
SCENARIOS_DIR = pathlib.Path("scenarios")
GOLDEN_DIR = SCENARIOS_DIR / "golden"


def criterion(name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL {name}")
                raise
            print(f"PASS {name}")

        return wrapper

    return deco


def canonical_sim(mode, backend="symbolic", redeem=True):
    sim = Simulation(mode=mode, backend=backend, seed=0)
    sim.setup("a")
    sim.fund("a", 1000)
    sim.transfer("a", "b")
    if redeem:
        sim.redeem("b", "ext", 1000)
    return sim


def bundled_run(mode, backend="symbolic"):
    text = (SCENARIOS_DIR / f"{mode}.scen").read_text()
    return run_scenario(parse_scenario(text, mode=mode, backend=backend))


@criterion("trace fidelity: canonical runs match the golden transcripts byte for byte")
def test_trace_fidelity():
    for mode in MODES:
        # step-by-step against the hand-written holdings tables
        sim = canonical_sim(mode)
        assert len(sim.events) == len(EXPECTED[mode])
        for expected, event in zip(EXPECTED[mode], sim.events):
            diffs = diff_step(expected, event)
            assert not diffs, f"{mode} step {event.step}: {diffs}"
        # and byte-exact against the stored transcript
        result = bundled_run(mode)
        assert result.ok, result.failures
        golden = (GOLDEN_DIR / f"{mode}.txt").read_text()
        assert result.output == golden, f"{mode} transcript drifted"


@criterion("security oracle: no modeled coalition can spend in the hardened mode")
def test_security_oracle_hardened_mode():
    sim = canonical_sim("cryptocubic")
    bundle_id = next(iter(sim.squares.values())).bundle.bundle_id
    labels = [event.label for event in sim.events]
    transfer_done = labels.index(
        "the transfer is complete; the square now belongs to user B"
    )
    for i, rec in enumerate(sim.step_records):
        assert not can_spend(rec.knowledge[SERVER], bundle_id).possible, f"step {i + 1}"
        if i >= transfer_done:
            coalition = set(rec.knowledge[SERVER]) | set(rec.knowledge["USER_A"])
            assert not can_spend(coalition, bundle_id).possible, f"step {i + 1}"
    assert not can_spend(wiretap_knowledge(sim), bundle_id).possible
    for scenario in SCENARIOS:
        verdict = run_attack(scenario, mode="cryptocubic")
        assert verdict.can_spend is False, scenario


@criterion("security contrast: the plaintext mode's grab attack moves real money")
def test_security_contrast_plaintext_mode():
    verdict = run_attack("post_transfer_grab", mode="baseline3")
    assert verdict.can_spend is True
    assert verdict.witness
    # replay the witness by hand and watch the chain accept it
    sim = Simulation(mode="baseline3", seed=0)
    square_id = sim.setup("a")
    sim.fund("a", 1000)
    sim.transfer("a", "b")
    knowledge = snapshot_knowledge(sim, "USER_A") | take_all_slots(sim)
    decision = can_spend(knowledge, sim.squares[square_id].bundle.bundle_id)
    assert decision.possible
    replay_witness(sim, decision, square_id, "grab_sink", 1000)
    assert sim.ledger.balance("grab_sink") == 1000


@criterion("liveness: the owner redeems exactly once, nobody else at all")
def test_legitimate_path_liveness():
    sim = canonical_sim("cryptocubic", redeem=False)
    square = next(iter(sim.squares.values()))
    assert sim.ledger.balance(square.address_value) == 1000
    supply = sim.ledger.total_supply()
    # the former owner is refused while the square still holds the money
    with pytest.raises(AuthFailure):
        sim.redeem("a", "ext", 1000)
    sim.redeem("b", "ext", 1000)
    assert sim.ledger.balance("ext") == 1000
    assert sim.ledger.balance(square.address_value) == 0
    assert sim.ledger.total_supply() == supply
    assert not sim.store.ping(square.slot_id)
    # a drained square refuses everyone before any message is sent
    for letter in "ab":
        with pytest.raises(SlotEmpty):
            sim.redeem(letter, "ext", 1000)


@pytest.mark.usefixtures("opened_stores")
@criterion("destructive store: one payout per fill, tamper-proof refills, inert pings")
def test_destructive_store_properties(tmp_path):
    def digest(value):
        return hashlib.sha256(repr(value).encode()).digest()

    rng = random.Random(99)
    journal = str(tmp_path / "store.journal")
    store = DestructiveStore(digest, journal_path=journal)
    cap = store.grant_source(["s"])
    for trial in range(10_000):
        store.insert(cap, "s", trial)
        fills, takes = 1, 0
        for _ in range(rng.randint(1, 4)):
            roll = rng.random()
            if roll < 0.5:
                try:
                    got, _permit = store.take("s")
                    assert got == trial
                    takes += 1
                except SlotEmpty:
                    pass
            elif roll < 0.8:
                store.ping("s")
            else:
                try:
                    store.insert(cap, "s", trial)
                    fills += 1
                except Exception:
                    pass
        try:
            store.take("s")
            takes += 1
        except SlotEmpty:
            pass
        assert takes == fills

    for _ in range(50):
        value = bytes(rng.randrange(256) for _ in range(16))
        store.insert(cap, "s", value)
        taken, permit = store.take("s")
        mutated = bytearray(taken)
        mutated[rng.randrange(16)] ^= 1 + rng.randrange(255)
        with pytest.raises(ValueMismatch):
            store.reinsert(permit, bytes(mutated))
        store.reinsert(permit, taken)
        store.take("s")

    store.insert(cap, "s", b"resting")
    before = replay_journal(journal)
    for _ in range(100):
        store.ping("s")
    # pings write no journal record and leave the value in place
    assert replay_journal(journal) == before
    assert store.take("s")[0] == b"resting"


@criterion("abort correctness: failed transfers restore the slot and retry cleanly")
def test_abort_correctness():
    for fault in ("wrong_key", "timeout"):
        sim = Simulation(mode="cryptocubic", seed=0)
        sim.setup("a")
        sim.fund("a", 1000)
        if fault == "wrong_key":
            sim.inject_wrong_ka = True
        else:
            sim.user("a").silent = True
        session = sim.transfer("a", "b")
        assert session.phase == "aborted", fault
        square = next(iter(sim.squares.values()))
        assert sim.store.ping(square.slot_id), fault
        assert square.owner_party == "USER_A", fault
        sim.inject_wrong_ka = False
        sim.user("a").silent = False
        retry = sim.transfer("a", "b")
        assert retry.phase == "completed", fault
        assert square.owner_party == "USER_B", fault


@criterion("crypto properties: round trips, key agreement, hashing, closure idempotence")
def test_crypto_properties():
    for backend_name in ("symbolic", "concrete"):
        be = get_backend(backend_name)
        rng = random.Random(5)
        pair = be.gen_asym_pair(rng)
        sym = be.gen_sym_key(rng)
        for _ in range(100):
            plaintext = bytes(rng.randrange(256) for _ in range(rng.randint(1, 64)))
            assert be.asym_decrypt(pair.private, be.asym_encrypt(pair.public, plaintext, rng)) == plaintext
            assert be.sym_decrypt(sym, be.sym_encrypt(sym, plaintext, rng)) == plaintext
        other = be.gen_asym_pair(rng)
        cypher = be.asym_encrypt(pair.public, b"payload", rng)
        assert be.matches(pair.private, pair.public)
        assert not be.matches(other.private, pair.public)
        seen = set()
        for i in range(1000):
            blob = f"input {i}".encode()
            assert be.hash_value(blob).value == be.hash_value(blob).value
            seen.add(be.hash_value(blob).value)
        assert len(seen) == 1000
    rng = random.Random(6)
    for _ in range(500):
        start = random_knowledge(rng)
        once = frozenset(closure(start))
        assert frozenset(closure(once)) == once


@criterion("backend equivalence: symbolic and concrete runs are indistinguishable")
def test_backend_equivalence():
    for mode in MODES:
        symbolic = bundled_run(mode, "symbolic")
        concrete = bundled_run(mode, "concrete")
        assert symbolic.ok and concrete.ok
        assert symbolic.output == concrete.output, mode
        golden_verdicts = (GOLDEN_DIR / f"verdicts_{mode}.txt").read_text()
        for backend in ("symbolic", "concrete"):
            verdicts = [run_attack(s, mode=mode, backend=backend) for s in SCENARIOS]
            assert verdict_report(verdicts) == golden_verdicts, (mode, backend)
