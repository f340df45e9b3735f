"""Full protocol runs checked step by step against hand-written holdings
tables, plus fault injection, abort recovery, races, and mode contrasts."""
import pytest

from canonical_tables import EXPECTED, diff_step
from cryptocubic.backend import KeyMismatch
from cryptocubic.ledger import InsufficientFunds
from cryptocubic.parties import TransportFailure
from cryptocubic.protocol import (
    SERVER,
    AuthFailure,
    NotOwner,
    ProtocolError,
    Simulation,
    SquareDrained,
    TransferSession,
    UnknownSquare,
)
from cryptocubic.store import SlotEmpty
from cryptocubic.terms import SigningKeyTerm

MODES = ["baseline3", "bare4", "cryptocubic"]


def canonical_run(mode, backend="symbolic", redeem=True):
    sim = Simulation(mode=mode, backend=backend, seed=0)
    sim.setup("a")
    sim.fund("a", 1000)
    sim.transfer("a", "b")
    if redeem:
        sim.redeem("b", "ext", 1000)
    return sim


class TestCanonicalRuns:
    @pytest.mark.parametrize("mode", MODES)
    def test_step_count(self, mode, backend):
        sim = canonical_run(mode, backend)
        assert len(sim.events) == len(EXPECTED[mode])

    @pytest.mark.parametrize("mode", MODES)
    def test_every_table_matches_oracle(self, mode, backend):
        sim = canonical_run(mode, backend)
        for expected, event in zip(EXPECTED[mode], sim.events):
            diffs = diff_step(expected, event)
            assert not diffs, f"step {event.step} ({event.label}): {diffs}"

    @pytest.mark.parametrize("mode", MODES)
    def test_money_arrives(self, mode):
        sim = canonical_run(mode)
        square = next(iter(sim.squares.values()))
        assert sim.ledger.balance("ext") == 1000
        assert sim.ledger.balance(square.address_value) == 0

    @pytest.mark.parametrize("mode", ["bare4", "cryptocubic"])
    def test_ownership_moves_to_receiver(self, mode):
        sim = canonical_run(mode, redeem=False)
        square = next(iter(sim.squares.values()))
        assert square.owner_party == "USER_B"

    def test_plaintext_mode_never_rotates_ownership(self):
        # the handover copies the signing key; the server-side record still
        # points at the original user, so nothing stops a second handover
        sim = canonical_run("baseline3", redeem=False)
        square = next(iter(sim.squares.values()))
        assert square.owner_party == "USER_A"
        assert sim.transfer("a", "c").phase == "completed"

    def test_empty_run_renders_nothing(self):
        sim = Simulation()
        assert sim.render() == ""
        assert sim.step_records == []


class TestFaultInjection:
    def test_wrong_private_key_aborts_and_recovers(self):
        sim = canonical_run("cryptocubic", redeem=False)
        # leave the square with B, then sabotage B's next key disclosure
        square = next(iter(sim.squares.values()))
        takes_before = sim.store.history(square.slot_id)["takes"]
        sim.inject_wrong_ka = True
        session = sim.transfer("b", "c")
        assert session.phase == "aborted"
        assert session.abort_reason == "ka_mismatch"
        assert square.owner_party == "USER_B"
        history = sim.store.history(square.slot_id)
        assert history["takes"] == takes_before + 1
        assert history["reinserts"] == 1
        # honest retry goes through against the restored slot
        sim.inject_wrong_ka = False
        retry = sim.transfer("b", "c")
        assert retry.phase == "completed"
        assert square.owner_party == "USER_C"
        sim.redeem("c", "ext", 1000)
        assert sim.ledger.balance("ext") == 1000

    @pytest.mark.parametrize("mode", ["bare4", "cryptocubic"])
    def test_sender_timeout_aborts_and_restores_slot(self, mode):
        sim = Simulation(mode=mode)
        sim.setup("a")
        sim.fund("a", 1000)
        sim.user("a").silent = True
        session = sim.transfer("a", "b")
        assert session.phase == "aborted"
        assert session.abort_reason == "timeout"
        square = next(iter(sim.squares.values()))
        assert sim.store.history(square.slot_id)["reinserts"] == 1
        assert square.owner_party == "USER_A"
        sim.user("a").silent = False
        assert sim.transfer("a", "b").phase == "completed"

    def test_receiver_timeout_aborts_during_challenge(self):
        sim = Simulation(mode="cryptocubic")
        sim.setup("a")
        sim.fund("a", 1000)
        sim.user("b").silent = True
        session = sim.transfer("a", "b")
        assert session.phase == "aborted"
        assert session.abort_reason == "receiver auth failed: timeout"
        square = next(iter(sim.squares.values()))
        assert sim.store.history(square.slot_id)["reinserts"] == 1

    def test_counterfeit_handover_caught_by_hash_check(self):
        sim = Simulation(mode="cryptocubic")
        sim.setup("a")
        sim.fund("a", 1000)
        sim.inject_counterfeit_es = True
        session = sim.transfer("a", "b")
        assert session.phase == "aborted"
        assert session.abort_reason == "counterfeit es"
        square = next(iter(sim.squares.values()))
        assert square.owner_party == "USER_A"
        assert sim.store.history(square.slot_id)["reinserts"] == 1
        sim.inject_counterfeit_es = False
        assert sim.transfer("a", "b").phase == "completed"

    def test_counterfeit_handover_sails_through_without_hash_check(self):
        # the unauthenticated variant accepts the fake; this is the gap the
        # hash comparison closes
        sim = Simulation(mode="bare4")
        sim.setup("a")
        sim.fund("a", 1000)
        sim.inject_counterfeit_es = True
        session = sim.transfer("a", "b")
        assert session.phase == "completed"

    @pytest.mark.parametrize("mode", ["bare4", "cryptocubic"])
    def test_dropped_second_setup_keeps_the_first_key_pair(self, mode):
        sim = Simulation(mode=mode)
        sim.setup("a")
        sim.fund("a", 1000)
        sim.transport.fail_next = True
        with pytest.raises(TransportFailure):
            sim.setup("a")
        # the rollback restored A's first key pair, which still opens the square
        assert sim.transfer("a", "b").phase == "completed"
        sim.redeem("b", "ext", 1000)
        assert sim.ledger.balance("ext") == 1000

    @pytest.mark.parametrize("mode", MODES)
    def test_each_square_is_checked_against_its_own_hash(self, mode, backend):
        # C's later setup must not change what A's transfer is checked against
        sim = Simulation(mode=mode, backend=backend)
        sim.setup("a")
        sim.setup("c")
        sim.fund("a", 1000)
        sim.fund("c", 500)
        assert sim.transfer("a", "b").phase == "completed"
        sim.redeem("b", "ext", 1000)
        sim.redeem("c", "ext", 500)
        assert sim.ledger.balance("ext") == 1500
        slots = list(sim.step_records[-1].slot_terms)
        assert [slot.split(".")[0] for slot in slots] == ["sq1", "sq2"]

    def test_challenge_failure_reasons(self):
        sim = canonical_run("cryptocubic", redeem=False)
        square = next(iter(sim.squares.values()))
        finished = sim.server.recall("Token_B2")
        for reply, reason in [
            (finished, "token replay"),
            (sim.backend.gen_token(sim.rng), "token mismatch"),
        ]:
            session = TransferSession(99, square.square_id, "USER_B", "USER_B")
            assert sim._run_challenge(
                sim.user("b"), square.owner_pub, session, single_table=True, reply_override=reply
            ) == (False, reason)

    def test_plaintext_handover_ignores_a_counterfeit(self):
        sim = Simulation(mode="baseline3")
        sim.setup("a")
        sim.fund("a", 1000)
        sim.inject_counterfeit_es = True
        assert sim.transfer("a", "b").phase == "completed"
        square = next(iter(sim.squares.values()))
        assert sim.user("b").recall("Sig_U").term == square.bundle.sig_user.term

    @pytest.mark.parametrize("inject", ["inject_wrong_ka", "inject_counterfeit_es"])
    def test_aborts_leave_no_live_scopes(self, inject):
        sim = Simulation(mode="cryptocubic")
        sim.setup("a")
        sim.fund("a", 1000)
        setattr(sim, inject, True)
        session = sim.transfer("a", "b")
        assert session.phase == "aborted"
        assert all(not p.procedures for p in sim.parties.values())


class TestOwnership:
    def test_only_owner_may_start_a_transfer(self):
        sim = canonical_run("cryptocubic", redeem=False)
        with pytest.raises(NotOwner):
            sim.transfer("a", "c")

    def test_transfer_from_square_less_party(self):
        sim = Simulation(mode="cryptocubic")
        sim.setup("a")
        with pytest.raises(UnknownSquare):
            sim.transfer("c", "b")

    def test_chain_of_transfers(self):
        sim = Simulation(mode="cryptocubic")
        sim.setup("a")
        sim.fund("a", 700)
        square = next(iter(sim.squares.values()))
        for sender, receiver in [("a", "b"), ("b", "c"), ("c", "d")]:
            assert sim.transfer(sender, receiver).phase == "completed"
        assert square.owner_party == "USER_D"
        sim.redeem("d", "ext", 700)
        assert sim.ledger.balance("ext") == 700

    @pytest.mark.parametrize("mode", MODES)
    def test_square_lookup_picks_the_earliest_established(self, mode):
        sim = Simulation(mode=mode)
        first, second = sim.setup("a"), sim.setup("b")
        c = sim.user("c")
        # C holds both addresses, the later square's first
        c.remember("ADD_later", sim.user("b").recall("ADD"))
        c.remember("ADD_earlier", sim.user("a").recall("ADD"))
        assert sim._square_for("USER_C") is sim.squares[first]
        c.forget("ADD_earlier")
        assert sim._square_for("USER_C") is sim.squares[second]
        c.forget("ADD_later")
        with pytest.raises(UnknownSquare):
            sim._square_for("USER_C")


    @pytest.mark.parametrize("mode", MODES)
    def test_refused_transfer_emits_nothing(self, mode):
        sim = canonical_run(mode, redeem=False)
        steps = len(sim.events)
        # ownership does not rotate in the plaintext mode
        non_owner = "b" if mode == "baseline3" else "a"
        with pytest.raises(NotOwner):
            sim.transfer(non_owner, "c")
        # a party the run has not met holds no square, and stays unmet
        with pytest.raises(UnknownSquare):
            sim.transfer("d", "b")
        with pytest.raises(UnknownSquare):
            sim.fund("d", 100)
        with pytest.raises(UnknownSquare):
            sim.redeem("d", "ext", 1)
        assert len(sim.events) == len(sim.step_records) == steps
        assert list(sim.parties) == [SERVER, "USER_A", "USER_B"]

    @pytest.mark.parametrize("mode", MODES)
    def test_self_transfer_is_refused_before_anything_emits(self, mode, backend):
        sim = Simulation(mode=mode, backend=backend)
        sim.setup("a")
        sim.fund("a", 1000)
        steps, sent = len(sim.events), len(sim.transport.transcript)
        with pytest.raises(ProtocolError, match="both user A"):
            sim.transfer("a", "a")
        assert len(sim.events) == len(sim.step_records) == steps
        assert len(sim.transport.transcript) == sent
        # the owner's key pair is intact, so the owner still redeems
        sim.redeem("a", "ext", 1000)
        assert sim.ledger.balance("ext") == 1000

    @pytest.mark.parametrize("mode", MODES)
    def test_second_meeting_is_not_an_encounter(self, mode):
        sim = Simulation(mode=mode)
        sim.setup("a")
        sim.fund("a", 1000)
        back = ("a", "b") if mode == "baseline3" else ("b", "a")
        for (sender, receiver), encounters in [(("a", "b"), 1), (back, 0)]:
            steps = len(sim.events)
            assert sim.transfer(sender, receiver).phase == "completed"
            labels = [event.label for event in sim.events[steps:]]
            assert sum("encounters" in label for label in labels) == encounters


class TestRace:
    def test_two_sessions_one_slot(self):
        sim = Simulation(mode="cryptocubic")
        sim.setup("a")
        sim.fund("a", 1000)
        first = sim.begin_transfer("a", "b")
        second = sim.begin_transfer("a", "c")
        sim.withdraw_for_transfer(first)
        sim.withdraw_for_transfer(second)
        assert second.phase == "aborted"
        assert second.abort_reason == "slot_empty"
        sim.authenticate_parties(first)
        sim.complete_transfer(first)
        assert first.phase == "completed"
        square = next(iter(sim.squares.values()))
        assert square.owner_party == "USER_B"
        sim.redeem("b", "ext", 1000)
        assert sim.ledger.balance("ext") == 1000


class TestRedemption:
    def test_former_owner_fails_authentication(self):
        sim = canonical_run("cryptocubic", redeem=False)
        square = next(iter(sim.squares.values()))
        takes_before = sim.store.history(square.slot_id)["takes"]
        with pytest.raises(AuthFailure):
            sim.redeem("a", "ext", 1000)
        # the failed challenge never reaches the slot
        assert sim.store.history(square.slot_id)["takes"] == takes_before
        sim.redeem("b", "ext", 1000)
        assert sim.ledger.balance("ext") == 1000

    @pytest.mark.parametrize("mode", MODES)
    def test_second_redeem_finds_slot_empty(self, mode):
        sim = canonical_run(mode)
        with pytest.raises(SlotEmpty):
            sim.redeem("b" if mode != "baseline3" else "b", "ext", 1)

    def test_overdraft_redeem_rejected(self):
        for mode in MODES:
            sim = canonical_run(mode, redeem=False)
            supply = sim.ledger.total_supply()
            with pytest.raises(InsufficientFunds):
                sim.redeem("b", "ext", 1001)
            square = next(iter(sim.squares.values()))
            assert sim.ledger.balance(square.address_value) == 1000
            assert sim.ledger.balance("ext") == 0
            # the failed spend puts back what the redemption took, and the
            # table that says so shows no scope left open
            assert sim.store.ping(square.slot_id), mode
            assert sim.store.history(square.slot_id)["reinserts"] == 1
            columns = sim.events[-1].columns.values()
            assert not [item for items in columns for item in items if item.startswith("<")]
            sim.redeem("b", "ext", 1000)
            assert sim.ledger.balance("ext") == 1000
            assert sim.ledger.total_supply() == supply

    @pytest.mark.parametrize("mode", MODES)
    def test_link_drop_after_the_take_returns_the_value(self, mode):
        sim = canonical_run(mode, redeem=False)
        square = next(iter(sim.squares.values()))
        send = sim.transport.send

        def dropping(msg):
            if msg.msg_type in ("take_payload", "redeem_payload"):
                sim.transport.fail_next = True
            return send(msg)

        sim.transport.send = dropping
        with pytest.raises(TransportFailure):
            sim.redeem("b", "ext", 1000)
        sim.transport.send = send
        assert sim.store.history(square.slot_id)["reinserts"] == 1
        sim.redeem("b", "ext", 1000)
        assert sim.ledger.balance("ext") == 1000

    def test_former_owner_leaves_the_cypher_in_bare4(self, backend):
        sim = canonical_run("bare4", backend, redeem=False)
        with pytest.raises(KeyMismatch):
            sim.redeem("a", "ext", 1000)
        sim.redeem("b", "ext", 1000)
        assert sim.ledger.balance("ext") == 1000

    @pytest.mark.parametrize("mode", MODES)
    def test_partial_redemption_leaves_the_rest_redeemable(self, mode):
        sim = Simulation(mode=mode)
        sim.setup("a")
        sim.fund("a", 1000)
        square = next(iter(sim.squares.values()))
        sim.redeem("a", "ext", 500)
        assert sim.store.ping(square.slot_id)
        sim.redeem("a", "ext", 500)
        assert not sim.store.ping(square.slot_id)
        assert sim.ledger.balance("ext") == 1000
        assert sim.store.history(square.slot_id)["reinserts"] == 1

    @pytest.mark.parametrize("mode", MODES)
    def test_fund_refuses_a_drained_square(self, mode, backend):
        # nothing can spend from a square whose slot a full redemption emptied
        sim = Simulation(mode=mode, backend=backend)
        sim.setup("a")
        sim.fund("a", 1000)
        sim.redeem("a", "ext", 1000)
        steps, supply = len(sim.events), sim.ledger.total_supply()
        square = next(iter(sim.squares.values()))
        with pytest.raises(SquareDrained):
            sim.fund("a", 500)
        assert len(sim.events) == steps
        assert sim.ledger.total_supply() == supply
        assert sim.ledger.balance(square.address_value) == 0

    def test_stale_token_replay_refused(self):
        sim = canonical_run("cryptocubic", redeem=False)
        replies = [m for m in sim.transport.transcript if m.msg_type == "challenge_reply"]
        assert replies
        stale = replies[-1].payload[0]
        assert sim.attempt_replay_auth(stale) is False
        # the legitimate owner is still able to answer a fresh challenge
        sim.redeem("b", "ext", 1000)
        assert sim.ledger.balance("ext") == 1000


class TestScopeHygiene:
    @pytest.mark.parametrize("mode", MODES)
    def test_no_scope_survives_the_run(self, mode):
        sim = canonical_run(mode)
        assert all(not p.procedures for p in sim.parties.values())

    @pytest.mark.parametrize("mode", ["bare4", "cryptocubic"])
    def test_bare_signing_keys_never_rest_in_memory(self, mode):
        # every resting value is a cypher or an unrelated key; the signing
        # keys exist in the clear only inside transient scopes
        sim = canonical_run(mode)
        for rec in sim.step_records:
            for party, terms in rec.knowledge.items():
                bare = [t for t in terms if isinstance(t, SigningKeyTerm)]
                assert not bare, f"{party} holds {bare} at step {rec.event.step}"

    def test_plaintext_mode_exposes_bare_signing_keys(self):
        # the insecure variant ends with both signing keys resting in user
        # memory, which is exactly the contrast the encrypted modes fix
        sim = canonical_run("baseline3")
        final = sim.step_records[-1].knowledge["USER_B"]
        assert any(isinstance(t, SigningKeyTerm) for t in final)


class TestServerResidue:
    def test_sender_key_retained_by_default(self):
        sim = canonical_run("cryptocubic", redeem=False)
        assert "Ka" in sim.server.memory


class TestDeterminism:
    @pytest.mark.parametrize("mode", MODES)
    def test_same_seed_same_trace(self, mode):
        assert canonical_run(mode).render() == canonical_run(mode).render()

    def test_backend_choice_never_shows_in_the_trace(self):
        for mode in MODES:
            symbolic = canonical_run(mode, "symbolic").render()
            concrete = canonical_run(mode, "concrete").render()
            assert symbolic == concrete
