"""Full protocol runs checked step by step against hand-written holdings
tables, plus fault injection, abort recovery, races, and mode contrasts."""
import ast
import gc
import inspect
import weakref
from collections import Counter
from dataclasses import replace

import pytest

from canonical_tables import EXPECTED, diff_step
from conftest import (
    dropped_link,
    interposed,
    lost_message,
    lost_requests,
    swapped,
    wrong_private_key,
)
from cryptocubic import protocol
from cryptocubic.adversary import counterfeit_handover
from cryptocubic.backend import (
    AsymPrivateKey,
    AsymPublicKey,
    CryptoError,
    Cypher,
    KeyMismatch,
    Token,
    term_of,
)
from cryptocubic.ledger import InsufficientFunds, LedgerError
from cryptocubic.parties import TransportFailure
from cryptocubic.protocol import (
    SERVER,
    AuthFailure,
    NotOwner,
    ProtocolError,
    Simulation,
    SquareDrained,
    UnknownSquare,
)
from cryptocubic.store import (
    OP_REINSERT,
    OP_TAKE,
    PermitUsed,
    SlotEmpty,
    StoreError,
    replay_journal,
)
from cryptocubic.terms import ASYM, EncTerm, SigningKeyTerm

MODES = ["baseline3", "bare4", "cryptocubic"]
DOMAIN_ERRORS = (ProtocolError, StoreError, LedgerError, CryptoError, TransportFailure)


def canonical_run(mode, backend="symbolic", redeem=True, journal=None):
    sim = Simulation(mode=mode, backend=backend, seed=0, journal_path=journal)
    sim.setup("a")
    sim.fund("a", 1000)
    sim.transfer("a", "b")
    if redeem:
        sim.redeem("b", "ext", 1000)
    return sim


def last_reply(sim):
    """The token of the last challenge reply, as an impostor on the link heard it."""
    return [m for m in sim.transport.transcript if m.msg_type == "challenge_reply"][-1].payload[0]


@pytest.fixture
def journal(tmp_path):
    return str(tmp_path / "store.journal")


def slot_ops(journal, slot_id):
    """Takes and reinserts of one slot, read back from the store journal."""
    ops = Counter(record.op for record in replay_journal(journal) if record.slot_id == slot_id)
    return {"takes": ops[OP_TAKE], "reinserts": ops[OP_REINSERT]}


def recorded_sessions(sim):
    """The list of every session the run opens from now on."""
    opened, new_session = [], sim._new_session

    def recording(*args):
        opened.append(new_session(*args))
        return opened[-1]

    sim._new_session = recording
    return opened


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
    def test_wrong_private_key_aborts_and_recovers(self, journal):
        sim = canonical_run("cryptocubic", redeem=False, journal=journal)
        # leave the square with B, then sabotage B's next key disclosure
        square = next(iter(sim.squares.values()))
        takes_before = slot_ops(journal, square.slot_id)["takes"]
        with wrong_private_key(sim):
            session = sim.transfer("b", "c")
        assert session.phase == "aborted"
        assert session.abort_reason == "ka_mismatch"
        assert square.owner_party == "USER_B"
        ops = slot_ops(journal, square.slot_id)
        assert ops["takes"] == takes_before + 1
        assert ops["reinserts"] == 1
        # honest retry goes through against the restored slot
        retry = sim.transfer("b", "c")
        assert retry.phase == "completed"
        assert square.owner_party == "USER_C"
        sim.redeem("c", "ext", 1000)
        assert sim.ledger.balance("ext") == 1000

    @pytest.mark.parametrize("mode", ["bare4", "cryptocubic"])
    def test_sender_timeout_aborts_and_restores_slot(self, mode, journal):
        sim = Simulation(mode=mode, journal_path=journal)
        sim.setup("a")
        sim.fund("a", 1000)
        with lost_requests(sim, "a"):
            session = sim.transfer("a", "b")
        assert session.phase == "aborted"
        assert session.abort_reason == "timeout"
        square = next(iter(sim.squares.values()))
        assert slot_ops(journal, square.slot_id)["reinserts"] == 1
        assert square.owner_party == "USER_A"
        assert sim.transfer("a", "b").phase == "completed"

    @pytest.mark.parametrize("mode", ["bare4", "cryptocubic"])
    def test_a_lost_key_request_is_not_in_the_transcript(self, mode):
        sim = Simulation(mode=mode)
        sim.setup("a")
        sim.fund("a", 1000)
        with lost_requests(sim, "a"):
            session = sim.transfer("a", "b")
        assert session.abort_reason == "timeout"
        assert sim.events[-1].label == "the key request times out; the owner cypher returns to the store"
        sent = [msg.msg_type for msg in sim.transport.transcript]
        assert "approve" in sent and "request_private_key" not in sent

    @pytest.mark.parametrize("mode", ["bare4", "cryptocubic"])
    def test_swapped_handover_address_does_not_strand_the_funds(self, mode, backend):
        # the stored hash covers Es but not the address beside it; the new
        # owner keeps the address the server's notice names
        sim = Simulation(mode=mode, backend=backend)
        sim.setup("a")
        sim.fund("a", 1000)
        decoy = sim.backend.gen_multisig(sim.rng).address
        with swapped(sim, "handover", lambda msg: (msg.payload[0], decoy)):
            assert sim.transfer("a", "b").phase == "completed"
        handed = next(msg for msg in sim.transport.transcript if msg.msg_type == "handover")
        assert handed.payload[1] == decoy
        sim.redeem("b", "ext", 1000)
        assert sim.ledger.balance("ext") == 1000

    @pytest.mark.parametrize("mode", ["bare4", "cryptocubic"])
    def test_swapped_address_and_a_lost_notice_do_not_strand_the_funds(self, mode, backend):
        # the notice naming the address is sent while the transfer can still
        # abort, so losing it puts the old cypher back with its owner
        sim = Simulation(mode=mode, backend=backend)
        sim.setup("a")
        sim.fund("a", 1000)
        decoy = sim.backend.gen_multisig(sim.rng).address

        def swap_and_drop(msg):
            if msg.msg_type == "handover":
                return replace(msg, payload=(msg.payload[0], decoy))
            if (msg.msg_type, msg.receiver) == ("transfer_notice", "USER_B"):
                raise TransportFailure("link dropped while sending transfer_notice")
            return msg

        sessions = recorded_sessions(sim)
        with interposed(sim, swap_and_drop), pytest.raises(TransportFailure):
            sim.transfer("a", "b")
        (session,) = sessions
        assert (session.phase, session.abort_reason) == ("aborted", "link dropped")
        square = next(iter(sim.squares.values()))
        assert square.owner_party == "USER_A" and sim.store.ping(square.slot_id)
        sim.redeem("a", "ext", 1000)
        assert sim.ledger.balance("ext") == 1000

    def test_receiver_timeout_aborts_during_challenge(self, journal):
        sim = Simulation(mode="cryptocubic", journal_path=journal)
        sim.setup("a")
        sim.fund("a", 1000)
        with lost_requests(sim, "b"):
            session = sim.transfer("a", "b")
        assert session.phase == "aborted"
        assert session.abort_reason == "receiver auth failed: timeout"
        square = next(iter(sim.squares.values()))
        assert slot_ops(journal, square.slot_id)["reinserts"] == 1

    def test_sender_timeout_aborts_during_challenge(self, backend):
        sim = Simulation(mode="cryptocubic", backend=backend)
        sim.setup("a")
        sim.fund("a", 1000)

        def lose_challenge_to_a(msg):
            return None if (msg.msg_type, msg.receiver) == ("challenge", "USER_A") else msg

        with interposed(sim, lose_challenge_to_a):
            session = sim.transfer("a", "b")
        assert session.phase == "aborted"
        assert session.abort_reason == "sender auth failed: timeout"
        assert sim.events[-1].label == "user A fails the challenge; the owner cypher returns to the store"
        square = next(iter(sim.squares.values()))
        assert sim.store.ping(square.slot_id)
        assert square.owner_party == "USER_A"
        assert sim.transfer("a", "b").phase == "completed"
        sim.redeem("b", "ext", 1000)
        assert sim.ledger.balance("ext") == 1000

    @pytest.mark.parametrize("mode", MODES)
    def test_a_lost_message_leaves_the_square_redeemable(self, mode, backend):
        # a lost request that its sender awaits times out; any other lost
        # message drops the link, and either way the owner redeems the rest
        for operation in ("transfer", "redeem"):
            for position in range(20):
                sim = Simulation(mode=mode, backend=backend)
                sim.setup("a")
                sim.fund("a", 1000)
                with lost_message(sim, position):
                    try:
                        if operation == "transfer":
                            sim.transfer("a", "b")
                        else:
                            sim.redeem("a", "ext", 1000)
                    except DOMAIN_ERRORS:
                        pass
                where = (operation, position)
                assert all(not p.procedures for p in sim.parties.values()), where
                square = next(iter(sim.squares.values()))
                rest = sim.ledger.balance(square.address_value)
                if rest:
                    sim.redeem(square.owner_party[-1], "ext", rest)
                assert sim.ledger.balance("ext") == 1000, where

    @pytest.mark.parametrize("mode", MODES)
    def test_a_lost_setup_message_rolls_back(self, mode, backend):
        for position in range(1 if mode == "baseline3" else 2):
            sim = Simulation(mode=mode, backend=backend)
            with lost_message(sim, position), pytest.raises(TransportFailure, match="was lost"):
                sim.setup("a")
            assert not sim.squares, position
            assert all(not p.memory and not p.procedures for p in sim.parties.values()), position
            sim.setup("a")
            sim.fund("a", 1000)
            sim.redeem("a", "ext", 1000)
            assert sim.ledger.balance("ext") == 1000, position

    def test_counterfeit_handover_caught_by_hash_check(self, journal):
        sim = Simulation(mode="cryptocubic", journal_path=journal)
        sim.setup("a")
        sim.fund("a", 1000)
        with interposed(sim, counterfeit_handover(sim)):
            session = sim.transfer("a", "b")
        assert session.phase == "aborted"
        assert session.abort_reason == "counterfeit es"
        square = next(iter(sim.squares.values()))
        assert square.owner_party == "USER_A"
        assert slot_ops(journal, square.slot_id)["reinserts"] == 1
        assert sim.transfer("a", "b").phase == "completed"

    def test_substituted_receiver_key_fails_the_challenge(self, backend):
        # an attacker on the B->A link swaps B's public key for its own; the
        # server challenges B under the key it would re-encrypt to, so the
        # transfer aborts instead of locking the funds away from everyone
        sim = Simulation(mode="cryptocubic", backend=backend)
        sim.setup("a")
        sim.fund("a", 1000)
        attacker = sim.backend.gen_asym_pair(sim.rng)
        with swapped(sim, "share_public_key", lambda msg: (attacker.public,), sender="USER_B"):
            session = sim.transfer("a", "b")
        assert sim.user("a").recall("Kb_Public") == sim.server.recall("Kb_Public") == attacker.public
        assert session.phase == "aborted"
        assert session.abort_reason == "receiver auth failed: cannot decrypt challenge"
        square = next(iter(sim.squares.values()))
        assert square.owner_party == "USER_A"
        assert sim.store.ping(square.slot_id)
        sim.redeem("a", "ext", 1000)
        assert sim.ledger.balance("ext") == 1000

    @pytest.mark.parametrize("mode", ["bare4", "cryptocubic"])
    def test_a_foreign_cypher_in_the_slot_aborts_the_completion(self, mode, backend):
        # the slot holds another square's user leg, sealed to this square's owner
        sim = Simulation(mode=mode, backend=backend)
        sim.setup("a")
        sim.fund("a", 1000)
        sim.setup("c")
        sq1, sq2 = sim.squares["sq1"], sim.squares["sq2"]
        sim.store.take(sq1.slot_id)
        foreign = sim.backend.asym_encrypt(sq1.owner_pub, sq2.bundle.sig_user, sim.rng)
        sim.store.insert(sq1.cap, sq1.slot_id, foreign)
        session = sim.transfer("a", "b")
        assert session.phase == "aborted"
        assert session.abort_reason == "foreign cypher"
        assert sim.events[-1].label == (
            "the decrypted key is not this square's; the cypher returns to the store")
        assert sim.store.ping(sq1.slot_id)
        assert sq1.owner_party == "USER_A"

    def test_counterfeit_handover_sails_through_without_hash_check(self):
        # the unauthenticated variant accepts the fake; this is the gap the
        # hash comparison closes
        sim = Simulation(mode="bare4")
        sim.setup("a")
        sim.fund("a", 1000)
        with interposed(sim, counterfeit_handover(sim)):
            session = sim.transfer("a", "b")
        assert session.phase == "completed"

    @pytest.mark.parametrize("mode", ["bare4", "cryptocubic"])
    def test_dropped_second_setup_keeps_the_first_key_pair(self, mode):
        sim = Simulation(mode=mode)
        sim.setup("a")
        sim.fund("a", 1000)
        with dropped_link(sim, 0), pytest.raises(TransportFailure):
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
        assert square.owner_party == "USER_B"
        finished = last_reply(sim)
        sessions = recorded_sessions(sim)
        for reply, reason in [
            (finished, "token replay"),
            (sim.backend.gen_token(sim.rng), "token mismatch"),
        ]:
            # the owner's challenge, its reply swapped for `reply`
            assert not sim.attempt_replay_auth(reply)
            assert (sessions[-1].phase, sessions[-1].abort_reason) == ("aborted", f"auth failed: {reason}")
            assert sim.events[-1].label == "a stale token comes back and the challenge is refused"

    def test_an_unissued_token_is_a_mismatch_and_a_stale_one_a_replay(self, backend):
        # the reply the server just stored must not count as a token it issued
        sim = Simulation(mode="cryptocubic", backend=backend)
        sim.setup("a")
        sim.fund("a", 1000)

        def fresh(msg):
            return (sim.backend.gen_token(sim.rng),)

        with swapped(sim, "challenge_reply", fresh):
            assert sim.transfer("a", "b").abort_reason == "sender auth failed: token mismatch"
        assert sim.transfer("a", "b").phase == "completed"
        stale = last_reply(sim)
        for reply, reason in ((fresh, "token mismatch"), (lambda msg: (stale,), "token replay")):
            with swapped(sim, "challenge_reply", reply), pytest.raises(
                AuthFailure, match=f"^redemption challenge failed: {reason}$"
            ):
                sim.redeem("b", "ext", 1000)
        sim.redeem("b", "ext", 1000)
        assert sim.ledger.balance("ext") == 1000

    def test_a_forged_reply_sent_again_is_still_a_mismatch(self, backend):
        # the server stored the forgery under a reply name; it never issued it
        sim = Simulation(mode="cryptocubic", backend=backend)
        sim.setup("a")
        sim.fund("a", 1000)
        forged = sim.backend.gen_token(sim.rng)
        with swapped(sim, "challenge_reply", lambda msg: (forged,)):
            for _ in range(2):
                with pytest.raises(AuthFailure, match="^redemption challenge failed: token mismatch$"):
                    sim.redeem("a", "ext", 100)
        sim.redeem("a", "ext", 100)
        assert sim.ledger.balance("ext") == 100

    def test_a_refused_redemption_records_the_reason_it_raises(self, backend):
        sim = Simulation(mode="cryptocubic", backend=backend)
        sim.setup("a")
        sim.fund("a", 1000)
        sessions = recorded_sessions(sim)
        forged = sim.backend.gen_token(sim.rng)
        with swapped(sim, "challenge_reply", lambda msg: (forged,)), pytest.raises(AuthFailure) as refused:
            sim.redeem("a", "ext", 100)
        assert str(refused.value) == "redemption challenge failed: token mismatch"
        assert (sessions[-1].phase, sessions[-1].abort_reason) == ("aborted", str(refused.value))

    @staticmethod
    def _owner_can_still_redeem(sim):
        # no party remembers what is no token under a token's name, and the
        # slot is refilled
        assert "Token_A2" not in sim.server.memory
        for party in sim.parties.values():
            assert all(isinstance(value, Token) for name, value in party.memory.items()
                       if name.startswith("Token_")), party.name
        sim.redeem("a", "ext", 1000)
        assert sim.ledger.balance("ext") == 1000

    @pytest.mark.parametrize("plaintext", [
        b"\x00\x00\x00\x03TOK\x00\x00\x00\x03tk9",  # the token's material is missing
        b"\x00\x00\x00\x03TOK\x00\x00\x00\x01\xff\x00\x00\x00\x01m",  # its id is not UTF-8
        b"\x00\x00\x00\x03XYZ\x00\x00\x00\x01m",  # no value has this tag
        b"\x00\x00\x00\x03RAW\x00\x00\x00\x09cut",  # cut short
    ])
    def test_a_challenge_encoding_no_value_aborts(self, plaintext, monkeypatch):
        sim = Simulation(mode="cryptocubic", backend="concrete")
        sim.setup("a")
        sim.fund("a", 1000)
        ka_public = sim.server.recall("Ka_Public")
        with monkeypatch.context() as patch:
            patch.setattr(sim.backend, "export_bytes", lambda value: plaintext)
            cypher = sim.backend.asym_encrypt(ka_public, b"x", sim.rng)
        with swapped(sim, "challenge", lambda msg: (cypher,)):
            session = sim.transfer("a", "b")
        assert (session.phase, session.abort_reason) == (
            "aborted", "sender auth failed: cannot decrypt challenge")
        self._owner_can_still_redeem(sim)

    def test_a_symbolic_challenge_holding_no_token_aborts(self):
        sim = Simulation(mode="cryptocubic", backend="symbolic")
        sim.setup("a")
        sim.fund("a", 1000)
        ka_public = sim.server.recall("Ka_Public")
        cypher = Cypher(b"junk", EncTerm(ASYM, ka_public.pair_id, term_of(b"junk")))
        with swapped(sim, "challenge", lambda msg: (cypher,)):
            session = sim.transfer("a", "b")
        assert (session.phase, session.abort_reason) == ("aborted", "sender auth failed: token mismatch")
        self._owner_can_still_redeem(sim)

    @pytest.mark.parametrize("msg_type", ["challenge", "challenge_reply"])
    def test_a_signing_key_in_place_of_a_token_aborts(self, backend, msg_type):
        # sealed in the challenge, the key decrypts to no token; as the bare
        # reply, it is of another class than the token sent, and the link drops
        sim = Simulation(mode="cryptocubic", backend=backend)
        sim.setup("a")
        sim.fund("a", 1000)
        sessions = recorded_sessions(sim)
        key = sim.backend.gen_multisig(sim.rng).sig_user
        if msg_type == "challenge":
            key = sim.backend.asym_encrypt(sim.server.recall("Ka_Public"), key, sim.rng)
            with swapped(sim, msg_type, lambda msg: (key,)):
                sim.transfer("a", "b")
            reason = "sender auth failed: token mismatch"
        else:
            with swapped(sim, msg_type, lambda msg: (key,)), pytest.raises(
                    TransportFailure, match="^challenge_reply arrived malformed$"):
                sim.transfer("a", "b")
            reason = "link dropped"
        assert (sessions[-1].phase, sessions[-1].abort_reason) == ("aborted", reason)
        assert not sim.server.holds(key.term)
        self._owner_can_still_redeem(sim)

    # payloads that are no tuple: nothing, a number, and the sent items in a list
    NOT_TUPLES = {"none": lambda msg: None, "int": lambda msg: 7, "list": lambda msg: list(msg.payload)}

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("payload", NOT_TUPLES)
    def test_a_payload_that_is_no_tuple_drops_the_link(self, mode, backend, payload):
        sim = Simulation(mode=mode, backend=backend)
        with swapped(sim, "square_payload", self.NOT_TUPLES[payload]), pytest.raises(
                TransportFailure, match="^square_payload arrived malformed$"):
            sim.setup("a")
        assert sim.events[-1].label == "the link drops; establishment rolls back"
        assert not sim.squares and all(not p.procedures for p in sim.parties.values())
        sim.setup("a")
        sim.fund("a", 1000)
        sessions = recorded_sessions(sim)
        with swapped(sim, "handover", self.NOT_TUPLES[payload]), pytest.raises(
                TransportFailure, match="^handover arrived malformed$"):
            sim.transfer("a", "b")
        assert (sessions[-1].phase, sessions[-1].abort_reason) == ("aborted", "link dropped")
        assert "handover" not in [msg.msg_type for msg in sim.transport.transcript]
        self._owner_can_still_redeem(sim)

    def test_a_symmetric_cypher_in_place_of_a_challenge_is_refused(self, backend):
        # the asymmetric opener refuses it with SchemeMismatch, which is no
        # KeyMismatch; the challenge refuses every CryptoError alike
        sim = Simulation(mode="cryptocubic", backend=backend)
        sim.setup("a")
        sim.fund("a", 1000)
        cypher = sim.backend.sym_encrypt(sim.backend.gen_sym_key(sim.rng), b"junk", sim.rng)
        with swapped(sim, "challenge", lambda msg: (cypher,)):
            session = sim.transfer("a", "b")
            with pytest.raises(AuthFailure, match="^redemption challenge failed: cannot decrypt challenge$"):
                sim.redeem("a", "ext", 1000)
        assert (session.phase, session.abort_reason) == (
            "aborted", "sender auth failed: cannot decrypt challenge")
        assert all(not p.procedures for p in sim.parties.values())
        self._owner_can_still_redeem(sim)

    @pytest.mark.parametrize("mode", ["bare4", "cryptocubic"])
    def test_a_low_order_receiver_key_leaves_the_square_redeemable(self, mode):
        # sealing to the zero point raises KeyMismatch, where the X25519
        # exchange's ValueError escaped with the owner cypher still taken
        sim = Simulation(mode=mode, backend="concrete")
        sim.setup("a")
        sim.fund("a", 1000)
        sessions = recorded_sessions(sim)
        low_order = lambda msg: (AsymPublicKey(msg.payload[0].pair_id, bytes(32)),)  # noqa: E731
        with swapped(sim, "share_public_key", low_order, sender="USER_B"), pytest.raises(KeyMismatch):
            sim.transfer("a", "b")
        assert (sessions[-1].phase, sessions[-1].abort_reason) == ("aborted", "KeyMismatch")
        assert sim.events[-1].label == (
            "the step fails with KeyMismatch; the owner cypher returns to the store")
        assert all(not p.procedures for p in sim.parties.values())
        sim.redeem("a", "ext", 1000)
        assert sim.ledger.balance("ext") == 1000

    @pytest.mark.parametrize("mode", ["bare4", "cryptocubic"])
    def test_a_short_private_key_does_not_match(self, mode):
        sim = Simulation(mode=mode, backend="concrete")
        sim.setup("a")
        sim.fund("a", 1000)
        short = lambda msg: (AsymPrivateKey(msg.payload[0].pair_id, b"short"),)  # noqa: E731
        with swapped(sim, "private_key", short):
            session = sim.transfer("a", "b")
        assert (session.phase, session.abort_reason) == ("aborted", "ka_mismatch")
        assert all(not p.procedures for p in sim.parties.values())
        self._owner_can_still_redeem(sim)

    @pytest.mark.parametrize("mode", MODES)
    def test_any_failed_setup_rolls_back(self, mode, backend, monkeypatch):
        # a backend call that fails with no domain error, once the server has
        # opened its scope (and, encrypted, both parties remembered keys): the
        # rollback scrubs the attempt as a lost link would
        sim = Simulation(mode=mode, backend=backend)
        sim.setup("c")
        memory = {name: dict(party.memory) for name, party in sim.parties.items()}

        def fails(rng):
            raise RuntimeError("no entropy")

        with monkeypatch.context() as patch, pytest.raises(RuntimeError):
            patch.setattr(sim.backend, "gen_multisig", fails)
            sim.setup("a")
        assert sim.events[-1].label == "the step fails with RuntimeError; establishment rolls back"
        assert list(sim.squares) == ["sq1"]
        assert {name: party.memory for name, party in sim.parties.items()} == memory
        assert all(not p.procedures for p in sim.parties.values())
        assert sim.setup("a") == "sq2"
        sim.fund("a", 1000)
        sim.redeem("a", "ext", 1000)
        assert sim.ledger.balance("ext") == 1000

    def test_plaintext_handover_ignores_a_counterfeit(self):
        sim = Simulation(mode="baseline3")
        sim.setup("a")
        sim.fund("a", 1000)
        with interposed(sim, counterfeit_handover(sim)):
            assert sim.transfer("a", "b").phase == "completed"
        square = next(iter(sim.squares.values()))
        assert sim.user("b").recall("Sig_U").term == square.bundle.sig_user.term

    @pytest.mark.parametrize(
        "fault",
        [wrong_private_key, lambda sim: interposed(sim, counterfeit_handover(sim))],
        ids=["wrong_ka", "counterfeit_es"],
    )
    def test_aborts_leave_no_live_scopes(self, fault):
        sim = Simulation(mode="cryptocubic")
        sim.setup("a")
        sim.fund("a", 1000)
        with fault(sim):
            session = sim.transfer("a", "b")
        assert session.phase == "aborted"
        assert all(not p.procedures for p in sim.parties.values())

    @pytest.mark.parametrize("mode", MODES)
    def test_link_drop_at_any_transfer_message_leaves_the_square_redeemable(self, mode, backend):
        clean = Simulation(mode=mode, backend=backend)
        clean.setup("a")
        clean.fund("a", 1000)
        sent = len(clean.transport.transcript)
        clean.transfer("a", "b")
        ends = Counter()
        for position in range(len(clean.transport.transcript) - sent):
            sim = Simulation(mode=mode, backend=backend)
            sim.setup("a")
            sim.fund("a", 1000)
            supply = sim.ledger.total_supply()
            sessions = recorded_sessions(sim)
            with dropped_link(sim, position), pytest.raises(TransportFailure):
                sim.transfer("a", "b")
            assert all(not p.procedures for p in sim.parties.values()), position
            square = next(iter(sim.squares.values()))
            assert sim.store.ping(square.slot_id), position
            # every message of a transfer precedes its commit, so a drop
            # anywhere aborts it and puts the old cypher back
            session, label = sessions[-1], sim.events[-1].label
            assert session.phase == "aborted", position
            assert session.abort_reason == "link dropped", position
            assert [e.label for e in sim.events].count(label) == 1, position
            ends[label] += 1
            assert sim.transfer("a", "b").phase == "completed"
            sim.redeem(square.owner_party[-1], "ext", 1000)
            assert sim.ledger.balance("ext") == 1000
            assert sim.ledger.total_supply() == supply
        stayed = f"the link drops; {'Sig_S' if mode == 'baseline3' else 'Ea'} stays in the store"
        assert ends == Counter({
            # the messages sent before the withdrawal
            stayed: {"baseline3": 1, "bare4": 3, "cryptocubic": 4}[mode],
            # the messages sent while the server holds the withdrawn cypher,
            # both notices among them
            "the link drops; the owner cypher returns to the store":
                {"baseline3": 0, "bare4": 4, "cryptocubic": 9}[mode],
        })


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

    @pytest.mark.parametrize("mode", ["bare4", "cryptocubic"])
    def test_each_cypher_is_named_after_its_owner(self, mode):
        sim = Simulation(mode=mode)
        sim.setup("c")
        assert sim.holdings(SERVER)[0] == "[Ec]"
        sim.fund("c", 1000)
        sim.transfer("c", "a")
        column = {event.label: event.columns[SERVER] for event in sim.events}
        # the withdrawn Ec and the re-encrypted Ea sit side by side in the scope
        assert column["the procedure re-encrypts the signing key to user A"][0] == (
            "<Ec,Kc,Sig_U,Ka_Public,Ea>")
        assert column["the new owner cypher drops into the destructive store"][0] == (
            "<Ec,Kc,Sig_U,Ka_Public,Ea> -- [Ea]")
        assert sim.holdings(SERVER)[0] == "[Ea]"
        sim.redeem("a", "ext", 1000)
        assert sim.ledger.balance("ext") == 1000

    @pytest.mark.parametrize("mode", MODES)
    def test_holdings_are_names_without_balances(self, mode):
        sim = Simulation(mode=mode)
        sim.setup("a")
        sim.fund("a", 1000)
        assert "ADD ($10)" in sim.events[-1].columns["USER_A"]  # the table shows the balance
        assert "ADD" in sim.holdings("USER_A") and "ADD ($10)" not in sim.holdings("USER_A")
        assert sim.holdings(SERVER)[0] == ("[Sig_S]" if mode == "baseline3" else "[Ea]")
        assert sim.holdings("USER_B") == []


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


class TestStepOrder:
    """Each transfer step checks its session's phase before it acts."""

    @staticmethod
    def assert_recovers(sim, owner):
        assert all(not p.procedures for p in sim.parties.values())
        sim.redeem(owner, "ext", 1000)
        assert sim.ledger.balance("ext") == 1000
        assert all(not p.procedures for p in sim.parties.values())

    def test_completion_before_authentication_aborts(self, backend):
        sim = Simulation(mode="cryptocubic", backend=backend)
        sim.setup("a")
        sim.fund("a", 1000)
        session = sim.begin_transfer("a", "b")
        sim.withdraw_for_transfer(session)
        sim.complete_transfer(session)
        assert (session.phase, session.abort_reason) == ("aborted", "out of order")
        sent = [msg.msg_type for msg in sim.transport.transcript]
        assert "challenge" not in sent and "hash_share" not in sent
        assert sim.events[-1].label == (
            "a transfer step comes out of order; the transfer aborts"
            " and the owner cypher returns to the store")
        assert next(iter(sim.squares.values())).owner_party == "USER_A"
        with pytest.raises(ProtocolError, match="already aborted"):
            sim.complete_transfer(session)
        self.assert_recovers(sim, "a")

    def test_authentication_outside_cryptocubic_aborts(self, backend):
        sim = Simulation(mode="bare4", backend=backend)
        sim.setup("a")
        sim.fund("a", 1000)
        session = sim.begin_transfer("a", "b")
        sim.withdraw_for_transfer(session)
        sim.authenticate_parties(session)
        assert (session.phase, session.abort_reason) == ("aborted", "out of order")
        self.assert_recovers(sim, "a")

    @pytest.mark.parametrize(
        "step", ["withdraw_for_transfer", "authenticate_parties", "complete_transfer"])
    def test_a_finished_session_is_refused_before_anything_happens(self, backend, step):
        sim = Simulation(mode="cryptocubic", backend=backend)
        sim.setup("a")
        sim.fund("a", 1000)
        session = sim.transfer("a", "b")
        assert session.phase == "completed"
        before = len(sim.events), len(sim.transport.transcript), sim.store.ping(session.square.slot_id)
        with pytest.raises(ProtocolError, match="already completed"):
            getattr(sim, step)(session)
        assert (len(sim.events), len(sim.transport.transcript), sim.store.ping(session.square.slot_id)) == before
        assert session.phase == "completed"
        self.assert_recovers(sim, "b")


class TestRedemption:
    def test_former_owner_fails_authentication(self, journal):
        sim = canonical_run("cryptocubic", redeem=False, journal=journal)
        square = next(iter(sim.squares.values()))
        takes_before = slot_ops(journal, square.slot_id)["takes"]
        with pytest.raises(AuthFailure):
            sim.redeem("a", "ext", 1000)
        # the failed challenge never reaches the slot
        assert slot_ops(journal, square.slot_id)["takes"] == takes_before
        sim.redeem("b", "ext", 1000)
        assert sim.ledger.balance("ext") == 1000

    @pytest.mark.parametrize("mode", MODES)
    def test_second_redeem_finds_slot_empty(self, mode):
        sim = canonical_run(mode)
        steps, sent = len(sim.events), len(sim.transport.transcript)
        server_memory = list(sim.server.memory)
        with pytest.raises(SlotEmpty):
            sim.redeem("b" if mode != "baseline3" else "b", "ext", 1)
        # refused before any message: no step, no challenge, no new token
        assert len(sim.events) == len(sim.step_records) == steps
        assert len(sim.transport.transcript) == sent
        assert list(sim.server.memory) == server_memory

    def test_overdraft_redeem_rejected(self, tmp_path):
        for mode in MODES:
            journal = str(tmp_path / f"{mode}.journal")
            sim = canonical_run(mode, redeem=False, journal=journal)
            supply, dump = sim.ledger.total_supply(), sim.ledger.dump()
            with pytest.raises(InsufficientFunds):
                sim.redeem("b", "ext", 1001)
            square = next(iter(sim.squares.values()))
            # the refused spend opens no account for its destination
            assert sim.ledger.dump() == dump, mode
            # the failed spend puts back what the redemption took, and the
            # table that says so shows no scope left open
            assert sim.store.ping(square.slot_id), mode
            assert slot_ops(journal, square.slot_id)["reinserts"] == 1
            columns = sim.events[-1].columns.values()
            assert not [item for items in columns for item in items if item.startswith("<")]
            sim.redeem("b", "ext", 1000)
            assert sim.ledger.balance("ext") == 1000
            assert sim.ledger.total_supply() == supply

    def test_link_drop_before_the_take_leaves_the_slot_full(self, journal):
        # the request and the challenge round trip precede the take
        for position in range(3):
            sim = canonical_run("cryptocubic", redeem=False, journal=journal)
            square = next(iter(sim.squares.values()))
            takes, steps = slot_ops(journal, square.slot_id)["takes"], len(sim.events)
            sessions = recorded_sessions(sim)
            with dropped_link(sim, position), pytest.raises(TransportFailure):
                sim.redeem("b", "ext", 1000)
            assert sessions[-1].phase == "aborted"
            assert sessions[-1].abort_reason == "link dropped"
            # one table says so, after the challenge table if one went out
            assert len(sim.events) == steps + 1 + (position > 0), position
            assert sim.events[-1].label == "the link drops; Eb stays in the store"
            assert sim.store.ping(square.slot_id)
            assert slot_ops(journal, square.slot_id)["takes"] == takes
            sim.redeem("b", "ext", 1000)
            assert sim.ledger.balance("ext") == 1000

    @pytest.mark.parametrize("mode", MODES)
    def test_link_drop_after_the_take_returns_the_value(self, mode, journal):
        sim = canonical_run(mode, redeem=False, journal=journal)
        square = next(iter(sim.squares.values()))
        # the payload follows the request, and in cryptocubic the challenge round trip
        payload_at = {"baseline3": 1, "bare4": 1, "cryptocubic": 3}[mode]
        with dropped_link(sim, payload_at), pytest.raises(TransportFailure):
            sim.redeem("b", "ext", 1000)
        assert slot_ops(journal, square.slot_id)["reinserts"] == 1
        sim.redeem("b", "ext", 1000)
        assert sim.ledger.balance("ext") == 1000

    def test_former_owner_leaves_the_cypher_in_bare4(self, backend):
        sim = canonical_run("bare4", backend, redeem=False)
        with pytest.raises(KeyMismatch):
            sim.redeem("a", "ext", 1000)
        sim.redeem("b", "ext", 1000)
        assert sim.ledger.balance("ext") == 1000

    @pytest.mark.parametrize("mode", MODES)
    def test_partial_redemption_leaves_the_rest_redeemable(self, mode, journal):
        sim = Simulation(mode=mode, journal_path=journal)
        sim.setup("a")
        sim.fund("a", 1000)
        square = next(iter(sim.squares.values()))
        sim.redeem("a", "ext", 500)
        assert sim.store.ping(square.slot_id)
        sim.redeem("a", "ext", 500)
        assert not sim.store.ping(square.slot_id)
        assert sim.ledger.balance("ext") == 1000
        assert slot_ops(journal, square.slot_id)["reinserts"] == 1

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

    def test_replayed_token_is_swapped_on_the_link(self, backend):
        # the owner answers the challenge honestly; only the link swaps its reply
        sim = Simulation(mode="cryptocubic", backend=backend)
        sim.setup("a")
        sim.fund("a", 1000)
        sim.transfer("a", "b")
        stale = last_reply(sim)
        assert sim.attempt_replay_auth(stale) is False
        assert sim.user("b").recall("Token_B'2").material == sim.server.recall("Token_B'").material
        assert sim.server.recall("Token_B'2") is stale
        assert sim.transport.interposer is None
        assert sim.events[-1].label == "a stale token comes back and the challenge is refused"


class TestFinishedSessions:
    @pytest.mark.parametrize("mode", ["bare4", "cryptocubic"])
    def test_a_completed_transfer_retires_its_permit(self, mode, backend):
        # a caller that kept the withdrawal's permit cannot refill the slot
        # once the new owner has drained it
        sim = Simulation(mode=mode, backend=backend, seed=1)
        sim.setup("a")
        sim.fund("a", 1000)
        session = sim.begin_transfer("a", "b")
        sim.withdraw_for_transfer(session)
        if mode == "cryptocubic":
            sim.authenticate_parties(session)
        value, permit = session.taken
        sim.complete_transfer(session)
        assert session.phase == "completed" and session.taken is None
        sim.redeem("b", "ext", 1000)
        with pytest.raises(PermitUsed):
            sim.store.reinsert(permit, value)
        assert not sim.store.ping(session.square.slot_id)
        with pytest.raises(SquareDrained):
            sim.fund("b", 700)

    @pytest.mark.parametrize("mode", MODES)
    def test_a_full_redemption_retires_its_permit(self, mode, journal):
        sim = canonical_run(mode, redeem=False, journal=journal)
        taken, take = [], sim.store.take
        sim.store.take = lambda slot_id: taken.append(take(slot_id)) or taken[-1]
        sim.redeem("b", "ext", 1000)
        ((value, permit),) = taken
        records = replay_journal(journal)
        with pytest.raises(PermitUsed):
            sim.store.reinsert(permit, value)
        assert replay_journal(journal) == records  # retiring a permit writes no record

    @pytest.mark.parametrize("mode", MODES)
    def test_every_ended_session_holds_nothing(self, mode):
        # completed, aborted, and partial and full redemptions alike
        sim = Simulation(mode=mode)
        sessions = recorded_sessions(sim)
        sim.setup("a")
        sim.fund("a", 1000)
        returned = [sim.transfer("a", "b"), sim.transfer("b", "a")] if mode != "baseline3" else []
        if mode != "baseline3":
            with wrong_private_key(sim):
                returned.append(sim.transfer("a", "b"))
            assert returned[-1].phase == "aborted"
        returned.append(sim.transfer("a", "c"))
        sim.redeem("c", "ext", 400)
        sim.redeem("c", "ext", 600)
        assert sim.ledger.balance("ext") == 1000
        assert len(sessions) == len(returned) + 2
        assert [s.taken for s in sessions] == [None] * len(sessions)
        assert {s.phase for s in sessions} <= {"completed", "aborted"}


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
        for event, rec in zip(sim.events, sim.step_records):
            for party, terms in rec.knowledge.items():
                bare = [t for t in terms if isinstance(t, SigningKeyTerm)]
                assert not bare, f"{party} holds {bare} at step {event.step}"

    @pytest.mark.parametrize("mode", MODES)
    def test_a_party_counts_only_its_signing_keys(self, mode):
        # memory keeps no change count and no tally per term class
        sim = canonical_run(mode)
        for party in sim.parties.values():
            assert not hasattr(party, "version") and not hasattr(party, "kinds")
        assert sim.parties["USER_B"].signing_keys == (2 if mode == "baseline3" else 0)

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


class TestObservers:
    @pytest.mark.parametrize("record", [True, False], ids=["recorded", "unrecorded"])
    @pytest.mark.parametrize("mode", MODES)
    def test_an_observer_sees_every_step_once_in_order(self, mode, record):
        sim = Simulation(mode=mode, seed=0, record=record)
        seen = []
        sim.observers.append(lambda observed, label, handoff: seen.append((observed, observed.steps, label)))
        with dropped_link(sim, 0), pytest.raises(TransportFailure):
            sim.setup("a")  # the step that rolls establishment back is a step too
        assert seen[-1][2] == "the link drops; establishment rolls back"
        sim.setup("a")
        sim.fund("a", 1000)
        sim.transfer("a", "b")
        assert all(observed is sim for observed, _, _ in seen)
        assert [step for _, step, _ in seen] == list(range(1, sim.steps + 1))
        if record:  # the recording run's table observer saw the same steps
            assert [(event.step, event.label) for event in sim.events] == [step[1:] for step in seen]
        else:
            assert sim.events == sim.step_records == []

    def test_a_recording_run_is_freed_without_a_collection(self):
        # the recorder is kept unbound, so the list of observers makes no cycle
        gc.disable()
        try:
            sim = canonical_run("cryptocubic")
            freed = weakref.ref(sim)
            del sim
            assert freed() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("mode", MODES)
    def test_a_recording_run_fills_both_lists(self, mode):
        sim = canonical_run(mode)
        assert len(sim.events) == len(sim.step_records) == sim.steps == len(EXPECTED[mode])


class TestOneFailureExit:
    """`Simulation._fail` is the one place a session ends aborted, and a step
    reaches it only from its exception handler."""

    @staticmethod
    def functions():
        tree = ast.parse(inspect.getsource(protocol))
        return {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}

    def test_only_the_exit_aborts_a_session(self):
        aborting = set()
        for name, function in self.functions().items():
            for node in ast.walk(function):
                if isinstance(node, ast.Assign) and any(
                        isinstance(value, ast.Constant) and value.value == "aborted"
                        for value in ast.walk(node.value)):
                    aborting.add(name)
                if isinstance(node, ast.Attribute) and node.attr == "_abort":
                    aborting.add(f"{name} reaches _abort")
        assert aborting == {"_fail"}
        assert "_abort" not in self.functions()

    def test_steps_reach_the_exit_only_from_their_handler(self):
        calls, handled = set(), set()
        for function in self.functions().values():
            for node in ast.walk(function):
                if isinstance(node, ast.Call) and ast.unparse(node.func) == "self._fail":
                    calls.add(node)
                elif isinstance(node, ast.ExceptHandler) and ast.unparse(node.type) == "Exception":
                    first = node.body[0]
                    if isinstance(first, ast.Expr) and ast.unparse(first) == "self._fail(session, exc)":
                        handled.add(first.value)
        assert calls == handled and len(calls) == 6
        assert not [node for node in ast.walk(self.functions()["_send"]) if isinstance(node, ast.Try)]


class TestOneDeliveryPoint:
    """`Simulation._send` is where a receiver keeps what it is delivered."""

    def test_only_send_remembers_a_delivered_payload(self):
        by_hand = set()
        for name, function in TestOneFailureExit.functions().items():
            if name == "_send":
                continue
            for node in ast.walk(function):
                if isinstance(node, ast.Call) and ast.unparse(node.func).endswith(".remember"):
                    args = [*node.args, *(keyword.value for keyword in node.keywords)]
                    if any(isinstance(part, ast.Attribute) and part.attr == "payload"
                           for arg in args for part in ast.walk(arg)):
                        by_hand.add((name, ast.unparse(node)))
        # the one exception: the challenge cypher, kept only once it opens to a token
        assert by_hand == {("_challenge", "target.remember(et_name, msg.payload[0])")}
