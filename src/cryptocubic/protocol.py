"""Off-chain transfer simulation.

One `Simulation` drives users and a server through square establishment,
funding, ownership transfer and redemption, in one of three modes:

* ``baseline3``    - naive flow: the user-leg signing key is handed around
  in plaintext and the server-leg key sits in a destructive slot anyone can
  take.  Deliberately insecure; exists as the contrast case.
* ``bare4``        - encrypted flow without authentication: signing keys
  only ever exist in plaintext inside dynamic procedures, the user-leg
  cypher lives in a destructive slot, transfer re-encrypts it to the new
  owner.
* ``cryptocubic``  - the full flow: bare4 plus token challenge-response
  authentication of both parties, a stored verification hash that lets the
  receiver prove the cypher it was handed is genuine, and receiver-key
  routing through the current owner.

Every step ends in `Simulation._emit`, which calls each of
`Simulation.observers` as `observer(sim, label, handoff)` and builds nothing
itself.  A recording run's list is a `trace.Tables`, which keeps each step's
holdings table in `events`, and `_record`, which keeps a `StepRecord`
(per-party knowledge, slot contents, transcript position); a staged attack
or a streamed run keeps neither.

A receiver keeps what it is delivered in one place, `Simulation._send`, under
the names passed as `keep`, once the transport has refused a payload of other
classes than were sent.  Only the offered private key and the challenge cypher
are kept by hand, each once a check of it passes.

Each transfer and redemption step runs in one `try`, whose handler hands any
exception to the one exit, `Simulation._fail`, the only place a session ends
aborted: it puts the cypher back, closes the scope and emits one table, then
ends the step on a refusal (`_Refused`) and re-raises anything else.

A user is one letter.  `user_letter` alone says which, and the script parser
checks users with it, so a call refuses what a script refuses (`BadLetter`).
"""
from __future__ import annotations

import random
from dataclasses import dataclass, replace

from .backend import (
    AsymPublicKey,
    CryptoBackend,
    CryptoError,
    Digest,
    KeyMismatch,
    MultiSigBundle,
    SigningKey,
    SymKey,
    Token,
    get_backend,
    term_of,
)
from .ledger import ChainTx, Ledger, check_amount, check_destination
from .parties import SERVER, DynamicProcedure, Message, Party, Transport, TransportFailure
from .store import DestructiveStore, ReinsertPermit, SlotEmpty, SourceCapability
from .terms import Term
from .trace import Tables, TraceEvent, render_run

MODES = ("baseline3", "bare4", "cryptocubic")


class ProtocolError(Exception):
    pass


class UnknownSquare(ProtocolError):
    pass


class NotOwner(ProtocolError):
    pass


class AuthFailure(ProtocolError):
    pass


class SquareDrained(ProtocolError):
    pass


class BadLetter(ProtocolError):
    pass


class _Refused(Exception):
    """A step's refusal (abort reason, table label): the session aborts, the step returns."""


def _cause(exc: Exception) -> str:
    return "the link drops" if isinstance(exc, TransportFailure) else f"the step fails with {type(exc).__name__}"


def user_letter(token: object) -> str:
    """The upper-case letter of the user `token` names.  Key names use its lower
    case, which must upper-case back to it (not so "ß" or the Kelvin sign)."""
    letter = token.upper() if isinstance(token, str) else ""
    if len(letter) == 1 and letter.isalpha() and letter.lower().upper() == letter and letter != "S":
        return letter
    raise BadLetter(f"expected a user letter, got {token!r}")


def user_name(token: object) -> str:
    return f"USER_{user_letter(token)}"


@dataclass
class CryptoSquareRecord:
    """One established square: the server-side half the protocol reads, plus
    the bundle and slot capability behind it.  The bundle's keys are
    harness-only: oracle checks read them without widening any party's state."""

    square_id: str
    owner_party: str
    owner_pub: AsymPublicKey | None
    sym_key: SymKey | None
    slot_id: str
    slot_display: str  # name the slot's current value shows under
    es_hash: Digest | None
    sig_user_fingerprint: bytes | None
    bundle: MultiSigBundle
    cap: SourceCapability

    @property
    def address_value(self) -> str:
        return self.bundle.address.value


@dataclass
class TransferSession:
    """One transfer or redemption in flight: its square, its two parties (one
    and the same for a redemption), the value and permit it took from the
    store until it ends, and the scope it opened.  A transfer's phase runs
    initiated, ea_withdrawn, hash_verified (only in cryptocubic), completed;
    a baseline3 handover completes at once, and any live phase may end in aborted."""

    session_id: int
    square: CryptoSquareRecord
    sender: Party
    receiver: Party
    phase: str = "initiated"
    abort_reason: str | None = None
    taken: tuple[object, ReinsertPermit] | None = None
    scope: DynamicProcedure | None = None

    @property
    def square_id(self) -> str:
        return self.square.square_id


@dataclass(frozen=True, slots=True)
class StepRecord:
    """Everything the attacker oracle may know as of one emitted step."""

    knowledge: dict[str, frozenset[Term]]
    slot_terms: dict[str, Term | None]
    transcript_len: int


class Simulation:
    def __init__(
        self,
        mode: str = "cryptocubic",
        backend: CryptoBackend | str = "symbolic",
        seed: int = 0,
        journal_path: str | None = None,
        record: bool = True,
    ) -> None:
        if mode not in MODES:
            raise ValueError(f"unknown mode: {mode!r}")
        self.mode = mode
        self.backend = get_backend(backend) if isinstance(backend, str) else backend
        self.rng = random.Random(seed)
        self.ledger = Ledger(self.backend)
        self.store = DestructiveStore(digest_fn=self.backend.fingerprint, journal_path=journal_path)
        self.transport = Transport()
        self.parties: dict[str, Party] = {SERVER: Party(SERVER)}
        self.squares: dict[str, CryptoSquareRecord] = {}
        self.value_of: dict[Term, object] = {}  # each square's two signing keys
        self.steps = 0  # steps emitted, whether or not their tables are kept
        self.events: list[TraceEvent] = []
        self.step_records: list[StepRecord] = []
        # each called as `observer(sim, label, handoff)` at every step; the unbound `_record` makes no cycle
        self.observers = [Tables(self.events), Simulation._record] if record else []
        self._challenge_counts: dict[str, int] = {}
        self._issued: set[bytes] = set()  # the material of each token the server issued
        self._session_seq = 0

    def fork(self) -> Simulation:
        """An independent run in this run's state, to go on as this one would.

        It shares only what never changes (terms, value records, cyphers and
        messages), copies every container a step mutates, and draws from a
        copy of the generator and a new backend with the same id counters.
        It records nothing, as it has no observer.  A run with an open
        procedure, a journal or an interposer is refused with ValueError, as
        no copy can carry them."""
        twin = Simulation.__new__(Simulation)
        twin.mode = self.mode
        twin.backend = self.backend.copy()
        twin.rng = random.Random.__new__(random.Random)  # seeding one costs more than its state
        twin.rng.setstate(self.rng.getstate())
        twin.ledger = self.ledger.copy(twin.backend)
        twin.store = self.store.copy(twin.backend.fingerprint)
        twin.transport = self.transport.copy()
        twin.parties = {name: party.copy() for name, party in self.parties.items()}
        twin.squares = {square_id: replace(square) for square_id, square in self.squares.items()}
        twin.value_of = dict(self.value_of)
        twin.steps = self.steps
        twin.events, twin.step_records, twin.observers = [], [], []
        twin._challenge_counts = dict(self._challenge_counts)
        twin._issued = set(self._issued)
        twin._session_seq = self._session_seq
        return twin

    # ------------------------------------------------------------------
    # parties and bookkeeping

    def user(self, letter: str) -> Party:
        name = user_name(letter)
        if name not in self.parties:
            self.parties[name] = Party(name)
        return self.parties[name]

    @property
    def server(self) -> Party:
        return self.parties[SERVER]

    def holdings(self, party_name: str) -> list[str]:
        """One party's names, without scopes or balances: for the server its
        full slots, then its memory names.  A party the run has not met
        holds nothing."""
        party = self.parties.get(party_name)
        if party is None:
            return []
        slots = self.squares.values() if party is self.server else ()
        return [*(f"[{sq.slot_display}]" for sq in slots if self.store.ping(sq.slot_id)), *party.memory]

    def _emit(self, label: str, handoff: tuple[DynamicProcedure, str] | None = None) -> None:
        """End one step: hand its label and `handoff` (a scope and the slot it
        just filled) to each observer in turn; in every run, check that no
        signing key rests in memory outside baseline3, asking
        `Party.signing_keys` before looking through memory."""
        self.steps += 1
        for observer in self.observers:
            observer(self, label, handoff)
        if self.mode != "baseline3":
            for party in self.parties.values():
                leaked = party.signing_keys and [
                    n for n, v in party.memory.items() if isinstance(v, SigningKey)]
                assert not leaked, f"signing key in {party.name} memory: {leaked}"

    def _record(self, label: str, handoff) -> None:
        """Keep the step's record; a map equal to the last step's is that step's."""
        knowledge = {name: p.snapshot() for name, p in self.parties.items()}
        slot_terms = {}
        for square in self.squares.values():
            value = self.store._slots[square.slot_id].value
            slot_terms[square.slot_id] = term_of(value) if value is not None else None
        if self.step_records:
            last = self.step_records[-1]
            knowledge = last.knowledge if knowledge == last.knowledge else knowledge
            slot_terms = last.slot_terms if slot_terms == last.slot_terms else slot_terms
        self.step_records.append(StepRecord(knowledge, slot_terms, len(self.transport.transcript)))

    def _send(
        self, msg_type: str, sender: Party, receiver: Party, payload: tuple,
        session: TransferSession | None = None, keep: tuple[str, ...] = (),
    ) -> Message | None:
        """Deliver one message; the receiver remembers its items under the names in `keep`."""
        session_id = session.session_id if session else 0
        msg = self.transport.send(Message(msg_type, sender.name, receiver.name, session_id, payload))
        for name, value in zip(keep, msg.payload if keep else ()):  # a lost awaited request is None
            receiver.remember(name, value)
        return msg

    def _fail(self, session: TransferSession, exc: Exception) -> None:
        """The one exit of a failed session step: abort the session (a finished
        one only closes its scope) and raise `exc` again unless it is a refusal."""
        if session.scope is not None:
            session.scope.terminate()
        if isinstance(exc, _Refused):
            reason, label = exc.args
        elif session.phase in ("completed", "aborted"):
            raise exc
        else:
            reason = "link dropped" if isinstance(exc, TransportFailure) else type(exc).__name__
            display = session.square.slot_display
            if session.taken is None:
                label = f"{_cause(exc)}; {display} stays in the store"
            elif session.sender is session.receiver:  # a redemption
                label = f"user {session.sender.letter.upper()} cannot redeem; {display} returns to the store"
            else:
                label = f"{_cause(exc)}; the owner cypher returns to the store"
        if session.taken is not None:
            value, permit = session.taken
            self.store.reinsert(permit, value)
        session.phase, session.abort_reason, session.taken = "aborted", reason, None
        self._emit(label)
        if not isinstance(exc, _Refused):
            raise exc

    def _check_phase(self, session: TransferSession, phase: str | None) -> None:
        """Refuse a step that needs `phase` on `session` in another phase: a
        finished session before anything happens, a live one by aborting it."""
        if session.phase in ("completed", "aborted"):
            raise ProtocolError(f"session {session.session_id} is already {session.phase}")
        if session.phase != phase:
            returns = " and the owner cypher returns to the store" if session.taken else ""
            raise _Refused("out of order", f"a transfer step comes out of order; the transfer aborts{returns}")

    def render(self) -> str:
        return render_run(self.events)

    # ------------------------------------------------------------------
    # square lookup

    def _square_for(self, party_name: str) -> CryptoSquareRecord:
        """The earliest-established square whose address term the party holds, asked by `Party.holds`."""
        party = self.parties.get(party_name)
        for square in self.squares.values():
            if party is not None and party.holds(square.bundle.address.term):
                return square
        raise UnknownSquare(f"{party_name} holds no square address")

    # ------------------------------------------------------------------
    # establishment

    def _key_pair(self, user: Party) -> AsymPublicKey:
        """Give `user` a fresh encryption key pair; returns its public key."""
        pair = self.backend.gen_asym_pair(self.rng)
        user.remember(f"K{user.letter}", pair.private)
        user.remember(f"K{user.letter}_Public", pair.public)
        self._emit(f"user {user.letter.upper()} generates an encryption key pair")
        return pair.public

    def setup(self, letter: str) -> str:
        new_user = user_name(letter) not in self.parties
        a = self.user(letter)
        s = self.server
        u = a.letter
        plain = self.mode == "baseline3"
        memory_before = {party: dict(party.memory) for party in (a, s)}  # the only parties setup changes
        pub = ks = es_hash = fingerprint = proc = None
        try:
            if not plain:
                public = self._key_pair(a)
                ks = self.backend.gen_sym_key(self.rng)
                s.remember("Ks", ks)
                pub = self._send("share_public_key", a, s, (public,), keep=(f"K{u}_Public",)).payload[0]
                self._emit(f"user {u.upper()} shares the public key; server creates a symmetric key")

            proc = s.open_procedure()
            if not plain:
                proc.bind("Ks", ks)
                proc.bind(f"K{u}_Public", pub)
                self._emit("server opens a square-creation procedure")

            bundle = self.backend.gen_multisig(self.rng)
            proc.bind("Sig_U", bundle.sig_user)
            proc.bind("Sig_S", bundle.sig_server)
            proc.bind("ADD", bundle.address)
            if plain:
                self._emit("server opens a signing-key procedure")
                handed_name, handed = "Sig_U", bundle.sig_user
                display, stored, slot_leg = "Sig_S", bundle.sig_server, "server_leg"
                stored_label = "the server signing key drops into the destructive store"
            else:
                self._emit("the procedure creates the dual signing keys and their address")
                ea = self.backend.asym_encrypt(pub, bundle.sig_user, self.rng)
                es = self.backend.sym_encrypt(ks, bundle.sig_server, self.rng)
                proc.bind(f"E{u}", ea)
                proc.bind("Es", es)
                self._emit("the procedure encrypts the signing keys")

                if self.mode == "cryptocubic":
                    es_hash = self.backend.hash_value(es)
                    s.remember("Hash", es_hash)
                    self._emit("server records the square's verification hash")
                handed_name, handed = "Es", es
                display, stored, slot_leg = f"E{u}", ea, "owner_cypher"
                stored_label = "the user-leg cypher drops into the destructive store"
                fingerprint = self.backend.fingerprint(bundle.sig_user)

            self._send("square_payload", s, a, (handed, bundle.address), keep=(handed_name, "ADD"))
            self._emit(f"{handed_name} and the address go to user {u.upper()}")
        except Exception as exc:
            # no partial square: scrub everything this attempt touched
            if proc is not None:
                proc.terminate()
            for party, memory in memory_before.items():
                party.restore(memory)
            self._emit(f"{_cause(exc)}; establishment rolls back")
            if new_user:  # the table above still shows the emptied column
                del self.parties[a.name]
            raise

        square_id = f"sq{len(self.squares) + 1}"
        slot_id = f"{square_id}.{slot_leg}"
        cap = self.store.grant_source([slot_id])
        self.squares[square_id] = CryptoSquareRecord(
            square_id, a.name, pub, ks, slot_id, display, es_hash,
            fingerprint, bundle, cap,
        )
        self.store.insert(cap, slot_id, stored)
        self._emit(stored_label, (proc, display))

        proc.terminate()
        self.ledger.register(bundle.address.value, bundle.verify_user, bundle.verify_server)
        for key in (bundle.sig_user, bundle.sig_server):
            self.value_of[term_of(key)] = key
        self._emit("the procedure terminates")
        if not plain:
            self._emit("a square now stands between the user and the server")
        return square_id

    # ------------------------------------------------------------------
    # funding

    def fund(self, letter: str, cents: int) -> None:
        square = self._square_for(user_name(letter))
        if not self.store.ping(square.slot_id):
            # a full redemption (or a transfer holding the cypher) emptied
            # the slot; money sent now could be stranded on the address
            raise SquareDrained(f"square {square.square_id} has an empty slot")
        self.ledger.fund(square.address_value, cents)
        self._emit(f"user {letter.upper()} funds the address from an exterior wallet")

    # ------------------------------------------------------------------
    # transfer

    def transfer(self, from_letter: str, to_letter: str) -> TransferSession:
        session = self.begin_transfer(from_letter, to_letter)
        steps = [self.withdraw_for_transfer, self.complete_transfer]
        if self.mode == "cryptocubic":
            steps.insert(1, self.authenticate_parties)
        for step in steps:
            if session.phase in ("completed", "aborted"):
                break
            step(session)
        return session

    def _new_session(self, square: CryptoSquareRecord, sender: Party, receiver: Party) -> TransferSession:
        self._session_seq += 1
        return TransferSession(self._session_seq, square, sender, receiver)

    def begin_transfer(self, from_letter: str, to_letter: str) -> TransferSession:
        fu, tu = user_letter(from_letter), user_letter(to_letter)
        if fu == tu:
            # the receiver's fresh key pair would overwrite the owner's own
            raise ProtocolError(f"sender and receiver are both user {fu}")
        # look the square up first, so a refused transfer adds no party
        square = self._square_for(user_name(fu))
        a = self.user(fu)  # met already, as it holds the square's address
        if square.owner_party != a.name:
            raise NotOwner(f"{a.name} does not own square {square.square_id}")
        newcomer = user_name(tu) not in self.parties
        b = self.user(tu)
        if newcomer:
            self._emit(f"user {fu} encounters user {tu}")
        session = self._new_session(square, a, b)

        # the plaintext mode hands over the user signing key itself, and that
        # handover is the whole transfer
        plain = self.mode == "baseline3"
        handed_name = "Sig_U" if plain else "Es"
        try:
            self._send("handover", a, b, (a.recall(handed_name), a.recall("ADD")), session,
                       keep=(handed_name, "ADD"))
            if plain:
                session.phase = "completed"
                self._emit(f"user {fu} hands the user signing key and the address to user {tu}")
                return session
            self._emit(f"user {fu} hands Es and the address to user {tu}")

            public = self._key_pair(b)
            t = b.letter
            if self.mode == "cryptocubic":
                # receiver's key travels through the current owner
                msg = self._send("share_public_key", b, a, (public,), session, keep=(f"K{t}_Public",))
                self._emit(f"user {tu} sends the public key to user {fu}")
                self._send("share_public_key", a, self.server, msg.payload, session, keep=(f"K{t}_Public",))
                self._emit(f"user {fu} forwards user {tu}'s public key to the server")
            else:
                self._send("share_public_key", b, self.server, (public,), session, keep=(f"K{t}_Public",))
                self._emit(f"user {tu} sends the public key to the server")
        except Exception as exc:
            self._fail(session, exc)
        return session

    def withdraw_for_transfer(self, session: TransferSession) -> None:
        square, a, s = session.square, session.sender, self.server
        fu = a.letter.upper()
        try:
            self._check_phase(session, "initiated")
            self._send("approve", a, s, (b"approve", ), session)
            session.scope = s.open_procedure()
            if not self.store.ping(square.slot_id):
                raise _Refused("slot_empty", "the owner cypher is already gone; the transfer aborts")
            session.taken = self.store.take(square.slot_id)
            session.scope.bind(square.slot_display, session.taken[0])
            session.phase = "ea_withdrawn"
            self._emit(f"with user {fu}'s approval the transfer procedure withdraws the owner cypher")

            if self._send("request_private_key", s, a, (), session) is None:
                raise _Refused("timeout", "the key request times out; the owner cypher returns to the store")
            priv = self._send("private_key", a, s, (a.recall(f"K{a.letter}"),), session).payload[0]
            if not self.backend.matches(priv, square.owner_pub):
                raise _Refused(
                    "ka_mismatch",
                    "the offered private key does not match; the owner cypher returns to the store")
            s.remember(f"K{a.letter}", priv)
            self._emit(f"server requests and verifies user {fu}'s private key")
        except Exception as exc:
            self._fail(session, exc)

    # -- authentication --------------------------------------------------

    def _challenge_names(self, letter: str) -> tuple[str, str, str]:
        n = self._challenge_counts.get(letter, 0) + 1
        self._challenge_counts[letter] = n
        primes = "'" * (n - 1)
        base = f"Token_{letter.upper()}{primes}"
        return base, f"Et_{letter.upper()}{primes}", f"{base}2"

    def _challenge(
        self, target: Party, subject_pub: AsymPublicKey, session: TransferSession,
        failed: str, label: str, single_table: bool = True,
    ) -> None:
        """Token round trip with `target`; a failure refuses the step with
        reason "<failed>: <why>" and table `label`."""
        s = self.server
        letter = target.letter
        token_name, et_name, reply_name = self._challenge_names(letter)
        token = self.backend.gen_token(self.rng)
        self._issued.add(token.material)
        s.remember(token_name, token)
        if not single_table:
            self._emit(f"server creates a challenge token for user {letter.upper()}")
        et = self.backend.asym_encrypt(subject_pub, token, self.rng)
        s.remember(et_name, et)
        self._emit(f"server prepares an encrypted challenge for user {letter.upper()}" if single_table
                   else f"the token is encrypted for user {letter.upper()}")

        msg = self._send("challenge", s, target, (et,), session)
        if msg is None:
            raise _Refused(f"{failed}: timeout", label)
        try:
            reply = self.backend.asym_decrypt(target.recall(f"K{letter}"), msg.payload[0])
        except CryptoError:
            raise _Refused(f"{failed}: cannot decrypt challenge", label)
        if not isinstance(reply, Token):  # no party remembers, under a token's name, what is no token
            raise _Refused(f"{failed}: token mismatch", label)
        target.remember(et_name, msg.payload[0])
        target.remember(reply_name, reply)
        # the transport refuses a reply of another class than the token sent
        reply = self._send("challenge_reply", target, s, (reply,), session, keep=(reply_name,)).payload[0]
        if reply.material != token.material:
            why = "token replay" if reply.material in self._issued else "token mismatch"
            raise _Refused(f"{failed}: {why}", label)

    def authenticate_parties(self, session: TransferSession) -> None:
        square, a, b = session.square, session.sender, session.receiver
        fu, tu = a.letter.upper(), b.letter.upper()
        try:
            self._check_phase(session, "ea_withdrawn" if self.mode == "cryptocubic" else None)
            self._challenge(a, square.owner_pub, session, "sender auth failed",
                            f"user {fu} fails the challenge; the owner cypher returns to the store",
                            single_table=False)
            self._emit(f"user {fu} returns the decrypted token and is confirmed")

            # challenge under the key the completion will encrypt to
            receiver_pub = self.server.recall(f"K{b.letter}_Public")
            self._challenge(b, receiver_pub, session, "receiver auth failed",
                            f"user {tu} fails the challenge; the owner cypher returns to the store")
            self._emit(f"user {tu} returns the decrypted token and is confirmed")

            self._send("hash_share", self.server, b, (square.es_hash,), session, keep=("Hash",))
            self._emit(f"server shares the verification hash with user {tu}")

            hash2 = self.backend.hash_value(b.recall("Es"))
            b.remember("Hash2", hash2)
            self._emit(f"user {tu} hashes the cypher user {fu} handed over")

            if hash2.value != b.recall("Hash").value:
                raise _Refused(
                    "counterfeit es",
                    "the hashes differ; the transfer aborts and the owner cypher returns to the store")
            session.phase = "hash_verified"
            self._emit(f"user {tu} confirms the hashes match; the cypher is genuine")
        except Exception as exc:
            self._fail(session, exc)

    # -- completion ------------------------------------------------------

    def complete_transfer(self, session: TransferSession) -> None:
        square, a, b = session.square, session.sender, session.receiver
        s, proc = self.server, session.scope
        tu = b.letter.upper()
        ka_name = f"K{a.letter}"
        kb_pub_name = f"K{b.letter}_Public"
        try:
            self._check_phase(session, "hash_verified" if self.mode == "cryptocubic" else "ea_withdrawn")
            ka = s.recall(ka_name)
            proc.bind(ka_name, ka)
            self._emit(f"the procedure loads user {a.letter.upper()}'s private key")

            try:
                if not self.backend.matches(ka, square.owner_pub):
                    raise KeyMismatch("stored private key does not fit the owner's public key")
                sig_u = self.backend.asym_decrypt(ka, session.taken[0])
            except KeyMismatch:
                raise _Refused("ka_mismatch", "the private key cannot open the cypher; it returns to the store")
            if self.backend.fingerprint(sig_u) != square.sig_user_fingerprint:
                raise _Refused(
                    "foreign cypher", "the decrypted key is not this square's; the cypher returns to the store")
            proc.bind("Sig_U", sig_u)
            self._emit("the procedure decrypts the user signing key")

            kb_pub = s.recall(kb_pub_name)
            proc.bind(kb_pub_name, kb_pub)
            self._emit(f"the procedure loads user {tu}'s public key")

            eb = self.backend.asym_encrypt(kb_pub, sig_u, self.rng)
            eb_name = f"E{b.letter}"
            proc.bind(eb_name, eb)
            self._emit(f"the procedure re-encrypts the signing key to user {tu}")

            # the new owner keeps the address the server names, not the one handed
            # over; both notices go out while a lost one still aborts the transfer
            self._send("transfer_notice", s, b, (square.bundle.address,), session, keep=("ADD",))
            self._send("transfer_notice", s, a, (b"done",), session)
            # the insert commits the transfer: the old owner cypher is spent
            self.store.insert(square.cap, square.slot_id, eb)
            self.store.retire(session.taken[1])
            square.slot_display, square.owner_party, square.owner_pub = eb_name, b.name, kb_pub
            session.phase, session.taken = "completed", None
            self._emit("the new owner cypher drops into the destructive store", (proc, eb_name))

            proc.terminate()
            self._emit("the procedure terminates; both users are notified")
            self._emit(f"the transfer is complete; the square now belongs to user {tu}")
        except Exception as exc:
            self._fail(session, exc)

    # ------------------------------------------------------------------
    # redemption

    def redeem(self, letter: str, dest: str, cents: int) -> int:
        square = self._square_for(user_name(letter))
        check_amount(cents)
        check_destination(dest)
        if not self.store.ping(square.slot_id):
            # a drained square is refused before any message goes out
            raise SlotEmpty(f"slot {square.slot_id!r} is empty")
        x, s = self.user(letter), self.server
        letter = x.letter.upper()
        plain = self.mode == "baseline3"
        session = self._new_session(square, x, x)
        try:
            self._send("take_request" if plain else "redeem_request", x, s, (), session)
            if self.mode == "cryptocubic":
                self._challenge(x, square.owner_pub, session, "redemption challenge failed",
                                f"user {letter} fails the redemption challenge; the slot stays shut")
                self._emit(f"user {letter} answers the redemption challenge and is confirmed")

            taken, permit = session.taken = self.store.take(square.slot_id)
            if plain:
                # the plaintext mode recovers the keys in memory, not in a scope
                sig_s = self._send("take_payload", s, x, (taken,), session, keep=("Sig_S",)).payload[0]
                self._emit(f"user {letter} takes the server signing key from the store")
                sig_u = x.recall("Sig_U")
            else:
                cypher, ks = self._send("redeem_payload", s, x, (taken, square.sym_key), session).payload
                proc = session.scope = x.open_procedure()
                proc.bind(square.slot_display, cypher)
                proc.bind("Ks", ks)
                self._emit(f"server releases the owner cypher and symmetric key to user {letter}")

                sig_u = self.backend.asym_decrypt(x.recall(f"K{x.letter}"), cypher)
                sig_s = self.backend.sym_decrypt(ks, x.recall("Es"))
                proc.bind("Sig_U", sig_u)
                proc.bind("Sig_S", sig_s)
                self._emit(f"user {letter} recovers both signing keys inside a private scope")
            tx_id = self._submit_spend(square, sig_u, sig_s, dest, cents)
            session.phase, session.taken = "completed", None
            if session.scope is not None:
                session.scope.terminate()
            if self.ledger.balance(square.address_value):
                # a partial redemption leaves the rest redeemable
                self.store.reinsert(permit, taken)
            else:
                self.store.retire(permit)
            self._emit(f"user {letter} signs the transfer and the chain accepts it")
        except Exception as exc:
            self._fail(session, exc)  # returns only when the challenge refused
            raise AuthFailure(session.abort_reason) from None
        return tx_id

    def _submit_spend(self, square: CryptoSquareRecord, sig_u, sig_s, dest: str, cents: int) -> int:
        tx = ChainTx(square.address_value, dest, cents, self.ledger.fresh_nonce())
        message = tx.signing_message()
        return self.ledger.spend(replace(
            tx, sig_user=self.backend.sign(sig_u, message), sig_server=self.backend.sign(sig_s, message)))

    # ------------------------------------------------------------------
    # attack support

    def attempt_replay_auth(self, stale_token: Token) -> bool:
        """Challenge the owner afresh while an impostor on the link swaps its
        reply for an old token."""
        square = next(iter(self.squares.values()))
        target = self.parties[square.owner_party]
        session = self._new_session(square, target, target)
        previous = self.transport.interposer
        self.transport.interposer = lambda msg: (
            replace(msg, payload=(stale_token,)) if msg.msg_type == "challenge_reply" else msg)
        try:
            self._challenge(target, square.owner_pub, session, "auth failed",
                            "a stale token comes back and the challenge is refused")
            self._emit("a stale token is accepted")
        except Exception as exc:
            self._fail(session, exc)
        finally:
            self.transport.interposer = previous
        return session.phase != "aborted"
