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

Every step emits one holdings table and one `StepRecord` (per-party
knowledge, slot contents, transcript position), which the tests and the
`audit` benchmark read; a staged attack's run (`record=False`) keeps neither.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, replace

from .backend import (
    Address,
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
from .ledger import ChainTx, Ledger, LedgerError, UnknownAddress
from .parties import DynamicProcedure, Message, Party, Transport, TransportFailure
from .store import DestructiveStore, ReinsertPermit, SlotEmpty, SourceCapability
from .terms import Term
from .trace import TraceEvent, format_money, render_run

MODES = ("baseline3", "bare4", "cryptocubic")

SERVER = "SERVER_S"


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
    store, and the scope it opened.  A transfer's phase runs initiated,
    ea_withdrawn, hash_verified (only in cryptocubic), completed; a baseline3
    handover completes at once, and any live phase may end in aborted."""

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


@dataclass(frozen=True)
class StepRecord:
    """Everything the attacker oracle may know as of one emitted step."""

    knowledge: dict[str, frozenset[Term]]
    slot_terms: dict[str, Term | None]
    transcript_len: int


class _MemoryColumn:
    """One party's annotated memory items, kept in step with its memory."""

    def __init__(self) -> None:
        self.items: dict[str, str] = {}
        self.ledger_version = 0
        self.rendered: list[str] = []  # never mutated once handed out


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
        self.record = record  # whether steps keep their table and step record
        self.backend = get_backend(backend) if isinstance(backend, str) else backend
        self.rng = random.Random(seed)
        self.ledger = Ledger(self.backend)
        self.store = DestructiveStore(digest_fn=self.backend.fingerprint, journal_path=journal_path)
        self.transport = Transport()
        self.parties: dict[str, Party] = {SERVER: Party(SERVER)}
        self.squares: dict[str, CryptoSquareRecord] = {}
        self.value_of: dict[Term, object] = {}  # each square's two signing keys
        self.events: list[TraceEvent] = []
        self.step_records: list[StepRecord] = []
        self._memory_columns: dict[str, _MemoryColumn] = {}
        self._challenge_counts: dict[str, int] = {}
        self._session_seq = 0

    # ------------------------------------------------------------------
    # parties and bookkeeping

    def user(self, letter: str) -> Party:
        name = f"USER_{letter.upper()}"
        if name not in self.parties:
            self.parties[name] = Party(name)
        return self.parties[name]

    @property
    def server(self) -> Party:
        return self.parties[SERVER]

    def _columns_order(self) -> list[str]:
        # the server is the first party; users follow in order of arrival
        server, *users = self.parties
        return [*users[:1], server, *users[1:]]

    def _annotate(self, name: str, value: object) -> str:
        if isinstance(value, Address):
            try:
                balance = self.ledger.balance(value.value)
            except UnknownAddress:
                balance = 0
            if balance > 0:
                return f"{name} ({format_money(balance)})"
        return name

    def _column_items(self, party: Party, handoff: tuple[DynamicProcedure, str] | None = None) -> list[str]:
        # one item per open scope, then full slots, then memory; the scope in
        # `handoff` shows the slot it just filled as "-- [x]", listed only there
        items: list[str] = []
        handed = None
        for proc in party.procedures:
            rendered = f"<{','.join(proc.bindings)}>"
            if handoff is not None and proc is handoff[0]:
                handed = handoff[1]
                rendered += f" -- [{handed}]"
            items.append(rendered)
        if party is self.server:
            for square in self.squares.values():
                display = square.slot_display
                if display != handed and self.store.ping(square.slot_id):
                    items.append(f"[{display}]")
        memory_items = self._memory_items(party)
        return items + memory_items if items else memory_items

    def _memory_items(self, party: Party) -> list[str]:
        """Annotated memory items, re-annotating only the names the party
        changed, and its addresses once the ledger has moved a balance."""
        column = self._memory_columns.get(party.name)
        if column is None:
            column = self._memory_columns[party.name] = _MemoryColumn()
        changes = party.take_changes()
        if column.ledger_version != self.ledger.version:
            column.ledger_version = self.ledger.version
            for name, value in party.memory.items():
                if isinstance(value, Address):
                    changes.setdefault(name, False)
        if not changes:
            return column.rendered
        memory, items = party.memory, column.items
        for name, moved in changes.items():
            if moved:
                items.pop(name, None)
            if name in memory:
                items[name] = self._annotate(name, memory[name])
        column.rendered = list(items.values())
        return column.rendered

    def holdings(self, party_name: str) -> list[str]:
        """Current rendered holdings of one party, without transient scope
        contents: what a state inspection would see.  A party the run has
        not met holds nothing."""
        if party_name not in self.parties:
            return []
        party = self.parties[party_name]
        return self._column_items(party)[len(party.procedures):]

    def _emit(self, label: str, handoff: tuple[DynamicProcedure, str] | None = None) -> None:
        """End one step: when recording, append its table and step record
        (`handoff` is a scope and the slot it just filled); in every run,
        check that no signing key rests in memory outside baseline3."""
        if self.record:
            columns = {
                name: self._column_items(self.parties[name], handoff) for name in self._columns_order()
            }
            self.events.append(TraceEvent(len(self.events) + 1, label, columns))
            knowledge = {name: p.snapshot() for name, p in self.parties.items()}
            slot_terms = {}
            for square in self.squares.values():
                value = self.store._slots[square.slot_id].value
                slot_terms[square.slot_id] = term_of(value) if value is not None else None
            self.step_records.append(
                StepRecord(knowledge, slot_terms, len(self.transport.transcript))
            )
        if self.mode != "baseline3":
            for party in self.parties.values():
                leaked = party.signing_keys and [n for n, v in party.memory.items() if isinstance(v, SigningKey)]
                assert not leaked, f"signing key in {party.name} memory: {leaked}"

    def _send(
        self, msg_type: str, sender: Party, receiver: Party, payload: tuple,
        session: TransferSession | None = None,
    ) -> Message | None:
        session_id = session.session_id if session else 0
        try:
            return self.transport.send(Message(msg_type, sender.name, receiver.name, session_id, payload))
        except TransportFailure:
            if session and session.phase not in ("completed", "aborted"):
                display = session.square.slot_display
                if session.taken is None:
                    label = f"the link drops; {display} stays in the store"
                elif session.sender is session.receiver:  # a redemption
                    label = f"user {session.sender.letter.upper()} cannot redeem; {display} returns to the store"
                else:
                    label = "the link drops; the owner cypher returns to the store"
                self._abort(session, "link dropped", label)
            raise

    def _abort(self, session: TransferSession, reason: str, label: str) -> None:
        """End a failed transfer or redemption: put back what it took from the
        store, close its scope, and emit one table."""
        if session.taken is not None:
            value, permit = session.taken
            self.store.reinsert(permit, value)
        if session.scope is not None:
            session.scope.terminate()
        session.phase, session.abort_reason = "aborted", reason
        self._emit(label)

    def _in_phase(self, session: TransferSession, phase: str | None) -> bool:
        """Whether a step that needs `phase` may act on `session`.  A finished
        session is refused before anything happens; a live one in another
        phase is aborted."""
        if session.phase in ("completed", "aborted"):
            raise ProtocolError(f"session {session.session_id} is already {session.phase}")
        if session.phase == phase:
            return True
        label = "a transfer step comes out of order; the transfer aborts"
        if session.taken is not None:
            label += " and the owner cypher returns to the store"
        self._abort(session, "out of order", label)
        return False

    def render(self) -> str:
        return render_run(self.events)

    # ------------------------------------------------------------------
    # square lookup

    def _square_for(self, party_name: str) -> CryptoSquareRecord:
        """The earliest-established square whose address the party holds.  A
        party the run has not met holds none."""
        memory = self.parties[party_name].memory if party_name in self.parties else {}
        held = {v.value for v in memory.values() if isinstance(v, Address)}
        for square in self.squares.values():
            if square.address_value in held:
                return square
        raise UnknownSquare(f"{party_name} holds no square address")

    def _owned_square(self, party_name: str) -> CryptoSquareRecord:
        square = self._square_for(party_name)
        if square.owner_party != party_name:
            raise NotOwner(f"{party_name} does not own square {square.square_id}")
        return square

    # ------------------------------------------------------------------
    # establishment

    def setup(self, user_letter: str) -> str:
        new_user = f"USER_{user_letter.upper()}" not in self.parties
        a = self.user(user_letter)
        s = self.server
        u = user_letter.lower()
        plain = self.mode == "baseline3"
        memory_before = {party: dict(party.memory) for party in (a, s)}  # the only parties setup changes
        pub = ks = es_hash = fingerprint = proc = None
        try:
            if not plain:
                pair = self.backend.gen_asym_pair(self.rng)
                a.remember(f"K{u}", pair.private)
                a.remember(f"K{u}_Public", pair.public)
                self._emit(f"user {u.upper()} generates an encryption key pair")

                pub = self._send("share_public_key", a, s, (pair.public,)).payload[0]
                ks = self.backend.gen_sym_key(self.rng)
                s.remember("Ks", ks)
                s.remember(f"K{u}_Public", pub)
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

            msg = self._send("square_payload", s, a, (handed, bundle.address))
            a.remember(handed_name, msg.payload[0])
            a.remember("ADD", msg.payload[1])
            self._emit(f"{handed_name} and the address go to user {u.upper()}")
        except TransportFailure:
            # no partial square: scrub everything this attempt touched
            if proc is not None:
                proc.terminate()
            for party, memory in memory_before.items():
                party.restore(memory)
            self._emit("the link drops; establishment rolls back")
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

    def fund(self, user_letter: str, cents: int) -> None:
        square = self._square_for(f"USER_{user_letter.upper()}")
        if not self.store.ping(square.slot_id):
            # a full redemption (or a transfer holding the cypher) emptied
            # the slot; money sent now could be stranded on the address
            raise SquareDrained(f"square {square.square_id} has an empty slot")
        self.ledger.fund(square.address_value, cents)
        self._emit(f"user {user_letter.upper()} funds the address from an exterior wallet")

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
        fu, tu = from_letter.upper(), to_letter.upper()
        if fu == tu:
            # the receiver's fresh key pair would overwrite the owner's own
            raise ProtocolError(f"sender and receiver are both user {fu}")
        # look the square up first, so a refused transfer adds no party
        square = self._owned_square(f"USER_{fu}")
        a = self.user(from_letter)
        newcomer = f"USER_{tu}" not in self.parties
        b = self.user(to_letter)
        if newcomer:
            self._emit(f"user {fu} encounters user {tu}")
        session = self._new_session(square, a, b)

        # the plaintext mode hands over the user signing key itself, and that
        # handover is the whole transfer
        plain = self.mode == "baseline3"
        handed_name = "Sig_U" if plain else "Es"
        msg = self._send("handover", a, b, (a.recall(handed_name), a.recall("ADD")), session)
        b.remember(handed_name, msg.payload[0])
        b.remember("ADD", msg.payload[1])
        if plain:
            self._emit(f"user {fu} hands the user signing key and the address to user {tu}")
            session.phase = "completed"
            return session
        self._emit(f"user {fu} hands Es and the address to user {tu}")

        pair = self.backend.gen_asym_pair(self.rng)
        t = to_letter.lower()
        b.remember(f"K{t}", pair.private)
        b.remember(f"K{t}_Public", pair.public)
        self._emit(f"user {tu} generates an encryption key pair")

        if self.mode == "cryptocubic":
            # receiver's key travels through the current owner
            msg = self._send("share_public_key", b, a, (pair.public,), session)
            a.remember(f"K{t}_Public", msg.payload[0])
            self._emit(f"user {tu} sends the public key to user {fu}")
            msg = self._send("share_public_key", a, self.server, msg.payload, session)
            self.server.remember(f"K{t}_Public", msg.payload[0])
            self._emit(f"user {fu} forwards user {tu}'s public key to the server")
        else:
            msg = self._send("share_public_key", b, self.server, (pair.public,), session)
            self.server.remember(f"K{t}_Public", msg.payload[0])
            self._emit(f"user {tu} sends the public key to the server")
        return session

    def withdraw_for_transfer(self, session: TransferSession) -> None:
        if not self._in_phase(session, "initiated"):
            return
        square, a, s = session.square, session.sender, self.server
        fu = a.letter.upper()

        self._send("approve", a, s, (b"approve", ), session)
        session.scope = s.open_procedure()
        try:
            session.taken = self.store.take(square.slot_id)
        except SlotEmpty:
            self._abort(session, "slot_empty", "the owner cypher is already gone; the transfer aborts")
            return
        session.scope.bind(square.slot_display, session.taken[0])
        session.phase = "ea_withdrawn"
        self._emit(
            f"with user {fu}'s approval the transfer procedure withdraws the owner cypher"
        )

        if self._send("request_private_key", s, a, (), session) is None:
            self._abort(session, "timeout",
                        "the key request times out; the owner cypher returns to the store")
            return
        priv = self._send("private_key", a, s, (a.recall(f"K{a.letter}"),), session).payload[0]
        if not self.backend.matches(priv, square.owner_pub):
            self._abort(session, "ka_mismatch",
                        "the offered private key does not match; the owner cypher returns to the store")
            return
        s.remember(f"K{a.letter}", priv)
        self._emit(f"server requests and verifies user {fu}'s private key")

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
    ) -> str:
        """Token round trip with `target`.  On failure `session` aborts with
        reason "<failed>: <why>" and table `label`; returns why, "" on success."""
        s = self.server
        letter = target.letter
        token_name, et_name, reply_name = self._challenge_names(letter)
        token = self.backend.gen_token(self.rng)
        s.remember(token_name, token)
        if not single_table:
            self._emit(f"server creates a challenge token for user {letter.upper()}")
        et = self.backend.asym_encrypt(subject_pub, token, self.rng)
        s.remember(et_name, et)
        if single_table:
            self._emit(f"server prepares an encrypted challenge for user {letter.upper()}")
        else:
            self._emit(f"the token is encrypted for user {letter.upper()}")

        msg = self._send("challenge", s, target, (et,), session)
        why = "timeout"
        if msg is not None:
            try:
                reply = self.backend.asym_decrypt(target.recall(f"K{letter}"), msg.payload[0])
            except KeyMismatch:
                why = "cannot decrypt challenge"
            else:
                target.remember(et_name, msg.payload[0])
                target.remember(reply_name, reply)
                reply = self._send("challenge_reply", target, s, (reply,), session).payload[0]
                s.remember(reply_name, reply)
                # the server keeps every token it issued, each under its own
                # name; the reply it just stored is no evidence of issue
                issued = (v.material for n, v in s.memory.items() if n != reply_name and isinstance(v, Token))
                why = ("" if isinstance(reply, Token) and reply.material == token.material
                       else "token replay" if isinstance(reply, Token) and reply.material in issued
                       else "token mismatch")
        if why:
            self._abort(session, f"{failed}: {why}", label)
        return why

    def authenticate_parties(self, session: TransferSession) -> None:
        if not self._in_phase(session, "ea_withdrawn" if self.mode == "cryptocubic" else None):
            return
        square, a, b = session.square, session.sender, session.receiver
        fu, tu = a.letter.upper(), b.letter.upper()

        if self._challenge(a, square.owner_pub, session, "sender auth failed",
                           f"user {fu} fails the challenge; the owner cypher returns to the store",
                           single_table=False):
            return
        self._emit(f"user {fu} returns the decrypted token and is confirmed")

        # challenge under the key the completion will encrypt to
        receiver_pub = self.server.recall(f"K{b.letter}_Public")
        if self._challenge(b, receiver_pub, session, "receiver auth failed",
                           f"user {tu} fails the challenge; the owner cypher returns to the store"):
            return
        self._emit(f"user {tu} returns the decrypted token and is confirmed")

        es_hash = self._send("hash_share", self.server, b, (square.es_hash,), session).payload[0]
        b.remember("Hash", es_hash)
        self._emit(f"server shares the verification hash with user {tu}")

        hash2 = self.backend.hash_value(b.recall("Es"))
        b.remember("Hash2", hash2)
        self._emit(f"user {tu} hashes the cypher user {fu} handed over")

        if hash2.value != es_hash.value:
            self._abort(
                session, "counterfeit es",
                "the hashes differ; the transfer aborts and the owner cypher returns to the store")
            return
        session.phase = "hash_verified"
        self._emit(f"user {tu} confirms the hashes match; the cypher is genuine")

    # -- completion ------------------------------------------------------

    def complete_transfer(self, session: TransferSession) -> None:
        if not self._in_phase(session, "hash_verified" if self.mode == "cryptocubic" else "ea_withdrawn"):
            return
        square, a, b = session.square, session.sender, session.receiver
        s, proc = self.server, session.scope
        tu = b.letter.upper()
        ka_name = f"K{a.letter}"
        kb_pub_name = f"K{b.letter}_Public"

        ka = s.recall(ka_name)
        proc.bind(ka_name, ka)
        self._emit(f"the procedure loads user {a.letter.upper()}'s private key")

        try:
            if not self.backend.matches(ka, square.owner_pub):
                raise KeyMismatch("stored private key does not fit the owner's public key")
            sig_u = self.backend.asym_decrypt(ka, session.taken[0])
        except KeyMismatch:
            self._abort(
                session, "ka_mismatch",
                "the private key cannot open the cypher; it returns to the store")
            return
        if self.backend.fingerprint(sig_u) != square.sig_user_fingerprint:
            self._abort(
                session, "foreign cypher",
                "the decrypted key is not this square's; the cypher returns to the store")
            return
        proc.bind("Sig_U", sig_u)
        self._emit("the procedure decrypts the user signing key")

        kb_pub = s.recall(kb_pub_name)
        proc.bind(kb_pub_name, kb_pub)
        self._emit(f"the procedure loads user {tu}'s public key")

        eb = self.backend.asym_encrypt(kb_pub, sig_u, self.rng)
        eb_name = f"E{b.letter}"
        proc.bind(eb_name, eb)
        self._emit(f"the procedure re-encrypts the signing key to user {tu}")

        self.store.insert(square.cap, square.slot_id, eb)
        square.slot_display = eb_name
        self._emit("the new owner cypher drops into the destructive store", (proc, eb_name))

        proc.terminate()
        square.owner_party = b.name
        square.owner_pub = kb_pub
        session.phase = "completed"
        self._send("transfer_notice", s, a, (b"done",), session)
        # the new owner keeps the address the server names, not the one handed over
        msg = self._send("transfer_notice", s, b, (square.bundle.address,), session)
        b.remember("ADD", msg.payload[0])
        self._emit("the procedure terminates; both users are notified")
        self._emit(f"the transfer is complete; the square now belongs to user {tu}")

    # ------------------------------------------------------------------
    # redemption

    def redeem(self, user_letter: str, dest: str, cents: int) -> int:
        square = self._square_for(f"USER_{user_letter.upper()}")
        if not self.store.ping(square.slot_id):
            # a drained square is refused before any message goes out
            raise SlotEmpty(f"slot {square.slot_id!r} is empty")
        x, s = self.user(user_letter), self.server
        letter = x.letter.upper()
        plain = self.mode == "baseline3"
        session = self._new_session(square, x, x)
        self._send("take_request" if plain else "redeem_request", x, s, (), session)
        if self.mode == "cryptocubic":
            why = self._challenge(x, square.owner_pub, session, "auth failed",
                                  f"user {letter} fails the redemption challenge; the slot stays shut")
            if why:
                raise AuthFailure(f"redemption challenge failed: {why}")
            self._emit(f"user {letter} answers the redemption challenge and is confirmed")

        taken, permit = session.taken = self.store.take(square.slot_id)
        display = square.slot_display
        try:
            if plain:
                # the plaintext mode recovers the keys in memory, not in a scope
                sig_s = self._send("take_payload", s, x, (taken,), session).payload[0]
                x.remember("Sig_S", sig_s)
                self._emit(f"user {letter} takes the server signing key from the store")
                sig_u = x.recall("Sig_U")
            else:
                cypher, ks = self._send("redeem_payload", s, x, (taken, square.sym_key), session).payload
                proc = session.scope = x.open_procedure()
                proc.bind(display, cypher)
                proc.bind("Ks", ks)
                self._emit(f"server releases the owner cypher and symmetric key to user {letter}")

                sig_u = self.backend.asym_decrypt(x.recall(f"K{x.letter}"), cypher)
                sig_s = self.backend.sym_decrypt(ks, x.recall("Es"))
                proc.bind("Sig_U", sig_u)
                proc.bind("Sig_S", sig_s)
                self._emit(f"user {letter} recovers both signing keys inside a private scope")
            tx_id = self._submit_spend(square, sig_u, sig_s, dest, cents)
        except (CryptoError, LedgerError) as exc:
            # the permit puts the value back, so the owner can try again
            self._abort(session, type(exc).__name__,
                        f"user {letter} cannot redeem; {display} returns to the store")
            raise
        if session.scope is not None:
            session.scope.terminate()
        if self.ledger.balance(square.address_value):
            # a partial redemption leaves the rest redeemable
            self.store.reinsert(permit, taken)
        session.phase = "completed"
        self._emit(f"user {letter} signs the transfer and the chain accepts it")
        return tx_id

    def _submit_spend(self, square: CryptoSquareRecord, sig_u, sig_s, dest: str, cents: int) -> int:
        nonce = self.ledger.fresh_nonce()
        tx = ChainTx(square.address_value, dest, cents, nonce)
        message = tx.signing_message()
        signed = ChainTx(
            square.address_value,
            dest,
            cents,
            nonce,
            sig_user=self.backend.sign(sig_u, message),
            sig_server=self.backend.sign(sig_s, message),
        )
        return self.ledger.spend(signed)

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
            why = self._challenge(target, square.owner_pub, session, "auth failed",
                                  "a stale token comes back and the challenge is refused")
        finally:
            self.transport.interposer = previous
        if not why:
            self._emit("a stale token is accepted")
        return not why
