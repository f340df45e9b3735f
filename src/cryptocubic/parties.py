"""Party state machines and the message fabric between them.

A party holds named values in insertion-ordered memory and may run dynamic
procedures: transient scopes whose bindings never touch memory, are
invisible to knowledge snapshots, and are erased when the scope terminates.

Memory changes only through `Party.remember`, `forget` and `restore`, which
keep the count of names per knowledge term, the count of names holding a
signing key, the party's snapshot and its listing in step with it.  The
snapshot is the same frozenset until the held terms change; the listing
counts the changes a holdings column shows: a name added or forgotten, or an
address replaced under a name.  `holds` asks the term count.

Messages travel through one in-process transport that records what it
delivers and indexes the terms heard on user-user links by first hearing
(`Transport.heard`).  `Transport.heard_by` answers which terms were heard by
a transcript length with one frozenset, shared while the heard prefix holds:
`heard` only grows, so a prefix's set never changes.  Receivers act on what
was delivered.  An optional `Transport.interposer`, where a Dolev-Yao
attacker stands, sees each message first: it delivers it or a copy with
another payload (`dataclasses.replace`), loses it by returning None, or
drops the link by raising `TransportFailure`.  Only a lost request in
`AWAITED` reaches its sender as None, and the sender times out; losing any
other message drops the link, and so does a payload that is no tuple or
whose items differ in number or class from those sent.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable

from .backend import Address, term_of
from .terms import SigningKeyTerm, Term


class TransportFailure(Exception):
    pass


# the requests whose senders wait for an answer, and time out when they are lost
AWAITED = ("request_private_key", "challenge")

SERVER = "SERVER_S"


class DynamicProcedure:
    """Transient scope; bindings live only until termination."""

    def __init__(self, owner: "Party") -> None:
        self.owner = owner
        self.bindings: dict[str, object] = {}

    def bind(self, name: str, value: object) -> None:
        self.bindings[name] = value

    def terminate(self) -> None:
        self.bindings.clear()
        if self in self.owner.procedures:
            self.owner.procedures.remove(self)


class Party:
    def __init__(self, name: str) -> None:
        self.name = name
        self.letter = name.rsplit("_", 1)[1].lower()  # "a" for USER_A
        self.memory: dict[str, object] = {}
        self._term_counts: dict[Term, int] = {}  # names holding each term
        self._snapshot: frozenset[Term] | None = frozenset()
        self.signing_keys = 0  # names holding a signing key
        self.listing = 0  # bumped by every name added or forgotten and every address replaced
        self.procedures: list[DynamicProcedure] = []

    def remember(self, name: str, value: object) -> None:
        if name in self.memory and self.memory[name] is value:
            return  # the name already holds this very object: nothing changes
        term = term_of(value)
        if name in self.memory:
            # the name shows another balance if it held or now holds an address
            self.listing += Address in (type(self.memory[name]), type(value))
            self._release(name)
        else:
            self.listing += 1
        self.memory[name] = value
        held = self._term_counts.get(term, 0)
        self._term_counts[term] = held + 1
        self.signing_keys += type(term) is SigningKeyTerm
        if not held:  # a term new to the party
            self._snapshot = None

    def forget(self, name: str) -> None:
        if name in self.memory:
            self._release(name)
            del self.memory[name]
            self.listing += 1

    def restore(self, memory: dict[str, object]) -> None:
        """Replace the whole memory, as a rollback does."""
        for name in list(self.memory):
            self.forget(name)
        for name, value in memory.items():
            self.remember(name, value)

    def _release(self, name: str) -> None:
        term = term_of(self.memory[name])
        self._term_counts[term] -= 1
        self.signing_keys -= type(term) is SigningKeyTerm
        if not self._term_counts[term]:  # the last name holding the term
            del self._term_counts[term]
            self._snapshot = None

    def holds(self, term: Term) -> bool:
        return term in self._term_counts

    def recall(self, name: str) -> object:
        return self.memory[name]

    def open_procedure(self) -> DynamicProcedure:
        proc = DynamicProcedure(self)
        self.procedures.append(proc)
        return proc

    def snapshot(self) -> frozenset[Term]:
        """Knowledge visible to the attacker oracle: memory only.

        Dynamic-procedure bindings are deliberately absent; a snapshot taken
        mid-procedure must not see them.  The same frozenset comes back until
        a term enters or leaves memory; a name that comes or goes while
        another name holds its term changes nothing here.
        """
        if self._snapshot is None:
            # built from the dict, so the stored hashes are reused
            self._snapshot = frozenset(self._term_counts)
        return self._snapshot


@dataclass(frozen=True, slots=True)
class Message:
    msg_type: str
    sender: str
    receiver: str
    session_id: int
    payload: tuple

    @property
    def channel(self) -> str:
        return "user-server" if SERVER in (self.sender, self.receiver) else "user-user"


@dataclass
class Transport:
    """Synchronous delivery with a full transcript."""

    transcript: list[Message] = field(default_factory=list)
    # each term the first time it crossed a user-user link, in hearing
    # order, and the transcript length once it was first heard
    heard: list[Term] = field(default_factory=list)
    heard_at: dict[Term, int] = field(default_factory=dict)
    interposer: Callable[[Message], Message | None] | None = None
    # the last heard prefix asked for: its length and its terms
    _prefix: tuple[int, frozenset[Term]] = field(
        default=(0, frozenset()), init=False, repr=False, compare=False)

    def heard_by(self, upto: int | None = None) -> frozenset[Term]:
        """The terms first heard within the first `upto` messages (all, if None).

        The same frozenset comes back until the heard prefix grows or shrinks;
        a new one is built only for another prefix length."""
        heard = self.heard
        count = len(heard) if upto is None else bisect_right(heard, upto, key=self.heard_at.__getitem__)
        if count != self._prefix[0]:
            self._prefix = count, frozenset(heard[:count])
        return self._prefix[1]

    def send(self, msg: Message) -> Message | None:
        delivered = msg if self.interposer is None else self.interposer(msg)
        if delivered is None:
            if msg.msg_type in AWAITED:
                return None
            raise TransportFailure(f"{msg.msg_type} was lost")
        if delivered is not msg and (type(delivered.payload) is not tuple
                                     or list(map(type, delivered.payload)) != list(map(type, msg.payload))):
            raise TransportFailure(f"{msg.msg_type} arrived malformed")
        self.transcript.append(delivered)
        if delivered.channel == "user-user":
            for term in map(term_of, delivered.payload):
                if term not in self.heard_at:
                    self.heard_at[term] = len(self.transcript)
                    self.heard.append(term)
        return delivered
