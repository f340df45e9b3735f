"""Party state machines and the message fabric between them.

A party holds named values in insertion-ordered memory and may run dynamic
procedures: transient scopes whose bindings never touch memory, are
invisible to knowledge snapshots, and are erased when the scope terminates.

Memory changes only through `Party.remember`, `forget` and `restore`, which
keep the count of names per knowledge term, the count of names holding a
signing key, and the party's snapshot in step with it.

Messages travel through one in-process transport that records what it
delivers (the wiretap transcript) and, apart, the payload terms of each
user-user message.  Receivers act on what was delivered.  An optional
`Transport.interposer`, where a Dolev-Yao attacker stands, sees each message
first: it delivers it or a copy with another payload (`dataclasses.replace`),
loses it by returning None, or drops the link by raising `TransportFailure`.
Only a lost request in `AWAITED` reaches its sender as None, and the sender
times out; losing any other message drops the link.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .backend import term_of
from .terms import SigningKeyTerm, Term


class TransportFailure(Exception):
    pass


# the requests whose senders wait for an answer, and time out when they are lost
AWAITED = ("request_private_key", "challenge")


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
        # names changed since the last take_changes(), mapped to True when the
        # name left memory meanwhile (it now sits at the end, or is gone)
        self._changes: dict[str, bool] = {}
        self.procedures: list[DynamicProcedure] = []

    def remember(self, name: str, value: object) -> None:
        if name in self.memory and self.memory[name] is value:
            return  # the name already holds this very object: nothing changes
        term = term_of(value)
        if name in self.memory:
            self._release(name)
            self._changes.setdefault(name, False)
        else:
            self._moved(name)
        self.memory[name] = value
        self._term_counts[term] = self._term_counts.get(term, 0) + 1
        self.signing_keys += type(term) is SigningKeyTerm
        self._snapshot = None

    def forget(self, name: str) -> None:
        if name in self.memory:
            self._release(name)
            self._moved(name)
            del self.memory[name]
            self._snapshot = None

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
        if not self._term_counts[term]:
            del self._term_counts[term]

    def _moved(self, name: str) -> None:
        self._changes.pop(name, None)
        self._changes[name] = True

    def take_changes(self) -> dict[str, bool]:
        """Names changed since the last call, in the order they last moved."""
        changes, self._changes = self._changes, {}
        return changes

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
        memory changes.
        """
        if self._snapshot is None:
            # built from the dict, so the stored hashes are reused
            self._snapshot = frozenset(self._term_counts)
        return self._snapshot


@dataclass(frozen=True)
class Message:
    msg_type: str
    sender: str
    receiver: str
    session_id: int
    payload: tuple

    @property
    def channel(self) -> str:
        roles = {self.sender, self.receiver}
        return "user-user" if "SERVER_S" not in roles else "user-server"


@dataclass
class Transport:
    """Synchronous delivery with a full transcript."""

    transcript: list[Message] = field(default_factory=list)
    # per user-user message: transcript length once it was sent, and the
    # terms of its payload; what the wiretap hears, in sending order
    user_user: list[tuple[int, tuple[Term, ...]]] = field(default_factory=list)
    interposer: Callable[[Message], Message | None] | None = None

    def send(self, msg: Message) -> Message | None:
        delivered = msg if self.interposer is None else self.interposer(msg)
        if delivered is None:
            if msg.msg_type in AWAITED:
                return None
            raise TransportFailure(f"{msg.msg_type} was lost")
        self.transcript.append(delivered)
        if delivered.channel == "user-user":
            self.user_user.append((len(self.transcript), tuple(map(term_of, delivered.payload))))
        return delivered
