"""Party state machines and the message fabric between them.

A party holds named values in insertion-ordered memory and may run dynamic
procedures: transient scopes whose bindings never touch memory, are
invisible to knowledge snapshots, and are erased when the scope terminates.

Memory changes only through `Party.remember`, `forget` and `restore`, which
keep the count of names per knowledge term and the party's snapshot in step
with it.

Messages travel through a single in-process transport that records every
transmission (the wiretap transcript) and, apart, the payload terms of
each user-user message.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .backend import term_of
from .terms import Term


class TransportFailure(Exception):
    pass


class DynamicProcedure:
    """Transient scope; bindings live only until termination."""

    def __init__(self, owner: "Party") -> None:
        self.owner = owner
        self.bindings: dict[str, object] = {}
        # display name of a slot this procedure just filled, shown as the
        # "-- [x]" hand-off in the next emitted table and then cleared
        self.pending_insert: str | None = None

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
        # names changed since the last take_changes(), mapped to True when the
        # name left memory meanwhile (it now sits at the end, or is gone)
        self._changes: dict[str, bool] = {}
        self.procedures: list[DynamicProcedure] = []
        # harness switch: a silent party never answers requests, which is
        # how timeouts are injected
        self.silent = False

    def remember(self, name: str, value: object) -> None:
        term = term_of(value)
        if name in self.memory:
            self._release(name)
            self._changes.setdefault(name, False)
        else:
            self._moved(name)
        self.memory[name] = value
        self._term_counts[term] = self._term_counts.get(term, 0) + 1
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
    fail_next: bool = False
    # per user-user message: transcript length once it was sent, and the
    # terms of its payload; what the wiretap hears, in sending order
    user_user: list[tuple[int, tuple[Term, ...]]] = field(default_factory=list)

    def send(self, msg: Message) -> Message:
        if self.fail_next:
            self.fail_next = False
            raise TransportFailure(f"link dropped while sending {msg.msg_type}")
        self.transcript.append(msg)
        if msg.channel == "user-user":
            self.user_user.append((len(self.transcript), tuple(map(term_of, msg.payload))))
        return msg
