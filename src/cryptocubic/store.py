"""Self-destructive storage.

Slots hold at most one value.  Reading is destructive: ``take`` removes the
value and hands back a single-use permit that allows the same value (checked
by digest) to be put back once, which is the abort path.  Writes require a
source capability scoped to specific slots.  Presence can be probed without
side effects via ``ping``.

All mutations are serialized under one lock, so concurrent callers observe
take/insert as atomic.  An optional journal appends a length-prefixed binary
record per mutation for deterministic replay; each record opens the file,
appends and closes it again, so a store holds no open file.
"""
from __future__ import annotations

import secrets
import threading
from dataclasses import dataclass


class StoreError(Exception):
    pass


class UnknownSlot(StoreError):
    pass


class SlotEmpty(StoreError):
    pass


class SlotFull(StoreError):
    pass


class SlotIdTaken(StoreError):
    pass


class Unauthorized(StoreError):
    pass


class PermitUsed(StoreError):
    pass


class ValueMismatch(StoreError):
    pass


class TornJournal(StoreError):
    """A journal record is cut short or its lengths do not add up."""


OP_GRANT = 1
OP_INSERT = 2
OP_TAKE = 3
OP_REINSERT = 4


@dataclass(frozen=True)
class SourceCapability:
    """Unforgeable write permission for a fixed set of slot ids."""

    cap_id: str
    scope: frozenset[str]


@dataclass
class ReinsertPermit:
    """Single-use right to put the taken value back into its slot."""

    slot_id: str
    value_digest: bytes
    used: bool = False


@dataclass
class _Slot:
    value: object | None = None
    digest: bytes | None = None


@dataclass(frozen=True)
class JournalRecord:
    seq: int
    op: int
    slot_id: str
    value_digest: bytes


class DestructiveStore:
    """Pingable, capability-gated, destructively-read slot storage."""

    def __init__(self, digest_fn, journal_path=None) -> None:
        self._slots: dict[str, _Slot] = {}
        self._caps: dict[str, SourceCapability] = {}
        self._digest = digest_fn
        self._lock = threading.Lock()
        self._seq = 0
        self._journal_path = journal_path
        if journal_path:
            open(journal_path, "ab").close()  # an unwritable path fails here

    # -- capability management -------------------------------------------

    def grant_source(self, slot_ids) -> SourceCapability:
        with self._lock:
            ids = list(slot_ids)
            for slot_id in ids:
                if slot_id in self._slots:
                    raise SlotIdTaken(f"slot {slot_id!r} already exists")
            cap = SourceCapability(secrets.token_hex(16), frozenset(ids))
            for slot_id in ids:
                self._slots[slot_id] = _Slot()
                self._journal(OP_GRANT, slot_id, b"\x00" * 32)
            self._caps[cap.cap_id] = cap
            return cap

    def _authorize(self, cap: SourceCapability, slot_id: str) -> None:
        known = self._caps.get(getattr(cap, "cap_id", None))
        if known is None or known is not cap:
            raise Unauthorized("capability not issued by this store")
        if slot_id not in cap.scope:
            raise Unauthorized(f"capability does not cover slot {slot_id!r}")

    # -- slot operations -------------------------------------------------

    def ping(self, slot_id: str) -> bool:
        with self._lock:
            slot = self._slots.get(slot_id)
            if slot is None:
                raise UnknownSlot(f"no slot {slot_id!r}")
            return slot.value is not None

    def insert(self, cap: SourceCapability, slot_id: str, value: object) -> None:
        with self._lock:
            self._authorize(cap, slot_id)
            slot = self._slots[slot_id]
            if slot.value is not None:
                raise SlotFull(f"slot {slot_id!r} is occupied")
            digest = self._digest(value)
            slot.value = value
            slot.digest = digest
            self._journal(OP_INSERT, slot_id, digest)

    def take(self, slot_id: str) -> tuple[object, ReinsertPermit]:
        with self._lock:
            slot = self._slots.get(slot_id)
            if slot is None:
                raise UnknownSlot(f"no slot {slot_id!r}")
            if slot.value is None:
                raise SlotEmpty(f"slot {slot_id!r} is empty")
            value, digest = slot.value, slot.digest
            slot.value = None
            slot.digest = None
            self._journal(OP_TAKE, slot_id, digest)
            return value, ReinsertPermit(slot_id, digest)

    def reinsert(self, permit: ReinsertPermit, value: object) -> None:
        with self._lock:
            if permit.used:
                raise PermitUsed("reinsert permit already spent")
            slot = self._slots.get(permit.slot_id)
            if slot is None:
                raise UnknownSlot(f"no slot {permit.slot_id!r}")
            if slot.value is not None:
                raise SlotFull(f"slot {permit.slot_id!r} is occupied")
            digest = self._digest(value)
            if digest != permit.value_digest:
                raise ValueMismatch("value does not match the taken original")
            permit.used = True
            slot.value = value
            slot.digest = digest
            self._journal(OP_REINSERT, permit.slot_id, digest)

    # -- inspection ------------------------------------------------------

    def slot_ids(self) -> list[str]:
        with self._lock:
            return sorted(self._slots)

    # -- journal ---------------------------------------------------------

    def _journal(self, op: int, slot_id: str, digest: bytes) -> None:
        self._seq += 1
        if not self._journal_path:
            return
        body = (
            self._seq.to_bytes(8, "big")
            + bytes([op])
            + len(slot_id).to_bytes(2, "big")
            + slot_id.encode()
            + digest
        )
        with open(self._journal_path, "ab") as fh:
            fh.write(len(body).to_bytes(4, "big") + body)


def replay_journal(path) -> list[JournalRecord]:
    """Decode a journal file back into its ordered mutation records."""
    records = []
    with open(path, "rb") as fh:
        while head := fh.read(4):
            length = int.from_bytes(head, "big")
            body = fh.read(length)
            name_len = int.from_bytes(body[9:11], "big")
            if len(head) < 4 or len(body) < length or length != 11 + name_len + 32:
                raise TornJournal(f"journal record {len(records) + 1} is cut short or malformed")
            seq = int.from_bytes(body[:8], "big")
            op = body[8]
            slot_id = body[11 : 11 + name_len].decode()
            digest = body[11 + name_len : 11 + name_len + 32]
            records.append(JournalRecord(seq, op, slot_id, digest))
    return records

