"""Self-destructive storage: single-occupancy slots with destructive reads."""
import hashlib
import random
import threading

import pytest

from cryptocubic.store import (
    OP_GRANT,
    OP_INSERT,
    OP_REINSERT,
    OP_TAKE,
    DestructiveStore,
    PermitUsed,
    SlotEmpty,
    SlotFull,
    SlotIdTaken,
    SourceCapability,
    TornJournal,
    Unauthorized,
    UnknownSlot,
    ValueMismatch,
    replay_journal,
)


def digest(value):
    return hashlib.sha256(repr(value).encode()).digest()


@pytest.fixture
def store():
    return DestructiveStore(digest)


def test_grant_insert_take_cycle(store):
    cap = store.grant_source(["s1"])
    store.insert(cap, "s1", b"v")
    assert store.ping("s1")
    value, permit = store.take("s1")
    assert value == b"v"
    assert not store.ping("s1")
    assert permit.slot_id == "s1"


def test_insert_outside_scope_unauthorized(store):
    cap = store.grant_source(["s1"])
    store.grant_source(["s2"])
    with pytest.raises(Unauthorized):
        store.insert(cap, "s2", b"v")


def test_forged_capability_fuzz(store):
    issued = store.grant_source(["s1"])
    rng = random.Random(0)
    forgeries = [SourceCapability(rng.randbytes(16).hex(), frozenset({"s1"})) for _ in range(200)]
    # a copy of the issued capability names a real id and scope, but is not it
    forgeries.append(SourceCapability(issued.cap_id, issued.scope))
    for forged in forgeries:
        with pytest.raises(Unauthorized):
            store.insert(forged, "s1", b"v")


def test_two_stores_issue_the_same_capability_ids():
    # capability ids come from the grants, not from a source outside the seed
    stores = DestructiveStore(digest), DestructiveStore(digest)
    ids = [[store.grant_source([slot]).cap_id for slot in ("s1", "s2", "s3")] for store in stores]
    assert ids[0] == ids[1]


def test_slot_id_collision(store):
    store.grant_source(["s1"])
    with pytest.raises(SlotIdTaken):
        store.grant_source(["s1"])


def test_unknown_slot(store):
    with pytest.raises(UnknownSlot):
        store.ping("nope")
    with pytest.raises(UnknownSlot):
        store.take("nope")


def test_insert_full_slot(store):
    cap = store.grant_source(["s1"])
    store.insert(cap, "s1", b"v")
    with pytest.raises(SlotFull):
        store.insert(cap, "s1", b"w")


def test_take_empty_then_refill(store):
    cap = store.grant_source(["s1"])
    store.insert(cap, "s1", b"v")
    store.take("s1")
    with pytest.raises(SlotEmpty):
        store.take("s1")
    # the capability holder may deliberately refill
    store.insert(cap, "s1", b"w")
    assert store.ping("s1")


def test_ping_is_readonly_100(tmp_path):
    path = str(tmp_path / "journal.bin")
    store = DestructiveStore(digest, journal_path=path)
    cap = store.grant_source(["s1"])
    store.insert(cap, "s1", b"v")
    before = replay_journal(path)
    answers = [store.ping("s1") for _ in range(100)]
    assert answers == [True] * 100
    # a ping writes no journal record and leaves the value in place
    assert replay_journal(path) == before
    assert store.take("s1")[0] == b"v"


def test_reinsert_restores(store):
    cap = store.grant_source(["s1"])
    store.insert(cap, "s1", b"v")
    value, permit = store.take("s1")
    store.reinsert(permit, value)
    assert store.ping("s1")


def test_reinsert_twice_one_permit(store):
    cap = store.grant_source(["s1"])
    store.insert(cap, "s1", b"v")
    value, permit = store.take("s1")
    store.reinsert(permit, value)
    store.take("s1")
    with pytest.raises(PermitUsed):
        store.reinsert(permit, value)


def test_a_retired_permit_puts_nothing_back(tmp_path):
    path = str(tmp_path / "journal.bin")
    store = DestructiveStore(digest, journal_path=path)
    cap = store.grant_source(["s1"])
    store.insert(cap, "s1", b"v")
    value, permit = store.take("s1")
    before = replay_journal(path)
    store.retire(permit)
    # retiring writes no journal record
    assert replay_journal(path) == before
    with pytest.raises(PermitUsed):
        store.reinsert(permit, value)
    assert not store.ping("s1")


def test_reinsert_mutated_value_rejected(store):
    cap = store.grant_source(["s1"])
    store.insert(cap, "s1", b"genuine value")
    value, permit = store.take("s1")
    mutated = bytes([value[0] ^ 1]) + value[1:]
    with pytest.raises(ValueMismatch):
        store.reinsert(permit, mutated)
    # permit survives a failed attempt; the genuine value still goes back
    store.reinsert(permit, value)
    assert store.ping("s1")


def test_concurrent_takes_exactly_one_winner(store):
    cap = store.grant_source(["s1"])
    results = []
    lock = threading.Lock()

    def grab():
        try:
            value, _ = store.take("s1")
            with lock:
                results.append(value)
        except SlotEmpty:
            pass

    for _ in range(50):
        store.insert(cap, "s1", b"prize")
        threads = [threading.Thread(target=grab) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    assert results == [b"prize"] * 50


def test_randomized_interleavings_one_take_per_fill():
    # 10,000 randomized op sequences; a filled slot pays out exactly once
    rng = random.Random(1234)
    store = DestructiveStore(digest)
    cap = store.grant_source(["s"])
    for trial in range(10_000):
        store.insert(cap, "s", trial)
        fills = 1
        winners = 0
        for _ in range(rng.randint(1, 4)):
            op = rng.random()
            if op < 0.5:
                try:
                    got, permit = store.take("s")
                    assert got == trial
                    winners += 1
                except SlotEmpty:
                    pass
            elif op < 0.8:
                store.ping("s")
            else:
                try:
                    store.insert(cap, "s", trial)
                    fills += 1
                except SlotFull:
                    pass
        # drain for the next round
        try:
            store.take("s")
            winners += 1
        except SlotEmpty:
            pass
        assert winners == fills


def test_journal_replay(tmp_path):
    path = tmp_path / "journal.bin"
    store = DestructiveStore(digest, journal_path=str(path))
    cap = store.grant_source(["s1", "s2"])
    store.insert(cap, "s1", b"v1")
    store.insert(cap, "s2", b"v2")
    v, permit = store.take("s1")
    store.reinsert(permit, v)
    store.take("s2")

    records = replay_journal(str(path))
    assert [r.seq for r in records] == list(range(1, len(records) + 1))
    # s1 ends refilled, s2 ends empty
    assert [(r.op, r.slot_id) for r in records] == [
        (OP_GRANT, "s1"), (OP_GRANT, "s2"), (OP_INSERT, "s1"), (OP_INSERT, "s2"),
        (OP_TAKE, "s1"), (OP_REINSERT, "s1"), (OP_TAKE, "s2"),
    ]
    # digests in the journal match what was stored
    insert_digests = [r.value_digest for r in records if r.op == OP_INSERT]
    assert insert_digests[0] == digest(b"v1")


def test_torn_journal_tail_raises(tmp_path):
    path = tmp_path / "journal.bin"
    store = DestructiveStore(digest, journal_path=str(path))
    cap = store.grant_source(["s1"])
    store.insert(cap, "s1", b"v1")
    store.take("s1")
    data = path.read_bytes()
    records = replay_journal(str(path))
    bounds, offset = [0], 0
    while offset < len(data):
        offset += 4 + int.from_bytes(data[offset : offset + 4], "big")
        bounds.append(offset)
    assert len(bounds) == len(records) + 1

    torn = tmp_path / "torn.bin"
    for cut in range(len(data)):
        torn.write_bytes(data[:cut])
        if cut in bounds:
            # a cut on a record boundary leaves exactly the complete records
            assert replay_journal(str(torn)) == records[: bounds.index(cut)]
        else:
            with pytest.raises(TornJournal):
                replay_journal(str(torn))


def journal_record(seq, op, slot_id_bytes):
    body = seq.to_bytes(8, "big") + bytes([op]) + len(slot_id_bytes).to_bytes(2, "big")
    body += slot_id_bytes + b"\x07" * 32
    return len(body).to_bytes(4, "big") + body


@pytest.mark.parametrize(
    "op,slot_id_bytes", [(9, b"s1"), (0, b"s1"), (OP_TAKE, b"s\xff1"), (OP_TAKE, b"s\xed\xa0\x801")],
    ids=["op-9", "op-0", "not-utf8", "surrogate"],
)
def test_journal_record_the_store_never_writes_is_torn(tmp_path, op, slot_id_bytes):
    # its lengths add up, but its op or its slot id is not one the store writes
    path = tmp_path / "journal.bin"
    path.write_bytes(journal_record(1, OP_GRANT, b"s1") + journal_record(2, op, slot_id_bytes))
    with pytest.raises(TornJournal):
        replay_journal(str(path))


def test_journal_counts_a_slot_id_in_bytes(tmp_path):
    path = tmp_path / "journal.bin"
    store = DestructiveStore(digest, journal_path=str(path))
    cap = store.grant_source(["sq→K"])
    store.insert(cap, "sq→K", b"v1")
    assert [(r.op, r.slot_id) for r in replay_journal(str(path))] == [
        (OP_GRANT, "sq→K"), (OP_INSERT, "sq→K")]
