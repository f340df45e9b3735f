"""A hostile payload anywhere in a short run ends its session cleanly.

Each run of `setup a / fund a 1000 / transfer a b / redeem b ext 400` swaps one
payload element of one message, through `Transport.interposer`, for one of
17 hostile values, as a Dolev-Yao intruder who may rewrite any payload could.
Every message and element of the clean run is swapped in turn, in every mode
on both backends: 1258 runs.  Whatever the swap does, only domain errors
escape, no funded address is left with an empty slot, no session keeps what
it took from the store and no scope is left open.  The runs after which the
square's owner cannot redeem its balance are counted and pinned.  None
follows a swap on a user-user link but bare4's handover, which no hash
check guards; the rest follow a swap of the same class on a user-server
link, which the protocol assumes authentic.
"""
import random
from collections import Counter
from dataclasses import replace

import pytest

from cryptocubic.backend import (
    AsymPrivateKey,
    AsymPublicKey,
    CryptoError,
    SigningKey,
    SymKey,
    Token,
    get_backend,
)
from cryptocubic.ledger import LedgerError
from cryptocubic.parties import TransportFailure
from cryptocubic.protocol import ProtocolError, Simulation
from cryptocubic.store import StoreError

DOMAIN_ERRORS = (ProtocolError, StoreError, LedgerError, CryptoError, TransportFailure)

# payload elements the clean run sends, times 17 values, per mode
RUNS = {"baseline3": 5 * 17, "bare4": 12 * 17, "cryptocubic": 20 * 17}

# runs after which the owner cannot redeem, per (mode, backend)
STRANDED = {
    ("baseline3", "symbolic"): 2,
    ("baseline3", "concrete"): 2,
    ("bare4", "symbolic"): 9,
    ("bare4", "concrete"): 7,
    ("cryptocubic", "symbolic"): 5,
    ("cryptocubic", "concrete"): 4,
}


def hostile_values(name):
    """The 17 values a swap delivers.  Another backend of the same kind makes
    them, under ids no run draws, so no key of theirs fits a key of the run."""
    backend, rng = get_backend(name), random.Random(99)
    pair = backend.gen_asym_pair(rng)
    public, private = replace(pair.public, pair_id="ak99"), replace(pair.private, pair_id="ak99")
    sym_key = replace(backend.gen_sym_key(rng), key_id="sk99")
    bundle = backend.gen_multisig(rng)
    token = Token("tk99", rng.randbytes(16))
    return [
        None, b"junk", "junk", 7, token, public, private,
        AsymPublicKey("ak98", bytes(32)),  # a low-order X25519 point
        AsymPrivateKey("ak97", b"short"),
        sym_key,
        SymKey("sk98", b"short"),
        replace(bundle.sig_user, bundle_id="ms99"),
        SigningKey("ms98", "user", b"short"),
        replace(bundle.address, bundle_id="ms99"),
        backend.sym_encrypt(sym_key, b"junk", rng),
        backend.asym_encrypt(public, token, rng),
        backend.hash_value(token),
    ]


def script(sim):
    sim.setup("a")
    sim.fund("a", 1000)
    sim.transfer("a", "b")
    sim.redeem("b", "ext", 400)


def run(mode, backend, position, element, value):
    """The outcomes of one run whose `position`-th message has payload
    element `element` swapped for `value`."""
    sim = Simulation(mode=mode, backend=backend, record=False)
    sessions, new_session = [], sim._new_session
    sim._new_session = lambda *args: sessions.append(new_session(*args)) or sessions[-1]
    sent = []

    def swap(msg):
        sent.append(msg)
        if len(sent) - 1 != position:
            return msg
        payload = list(msg.payload)
        payload[element] = value
        return replace(msg, payload=tuple(payload))

    sim.transport.interposer = swap
    outcomes = []
    try:
        script(sim)
    except DOMAIN_ERRORS:
        pass  # a swap may fail any command; what counts is what the run leaves
    except Exception:
        outcomes.append("escape")
    sim.transport.interposer = None
    if any(session.taken is not None for session in sessions):
        outcomes.append("held")  # an ended step left its session holding the taken value
    if any(party.procedures for party in sim.parties.values()):
        outcomes.append("open scope")
    for square in sim.squares.values():
        balance = sim.ledger.balance(square.address_value)
        if not balance:
            continue
        if not sim.store.ping(square.slot_id):
            outcomes.append("empty slot")
        try:
            sim.redeem(square.owner_party[-1], "ext", balance)
        except Exception:
            outcomes.append("stranded")
    return outcomes


def sweep(mode, backend):
    """A Counter of the outcomes over every swap, with the number of runs, and
    the types of the user-user messages whose swap stranded a square."""
    clean = Simulation(mode=mode, backend=backend, record=False)
    script(clean)
    counts, user_user = Counter(), set()
    for value in hostile_values(backend):
        for position, msg in enumerate(clean.transport.transcript):
            for element in range(len(msg.payload)):
                counts["runs"] += 1
                outcomes = run(mode, backend, position, element, value)
                counts.update(outcomes)
                if "stranded" in outcomes and msg.channel == "user-user":
                    user_user.add(msg.msg_type)
    return counts, user_user


@pytest.mark.parametrize("mode, backend", STRANDED)
def test_a_hostile_payload_ends_its_session_cleanly(mode, backend):
    counts, user_user = sweep(mode, backend)
    assert counts["runs"] == RUNS[mode]
    assert counts["escape"] == 0
    assert counts["held"] == 0
    assert counts["empty slot"] == 0
    assert counts["open scope"] == 0
    assert counts["stranded"] == STRANDED[mode, backend]
    # bare4 takes any cypher handed over as Es: it has no hash check, by design
    assert user_user == ({"handover"} if mode == "bare4" else set())
