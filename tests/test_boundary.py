"""The library boundary: `Simulation` refuses what a script refuses.

A token that names no user, an amount that is not a positive int of cents,
or a destination that no script token could be, is refused with a domain
error before the call sends, takes or emits anything, and only domain errors
escape any call.
"""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cryptocubic.backend import CryptoError, term_of
from cryptocubic.ledger import BadDestination, LedgerError, NonPositiveAmount
from cryptocubic.parties import SERVER
from cryptocubic.protocol import BadLetter, ProtocolError, Simulation
from cryptocubic.store import StoreError
from cryptocubic.terms import SymKeyTerm

MODES = ["baseline3", "bare4", "cryptocubic"]
DOMAIN_ERRORS = (ProtocolError, StoreError, LedgerError, CryptoError)


def state(sim):
    """Everything a refused call must leave as it was."""
    return (
        len(sim.events),
        len(sim.transport.transcript),
        list(sim.parties),
        sim.ledger.dump(),
        {slot: sim.store.ping(slot) for slot in sim.store.slot_ids()},
        {name: dict(party.memory) for name, party in sim.parties.items()},
    )


def funded(mode="cryptocubic", backend="symbolic", record=True):
    sim = Simulation(mode=mode, backend=backend, seed=0, record=record)
    sim.setup("a")
    sim.fund("a", 1000)
    return sim


# Honest calls move the square between users a and b, so that the other
# calls act on a live run.  Those draw text of any code points (built without
# the unicode table that `st.text` makes on first use, which costs seconds),
# letters that case-map oddly, and bytes, which upper-case and compare like a
# one-letter string but name no user.  Destinations are text of any code
# points, text rich in whitespace, or an int; an owner redeems to them often.
_honest = st.sampled_from([
    ("transfer", "a", "b"), ("transfer", "b", "a"), ("fund", "a", 100), ("fund", "b", 100),
    ("redeem", "a", "ext", 100), ("redeem", "b", "ext", 100), ("setup", "c"),
])
_text = st.lists(st.integers(0, 0x10FFFF).map(chr), max_size=3).map("".join)
_odd = st.sampled_from(["", "s", "S", "ß", "\u1e9e", "\u0130", "\u01c5", "\u03c2", "\u212a", "\u2126", "ab"])
_letters = st.one_of(st.sampled_from("abcAB"), _text, _odd, st.just(b"a"))
_amounts = st.one_of(
    st.integers(-2, 1500), st.floats(), st.booleans(), st.integers(0, 1500).map(str), _text)
_spaced = st.lists(st.sampled_from("ex \n\t\u3000"), max_size=3).map("".join)
_dests = st.one_of(st.just("ext"), _text, _spaced, st.integers(-2, 9))
_calls = st.one_of(
    _honest,
    st.tuples(st.just("setup"), _letters),
    st.tuples(st.just("fund"), _letters, _amounts),
    st.tuples(st.just("transfer"), _letters, _letters),
    st.tuples(st.just("redeem"), _letters, _dests, _amounts),
    st.tuples(st.just("redeem"), st.sampled_from("ab"), _dests, st.integers(1, 300)),
    st.tuples(st.just("holdings"), st.one_of(st.sampled_from(["USER_A", SERVER]), _letters)),
)


@pytest.mark.parametrize("backend", ["symbolic", "concrete"])
@pytest.mark.parametrize("mode", MODES)
@settings(max_examples=50, deadline=None)
@given(calls=st.lists(_calls, max_size=8))
def test_only_domain_errors_escape_and_a_refused_call_changes_nothing(mode, backend, calls):
    sim = funded(mode, backend)
    for head, *args in calls:
        amount = args[-1] if head in ("fund", "redeem") else 1
        before = state(sim)
        try:
            getattr(sim, head)(*args)
        except (BadLetter, NonPositiveAmount, BadDestination):
            assert state(sim) == before, (head, args)
        except DOMAIN_ERRORS:
            pass
        else:
            assert type(amount) is int and amount > 0, (head, args)
            if head == "redeem":
                assert isinstance(args[1], str) and args[1].split() == [args[1]], args
        # the dump never raises, and each of its lines reads back as `address balance`
        assert all(len(line.split()) == 2 for line in sim.ledger.dump().splitlines())
    # one letter per user, never the server's, so no two parties share key names
    assert all(name == SERVER or (len(name) == 6 and name != "USER_S") for name in sim.parties)
    letters = [party.letter for party in sim.parties.values()]
    assert len(set(letters)) == len(letters)


@pytest.mark.parametrize("token", ["", "s", "S", "ab", "1", "ß", "\u212a", "\u2126", b"a", None])
@pytest.mark.parametrize("call", [
    lambda sim, t: sim.user(t),
    lambda sim, t: sim.setup(t),
    lambda sim, t: sim.fund(t, 10),
    lambda sim, t: sim.transfer(t, "b"),
    lambda sim, t: sim.transfer("a", t),
    lambda sim, t: sim.begin_transfer("a", t),
    lambda sim, t: sim.redeem(t, "ext", 10),
], ids=["user", "setup", "fund", "transfer-from", "transfer-to", "begin_transfer", "redeem"])
def test_a_token_that_names_no_user_is_refused(call, token):
    sim = funded()
    before = state(sim)
    with pytest.raises(BadLetter):
        call(sim, token)
    assert state(sim) == before


def test_the_kelvin_sign_is_no_second_k():
    # it lower-cases to ASCII "k", so both users would share the key names Kk
    sim = Simulation()
    with pytest.raises(BadLetter):
        sim.setup("\u212a")
    sim.setup("k")
    assert list(sim.parties) == [SERVER, "USER_K"]


def test_no_user_s_overwrites_the_servers_symmetric_key():
    # a user S would keep its private key under Ks, the server's own name
    sim = funded()
    for probe in (lambda: sim.setup("s"), lambda: sim.transfer("a", "s")):
        with pytest.raises(BadLetter):
            probe()
    sim.transfer("a", "b")
    assert isinstance(term_of(sim.server.recall("Ks")), SymKeyTerm)


@pytest.mark.parametrize("record", [True, False])
@pytest.mark.parametrize("amount", [1.5, True, "5", 0])
def test_an_amount_that_is_not_cents_is_refused_before_any_message(record, amount):
    sim = funded(record=record)
    before = state(sim)
    for call in (lambda: sim.fund("a", amount), lambda: sim.redeem("a", "ext", amount)):
        with pytest.raises(NonPositiveAmount):
            call()
        assert state(sim) == before


@pytest.mark.parametrize("record", [True, False])
@pytest.mark.parametrize("dest", [5, "", "a b", "ext\n1", "\ud800"])
def test_a_destination_that_is_no_token_is_refused_before_any_message(record, dest):
    # an int would break the dump's sort, text with whitespace its lines, and
    # a lone surrogate the signed message
    sim = funded(record=record)
    before = state(sim)
    with pytest.raises(BadDestination):
        sim.redeem("a", dest, 100)
    assert state(sim) == before
