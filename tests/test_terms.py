"""Interned terms: one object per distinct term, equality is identity."""
import copy
import dataclasses
import gc
import pathlib
import pickle
import weakref
from unittest import mock

import pytest

from conftest import in_a_fresh_interpreter
from cryptocubic import terms
from cryptocubic.protocol import MODES, Simulation
from cryptocubic.scenario import parse_scenario, run_scenario
from cryptocubic.terms import (
    ASYM,
    SYM,
    AddressTerm,
    BlobTerm,
    DigestTerm,
    EncTerm,
    PrivateKeyTerm,
    PublicKeyTerm,
    SigningKeyTerm,
    SymKeyTerm,
    Term,
    TokenTerm,
)

SIG_U = SigningKeyTerm("b1", "user")
SIG_S = SigningKeyTerm("b1", "server")

# every term kind, built positionally, with its dataclass-format repr
KINDS = [
    (PrivateKeyTerm("p1"), "PrivateKeyTerm(pair_id='p1')"),
    (PublicKeyTerm("p1"), "PublicKeyTerm(pair_id='p1')"),
    (SymKeyTerm("s1"), "SymKeyTerm(key_id='s1')"),
    (SIG_U, "SigningKeyTerm(bundle_id='b1', leg='user')"),
    (AddressTerm("b1"), "AddressTerm(bundle_id='b1')"),
    (TokenTerm("t1"), "TokenTerm(token_id='t1')"),
    (BlobTerm("ab"), "BlobTerm(digest_hex='ab')"),
    (EncTerm(ASYM, "p1", SIG_U),
     "EncTerm(scheme='asym', key_id='p1', inner=SigningKeyTerm(bundle_id='b1', leg='user'))"),
    (DigestTerm(TokenTerm("t1")), "DigestTerm(inner=TokenTerm(token_id='t1'))"),
]
TERMS = [term for term, _ in KINDS]
IDS = [type(term).__name__ for term in TERMS]


def fields_of(term):
    return {name: getattr(term, name) for name in term.__match_args__}


def run(seed):
    sim = Simulation(mode="cryptocubic", seed=seed)
    sim.setup("a")
    sim.fund("a", 1000)
    sim.transfer("a", "b")
    return sim


@pytest.mark.parametrize("term, text", KINDS, ids=IDS)
def test_repr_is_the_dataclass_format(term, text):
    assert repr(term) == text


@pytest.mark.parametrize("term", TERMS, ids=IDS)
def test_positional_fields_give_one_object_and_keywords_are_refused(term):
    fields = fields_of(term)
    assert type(term)(*fields.values()) is term
    with pytest.raises(TypeError):
        type(term)(**fields)
    *rest, last = fields
    with pytest.raises(TypeError):
        type(term)(*[fields[name] for name in rest], **{last: fields[last]})


@pytest.mark.parametrize("term", TERMS, ids=IDS)
def test_copies_and_pickles_return_the_interned_object(term):
    assert copy.copy(term) is term
    assert copy.deepcopy(term) is term
    assert pickle.loads(pickle.dumps(term)) is term
    assert copy.deepcopy([term, {term: term}])[0] is term


@pytest.mark.parametrize("term", TERMS, ids=IDS)
def test_equality_and_hash_are_identity(term):
    assert term == type(term)(*fields_of(term).values())
    assert hash(term) == object.__hash__(term)


def test_bad_fields_are_refused():
    with pytest.raises(TypeError):
        SymKeyTerm()
    with pytest.raises(TypeError):
        SymKeyTerm("s1", "s2")
    with pytest.raises(TypeError):
        SymKeyTerm("s1", key_id="s1")
    with pytest.raises(TypeError):
        SymKeyTerm(pair_id="s1")
    with pytest.raises(TypeError):
        PrivateKeyTerm(pair_id="p1")


def test_two_runs_with_one_seed_share_their_terms():
    first, second = run(7), run(7)
    for name, party in first.parties.items():
        terms = party.snapshot()
        assert terms, name
        assert {id(t) for t in terms} == {id(t) for t in second.parties[name].snapshot()}, name
    assert {id(t) for t in first.value_of} == {id(t) for t in second.value_of}


def test_the_table_holds_its_terms_weakly():
    inner = TokenTerm("held by this test only")
    outer = EncTerm(SYM, "s9", inner)
    refs = [weakref.ref(inner), weakref.ref(outer), weakref.ref(outer.key)]
    del inner, outer
    assert [ref() for ref in refs] == [None, None, None]
    assert (TokenTerm, "held by this test only") not in terms._table


def test_a_finished_run_frees_its_terms():
    # in a fresh interpreter, as ids are counters: every run names its first
    # square `ms1`, so terms another test left alive would be counted alike.
    # The run is judged first, so neither the judge's memo of legs nor the
    # closure a positive decision keeps may hold a term once both are dropped
    in_a_fresh_interpreter("""
        import gc
        from cryptocubic import adversary, terms
        from cryptocubic.protocol import SERVER, Simulation

        gc.collect()
        before = len(terms._table)
        sim = Simulation(mode="cryptocubic", seed=11)
        sim.setup("a")
        sim.fund("a", 1000)
        sim.transfer("a", "b")
        bundle_id = sim.squares["sq1"].bundle.bundle_id
        record = sim.step_records[-1]
        server = record.knowledge[SERVER]
        with_owner = server | record.knowledge["USER_B"] | set(record.slot_terms.values())
        refused = adversary.can_spend(server, bundle_id)
        read, unread = (adversary.can_spend(with_owner, bundle_id) for _ in range(2))
        assert not refused.possible and read.possible and unread.possible
        assert read.witness and "witness" not in vars(unread)
        assert len(terms._table) > before
        del sim, record, server, with_owner, refused, read, unread
        gc.collect()
        assert len(terms._table) == before, (len(terms._table), before)
        assert [leg() for leg in adversary._legs[bundle_id]] == [None, None]
    """)


@pytest.mark.parametrize("scheme", [ASYM, SYM])
def test_a_cypher_carries_the_key_that_opens_it(backend, rng, scheme):
    pair = backend.gen_asym_pair(rng)
    sym = backend.gen_sym_key(rng)
    token = backend.gen_token(rng)
    if scheme == ASYM:
        cypher, opener = backend.asym_encrypt(pair.public, token, rng), pair.private
    else:
        cypher, opener = backend.sym_encrypt(sym, token, rng), sym
    assert cypher.term.key is opener.term


def test_an_unknown_scheme_is_refused_when_built():
    leg = SigningKeyTerm("sealed under rot13", "user")
    with pytest.raises(KeyError):
        EncTerm("rot13", "k1", leg)
    assert (EncTerm, "rot13", "k1", id(leg)) not in terms._table
    assert leg.holders == {leg}


# the key each term holds in cyphers, at any depth, that the closure can
# derive; a signing key counts as holding itself, a private or symmetric key not
SEALS = [
    (PrivateKeyTerm("p1"), ()),
    (SymKeyTerm("s1"), ()),
    (SIG_U, (SIG_U,)),
    (PublicKeyTerm("p1"), ()),
    (AddressTerm("b1"), ()),
    (TokenTerm("t1"), ()),
    (BlobTerm("ab"), ()),
    (EncTerm(ASYM, "p1", SIG_U), (SIG_U,)),
    (EncTerm(SYM, "s1", TokenTerm("t1")), ()),
    (EncTerm(SYM, "s1", EncTerm(ASYM, "p1", SymKeyTerm("s2"))), (SymKeyTerm("s2"),)),
    (EncTerm(SYM, "s1", EncTerm(ASYM, "p1", PublicKeyTerm("p2"))), ()),
    (EncTerm(ASYM, "p1", EncTerm(SYM, "s1", EncTerm(SYM, "s2", SIG_U))), (SIG_U,)),
    (EncTerm(SYM, "s1", PrivateKeyTerm("p1")), (PrivateKeyTerm("p1"),)),
    # the closure never opens a digest, so a digest of a key yields none
    (DigestTerm(SymKeyTerm("s1")), ()),
    (EncTerm(SYM, "s1", DigestTerm(SIG_U)), ()),
    (EncTerm(ASYM, "p1", EncTerm(SYM, "s1", DigestTerm(PrivateKeyTerm("p1")))), ()),
]


@pytest.mark.parametrize("term, sealed", SEALS)
def test_seals_names_the_key_a_term_holds_and_its_holders_name_the_term(term, sealed):
    assert term.seals == sealed
    assert all(term in key.holders for key in sealed)
    # derived attributes: repr builds witness lines and symbolic signatures
    names = {f.name for f in dataclasses.fields(term)} | set(fields_of(term))
    for derived in ("seals", "holders"):
        assert derived not in names and derived not in repr(term)


# which legs list each term among their holders: by the rule of `seals`,
# the terms that are the leg or hold it in cyphers, at any depth
HOLDERS = [
    (SIG_U, {SIG_U}),
    (SIG_S, {SIG_S}),
    (PrivateKeyTerm("p1"), set()),
    (SymKeyTerm("s1"), set()),
    (TokenTerm("t1"), set()),
    (AddressTerm("b1"), set()),
    (EncTerm(ASYM, "p1", SIG_U), {SIG_U}),
    (EncTerm(SYM, "s1", EncTerm(ASYM, "p1", SIG_S)), {SIG_S}),
    (EncTerm(SYM, "s1", PrivateKeyTerm("p2")), set()),
    (EncTerm(ASYM, "p1", EncTerm(SYM, "s1", EncTerm(SYM, "s2", SIG_U))), {SIG_U}),
    # digests, and cyphers that seal a digest, hold no leg
    (DigestTerm(SIG_U), set()),
    (EncTerm(SYM, "s1", DigestTerm(SIG_U)), set()),
    (EncTerm(ASYM, "p1", EncTerm(SYM, "s1", DigestTerm(SIG_S))), set()),
]


@pytest.mark.parametrize("term, legs", HOLDERS)
def test_holders_lists_the_terms_that_are_or_hold_a_leg(term, legs):
    assert {leg for leg in (SIG_U, SIG_S) if term in leg.holders} == legs
    assert {SIG_U, SIG_S}.intersection(term.seals) == legs


def test_holders_holds_only_terms_that_are_or_hold_the_leg():
    for leg in (SIG_U, SIG_S):
        assert leg in leg.holders
        assert all(term.seals == (leg,) for term in leg.holders)


@pytest.mark.parametrize("opener", [PrivateKeyTerm, SymKeyTerm])
def test_a_private_or_symmetric_key_lists_the_cyphers_that_seal_it_and_never_itself(opener):
    gc.collect()
    before = len(terms._table)
    key = opener("held by this test only")
    assert key.holders == frozenset() and "holders" not in vars(key)  # no set of its own
    outer = EncTerm(ASYM, "p8", EncTerm(SYM, "s8", key))
    assert key.holders == {outer, outer.inner}
    # a self-entry would be a cycle, so the key would outlive its last reference
    assert key not in key.holders and key.seals == ()
    refs = [weakref.ref(key), weakref.ref(outer)]
    del key, outer
    gc.collect()
    assert [ref() for ref in refs] == [None, None]
    assert len(terms._table) == before


def test_a_signing_key_and_its_holders_are_freed_by_the_collector():
    # the key, its digest, two nested cyphers and the keys that open them;
    # the table keys each by its term fields' ids, so it keeps none alive
    gc.collect()
    before = len(terms._table)
    key = SigningKeyTerm("held by this test only", "user")
    digest = DigestTerm(key)
    cypher = EncTerm(ASYM, "p9", EncTerm(SYM, "s9", key))
    assert key.holders == {key, cypher, cypher.inner}
    assert len(terms._table) == before + 6
    refs = [weakref.ref(key), weakref.ref(digest), weakref.ref(cypher)]
    del key, digest, cypher
    gc.collect()
    assert [ref() for ref in refs] == [None, None, None]
    assert len(terms._table) == before


@pytest.mark.parametrize("backend", ["symbolic", "concrete"])
def test_every_term_class_is_built_by_a_program_run(backend):
    # a class no bundled script builds in any mode is code no program path
    # reaches on this backend; each build looks its key up in the intern table
    built, lookup = set(), terms._table.get

    def spy(key, default=None):
        built.add(key[0])
        return lookup(key, default)

    scripts = sorted(pathlib.Path(__file__).resolve().parent.parent.glob("scenarios/*.scen"))
    assert len(scripts) == 3
    with mock.patch.object(terms._table, "get", spy):
        for script in scripts:
            for mode in MODES:
                parsed = parse_scenario(script.read_text(), mode=mode, backend=backend)
                run_scenario(parsed, quiet=True, write=lambda chunk: None)
    assert built == set(Term.__subclasses__())
    assert "get" not in vars(terms._table)
