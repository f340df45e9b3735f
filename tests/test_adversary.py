"""Attack oracle: term decomposition closure, spend verdicts, staged attacks."""
import random
from collections import Counter
from dataclasses import FrozenInstanceError
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import dropped_link, in_a_fresh_interpreter, interposed
from cryptocubic import adversary
from cryptocubic.adversary import (
    SCENARIOS,
    can_spend,
    closure,
    counterfeit_handover,
    replay_witness,
    run_attack,
    snapshot_knowledge,
    take_all_slots,
    verdict_report,
    wiretap_knowledge,
)
from cryptocubic.backend import term_of
from cryptocubic.ledger import UnknownAddress
from cryptocubic.parties import TransportFailure
from cryptocubic.protocol import MODES, SERVER, Simulation
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
    TokenTerm,
)

SIG_U = SigningKeyTerm("ms1", "user")
SIG_S = SigningKeyTerm("ms1", "server")


def random_term(rng, depth=3):
    # ids drawn from a small pool so keys and cyphers actually line up
    kinds = ["priv", "pub", "sym", "sig", "token", "blob"]
    if depth > 0:
        kinds += ["enc", "enc", "digest"]
    kind = rng.choice(kinds)
    if kind == "priv":
        return PrivateKeyTerm(f"p{rng.randrange(6)}")
    if kind == "pub":
        return PublicKeyTerm(f"p{rng.randrange(6)}")
    if kind == "sym":
        return SymKeyTerm(f"k{rng.randrange(6)}")
    if kind == "sig":
        return SigningKeyTerm(f"ms{rng.randrange(3)}", rng.choice(["user", "server"]))
    if kind == "token":
        return TokenTerm(f"t{rng.randrange(6)}")
    if kind == "blob":
        return BlobTerm(f"{rng.randrange(16):02x}")
    if kind == "digest":
        return DigestTerm(random_term(rng, depth - 1))
    scheme = rng.choice([ASYM, SYM])
    key_id = f"p{rng.randrange(6)}" if scheme == ASYM else f"k{rng.randrange(6)}"
    return EncTerm(scheme, key_id, random_term(rng, depth - 1))


def random_knowledge(rng):
    return frozenset(random_term(rng) for _ in range(rng.randint(0, 8)))


def reference_closure(knowledge):
    # the naive fixpoint that the worklist closure replaced, verbatim
    known = {t: None for t in knowledge}
    changed = True
    while changed:
        changed = False
        for term in list(known):
            if isinstance(term, EncTerm) and term.inner not in known:
                if term.scheme == ASYM and PrivateKeyTerm(term.key_id) in known:
                    known[term.inner] = ("asym-decrypt", (term, PrivateKeyTerm(term.key_id)))
                    changed = True
                elif term.scheme == SYM and SymKeyTerm(term.key_id) in known:
                    known[term.inner] = ("sym-decrypt", (term, SymKeyTerm(term.key_id)))
                    changed = True
    return known


def assert_derivations_hold(closed, knowledge):
    """Every term is an input or follows by its rule from terms known before it."""
    order = {term: i for i, term in enumerate(closed)}
    for term, how in closed.items():
        if how is None:
            assert term in knowledge, term
            continue
        rule, premises = how
        assert all(order[p] < order[term] for p in premises), (term, how)
        cypher, key = premises
        assert isinstance(cypher, EncTerm) and cypher.inner == term, (term, how)
        opener = PrivateKeyTerm if cypher.scheme == ASYM else SymKeyTerm
        assert rule == f"{cypher.scheme}-decrypt", (term, how)
        assert key == opener(cypher.key_id), (term, how)


SIGN_LINE = "sign and submit the dual-signature transaction"


def recursive_explain(closed, target, lines, seen):
    # the recursive post-order walk that the iterative `_explain` replaced, verbatim
    if target in seen:
        return
    seen.add(target)
    how = closed.get(target)
    if how is None:
        lines.append(f"have {target!r}")
        return
    rule, premises = how
    for premise in premises:
        recursive_explain(closed, premise, lines, seen)
    lines.append(f"{rule}: {target!r}")


def judged_on_all_knowledge(knowledge, bundle_id):
    """`possible` and `witness` as judging the closure of the whole knowledge
    gives them: the fixpoint decides, the worklist closure explains."""
    legs = (SigningKeyTerm(bundle_id, "user"), SigningKeyTerm(bundle_id, "server"))
    if not set(legs) <= reference_closure(knowledge).keys():
        return False, []
    closed, lines, seen = closure(knowledge), [], set()
    for leg in legs:
        recursive_explain(closed, leg, lines, seen)
    assert lines == adversary._explain(closed, legs)
    return True, lines + [SIGN_LINE]


def judged(knowledge, bundle_id):
    decision = can_spend(knowledge, bundle_id)
    return decision.possible, decision.witness


# one id pool for both schemes, so cyphers, keys and chains line up and a
# key of one scheme meets cyphers of the other
KEY_IDS = st.sampled_from(["k0", "k1", "k2", "k3"])
ATOMS = st.one_of(
    KEY_IDS.map(PrivateKeyTerm),
    KEY_IDS.map(PublicKeyTerm),
    KEY_IDS.map(SymKeyTerm),
    st.builds(SigningKeyTerm, st.sampled_from(["ms1", "ms2"]), st.sampled_from(["user", "server"])),
    st.sampled_from(["t0", "t1"]).map(TokenTerm),
)
TERMS = st.recursive(
    ATOMS,
    lambda inner: st.one_of(
        st.builds(EncTerm, st.sampled_from([ASYM, SYM]), KEY_IDS, inner),
        inner.map(DigestTerm),
    ),
    max_leaves=6,
)
KEY_CHAINS = st.lists(
    st.tuples(st.sampled_from([ASYM, SYM]), KEY_IDS, st.sampled_from([ASYM, SYM]), KEY_IDS).map(
        lambda link: EncTerm(
            link[0], link[1], (PrivateKeyTerm if link[2] == ASYM else SymKeyTerm)(link[3])
        )
    ),
    max_size=6,
)


class TestClosure:
    def test_empty_input_empty_output(self):
        assert closure(set()) == {}
        assert frozenset(closure(frozenset())) == frozenset()

    def test_private_key_opens_matching_cypher(self):
        ea = EncTerm(ASYM, "pa", SIG_U)
        reached = frozenset(closure({ea, PrivateKeyTerm("pa")}))
        assert SIG_U in reached

    def test_symmetric_key_opens_matching_cypher(self):
        es = EncTerm(SYM, "ks", SIG_S)
        reached = frozenset(closure({es, SymKeyTerm("ks")}))
        assert SIG_S in reached

    def test_cypher_alone_stays_shut(self):
        ea = EncTerm(ASYM, "pa", SIG_U)
        assert SIG_U not in frozenset(closure({ea}))
        # the public half is no help either
        assert SIG_U not in frozenset(closure({ea, PublicKeyTerm("pa")}))

    def test_wrong_key_stays_shut(self):
        ea = EncTerm(ASYM, "pa", SIG_U)
        assert SIG_U not in frozenset(closure({ea, PrivateKeyTerm("pb")}))

    def test_multi_hop_chain(self):
        # a symmetric cypher yields a private key which opens the asym cypher
        wrapped_key = EncTerm(SYM, "ks", PrivateKeyTerm("pa"))
        ea = EncTerm(ASYM, "pa", SIG_U)
        reached = frozenset(closure({wrapped_key, ea, SymKeyTerm("ks")}))
        assert SIG_U in reached

    def test_idempotent_over_random_sets(self):
        rng = random.Random(7)
        for _ in range(500):
            s = random_knowledge(rng)
            once = frozenset(closure(s))
            assert frozenset(closure(once)) == once

    def test_monotone_over_random_sets(self):
        rng = random.Random(8)
        for _ in range(500):
            s = random_knowledge(rng)
            extra = random_knowledge(rng)
            assert frozenset(closure(s)) <= frozenset(closure(s | extra))

    def test_derivations_are_grounded(self):
        rng = random.Random(9)
        for _ in range(200):
            closed = closure(random_knowledge(rng))
            for term, how in closed.items():
                if how is not None:
                    _, premises = how
                    assert all(p in closed for p in premises), term


class TestWorklistClosure:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(TERMS, max_size=10), KEY_CHAINS, st.sampled_from([list, set, frozenset]))
    def test_matches_the_fixpoint(self, terms, chain, container):
        knowledge = container(terms + chain)
        closed, reference = closure(knowledge), reference_closure(knowledge)
        assert closed.keys() == reference.keys()
        assert_derivations_hold(closed, knowledge)
        # can_spend sees only the terms reached backward from the legs, and judges alike
        for bundle_id in ("ms1", "ms2"):
            assert judged(knowledge, bundle_id) == judged_on_all_knowledge(knowledge, bundle_id)

    @pytest.mark.parametrize("mode", ["baseline3", "bare4", "cryptocubic"])
    def test_every_coalition_of_the_canonical_run_derives_like_the_fixpoint(self, mode):
        spent, _, _ = every_coalition_judged_like_the_fixpoint(canonical_sim(mode))
        assert spent  # some coalitions spend, so witnesses were compared

    # baseline3 cannot hand a square back yet (ROADMAP item 1)
    @pytest.mark.parametrize("mode", ["bare4", "cryptocubic"])
    def test_every_coalition_of_a_bounce_derives_like_the_fixpoint(self, mode):
        sim = bounce_sim(6, mode=mode)
        bundle_id = next(iter(sim.squares.values())).bundle.bundle_id
        assert len(SigningKeyTerm(bundle_id, "user").holders) > 6  # one cypher per hand-over
        spent, refused, saturated = every_coalition_judged_like_the_fixpoint(sim)
        assert spent and refused and saturated > spent  # both paths ran, both verdicts


def every_coalition_judged_like_the_fixpoint(sim):
    """Judge every coalition of parties, slots and wiretap at every step of a
    recorded run against the fixpoint; count the spends, the coalitions
    refused without the closure, and those saturated.  Each witness is read
    only once the whole run is judged, and must equal the one the fixpoint
    explained at once."""
    bundle_id = next(iter(sim.squares.values())).bundle.bundle_id
    calls, decisions, expected = [], [], []

    def counted(terms):
        calls.append(terms)
        return closure(terms)

    for event, rec in zip(sim.events, sim.step_records):
        sources = [*rec.knowledge.values(), slot_terms_at(rec),
                   wiretap_knowledge(sim, upto=rec.transcript_len)]
        for size in range(1, len(sources) + 1):
            for members in combinations(sources, size):
                knowledge = frozenset().union(*members)
                assert closure(knowledge) == reference_closure(knowledge), event.step
                with mock.patch.object(adversary, "closure", counted):
                    decisions.append(can_spend(knowledge, bundle_id))
                expected.append(judged_on_all_knowledge(knowledge, bundle_id))
                assert decisions[-1].possible == expected[-1][0], event.step
    assert [(d.possible, d.witness) for d in decisions] == expected
    spent = sum(d.possible for d in decisions)
    return spent, len(decisions) - len(calls), len(calls)


def sealed_key_chain(links):
    """`k0` plus cyphers `k_i` -> `k_{i+1}`, in the order that made the
    fixpoint open one link per pass."""
    chain = [EncTerm(SYM, f"k{i}", SymKeyTerm(f"k{i + 1}")) for i in reversed(range(links))]
    return [SymKeyTerm("k0")] + chain


def count_sym_key_probes(closure_fn, links, monkeypatch):
    """The hash and equality calls on symmetric keys that `closure_fn` makes
    on a sealed-key chain passed as a list: a set or dict probe hashes, and
    a probe of a list compares."""
    chain = sealed_key_chain(links)
    calls = [0]
    hashed, compared = SymKeyTerm.__hash__, SymKeyTerm.__eq__

    def counting(call):
        def counted(*args):
            calls[0] += 1
            return call(*args)
        return counted

    with monkeypatch.context() as patch:
        patch.setattr(SymKeyTerm, "__hash__", counting(hashed))
        patch.setattr(SymKeyTerm, "__eq__", counting(compared))
        closed = closure_fn(chain)
    assert all(SymKeyTerm(f"k{i}") in closed for i in range(links + 1))
    return calls[0]


class TestClosureScaling:
    def test_work_grows_linearly_with_the_chain(self, monkeypatch):
        short = count_sym_key_probes(closure, 500, monkeypatch)
        long = count_sym_key_probes(closure, 2000, monkeypatch)
        assert long <= 5 * short, (short, long)

    def test_the_guard_catches_the_fixpoint(self, monkeypatch):
        # the same bound fails the replaced fixpoint, at sizes it can afford
        short = count_sym_key_probes(reference_closure, 100, monkeypatch)
        long = count_sym_key_probes(reference_closure, 400, monkeypatch)
        assert long > 5 * short, (short, long)


def bounce_sim(transfers, mode="cryptocubic", **kwargs):
    """One square handed from A to B and back, `transfers` times."""
    sim = Simulation(mode=mode, **kwargs)
    sim.setup("a")
    sim.fund("a", 1000)
    for i in range(transfers):
        sim.transfer(*("ab" if i % 2 == 0 else "ba"))
    return sim


def closure_inputs(knowledge, bundle_id):
    """The verdict of `can_spend`, and what it handed `closure`."""
    inputs = []

    def spy(terms):
        inputs.append(terms)
        return closure(terms)

    with mock.patch.object(adversary, "closure", spy):
        decision = can_spend(knowledge, bundle_id)
    return decision, inputs


def bears_key(term):
    """Whether a term is a key, or holds one in cyphers, that the closure can derive."""
    return type(term) in (PrivateKeyTerm, SymKeyTerm) or bool(term.seals)


def opener_of(cypher):
    return (PrivateKeyTerm if cypher.scheme == ASYM else SymKeyTerm)(cypher.key_id)


def reached_backward(knowledge, bundle_id):
    """The terms a search backward from both legs reaches, as a naive fixpoint
    that reads no index: each wanted key that is held, and each held cypher
    whose innermost term is a wanted key, which wants the opener of every
    layer it has."""
    wanted = {SigningKeyTerm(bundle_id, "user"), SigningKeyTerm(bundle_id, "server")}
    reached = set()
    while True:
        before = len(wanted), len(reached)
        for term in knowledge:
            openers, inner = [], term
            while isinstance(inner, EncTerm):
                openers.append(opener_of(inner))
                inner = inner.inner
            if inner in wanted:
                reached.add(term)
                wanted.update(openers)
        if (len(wanted), len(reached)) == before:
            return reached


def assert_witness_derives(decision, knowledge):
    """A positive witness lists only derivable terms, each premise before its
    conclusion, and ends by signing with both legs."""
    derivable = {repr(term): term for term in closure(knowledge)}
    *steps, last = decision.witness
    assert last == SIGN_LINE
    listed = set()
    for line in steps:
        rule, _, text = line.partition(" ")
        term = derivable[text]
        if rule == "have":
            assert term in knowledge, line
        else:
            _, (cypher, key) = decision.closed[term]
            assert rule == f"{cypher.scheme}-decrypt:" and cypher.inner is term, line
            assert key is opener_of(cypher) and {cypher, key} <= listed, line
        listed.add(term)
    assert {decision.sig_user_term, decision.sig_server_term} <= listed


def owner_and_server_coalition():
    # after a 60-transfer bounce: the owner, the server and the slot take
    # hold both legs' cyphers, and keys that lead to neither leg
    sim = bounce_sim(60, record=False)
    bundle_id = next(iter(sim.squares.values())).bundle.bundle_id
    return snapshot_knowledge(sim, "USER_A", SERVER) | take_all_slots(sim), bundle_id


# coalitions over two bundles' legs, drawn so that a leg is often derived:
# a few keys from a small pool, cyphers up to 3 layers deep, sealed-key
# chains, and legs, tokens and digests besides
SMALL_IDS = st.sampled_from(["k0", "k1"])
SCHEMES = st.sampled_from([ASYM, SYM])
KEYS = st.one_of(SMALL_IDS.map(PrivateKeyTerm), SMALL_IDS.map(SymKeyTerm))
LEGS = st.builds(SigningKeyTerm, st.sampled_from(["ms1", "ms2"]), st.sampled_from(["user", "server"]))
TOKENS = st.sampled_from(["t0", "t1"]).map(TokenTerm)
LAYER = st.tuples(SCHEMES, SMALL_IDS)
LAYERS = st.integers(1, 3).flatmap(lambda depth: st.lists(LAYER, min_size=depth, max_size=depth))


def sealed_in(inner, layers):
    for scheme, key_id in layers:
        inner = EncTerm(scheme, key_id, inner)
    return inner


CYPHERS = st.builds(sealed_in, st.one_of(LEGS, LEGS, KEYS, TOKENS, st.one_of(LEGS, KEYS).map(DigestTerm)),
                    LAYERS)
CHAIN_LINKS = st.builds(lambda key, layer: sealed_in(key, [layer]), KEYS, LAYER)
COALITIONS = st.builds(
    lambda parts, container: container([term for part in parts for term in part]),
    st.tuples(
        st.lists(KEYS, min_size=1, max_size=4),
        st.lists(CYPHERS, max_size=8),
        st.lists(CHAIN_LINKS, max_size=6),
        st.lists(st.one_of(LEGS, TOKENS, KEYS.map(DigestTerm), CYPHERS.map(DigestTerm)), max_size=4),
    ),
    st.sampled_from([set, frozenset, list]),
)


class TestBackwardSelection:
    def test_closure_receives_only_the_terms_reached_backward_from_the_legs(self):
        knowledge, bundle_id = owner_and_server_coalition()
        decision, inputs = closure_inputs(knowledge, bundle_id)
        (given,) = inputs
        assert type(given) is list  # a collection a caller may read again
        assert len(set(given)) == len(given)
        assert set(given) == reached_backward(knowledge, bundle_id)
        assert set(given) < {term for term in knowledge if bears_key(term)}
        assert decision.possible == judged_on_all_knowledge(knowledge, bundle_id)[0]

    @pytest.mark.parametrize("container", [set, list])
    def test_unrelated_key_bearing_terms_change_nothing_the_closure_receives(self, container):
        knowledge, bundle_id = owner_and_server_coalition()
        padding = [SymKeyTerm(f"pad{i}") for i in range(5000)]
        padding += [EncTerm(SYM, f"pad{i}", PrivateKeyTerm(f"pad{i + 1}")) for i in range(5000)]
        decision, inputs = closure_inputs(container(knowledge), bundle_id)
        padded, padded_inputs = closure_inputs(container([*knowledge, *padding]), bundle_id)
        assert padded_inputs == inputs and len(inputs) == 1
        assert padded.possible == decision.possible

    def test_work_grows_linearly_with_a_chain_passed_as_a_list(self, monkeypatch):
        def spend_closure(chain):
            last = f"k{len(chain) - 1}"
            decision = can_spend([*chain, EncTerm(SYM, last, SIG_U), SIG_S], "ms1")
            assert decision.possible
            return decision.closed

        short = count_sym_key_probes(spend_closure, 500, monkeypatch)
        long = count_sym_key_probes(spend_closure, 2000, monkeypatch)
        assert long <= 5 * short, (short, long)

    @settings(max_examples=400, deadline=None)
    @given(COALITIONS)
    # a leg under two layers, the inner one opened by a key held bare...
    @example({SymKeyTerm("k0"), PrivateKeyTerm("k1"), SIG_S,
              EncTerm(SYM, "k0", EncTerm(ASYM, "k1", SIG_U))})
    # ...and by a key a chain yields, under a cypher passed as a list
    @example([SymKeyTerm("k0"), EncTerm(SYM, "k0", PrivateKeyTerm("k1")), EncTerm(SYM, "k0", SIG_U),
              EncTerm(ASYM, "k1", EncTerm(SYM, "k0", SIG_S))])
    def test_verdicts_are_those_of_the_whole_coalition(self, knowledge):
        closed = closure(knowledge)
        for bundle_id in ("ms1", "ms2"):
            decision = can_spend(knowledge, bundle_id)
            legs = {SigningKeyTerm(bundle_id, "user"), SigningKeyTerm(bundle_id, "server")}
            assert decision.possible == (legs <= closed.keys())
            if decision.possible:
                assert_witness_derives(decision, knowledge)

    def test_every_audit_judgment_is_that_of_the_whole_coalition(self, audit_run):
        sim, bundle_id = audit_run
        legs = {SigningKeyTerm(bundle_id, "user"), SigningKeyTerm(bundle_id, "server")}
        verdicts = [(can_spend(knowledge, bundle_id).possible, legs <= closure(knowledge).keys())
                    for coalitions in audit_coalitions(sim) for knowledge in coalitions.values()]
        assert len(verdicts) == 7651
        assert all(possible == expected for possible, expected in verdicts)
        assert sum(possible for possible, _ in verdicts) == 217


@pytest.fixture(scope="module")
def audit_run():
    """`bench/`'s audit input: a 60-transfer bounce, then a full redemption."""
    sim = bounce_sim(60)
    sim.redeem("a", "ext", 1000)
    return sim, next(iter(sim.squares.values())).bundle.bundle_id


def audit_coalitions(sim):
    """The audit workload's six coalitions at each recorded step, by name."""
    for rec in sim.step_records:
        server, slots = rec.knowledge[SERVER], slot_terms_at(rec)
        coalitions = {"server": server, "server+slots": server | slots}
        for party in sorted(rec.knowledge):
            if party.startswith("USER_"):
                coalitions[f"{party}+slots"] = rec.knowledge[party] | slots
        coalitions["server+USER_A+slots"] = server | rec.knowledge["USER_A"] | slots
        coalitions["wiretap"] = wiretap_knowledge(sim, upto=rec.transcript_len)
        yield coalitions


class TestLegRefusal:
    def test_a_coalition_holding_no_leg_is_refused_without_the_closure(self):
        sim = bounce_sim(60, record=False)
        bundle_id = next(iter(sim.squares.values())).bundle.bundle_id
        knowledge = sim.server.snapshot()
        assert any(bears_key(term) for term in knowledge)  # keys, but none leads to a leg
        assert SigningKeyTerm(bundle_id, "user").holders.isdisjoint(knowledge)
        decision, inputs = closure_inputs(knowledge, bundle_id)
        assert decision == adversary.SpendDecision(False)
        assert inputs == []

    def test_a_leg_held_at_any_depth_is_not_refused(self):
        nested = EncTerm(SYM, "k1", EncTerm(ASYM, "k2", EncTerm(SYM, "k3", SIG_U)))
        keys = {SymKeyTerm("k1"), PrivateKeyTerm("k2"), SymKeyTerm("k3")}
        sealed_server_leg = EncTerm(SYM, "k1", EncTerm(SYM, "k3", SIG_S))
        for knowledge in ({nested, SIG_S} | keys, {nested, sealed_server_leg} | keys):
            decision, inputs = closure_inputs(knowledge, "ms1")
            assert decision.possible and len(inputs) == 1

    def test_a_leg_held_only_under_a_digest_is_refused(self):
        knowledge = {DigestTerm(SIG_U), EncTerm(SYM, "k1", DigestTerm(SIG_U)), SymKeyTerm("k1"), SIG_S}
        decision, inputs = closure_inputs(knowledge, "ms1")
        assert not decision.possible and inputs == []

    def test_the_audit_counts_hold(self, audit_run):
        # `bench/`'s audit workload: six coalitions at every step of a
        # 60-transfer bounce, with the counts recorded when it was added
        sim, bundle_id = audit_run
        judged, positive = Counter(), Counter()
        for coalitions in audit_coalitions(sim):
            with mock.patch.object(adversary, "_explain") as explain:  # audit reads no witness
                for name, knowledge in coalitions.items():
                    judged[name] += 1
                    positive[name] += can_spend(knowledge, bundle_id).possible
            explain.assert_not_called()
        assert len(sim.step_records) == 1277
        assert set(judged) == {"server", "server+slots", "USER_A+slots", "USER_B+slots",
                               "server+USER_A+slots", "wiretap"}
        assert +positive == {"server+USER_A+slots": 217}


class TestVerdictCost:
    def test_judging_one_bundle_again_builds_no_leg(self):
        legs = SigningKeyTerm("memo1", "user"), SigningKeyTerm("memo1", "server")
        knowledge = {EncTerm(SYM, "k1", legs[0]), EncTerm(SYM, "k1", EncTerm(SYM, "k2", legs[1])),
                     SymKeyTerm("k1"), SymKeyTerm("k2")}
        with mock.patch.object(adversary, "SigningKeyTerm", wraps=SigningKeyTerm) as built:
            decisions = [can_spend(knowledge, "memo1") for _ in range(100)]
            assert not can_spend(knowledge, "memo2").possible  # each bundle its own legs
        assert built.call_args_list == [mock.call(bundle_id, leg) for bundle_id in ("memo1", "memo2")
                                        for leg in ("user", "server")]
        assert all(d.possible and (d.sig_user_term, d.sig_server_term) == legs for d in decisions)

    def test_a_reused_bundle_id_is_judged_as_a_fresh_one(self):
        # in a fresh interpreter, where nothing else keeps `ms1`'s legs alive
        in_a_fresh_interpreter("""
            import gc
            from cryptocubic import adversary
            from cryptocubic.protocol import Simulation
            from cryptocubic.terms import SigningKeyTerm

            def judged_run():
                sim = Simulation(mode="cryptocubic", seed=5)
                sim.setup("a")
                sim.fund("a", 1000)
                sim.transfer("a", "b")
                verdicts = []
                for record in sim.step_records:
                    slots = set(filter(None, record.slot_terms.values()))
                    everyone = set().union(*record.knowledge.values())
                    for party in (*record.knowledge.values(), everyone):
                        decision = adversary.can_spend(party | slots, "ms1")
                        if decision.possible:
                            assert decision.sig_user_term is SigningKeyTerm("ms1", "user")
                        verdicts.append((decision.possible, decision.witness))
                return verdicts

            first = judged_run()
            gc.collect()
            assert [leg() for leg in adversary._legs["ms1"]] == [None, None]
            again = judged_run()
            adversary._legs.clear()
            assert again == judged_run() == first
            assert any(possible for possible, _ in first)
        """)

    def test_an_unread_witness_is_never_built(self):
        knowledge = {EncTerm(ASYM, "pa", SIG_U), PrivateKeyTerm("pa"), SIG_S}
        with mock.patch.object(adversary, "_explain", wraps=adversary._explain) as explain:
            decision, refused = can_spend(knowledge, "ms1"), can_spend({SIG_U}, "ms1")
            assert decision == adversary.SpendDecision(True, SIG_U, SIG_S)
            assert "closed" not in repr(decision) and refused.witness == []
            explain.assert_not_called()
            witness = decision.witness
            assert decision.witness is witness
            explain.assert_called_once_with(decision.closed, (SIG_U, SIG_S))
        assert witness == judged_on_all_knowledge(knowledge, "ms1")[1]

    def test_only_a_positive_verdict_builds_a_decision(self, audit_run):
        # `bench/`'s audit judgments: 6375 refused by the leg probes, 1059
        # after a closure, and 217 positive
        sim, bundle_id = audit_run
        with mock.patch.object(adversary, "SpendDecision", wraps=adversary.SpendDecision) as built:
            verdicts = [can_spend(knowledge, bundle_id).possible
                        for coalitions in audit_coalitions(sim) for knowledge in coalitions.values()]
        assert len(verdicts) == 7651 and sum(verdicts) == 217
        assert built.call_count == 217

    # refused by the leg probes (no cypher holds the user leg), and after a
    # closure (the key to the user leg's cypher is missing)
    REFUSALS = [({SIG_S, EncTerm(SYM, "k1", SIG_S), SymKeyTerm("k1")}, 0),
                ({SIG_S, EncTerm(SYM, "k1", SIG_U), SymKeyTerm("k2")}, 1)]

    @pytest.mark.parametrize("knowledge, closures", REFUSALS)
    def test_a_refusal_is_the_negative_decision(self, knowledge, closures):
        decision, inputs = closure_inputs(knowledge, "ms1")
        assert len(inputs) == closures
        assert adversary.SpendDecision(False) == decision
        assert decision is can_spend({SIG_U}, "ms1")  # shared, so built once
        with pytest.raises(FrozenInstanceError):
            decision.possible = True

    def test_no_two_verdicts_share_a_witness_list(self):
        spends = {SIG_U, SIG_S}
        witnesses = [can_spend(knowledge, "ms1").witness for knowledge, _ in self.REFUSALS]
        witnesses.append(can_spend(spends, "ms1").witness)
        for witness in witnesses:
            witness.append("tampered")
        assert [can_spend(knowledge, "ms1").witness for knowledge, _ in self.REFUSALS] == [[], []]
        assert can_spend(spends, "ms1").witness == judged_on_all_knowledge(spends, "ms1")[1]


class TestCanSpend:
    def test_both_legs_spend(self):
        ea = EncTerm(ASYM, "pa", SIG_U)
        es = EncTerm(SYM, "ks", SIG_S)
        decision = can_spend({ea, es, PrivateKeyTerm("pa"), SymKeyTerm("ks")}, "ms1")
        assert decision.possible
        assert decision.witness[-1] == "sign and submit the dual-signature transaction"

    def test_one_leg_is_not_enough(self):
        assert not can_spend({SIG_U}, "ms1").possible
        assert not can_spend({SIG_S}, "ms1").possible
        assert can_spend({SIG_U, SIG_S}, "ms1").possible

    def test_wrong_square_is_not_enough(self):
        other = {SigningKeyTerm("ms2", "user"), SigningKeyTerm("ms2", "server")}
        assert not can_spend(other, "ms1").possible

    def test_witness_lists_premises_before_conclusions(self):
        wrapped_key = EncTerm(SYM, "kw", PrivateKeyTerm("pa"))
        ea = EncTerm(ASYM, "pa", SIG_U)
        knowledge = {wrapped_key, ea, SymKeyTerm("kw"), SIG_S}
        decision = can_spend(knowledge, "ms1")
        assert decision.possible
        w = decision.witness

        def pos(fragment):
            hits = [i for i, line in enumerate(w) if fragment in line]
            assert hits, f"{fragment!r} missing from witness {w}"
            return hits[0]

        assert pos("have") < pos("sym-decrypt")
        assert pos("sym-decrypt") < pos("asym-decrypt")
        assert pos("asym-decrypt") < pos("sign and submit")

    def test_a_5000_link_chain_spends_with_premises_before_conclusions(self):
        links = 5000
        knowledge = sealed_key_chain(links) + [EncTerm(SYM, f"k{links}", SIG_U), SIG_S]
        decision = can_spend(knowledge, "ms1")
        assert decision.possible
        *steps, last = decision.witness
        assert last == SIGN_LINE
        # each term once: the chain's cyphers, k0 and the keys they yield,
        # the cypher of the user leg, and the two legs
        assert len(steps) == 2 * links + 4
        line_of = {line.partition(" ")[2]: i for i, line in enumerate(steps)}
        assert len(line_of) == len(steps)
        derived = 0
        for term, how in closure(knowledge).items():
            if how is not None and repr(term) in line_of:
                derived += 1
                _, premises = how
                for premise in premises:
                    assert line_of[repr(premise)] < line_of[repr(term)], term
        assert derived == links + 1  # every key of the chain, then the user leg
        assert steps[0] == f"have {EncTerm(SYM, f'k{links}', SIG_U)!r}"
        assert steps[-1] == f"have {SIG_S!r}"


REPLAY_NOTE = "witness replayed: 1000 cents moved on the staged chain"
EXPECTED_VERDICTS = {
    ("post_transfer_grab", "baseline3"): True,
    ("counterfeit_es", "baseline3"): True,
    ("token_replay", "baseline3"): False,
    ("double_transfer", "baseline3"): True,
    ("wiretap_passive", "baseline3"): False,
    ("store_raid", "baseline3"): False,
}
for _scenario in SCENARIOS:
    EXPECTED_VERDICTS[(_scenario, "bare4")] = False
    EXPECTED_VERDICTS[(_scenario, "cryptocubic")] = False


def staged_attack(scenario, mode, backend, **forced):
    """Run one attack; return its verdict and the run it was staged on,
    built with the keywords in `forced` overriding run_attack's."""
    staged = []

    def capture(*args, **kwargs):
        staged.append(Simulation(*args, **{**kwargs, **forced}))
        return staged[-1]

    with mock.patch.object(adversary, "Simulation", capture):
        verdict = run_attack(scenario, mode=mode, backend=backend)
    (sim,) = staged
    return verdict, sim


class TestStagedScenarios:
    @pytest.mark.parametrize("scenario,mode", sorted(EXPECTED_VERDICTS))
    def test_verdict_matrix(self, scenario, mode):
        verdict = run_attack(scenario, mode=mode)
        assert verdict.can_spend is EXPECTED_VERDICTS[(scenario, mode)]

    def test_positive_verdicts_carry_witnesses(self):
        for (scenario, mode), expected in EXPECTED_VERDICTS.items():
            if scenario == "double_transfer":
                continue  # judged by session outcomes, not only by spendability
            verdict = run_attack(scenario, mode=mode)
            assert bool(verdict.witness) is expected, (scenario, mode)

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError):
            run_attack("teleport")

    def test_witness_replays_as_a_real_spend(self):
        # the grab verdict is not an abstract claim; its witness moves money
        sim = Simulation(mode="baseline3")
        square_id = sim.setup("a")
        sim.fund("a", 1000)
        sim.transfer("a", "b")
        knowledge = snapshot_knowledge(sim, "USER_A") | take_all_slots(sim)
        bundle_id = sim.squares[square_id].bundle.bundle_id
        decision = can_spend(knowledge, bundle_id)
        assert decision.possible
        replay_witness(sim, decision, square_id, "thief", 1000)
        assert sim.ledger.balance("thief") == 1000

    @pytest.mark.parametrize("backend", ["symbolic", "concrete"])
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_every_positive_verdict_moves_money(self, scenario, mode, backend):
        verdict, sim = staged_attack(scenario, mode, backend)
        try:
            moved = sim.ledger.balance("grab_sink")
        except UnknownAddress:
            moved = 0
        assert moved == (1000 if verdict.witness else 0)
        assert (REPLAY_NOTE in verdict.notes) is bool(verdict.witness)

    @pytest.mark.parametrize("backend", ["symbolic", "concrete"])
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_staged_runs_keep_no_tables_and_judge_alike(self, scenario, mode, backend):
        verdict, sim = staged_attack(scenario, mode, backend)
        assert sim.events == [] and sim.step_records == []
        recorded, recording_sim = staged_attack(scenario, mode, backend, record=True)
        assert recording_sim.events and recording_sim.step_records
        assert verdict.can_spend is recorded.can_spend
        assert verdict.witness == recorded.witness
        assert verdict.notes == recorded.notes

    def test_stagings_and_scenarios_name_the_same_attacks(self):
        prefix = "_attack_"
        stagings = {name[len(prefix):] for name in vars(adversary) if name.startswith(prefix)}
        assert stagings == set(SCENARIOS)

    def test_report_line_format(self):
        verdict = run_attack("store_raid", mode="cryptocubic")
        assert verdict.report_line() == "store_raid cryptocubic false [0]"

    def test_report_carries_the_channel_assumption(self):
        verdicts = [run_attack(s, mode="cryptocubic") for s in SCENARIOS]
        report = verdict_report(verdicts)
        assert report.endswith("\n")
        lines = report.strip().split("\n")
        assert len(lines) == len(SCENARIOS) + 1
        assert lines[-1].startswith("# assumption:")

    def test_determinism_across_backends(self):
        for scenario in SCENARIOS:
            for mode in ("baseline3", "bare4", "cryptocubic"):
                symbolic = run_attack(scenario, mode=mode, backend="symbolic")
                concrete = run_attack(scenario, mode=mode, backend="concrete")
                assert symbolic.can_spend == concrete.can_spend, (scenario, mode)
                assert symbolic.witness == concrete.witness, (scenario, mode)


def canonical_sim(mode):
    sim = Simulation(mode=mode)
    sim.setup("a")
    sim.fund("a", 1000)
    sim.transfer("a", "b")
    sim.redeem("b", "ext", 1000)
    return sim


def slot_terms_at(rec):
    return {t for t in rec.slot_terms.values() if t is not None}


class TestPerStepSweep:
    def test_server_alone_never_spends(self):
        for mode in ("baseline3", "bare4", "cryptocubic"):
            sim = canonical_sim(mode)
            bundle_id = next(iter(sim.squares.values())).bundle.bundle_id
            for rec in sim.step_records:
                assert not can_spend(rec.knowledge[SERVER], bundle_id).possible

    def test_server_plus_slots_never_spends(self):
        for mode in ("baseline3", "bare4", "cryptocubic"):
            sim = canonical_sim(mode)
            bundle_id = next(iter(sim.squares.values())).bundle.bundle_id
            for rec in sim.step_records:
                knowledge = set(rec.knowledge[SERVER]) | slot_terms_at(rec)
                assert not can_spend(knowledge, bundle_id).possible

    def test_server_with_owner_cooperation_spends_only_in_the_window(self):
        # with the owner's stored keys on the table, capability opens when
        # the owner-leg cypher sits in the slot and closes at withdrawal
        sim = canonical_sim("cryptocubic")
        bundle_id = next(iter(sim.squares.values())).bundle.bundle_id
        capable = []
        for rec in sim.step_records:
            knowledge = (
                set(rec.knowledge[SERVER])
                | set(rec.knowledge.get("USER_A", frozenset()))
                | slot_terms_at(rec)
            )
            capable.append(can_spend(knowledge, bundle_id).possible)
        labels = [event.label for event in sim.events]
        start = labels.index("the user-leg cypher drops into the destructive store")
        end = labels.index(
            "with user A's approval the transfer procedure withdraws the owner cypher"
        )
        expected = [start <= i < end for i in range(len(labels))]
        assert capable == expected
        assert any(capable)

    def test_user_user_wiretap_never_spends(self):
        for mode in ("baseline3", "bare4", "cryptocubic"):
            sim = canonical_sim(mode)
            bundle_id = next(iter(sim.squares.values())).bundle.bundle_id
            for event, rec in zip(sim.events, sim.step_records):
                knowledge = wiretap_knowledge(sim, upto=rec.transcript_len)
                assert not can_spend(knowledge, bundle_id).possible, (mode, event.step)

    def test_omniscient_wiretap_breaks_only_the_plaintext_mode(self):
        # listening on every link as well: the plaintext handover leaks both
        # legs, the encrypted modes still hold
        outcomes = {}
        for mode in ("baseline3", "bare4", "cryptocubic"):
            sim = canonical_sim(mode)
            bundle_id = next(iter(sim.squares.values())).bundle.bundle_id
            transcript = sim.transport.transcript
            knowledge = {term_of(part) for msg in transcript for part in msg.payload}
            outcomes[mode] = can_spend(knowledge, bundle_id).possible
        assert outcomes == {"baseline3": True, "bare4": False, "cryptocubic": False}


def scanned_user_user_terms(sim, upto=None):
    return {
        term_of(part)
        for msg in sim.transport.transcript[:upto]
        if msg.channel == "user-user"
        for part in msg.payload
    }


def heard_count(sim, upto):
    """How many distinct terms the wiretap had heard by transcript length `upto`."""
    return sum(at <= upto for at in sim.transport.heard_at.values())


class TestWiretapIndex:
    @pytest.mark.parametrize("mode", ["baseline3", "bare4", "cryptocubic"])
    @pytest.mark.parametrize("backend", ["symbolic", "concrete"])
    def test_matches_a_scan_of_the_transcript_at_every_step(self, mode, backend):
        sim = Simulation(mode=mode, backend=backend)
        sim.setup("a")
        sim.fund("a", 1000)
        sim.transfer("a", "b")
        sim.redeem("b", "ext", 1000)
        for event, rec in zip(sim.events, sim.step_records):
            heard = wiretap_knowledge(sim, upto=rec.transcript_len)
            assert heard == scanned_user_user_terms(sim, rec.transcript_len), event.step
        assert wiretap_knowledge(sim) == scanned_user_user_terms(sim)
        assert wiretap_knowledge(sim)

    @pytest.mark.parametrize("mode", ["baseline3", "bare4", "cryptocubic"])
    def test_a_dropped_handover_is_not_heard(self, mode):
        sim = Simulation(mode=mode)
        sim.setup("a")
        sim.fund("a", 1000)
        with dropped_link(sim, 0), pytest.raises(TransportFailure):
            sim.transfer("a", "b")
        assert wiretap_knowledge(sim) == scanned_user_user_terms(sim) == set()
        sim.transfer("a", "b")
        heard = wiretap_knowledge(sim)
        assert heard == scanned_user_user_terms(sim)
        assert any(isinstance(term, AddressTerm) for term in heard)

    @pytest.mark.parametrize("mode", ["bare4", "cryptocubic"])
    def test_a_term_heard_again_keeps_its_first_position(self, mode):
        sim = bounce_sim(6, mode=mode)
        first: dict = {}
        again = set()
        for length, msg in enumerate(sim.transport.transcript, 1):
            if msg.channel == "user-user":
                for term in map(term_of, msg.payload):
                    if term in first:
                        again.add(term)
                    first.setdefault(term, length)
        assert sim.transport.heard == list(first)
        assert sim.transport.heard_at == first
        # the square's address and its server-leg handover cross every transfer
        assert {type(term) for term in again} == {AddressTerm, EncTerm}
        for event, rec in zip(sim.events, sim.step_records):
            heard = wiretap_knowledge(sim, upto=rec.transcript_len)
            assert heard == scanned_user_user_terms(sim, rec.transcript_len), event.step

    def test_one_set_per_heard_prefix(self):
        sim = bounce_sim(6)
        previous = count = None
        reused = 0
        for rec in sim.step_records:
            heard = wiretap_knowledge(sim, upto=rec.transcript_len)
            assert type(heard) is frozenset
            assert heard == scanned_user_user_terms(sim, rec.transcript_len)
            now = heard_count(sim, rec.transcript_len)
            # the very set of the previous step exactly when nothing new was heard
            assert (heard is previous) == (now == count), rec.transcript_len
            reused += heard is previous
            previous, count = heard, now
        assert 0 < reused < len(sim.step_records) - 1

    def test_an_empty_prefix_and_one_past_the_end(self):
        sim = bounce_sim(6)
        end = len(sim.transport.transcript)
        empty = wiretap_knowledge(sim, upto=0)
        assert empty == frozenset() and wiretap_knowledge(sim, upto=0) is empty
        whole = wiretap_knowledge(sim, upto=end + 10)
        assert whole == scanned_user_user_terms(sim)
        assert wiretap_knowledge(sim) is whole
        assert wiretap_knowledge(sim, upto=end) is whole
        assert wiretap_knowledge(sim, upto=0) == frozenset()

    def test_two_simulations_judged_alternately_keep_their_own_sets(self):
        sims = bounce_sim(6), bounce_sim(6, seed=1)
        previous, counts = [None, None], [None, None]
        for recs in zip(*(sim.step_records for sim in sims)):
            heard = []
            for i, (sim, rec) in enumerate(zip(sims, recs)):
                got = wiretap_knowledge(sim, upto=rec.transcript_len)
                assert got == scanned_user_user_terms(sim, rec.transcript_len)
                now = heard_count(sim, rec.transcript_len)
                assert (got is previous[i]) == (now == counts[i]), (i, rec.transcript_len)
                previous[i], counts[i] = got, now
                heard.append(got)
            assert heard[0] is not heard[1] or not heard[0]

    @pytest.mark.parametrize("mode", ["bare4", "cryptocubic"])
    def test_a_counterfeit_is_heard_and_the_original_is_not(self, mode):
        sim = Simulation(mode=mode)
        sim.setup("a")
        sim.fund("a", 1000)
        swap, swapped = counterfeit_handover(sim), []

        def spy(msg):
            delivered = swap(msg)
            if delivered is not msg:
                swapped.append((term_of(msg.payload[0]), term_of(delivered.payload[0])))
            return delivered

        with interposed(sim, spy):
            sim.transfer("a", "b")
        heard = wiretap_knowledge(sim)
        assert heard == scanned_user_user_terms(sim)
        assert swapped
        for original, fake in swapped:
            assert fake in heard and original not in heard
