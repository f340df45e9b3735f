"""Attack oracle: term decomposition closure, spend verdicts, staged attacks."""
import random
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dropped_link
from cryptocubic import adversary
from cryptocubic.adversary import (
    SCENARIOS,
    Derivation,
    can_spend,
    closure,
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
    TupleTerm,
)

SIG_U = SigningKeyTerm("ms1", "user")
SIG_S = SigningKeyTerm("ms1", "server")


def random_term(rng, depth=3):
    # ids drawn from a small pool so keys and cyphers actually line up
    kinds = ["priv", "pub", "sym", "sig", "token", "blob"]
    if depth > 0:
        kinds += ["enc", "enc", "tuple", "digest"]
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
    if kind == "tuple":
        parts = tuple(random_term(rng, depth - 1) for _ in range(rng.randint(1, 3)))
        return TupleTerm(parts)
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
            if isinstance(term, TupleTerm):
                for part in term.items:
                    if part not in known:
                        known[part] = Derivation("open-tuple", (term,))
                        changed = True
            elif isinstance(term, EncTerm) and term.inner not in known:
                if term.scheme == ASYM and PrivateKeyTerm(term.key_id) in known:
                    known[term.inner] = Derivation(
                        "asym-decrypt", (term, PrivateKeyTerm(term.key_id))
                    )
                    changed = True
                elif term.scheme == SYM and SymKeyTerm(term.key_id) in known:
                    known[term.inner] = Derivation(
                        "sym-decrypt", (term, SymKeyTerm(term.key_id))
                    )
                    changed = True
    return known


def assert_derivations_hold(closed, knowledge):
    """Every term is an input or follows by its rule from terms known before it."""
    order = {term: i for i, term in enumerate(closed)}
    for term, how in closed.items():
        if how is None:
            assert term in knowledge, term
            continue
        assert all(order[p] < order[term] for p in how.premises), (term, how)
        if how.rule == "open-tuple":
            (whole,) = how.premises
            assert isinstance(whole, TupleTerm) and term in whole.items, (term, how)
        else:
            cypher, key = how.premises
            assert isinstance(cypher, EncTerm) and cypher.inner == term, (term, how)
            opener = PrivateKeyTerm if cypher.scheme == ASYM else SymKeyTerm
            assert how.rule == f"{cypher.scheme}-decrypt", (term, how)
            assert key == opener(cypher.key_id), (term, how)


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
        st.lists(inner, min_size=1, max_size=3).map(lambda parts: TupleTerm(tuple(parts))),
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

    def test_tuple_opens(self):
        t = TupleTerm((SIG_U, TokenTerm("t1")))
        reached = frozenset(closure({t}))
        assert SIG_U in reached and TokenTerm("t1") in reached

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
                    assert all(p in closed for p in how.premises), term


class TestWorklistClosure:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(TERMS, max_size=10), KEY_CHAINS, st.sampled_from([list, set, frozenset]))
    def test_matches_the_fixpoint(self, terms, chain, container):
        knowledge = container(terms + chain)
        closed, reference = closure(knowledge), reference_closure(knowledge)
        assert closed.keys() == reference.keys()
        assert_derivations_hold(closed, knowledge)
        for bundle_id in ("ms1", "ms2"):
            legs = {SigningKeyTerm(bundle_id, "user"), SigningKeyTerm(bundle_id, "server")}
            assert can_spend(knowledge, bundle_id).possible is (legs <= reference.keys())

    @pytest.mark.parametrize("mode", ["baseline3", "bare4", "cryptocubic"])
    def test_every_coalition_of_the_canonical_run_derives_like_the_fixpoint(self, mode):
        sim = canonical_sim(mode)
        for event, rec in zip(sim.events, sim.step_records):
            sources = [*rec.knowledge.values(), slot_terms_at(rec),
                       wiretap_knowledge(sim, upto=rec.transcript_len)]
            for size in range(1, len(sources) + 1):
                for members in combinations(sources, size):
                    knowledge = frozenset().union(*members)
                    assert closure(knowledge) == reference_closure(knowledge), event.step


def sealed_key_chain(links):
    """`k0` plus cyphers `k_i` -> `k_{i+1}`, in the order that made the
    fixpoint open one link per pass."""
    chain = [EncTerm(SYM, f"k{i}", SymKeyTerm(f"k{i + 1}")) for i in reversed(range(links))]
    return [SymKeyTerm("k0")] + chain


def count_sym_key_hashes(closure_fn, links, monkeypatch):
    chain = sealed_key_chain(links)
    calls = [0]
    original = SymKeyTerm.__hash__

    def counting(term):
        calls[0] += 1
        return original(term)

    with monkeypatch.context() as patch:
        patch.setattr(SymKeyTerm, "__hash__", counting)
        closed = closure_fn(chain)
    assert all(SymKeyTerm(f"k{i}") in closed for i in range(links + 1))
    return calls[0]


class TestClosureScaling:
    def test_work_grows_linearly_with_the_chain(self, monkeypatch):
        short = count_sym_key_hashes(closure, 500, monkeypatch)
        long = count_sym_key_hashes(closure, 2000, monkeypatch)
        assert long <= 5 * short, (short, long)

    def test_the_guard_catches_the_fixpoint(self, monkeypatch):
        # the same bound fails the replaced fixpoint, at sizes it can afford
        short = count_sym_key_hashes(reference_closure, 100, monkeypatch)
        long = count_sym_key_hashes(reference_closure, 400, monkeypatch)
        assert long > 5 * short, (short, long)


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
