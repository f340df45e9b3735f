"""Attacker oracle.

Knowledge is a set of structured terms.  `closure` saturates a knowledge
set under the decomposition rules an attacker can apply mechanically:

1. open an asymmetric cypher with the matching private key,
2. open a symmetric cypher with its key,
3. split tuples into their parts.

It runs as a worklist (semi-naive evaluation) over the compound terms
only: atoms are never visited, as terms are interned (`terms`) and a
cypher knows the key term that opens it, so "is its key known" is one
identity lookup.  A cypher whose key is not known waits in one plain list,
which is indexed by key only once a first key is derived; most inputs
derive nothing, and the index keeps a long chain of sealed keys linear.

Constructive rules (hashing known values, encrypting under known keys,
tupling) never yield an atom, so the spend check needs only the closure.

An attack is a spend: `can_spend` asks whether both signing-key atoms of a
square are derivable, and when they are it returns a step-by-step witness
that `replay_witness` turns into a real accepted ledger transaction.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field, replace
from operator import itemgetter

from .backend import Cypher, term_of
from .protocol import SERVER, Message, Simulation
from .terms import (
    ASYM,
    EncTerm,
    PrivateKeyTerm,
    SigningKeyTerm,
    SymKeyTerm,
    Term,
    TupleTerm,
)

SCENARIOS = (
    "post_transfer_grab",
    "counterfeit_es",
    "token_replay",
    "double_transfer",
    "wiretap_passive",
    "store_raid",
)

CHANNEL_ASSUMPTION = (
    "assumption: user-server links are confidential; the wiretap hears user-user traffic only"
)


@dataclass(frozen=True)
class Derivation:
    rule: str
    premises: tuple[Term, ...]


_COMPOUND = frozenset({TupleTerm, EncTerm})


def closure(knowledge) -> dict[Term, Derivation | None]:
    """Least fixed point of the decomposition rules, saturated by a worklist.

    Returns every reachable term mapped to how it was derived (None for the
    initial terms).  Only compound terms are walked, each once: a tuple
    yields its parts, and a cypher yields its inner term when its key is
    known.  A cypher whose key is not known is shut; the shut cyphers are
    indexed by key once a first key is derived, and each derived key
    releases the cyphers it opens.  Every derived term is a subterm of the
    input, so the cost is linear in the compound terms reached.
    Deterministic, monotone in its input, and idempotent.
    """
    # fromkeys reuses the hashes a set or frozenset input already stores
    known: dict[Term, Derivation | None] = dict.fromkeys(knowledge)
    queue = [term for term in known if type(term) in _COMPOUND]
    shut: list[EncTerm] = []
    waiting: dict[Term, list[EncTerm]] | None = None  # shut cyphers by key

    def learn(term: Term, how: Derivation) -> None:
        nonlocal waiting
        known[term] = how
        kind = type(term)
        if kind in _COMPOUND:
            queue.append(term)
        elif kind is PrivateKeyTerm or kind is SymKeyTerm:  # may open shut cyphers
            if waiting is None:
                waiting = {}
                for cypher in shut:
                    waiting.setdefault(cypher.key, []).append(cypher)
            queue.extend(waiting.pop(term, ()))

    for term in queue:  # grows while it is walked
        if type(term) is TupleTerm:
            for part in term.items:
                if part not in known:
                    learn(part, Derivation("open-tuple", (term,)))
        elif term.key in known:
            if term.inner not in known:
                rule = "asym-decrypt" if term.scheme == ASYM else "sym-decrypt"
                learn(term.inner, Derivation(rule, (term, term.key)))
        elif waiting is None:
            shut.append(term)
        else:
            waiting.setdefault(term.key, []).append(term)
    return known


def _explain(closed: dict[Term, Derivation | None], target: Term, lines: list[str], seen: set[Term]) -> None:
    if target in seen:
        return
    seen.add(target)
    how = closed.get(target)
    if how is None:
        lines.append(f"have {target!r}")
        return
    for premise in how.premises:
        _explain(closed, premise, lines, seen)
    lines.append(f"{how.rule}: {target!r}")


@dataclass
class SpendDecision:
    possible: bool
    witness: list[str] = field(default_factory=list)
    sig_user_term: SigningKeyTerm | None = None
    sig_server_term: SigningKeyTerm | None = None


def can_spend(knowledge, bundle_id: str) -> SpendDecision:
    closed = closure(knowledge)
    sig_u = SigningKeyTerm(bundle_id, "user")
    sig_s = SigningKeyTerm(bundle_id, "server")
    if sig_u not in closed or sig_s not in closed:
        return SpendDecision(False)
    lines: list[str] = []
    seen: set[Term] = set()
    _explain(closed, sig_u, lines, seen)
    _explain(closed, sig_s, lines, seen)
    lines.append("sign and submit the dual-signature transaction")
    return SpendDecision(True, lines, sig_u, sig_s)


def replay_witness(sim: Simulation, decision: SpendDecision, square_id: str, dest: str, cents: int) -> int:
    """Execute a positive verdict as a real spend on the staged run's chain."""
    assert decision.possible, "nothing to replay for a negative verdict"
    sig_u = sim.value_of[decision.sig_user_term]
    sig_s = sim.value_of[decision.sig_server_term]
    return sim._submit_spend(sim.squares[square_id], sig_u, sig_s, dest, cents)


# ---------------------------------------------------------------------------
# knowledge assembly helpers


def snapshot_knowledge(sim: Simulation, *party_names: str) -> set[Term]:
    terms: set[Term] = set()
    for name in party_names:
        terms |= sim.parties[name].snapshot()
    return terms


def take_all_slots(sim: Simulation) -> set[Term]:
    """One destructive take per occupied slot, as the store openly allows."""
    terms: set[Term] = set()
    for slot_id in sim.store.slot_ids():
        if sim.store.ping(slot_id):
            value, _permit = sim.store.take(slot_id)
            terms.add(term_of(value))
    return terms


def wiretap_knowledge(sim: Simulation, upto: int | None = None) -> set[Term]:
    """Terms a passive listener on the user-user links collects, optionally
    from the first `upto` messages of the transcript only.

    It reads the transport's log of what crossed user-user links, so it
    costs time in the terms heard, not in the transcript."""
    heard = sim.transport.user_user
    if upto is not None:
        heard = heard[:bisect_right(heard, upto, key=itemgetter(0))]
    return {term for _sent, terms in heard for term in terms}


# ---------------------------------------------------------------------------
# scenario stagings


@dataclass
class Verdict:
    scenario: str
    mode: str
    can_spend: bool
    witness: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def report_line(self) -> str:
        return f"{self.scenario} {self.mode} {str(self.can_spend).lower()} [{len(self.witness)}]"


Staged = tuple[set[Term], list[str], bool]  # knowledge, notes, won without a spend


def run_attack(scenario: str, mode: str = "cryptocubic", backend: str = "symbolic", seed: int = 0) -> Verdict:
    """Stage a fresh funded run, apply one attack, judge what the attack
    leaves the attacker, and replay a positive verdict as a real spend.

    A staging `_attack_<scenario>(sim)` only acts: it returns the attacker's
    knowledge, its notes, and whether the attack won without a spend."""
    if scenario not in SCENARIOS:
        raise ValueError(f"unknown attack scenario: {scenario!r}")
    sim = Simulation(mode=mode, backend=backend, seed=seed, record=False)  # a verdict reads no table
    square_id = sim.setup("a")
    sim.fund("a", 1000)
    knowledge, notes, won = globals()[f"_attack_{scenario}"](sim)
    decision = can_spend(knowledge, sim.squares[square_id].bundle.bundle_id)
    if decision.possible:
        replay_witness(sim, decision, square_id, "grab_sink", 1000)
        notes.append("witness replayed: 1000 cents moved on the staged chain")
    return Verdict(scenario, mode, decision.possible or won, decision.witness, notes)


def _attack_post_transfer_grab(sim: Simulation) -> Staged:
    sim.transfer("a", "b")
    return snapshot_knowledge(sim, "USER_A", SERVER) | take_all_slots(sim), [], False


def counterfeit_handover(sim: Simulation):
    """Interposer swapping each handed-over cypher (not baseline3's bare key) for a fake."""
    backend, rng = sim.backend, sim.rng  # not sim: no reference cycle through sim.transport

    def swap(msg: Message) -> Message:
        if msg.msg_type != "handover" or not isinstance(msg.payload[0], Cypher):
            return msg
        fake = backend.sym_encrypt(backend.gen_sym_key(rng), b"counterfeit filler", rng)
        return replace(msg, payload=(fake, *msg.payload[1:]))

    return swap


def _attack_counterfeit_es(sim: Simulation) -> Staged:
    sim.transport.interposer = counterfeit_handover(sim)
    session = sim.transfer("a", "b")
    notes = [f"transfer outcome: {session.phase}"]
    if sim.mode == "baseline3":
        notes.append("handover is a bare signing key; there is no cypher to fake")
    if session.phase == "aborted":
        notes.append(f"abort reason: {session.abort_reason}")
        if sim.store.ping(session.square.slot_id):
            notes.append("owner cypher back in its slot")
    return snapshot_knowledge(sim, "USER_A") | take_all_slots(sim), notes, False


def _attack_token_replay(sim: Simulation) -> Staged:
    sim.transfer("a", "b")
    if sim.mode != "cryptocubic":
        return wiretap_knowledge(sim), ["mode issues no challenge tokens; nothing to replay"], False
    # the receiver's reply token from the finished session, replayed cold
    stale = sim.server.recall("Token_B2")
    accepted = sim.attempt_replay_auth(stale)
    notes = ["stale token accepted" if accepted else "stale token refused"]
    return {stale.term} | wiretap_knowledge(sim), notes, accepted


def _attack_double_transfer(sim: Simulation) -> Staged:
    if sim.mode == "baseline3":
        first = sim.transfer("a", "b")
        second = sim.transfer("a", "c")
    else:
        first = sim.begin_transfer("a", "b")
        sim.withdraw_for_transfer(first)
        if sim.mode == "cryptocubic":
            sim.authenticate_parties(first)
        second = sim.begin_transfer("a", "c")
        sim.withdraw_for_transfer(second)
        sim.complete_transfer(first)
    notes = [
        f"first session: {first.phase}",
        f"second session: {second.phase}"
        + (f" ({second.abort_reason})" if second.abort_reason else ""),
    ]
    knowledge = snapshot_knowledge(sim, "USER_A", "USER_C") | take_all_slots(sim)
    completed = [s for s in (first, second) if s.phase == "completed"]
    return knowledge, notes, len(completed) != 1


def _attack_wiretap_passive(sim: Simulation) -> Staged:
    sim.transfer("a", "b")
    sim.redeem("b", "ext", 1000)
    return wiretap_knowledge(sim), [CHANNEL_ASSUMPTION], False


def _attack_store_raid(sim: Simulation) -> Staged:
    sim.transfer("a", "b")
    if sim.mode == "baseline3":
        notes = ["the slot held a bare signing key, but one leg alone cannot spend"]
    else:
        notes = ["slot contents are cyphers under keys the raider lacks"]
    return snapshot_knowledge(sim, SERVER) | take_all_slots(sim), notes, False


def verdict_report(verdicts) -> str:
    lines = [v.report_line() for v in verdicts]
    assumptions = sorted({n for v in verdicts for n in v.notes if n.startswith("assumption:")})
    return "\n".join(lines + [f"# {a}" for a in assumptions]) + "\n"
