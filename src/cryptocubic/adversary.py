"""Attacker oracle.

Knowledge is a set of structured terms.  `closure` saturates a knowledge
set under the decomposition rules an attacker can apply mechanically:

1. open an asymmetric cypher with the matching private key,
2. open a symmetric cypher with its key.

It runs as a worklist (semi-naive evaluation) over the cyphers only: atoms
and digests are never visited, as terms are interned (`terms`) and a cypher
knows the key term that opens it, so "is its key known" is one identity
lookup.  A cypher whose key is not known waits in one index keyed by that
key, so a long chain of sealed keys stays linear.

Constructive rules (hashing known values, encrypting under known keys)
never yield an atom, so the spend check needs only the closure.

An attack is a spend: `can_spend` asks whether both signing-key atoms of a
square are derivable, and when they are it returns a step-by-step witness
that `replay_witness` turns into a real accepted ledger transaction.  It
searches backward from the legs, as magic sets do, through each key's
`holders` (`terms`).  It refuses, without the closure, a coalition that holds
no holder of the leg with fewer holders, then of the other.  Otherwise it
keeps each wanted key the coalition holds and the held cyphers that seal
it, and wants the opener of every layer of those.  No other term leads to a
leg, so only these reach the closure: the verdict is that of all knowledge
(where a key has two usable holders, the witness may open either), and
the cost follows the terms reached, not the coalition.  A collection that
is not a set is made one first, so each probe is one lookup.  A verdict
costs what its caller reads: judging a bundle again interns nothing, as its
legs are kept by weak reference; a refusal builds nothing, as every one is
one frozen negative `SpendDecision`; and a positive one keeps its closure
of `(rule, premises)` tuples and explains it when `witness` is first read.

A wiretap knows what crossed a user-user link, and never forgets it:
`wiretap_knowledge` hands back the transport's frozenset for the heard
prefix, the same object while that prefix holds, so a per-step judge sees by
identity that the wiretap learned nothing new.

An attack is staged on a run in the state its prefix (`PREFIXES`) names: the
script commands `setup A` and `fund A 1000`, then `transfer A B`, then `redeem
B ext 1000`.  A `Stager` keeps a fork of the script's own run where the script
passes through a prefix, builds any other prefix once from the one before it,
and hands every attack but the last a `Simulation.fork` of it.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from functools import cached_property
from weakref import ref

from .backend import Cypher, term_of
from .protocol import SERVER, Message, Simulation
from .terms import (
    ASYM,
    EncTerm,
    SigningKeyTerm,
    Term,
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


def closure(knowledge) -> dict[Term, tuple | None]:
    """Least fixed point of the decomposition rules, saturated by a worklist.

    Returns every reachable term mapped to how it was derived, the tuple
    `(rule, (cypher, key))`, or None for the initial terms.  Only cyphers are
    walked: a cypher yields its inner term when its key is known, and one
    whose key is not known is shut, indexed by that key, until a derived key
    releases it.  Every derived term is a subterm of the input, so the cost is
    linear in the cyphers reached.  Deterministic, monotone and idempotent.
    """
    # fromkeys reuses the hashes a set or frozenset input already stores
    known: dict[Term, tuple | None] = dict.fromkeys(knowledge)
    queue = [term for term in known if type(term) is EncTerm]
    shut: dict[Term, list[EncTerm]] = {}  # cyphers whose key is not known, by key

    for cypher in queue:  # grows while it is walked
        key, inner = cypher.key, cypher.inner
        if key not in known:
            shut.setdefault(key, []).append(cypher)
        elif inner not in known:
            rule = "asym-decrypt" if cypher.scheme == ASYM else "sym-decrypt"
            known[inner] = rule, (cypher, key)
            if type(inner) is EncTerm:
                queue.append(inner)
            elif inner in shut:  # a derived key opens the cyphers it shut
                queue.extend(shut.pop(inner))
    return known


def _explain(closed: dict[Term, tuple | None], targets) -> list[str]:
    """How the targets are derived, each premise before its conclusion."""
    lines: list[str] = []
    seen: set[Term] = set()
    stack = [(target, False) for target in reversed(targets)]
    while stack:  # a post-order walk, iterative so long chains fit
        term, derived = stack.pop()
        how = closed.get(term)
        if derived:
            lines.append(f"{how[0]}: {term!r}")
        elif term not in seen:
            seen.add(term)
            if how is None:
                lines.append(f"have {term!r}")
            else:
                stack.append((term, True))
                stack.extend((premise, False) for premise in reversed(how[1]))
    return lines


@dataclass(frozen=True)
class SpendDecision:
    possible: bool
    sig_user_term: SigningKeyTerm | None = None
    sig_server_term: SigningKeyTerm | None = None
    # the closure a positive verdict was decided on, which its witness explains
    closed: dict[Term, tuple | None] | None = field(default=None, repr=False, compare=False)

    @property
    def witness(self) -> list[str]:
        """How the coalition derives both legs; a refusal's is a new empty list."""
        return self._witness if self.possible else []

    @cached_property
    def _witness(self) -> list[str]:  # built the first time a positive verdict's witness is read
        legs = (self.sig_user_term, self.sig_server_term)
        return [*_explain(self.closed, legs), "sign and submit the dual-signature transaction"]


_REFUSED = SpendDecision(False)  # every negative verdict, so that a refusal builds nothing
# bundle id -> weak references to its two legs; a live one is the interned term
_legs: dict[str, tuple[ref, ref]] = {}


def can_spend(knowledge, bundle_id: str) -> SpendDecision:
    legs = _legs.get(bundle_id)
    sig_u, sig_s = (legs[0](), legs[1]()) if legs else (None, None)
    if sig_u is None or sig_s is None:
        sig_u, sig_s = SigningKeyTerm(bundle_id, "user"), SigningKeyTerm(bundle_id, "server")
        _legs[bundle_id] = ref(sig_u), ref(sig_s)
    if not isinstance(knowledge, (set, frozenset)):
        knowledge = set(knowledge)  # once, so that every probe below is one lookup
    few, many = (sig_u, sig_s) if len(sig_u.holders) < len(sig_s.holders) else (sig_s, sig_u)
    # a set probe walks the smaller set; only subterms of the knowledge are derived
    if few.holders.isdisjoint(knowledge) or not (held := many.holders & knowledge):
        return _REFUSED
    # backward from the legs: each wanted key, if held, and the held cyphers
    # that seal it, whose every layer's opener is wanted in turn
    given: list[Term] = []
    wanted = {few, many}
    found = [few.holders & knowledge, held]
    for holders in found:  # grows while it is walked
        given += holders
        for term in holders:
            while type(term) is EncTerm:
                key, term = term.key, term.inner
                if key not in wanted:
                    wanted.add(key)
                    found.append(key.holders & knowledge)
                    if key in knowledge:
                        given.append(key)
    closed = closure(given)
    if sig_u not in closed or sig_s not in closed:
        return _REFUSED
    return SpendDecision(True, sig_u, sig_s, closed)


def replay_witness(sim: Simulation, decision: SpendDecision, square_id: str, dest: str, cents: int) -> int:
    """Execute a positive verdict as a real spend on the staged run's chain."""
    assert decision.possible, "nothing to replay for a negative verdict"
    sig_u = sim.value_of[decision.sig_user_term]
    sig_s = sim.value_of[decision.sig_server_term]
    return sim._submit_spend(sim.squares[square_id], sig_u, sig_s, dest, cents)


# ---------------------------------------------------------------------------
# knowledge assembly helpers


def snapshot_knowledge(sim: Simulation, *party_names: str) -> set[Term]:
    return set().union(*(sim.parties[name].snapshot() for name in party_names))


def take_all_slots(sim: Simulation) -> set[Term]:
    """One destructive take per occupied slot, as the store openly allows."""
    store = sim.store
    return {term_of(store.take(slot_id)[0]) for slot_id in store.slot_ids() if store.ping(slot_id)}


def wiretap_knowledge(sim: Simulation, upto: int | None = None) -> frozenset[Term]:
    """Terms a passive listener on the user-user links collects, optionally
    from the first `upto` messages of the transcript only.

    It reads a prefix of the transport's first-heard index, so it costs
    time in the distinct terms heard, not in the transcript, and the same
    frozenset comes back while that prefix holds (`Transport.heard_by`)."""
    return sim.transport.heard_by(upto)


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


Staged = tuple[set[Term] | frozenset[Term], list[str], bool]  # knowledge, notes, won without a spend

# the run each attack starts from, as the script commands that make it; each
# prefix is the one before it and one command more
_FUNDED = (("setup", "A"), ("fund", "A", 1000))
_TRANSFERRED = (*_FUNDED, ("transfer", "A", "B"))
_REDEEMED = (*_TRANSFERRED, ("redeem", "B", "ext", 1000))
PREFIXES = {
    "post_transfer_grab": _TRANSFERRED,
    "counterfeit_es": _FUNDED,
    "token_replay": _TRANSFERRED,
    "double_transfer": _FUNDED,
    "wiretap_passive": _REDEEMED,
    "store_raid": _TRANSFERRED,
}


class Stager:
    """Stages the prefix runs of one set of attacks, each prefix once.

    It counts each prefix's consumers: the named attacks that start from it,
    and each prefix as one of its parent, the prefix one command shorter.
    A prefix comes from the script's own run when the script passes through
    it (`offer`), and is built from its parent otherwise.  Every consumer but
    the last gets a fork (`Simulation.fork`); the last takes the run itself,
    and the stager lets go of it.  A consumer that was not counted gets a run
    built afresh, so any order of any attacks judges as each attack alone
    would: a run is a function of its commands, seed, mode and backend."""

    def __init__(self, scenarios, mode: str, backend: str, seed: int) -> None:
        self.settings = mode, backend, seed
        # the consumers each prefix has still to serve; `run_attack` refuses unknown attacks
        self._left = Counter(PREFIXES[name] for name in set(scenarios) & PREFIXES.keys())
        for prefix in (_REDEEMED, _TRANSFERRED):  # longest first, so a parent counts a counted child
            self._left[prefix[:-1]] += self._left[prefix] > 0
        self._runs: dict[tuple, Simulation] = {}  # each prefix built or offered and not yet taken

    def take(self, prefix: tuple) -> Simulation:
        """A run in the state `prefix` names, this consumer's own."""
        sim = self._runs.pop(prefix, None)
        if sim is None and not prefix:
            mode, backend, seed = self.settings
            return Simulation(mode=mode, backend=backend, seed=seed, record=False)  # a verdict reads no table
        if sim is None:
            sim = self.take(prefix[:-1])
            head, *values = prefix[-1]
            getattr(sim, head)(*values)  # as `run_scenario` runs the command
        if self._left[prefix] > 1:
            self._left[prefix] -= 1
            self._runs[prefix] = sim
            return sim.fork()
        self._left[prefix] = 0
        return sim

    def offer(self, done: tuple, sim: Simulation, then: tuple | None) -> bool:
        """Keep a fork of `sim`, the script's run after the state-changing
        commands `done`, if `done` is a prefix that nothing has built or taken
        and that has consumers besides a counted child the script's next
        command `then` makes; its parent then has one consumer fewer.
        Returns whether a longer run may still match such a prefix."""
        if self._left[done] and done not in self._runs:
            if self._left[done] > (self._left[(*done, then)] > 0):  # the script's run serves that child
                self._runs[done] = sim.fork()
            parent = done[:-1]
            self._left[parent] -= self._left[parent] > 0
            if not self._left[parent]:
                self._runs.pop(parent, None)
        n = len(done)
        return any(left and len(prefix) > n and prefix[:n] == done for prefix, left in self._left.items())


def run_attack(
    scenario: str, mode: str = "cryptocubic", backend: str = "symbolic", seed: int = 0,
    stager: Stager | None = None,
) -> Verdict:
    """Take the attack's prefix run from `stager` (by default one staging
    this attack alone), apply the attack, judge what the attack leaves the attacker, and replay a
    positive verdict as a real spend.

    A staging `_attack_<scenario>(sim)` only acts on the run its prefix
    (`PREFIXES`) names: it returns the attacker's knowledge, its notes, and
    whether the attack won without a spend."""
    if scenario not in SCENARIOS:
        raise ValueError(f"unknown attack scenario: {scenario!r}")
    if stager is None:
        stager = Stager((scenario,), mode, backend, seed)
    elif stager.settings != (mode, backend, seed):
        raise ValueError(f"the stager stages {stager.settings}, not {(mode, backend, seed)}")
    sim = stager.take(PREFIXES[scenario])
    square_id = next(iter(sim.squares))
    knowledge, notes, won = globals()[f"_attack_{scenario}"](sim)
    decision = can_spend(knowledge, sim.squares[square_id].bundle.bundle_id)
    if decision.possible:
        replay_witness(sim, decision, square_id, "grab_sink", 1000)
        notes.append("witness replayed: 1000 cents moved on the staged chain")
    return Verdict(scenario, mode, decision.possible or won, decision.witness, notes)


def _attack_post_transfer_grab(sim: Simulation) -> Staged:
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
    if sim.mode != "cryptocubic":
        return wiretap_knowledge(sim), ["mode issues no challenge tokens; nothing to replay"], False
    # the receiver's reply token from the finished session, as the impostor
    # on the link heard it, replayed cold
    stale = next(m for m in reversed(sim.transport.transcript) if m.msg_type == "challenge_reply").payload[0]
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
    return wiretap_knowledge(sim), [CHANNEL_ASSUMPTION], False


def _attack_store_raid(sim: Simulation) -> Staged:
    if sim.mode == "baseline3":
        notes = ["the slot held a bare signing key, but one leg alone cannot spend"]
    else:
        notes = ["slot contents are cyphers under keys the raider lacks"]
    return snapshot_knowledge(sim, SERVER) | take_all_slots(sim), notes, False


def verdict_report(verdicts) -> str:
    lines = [v.report_line() for v in verdicts]
    assumptions = sorted({n for v in verdicts for n in v.notes if n.startswith("assumption:")})
    return "\n".join(lines + [f"# {a}" for a in assumptions]) + "\n"
