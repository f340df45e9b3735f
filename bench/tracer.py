"""Spans and counters for the traced run, recorded from outside the program.

`Tracer.install()` replaces the public functions and methods of each module
with wrappers, at the place each name is looked up (several modules import
names from others), and `uninstall()` puts the originals back.  A wrapper
records a span: name, start, end, parent span and the id of the benchmark
call it belongs to.  Spans are kept in memory; `write()` stores them when
the run ends.  Bookkeeping that is not free (comparing snapshots or
columns with the previous ones) runs inside its own ``bench.tracer`` span,
so that it is not charged to a layer.

A span's self time is its duration minus the durations of its child spans.
"""
from __future__ import annotations

import contextlib
import gc
import weakref
from collections import Counter
from time import perf_counter

from workloads import adversary, cli, protocol, scenario, trace
from cryptocubic import backend, ledger, parties, store

SIMULATION_METHODS = (
    "setup", "fund", "transfer", "redeem", "begin_transfer", "withdraw_for_transfer",
    "authenticate_parties", "complete_transfer", "attempt_replay_auth", "holdings", "render",
)
BACKEND_GROUPS = {
    "keygen": ("gen_asym_pair", "gen_sym_key", "gen_token", "gen_multisig"),
    "asym": ("asym_encrypt", "asym_decrypt", "matches"),
    "sym": ("sym_encrypt", "sym_decrypt"),
    "sign": ("sign", "verify"),
    "hash": ("hash_value", "fingerprint"),
}
_MISSING = object()


class Tracer:
    def __init__(self) -> None:
        # span: [name index, start, end, parent index, call id, raised]
        self.spans: list[list] = []
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._calls = 0
        self.call_id = 0  # 0 outside the benchmark's calls
        self.counts: Counter[str] = Counter()
        # coalition being judged, set by the audit workload
        self.context: str | None = None
        self._protocol_depth = 0
        self._sims = weakref.WeakKeyDictionary()  # sim -> [events seen, last column per party]
        self._snapshots = weakref.WeakKeyDictionary()  # party -> last snapshot
        self._closure_inputs: dict[str, frozenset] = {}
        self._gc_span: list | None = None

    # -- spans -----------------------------------------------------------

    def _index(self, name: str) -> int:
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
        return self._name_index[name]

    def _open(self, index: int) -> list:
        span = [index, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.call_id, False]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[2] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def call(self):
        """Root span of one call from the benchmark into the program."""
        self._calls += 1
        self.call_id = self._calls
        span = self._open(self._index("bench.op"))
        try:
            yield
        finally:
            self._close(span)
            self.call_id = 0

    def _book(self, hook, *args) -> None:
        span = self._open(self._index("bench.tracer"))
        try:
            hook(*args)
        finally:
            self._close(span)

    def _wrap(self, name: str, fn, after=None):
        index = self._index(name)

        def wrapper(*args, **kwargs):
            span = self._open(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                self._close(span)
            if after is not None:
                self._book(after, args, kwargs, result)
            return result

        return wrapper

    def _patch(self, owner, attr: str, name: str, after=None) -> None:
        # a class may inherit the method; then restoring means deleting ours
        original = owner.__dict__.get(attr, _MISSING)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, getattr(owner, attr), after))

    def _gc_callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_span = self._open(self._index("py.gc"))
        elif self._gc_span is not None:
            self._close(self._gc_span)
            self._gc_span = None

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        for method in SIMULATION_METHODS:
            self._patch_protocol(method)
        self._patch(parties.Party, "snapshot", "parties.snapshot", self._after_snapshot)
        self._patch(parties.Transport, "send", "parties.send")
        for module in (trace, scenario):
            self._patch(module, "render_table", "trace.render_table", self._after_render)
        for method in ("balance", "spend", "fund", "register"):
            self._patch(ledger.Ledger, method, f"ledger.{method}")
        for method in ("ping", "take", "insert", "reinsert", "grant_source", "slot_ids"):
            self._patch(store.DestructiveStore, method, f"store.{method}")
        for cls in (backend.SymbolicBackend, backend.ConcreteBackend):
            for group, methods in BACKEND_GROUPS.items():
                for method in methods:
                    self._patch(cls, method, f"backend.{group}.{method}")
        self._patch(adversary, "closure", "adversary.closure", self._after_closure)
        self._patch(adversary, "can_spend", "adversary.can_spend", self._after_can_spend)
        self._patch(adversary, "wiretap_knowledge", "adversary.wiretap_knowledge",
                    self._after_wiretap)
        for module in (adversary, scenario):
            self._patch(module, "run_attack", "adversary.run_attack")
        for module in (scenario, cli):
            self._patch(module, "parse_scenario", "scenario.parse_scenario")
            self._patch(module, "run_scenario", "scenario.run_scenario")
        self._patch(cli, "main", "cli.main")
        gc.callbacks.append(self._gc_callback)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._gc_callback)
        for owner, attr, original in reversed(self._patches):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- bookkeeping hooks -----------------------------------------------

    def _patch_protocol(self, method: str) -> None:
        cls = protocol.Simulation
        self._patches.append((cls, method, cls.__dict__.get(method, _MISSING)))
        inner = self._wrap(f"protocol.{method}", getattr(cls, method))

        def wrapper(sim, *args, **kwargs):
            outermost = self._protocol_depth == 0
            session = args[0] if args and isinstance(args[0], protocol.TransferSession) else None
            phase_before = session.phase if session else None
            result = None
            self._protocol_depth += 1
            try:
                result = inner(sim, *args, **kwargs)
                return result
            finally:
                self._protocol_depth -= 1
                if outermost:
                    if isinstance(result, protocol.TransferSession):
                        session = result
                    self._book(self._after_protocol, sim, session, phase_before)

        setattr(cls, method, wrapper)

    def _after_protocol(self, sim, session, phase_before) -> None:
        if session is not None and session.phase == "aborted" and phase_before != "aborted":
            self.counts["protocol.aborts"] += 1
        state = self._sims.setdefault(sim, [0, {}])
        seen, last = state
        for event in sim.events[seen:]:
            self.counts["protocol.steps"] += 1
            for party, items in event.columns.items():
                self.counts["protocol.columns"] += 1
                if last.get(party) == items:
                    self.counts["protocol.columns_unchanged"] += 1
                last[party] = items
        state[0] = len(sim.events)

    def _after_snapshot(self, args, kwargs, result) -> None:
        party = args[0]
        self.counts["parties.snapshot_terms"] += len(result)
        if self._snapshots.get(party) == result:
            self.counts["parties.snapshot_unchanged"] += 1
        self._snapshots[party] = result

    def _after_render(self, args, kwargs, result) -> None:
        self.counts["trace.bytes"] += len(result.encode())

    def _after_closure(self, args, kwargs, result) -> None:
        knowledge = frozenset(args[0])
        self.counts["adversary.closure_in_terms"] += len(knowledge)
        self.counts["adversary.closure_out_terms"] += len(result)
        previous = self._closure_inputs.get(self.context, frozenset())
        self.counts["adversary.closure_new_terms"] += len(knowledge - previous)
        if self.context is not None:
            self._closure_inputs[self.context] = knowledge

    def _after_can_spend(self, args, kwargs, result) -> None:
        self.counts["adversary.positive"] += bool(result.possible)

    def _after_wiretap(self, args, kwargs, result) -> None:
        sim = args[0]
        upto = kwargs.get("upto", args[2] if len(args) > 2 else None)
        length = len(sim.transport.transcript)
        self.counts["adversary.wiretap_msgs"] += length if upto is None else min(upto, length)

    # -- results ---------------------------------------------------------

    def self_times(self) -> list[float]:
        """Self time of every span, in span order."""
        own = [span[2] - span[1] for span in self.spans]
        for span in self.spans:
            if span[3] >= 0:
                own[span[3]] -= span[2] - span[1]
        return own

    def by_name(self) -> dict[str, dict]:
        """Per span name: calls, calls that raised, and summed self time."""
        totals: dict[str, dict] = {}
        for span, own in zip(self.spans, self.self_times()):
            entry = totals.setdefault(self.names[span[0]], {"calls": 0, "raised": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["raised"] += span[5]
            entry["self_s"] += own
        return totals

    def by_call(self) -> dict[int, tuple[float, float]]:
        """Per benchmark call: (wall time of its root span, summed self time below it)."""
        root = self._name_index.get("bench.op")
        calls: dict[int, list[float]] = {}
        for span, own in zip(self.spans, self.self_times()):
            entry = calls.setdefault(span[4], [0.0, 0.0])
            if span[0] == root:
                entry[0] += span[2] - span[1]
            else:
                entry[1] += own
        return {call: (wall, below) for call, (wall, below) in calls.items() if call > 0}

    def write(self, path) -> None:
        """Store the spans as tab-separated lines, times in ns from the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\tcall\traised\n")
            for name, start, end, parent, call, raised in self.spans:
                fh.write(f"{self.names[name]}\t{round((start - origin) * 1e9)}\t"
                         f"{round((end - origin) * 1e9)}\t{parent}\t{call}\t{int(raised)}\n")
