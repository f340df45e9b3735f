"""Per-layer metrics and the self-time breakdown of a traced run.

Layer times and counts are given per workload op, so that runs of
different length compare; shares carry their base counts.
"""
from __future__ import annotations

from tracer import BACKEND_GROUPS


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer, ops: int, trace_overhead: float) -> dict:
    """name -> (value, unit, base) for every per-layer metric."""
    names = tracer.by_name()
    counts = tracer.counts

    def calls(name: str, ok_only: bool = False) -> int:
        entry = names.get(name, {"calls": 0, "raised": 0})
        return entry["calls"] - (entry["raised"] if ok_only else 0)

    def self_s(*prefixes: str) -> float:
        return sum(e["self_s"] for n, e in names.items() if n.startswith(prefixes))

    def rate(value, unit):
        return (value / ops, unit, f"{value:.6g} over {ops} ops")

    def share(part, whole, what):
        return (_share(part, whole), "share", f"{part} of {whole} {what}")

    backend_calls = sum(e["calls"] for n, e in names.items() if n.startswith("backend."))
    takes = calls("store.take", ok_only=True)
    reinserts = calls("store.reinsert", ok_only=True)
    snapshots = calls("parties.snapshot")
    metrics = {
        "protocol.self_s": rate(self_s("protocol."), "s/op"),
        "protocol.steps": rate(counts["protocol.steps"], "1/op"),
        "protocol.aborts": rate(counts["protocol.aborts"], "1/op"),
        "protocol.columns_unchanged": share(
            counts["protocol.columns_unchanged"], counts["protocol.columns"], "columns"),
        "parties.snapshot_calls": rate(snapshots, "1/op"),
        "parties.snapshot_s": rate(self_s("parties.snapshot"), "s/op"),
        "parties.snapshot_terms": rate(counts["parties.snapshot_terms"], "1/op"),
        "parties.snapshot_unchanged": share(
            counts["parties.snapshot_unchanged"], snapshots, "snapshots"),
        "parties.messages": rate(calls("parties.send", ok_only=True), "1/op"),
        "trace.render_calls": rate(calls("trace.render_table"), "1/op"),
        "trace.render_s": rate(self_s("trace."), "s/op"),
        "trace.bytes": rate(counts["trace.bytes"], "B/op"),
        "ledger.balance_calls": rate(calls("ledger.balance"), "1/op"),
        "ledger.balance_s": rate(self_s("ledger.balance"), "s/op"),
        "ledger.spend_calls": rate(calls("ledger.spend"), "1/op"),
        "ledger.spend_s": rate(self_s("ledger.spend"), "s/op"),
        "ledger.spend_failed": rate(names.get("ledger.spend", {}).get("raised", 0), "1/op"),
        "store.ping_calls": rate(calls("store.ping"), "1/op"),
        "store.ping_s": rate(self_s("store.ping"), "s/op"),
        "store.takes": rate(takes, "1/op"),
        "store.inserts": rate(calls("store.insert", ok_only=True), "1/op"),
        "store.reinserts": rate(reinserts, "1/op"),
        "store.mutate_s": rate(self_s("store.take", "store.insert", "store.reinsert"), "s/op"),
        "store.reinsert_ratio": share(reinserts, takes, "takes"),
        "backend.calls": rate(backend_calls, "1/op"),
        "backend.s": rate(self_s("backend."), "s/op"),
    }
    for group in BACKEND_GROUPS:
        metrics[f"backend.{group}_s"] = rate(self_s(f"backend.{group}."), "s/op")
    metrics.update({
        "adversary.closure_calls": rate(calls("adversary.closure"), "1/op"),
        "adversary.closure_s": rate(self_s("adversary.closure"), "s/op"),
        "adversary.closure_in_terms": rate(counts["adversary.closure_in_terms"], "1/op"),
        "adversary.closure_out_terms": rate(counts["adversary.closure_out_terms"], "1/op"),
        "adversary.closure_new_share": share(
            counts["adversary.closure_new_terms"], counts["adversary.closure_in_terms"],
            "input terms"),
        "adversary.can_spend_calls": rate(calls("adversary.can_spend"), "1/op"),
        "adversary.positive": rate(counts["adversary.positive"], "1/op"),
        "adversary.wiretap_s": rate(self_s("adversary.wiretap_knowledge"), "s/op"),
        "adversary.wiretap_msgs": rate(counts["adversary.wiretap_msgs"], "1/op"),
        "adversary.run_attack_s": rate(self_s("adversary.run_attack"), "s/op"),
        "scenario.parse_s": rate(self_s("scenario.parse_scenario"), "s/op"),
        "scenario.self_s": rate(self_s("scenario.run_scenario"), "s/op"),
        "py.gc_s": rate(self_s("py.gc"), "s/op"),
        "py.gc_collections": rate(calls("py.gc"), "1/op"),
        "bench.trace_overhead": (trace_overhead, "ratio",
                                 "traced over untraced steps_per_s"),
    })
    return metrics


def breakdown(tracer) -> tuple[float, list[tuple[str, float, int]]]:
    """Total wall time of the benchmark's calls and (layer, self s, spans) rows."""
    layers: dict[str, list] = {}
    for name, entry in tracer.by_name().items():
        # the benchmark's own loop and the tracer's bookkeeping stay apart
        layer = name if name.startswith("bench.") else name.split(".")[0]
        row = layers.setdefault(layer, [0.0, 0])
        row[0] += entry["self_s"]
        row[1] += entry["calls"]
    wall = sum(wall_s for wall_s, _ in tracer.by_call().values())
    rows = sorted(((layer, s, n) for layer, (s, n) in layers.items()), key=lambda r: -r[1])
    return wall, rows


def print_breakdown(workload: str, tracer, ops: int) -> None:
    wall, rows = breakdown(tracer)
    print(f"  self time by module, traced {workload}: {ops} ops, {wall:.4f} s in benchmark calls")
    print(f"    {'module':<13} {'self s':>10} {'share':>8}  {'of s':>8} {'spans':>9}")
    for layer, seconds, spans in rows:
        share = _share(seconds, wall)
        print(f"    {layer:<13} {seconds:>10.4f} {share:>8.2%}  {wall:>8.4f} {spans:>9}")
