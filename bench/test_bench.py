"""Self-tests of the benchmark: python3 -m pytest bench -q"""
from __future__ import annotations

import pytest

import workloads
from tracer import Tracer
from workloads import FleetWalk, Recorder, execute, protocol


def fleet_ops(seed: int) -> list[tuple]:
    return workloads.run_walk(seed, Recorder(), random_steps=60)["ops"]


def test_same_seed_gives_same_ops_and_other_seed_other_ops():
    assert fleet_ops(1) == fleet_ops(1)
    assert fleet_ops(1) != fleet_ops(2)
    assert workloads.fleet_walk_seeds(1) == workloads.fleet_walk_seeds(1)
    assert workloads.fleet_walk_seeds(1) != workloads.fleet_walk_seeds(2)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_fleet_issues_only_ops_valid_under_its_model(seed):
    sim = protocol.Simulation(mode="cryptocubic", backend="symbolic", seed=seed)
    walk = FleetWalk(seed)
    kinds = set()
    for _ in range(len(walk.prelude) + 60):
        op = walk.next_op()
        assert walk.model.is_valid(op), op
        kinds.add(op[0])
        ok, _reason, result = execute(sim, op)
        if ok:
            walk.model.apply(op, result)
    assert kinds == {"setup", "fund", "transfer", "redeem"}


def small_workloads():
    return [
        workloads.Canonical(3),
        workloads.Bounce(3, n=5),
        workloads.Fleet(3, random_steps=30, walks=2),
        workloads.Audit(3, n=5),
    ]


def outputs(wl):
    return getattr(wl, "last", None)


def test_traced_run_changes_no_transcript_ledger_or_verdict():
    for wl in small_workloads():
        wl.round(Recorder())
        untraced = outputs(wl)
        with Tracer() as tracer:
            wl.round(Recorder(tracer))
        assert tracer.spans
        assert outputs(wl) == untraced
        assert not wl.problems, wl.problems


def test_tracer_puts_every_original_back():
    before = (protocol.Simulation.setup, workloads.adversary.closure,
              workloads.scenario.render_table, workloads.cli.main)
    with Tracer():
        assert protocol.Simulation.setup is not before[0]
    after = (protocol.Simulation.setup, workloads.adversary.closure,
             workloads.scenario.render_table, workloads.cli.main)
    assert after == before


def test_self_times_of_a_traced_call_never_exceed_its_wall_time():
    for wl in small_workloads():
        with Tracer() as tracer:
            wl.round(Recorder(tracer))
        calls = tracer.by_call()
        assert calls
        for wall, below in calls.values():
            assert below <= wall + 1e-9
        assert min(tracer.self_times()) > -1e-9


def test_recorded_values_hold_at_the_benchmark_sizes():
    bounce = workloads.Bounce(11)
    bounce.round(Recorder())
    assert bounce.expected and not bounce.problems, bounce.problems
    audit = workloads.Audit(11)
    audit.round(Recorder())
    assert audit.expected and not audit.problems, audit.problems
