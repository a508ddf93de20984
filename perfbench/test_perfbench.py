"""The benchmark's own tests.  Run from the repository root with::

    python3 -m pytest perfbench -q

They use shortened workloads (the per-flow operation count is a
constructor argument), so they check the machinery, not the figures.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run  # noqa: E402
from hostspeed import REFERENCE_S, reference, scaled  # noqa: E402
from layers import LayerTracer  # noqa: E402
from workloads import (  # noqa: E402
    SLICE_EVENTS, WORKLOADS, HbmFanout, HostTenants, RdmaIncast)

#: Small instances: (class, constructor keyword, operations per flow).
SMALL = [(HbmFanout, "rounds", 3), (HostTenants, "ops_per_tenant", 10),
         (RdmaIncast, "writes_per_sender", 4)]


def small(cls, key, count):
    return lambda seed: cls(seed, **{key: count})


def simulate(make, seed, tracer=None):
    workload = make(seed)
    if tracer is None:
        workload.setup()
        return workload.run()
    with tracer:
        workload.setup()
        return workload.run(tracer)


@pytest.mark.parametrize("cls,key,count", SMALL, ids=[c[0].name for c in SMALL])
def test_same_seed_same_simulated_results(cls, key, count):
    make = small(cls, key, count)
    first, second = simulate(make, 7), simulate(make, 7)
    assert not first.problems
    assert first.digest() == second.digest()
    assert (first.sim_ns, first.goodput_bytes, first.fairness) == (
        second.sim_ns, second.goodput_bytes, second.fairness)
    assert first.events > 0 and first.sim_ns > 0


@pytest.mark.parametrize("cls,key,count", SMALL, ids=[c[0].name for c in SMALL])
def test_tracing_leaves_event_stream_unchanged(cls, key, count):
    make = small(cls, key, count)
    plain = simulate(make, 3)
    tracer = LayerTracer()
    traced = simulate(make, 3, tracer)
    assert traced.digest() == plain.digest()
    assert traced.events == plain.events
    self_s = tracer.layer_self_s()
    assert sum(self_s.values()) > 0
    # The classes are restored once the tracer exits.
    from repro.mem.mmu import Mmu
    assert "timed" not in Mmu.translate.__qualname__


@pytest.mark.parametrize("cls,key,count", SMALL, ids=[c[0].name for c in SMALL])
def test_sliced_run_repeats_the_plain_run(cls, key, count):
    make = small(cls, key, count)
    plain = simulate(make, 5)
    workload = make(5)
    workload.setup()
    calls = []
    sliced = workload.run(events=plain.events, between=lambda: calls.append(1))
    assert sliced.digest() == plain.digest()
    assert len(sliced.slice_s) == len(calls) == -(-plain.events // SLICE_EVENTS)


def test_scaled_timing():
    assert reference() > 0
    assert scaled(2.0, [REFERENCE_S, REFERENCE_S]) == pytest.approx(2.0)
    assert scaled(2.0, [2 * REFERENCE_S]) == pytest.approx(1.0)


@pytest.mark.parametrize("cls", list(WORKLOADS.values()), ids=list(WORKLOADS))
def test_different_seed_different_inputs(cls):
    assert cls(1).sizes != cls(2).sizes
    assert cls(1).sizes == cls(1).sizes
    assert cls(1).attempted >= run.MIN_OPS_FOR_P99


def test_declared_metrics_are_the_ones_computed():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    make = small(RdmaIncast, "writes_per_sender", 4)
    events = run.repeat(make, 0).result.events
    plain = [run.repeat(make, 0, events=events)]
    with LayerTracer() as tracer:
        traced = [run.repeat(make, 0, tracer, events)]
    e2e = run.end_to_end(plain)
    layers = run.per_layer(plain, traced, [tracer])
    assert {m["name"] for m in bench["end_to_end"]} <= set(e2e)
    assert [m["name"] for m in bench["per_layer"]] == list(layers)
    for m in bench["end_to_end"]:
        assert e2e[m["name"]][1] == m["unit"]
    for m in bench["per_layer"]:
        assert layers[m["name"]][1] == m["unit"]


def test_incast_meets_fairness_floor():
    from workloads import INCAST_FAIRNESS_FLOOR, jain
    assert jain([2.0] * 4) == pytest.approx(1.0)
    assert jain([1.0, 0.0]) == pytest.approx(0.5)
    result = simulate(small(RdmaIncast, "writes_per_sender", 4), 1)
    assert result.fairness >= INCAST_FAIRNESS_FLOOR and not result.problems


def test_fails_without_program_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hbm_fanout",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
