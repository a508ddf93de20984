#!/usr/bin/env python3
"""The repository benchmark: three whole-system workloads, one command.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload hbm_fanout --seed 1 --seconds 10 --trace 0

The workload is built from ``--seed`` and run repeatedly in this one
process (a fresh simulated system each time) until ``--seconds`` have
passed: once untimed, to warm up and count the measured phase's events,
then at least :data:`MIN_REPETITIONS` timed times.  Host timings are CPU
seconds scaled by an interleaved reference loop to one fixed host speed
(see ``hostspeed.py``), as medians over the timed repetitions; simulated
results are deterministic and must be identical in every repetition.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced repetitions and prints the per-layer metrics
(see ``layers.py``).  Every metric is printed on its own line with its
unit and sample count; the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  The exit
status is 1 when an output check fails.  Nothing is written to any file.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from typing import Dict, List, Tuple

from hostspeed import reference, scaled

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

#: Timed repetitions per run, whatever ``--seconds`` says: medians need several.
MIN_REPETITIONS = 3
#: Set-ups per timed repetition, for a steadier ``setup_s`` median.
SETUPS_PER_REPETITION = 3
#: Operations a workload must record for its p99 to have >= 10 beyond it.
MIN_OPS_FOR_P99 = 1000


def _import_program():
    """Put the checkout's ``src`` first on the path; fail if it is absent."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.exit(f"perfbench: no program source at {os.path.relpath(SRC)}/repro")
    sys.path[:0] = [SRC, HERE]


def percentile(values: List[float], pct: int) -> float:
    """The ``pct``-th percentile, interpolated between closest ranks."""
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


# ------------------------------------------------------------- repetitions


class Repetition:
    """One build-and-run of a workload.  Keeps no reference to the
    simulated system, so the next repetition can reuse its memory.

    ``setup_s`` (one entry per set-up), ``driver_setup_s`` and ``run_s``
    are scaled to the reference host speed; ``run_s`` is ``None`` when no
    reference ran alongside the measured phase.  ``run_cpu_s`` is
    unscaled."""

    def __init__(self, workload, setup_s: List[float], result, run_s=None,
                 setup_scale=1.0):
        self.setup_s = setup_s
        self.result = result
        self.run_s = run_s
        self.run_cpu_s = sum(result.slice_s)
        self.driver_setup_s = workload.driver_setup_s * setup_scale
        link = workload.driver.shell.static.xdma.link.config if workload.driver else None
        #: Host-link capacity, both directions (bytes per simulated ns).
        self.link_bytes_per_ns = link.h2c_bandwidth + link.c2h_bandwidth if link else 0.0


def set_up(cls, seed: int):
    """A fresh instance of the workload, set up; returns it with its
    set-up time scaled to the reference host speed, and the scale.
    Two reference calls either side of the set-up give the scale."""
    gc.collect()
    workload = cls(seed)
    refs = [reference(), reference()]
    begin = time.process_time()
    workload.setup()
    cpu_s = time.process_time() - begin
    refs += [reference(), reference()]
    return workload, scaled(cpu_s, refs), scaled(1.0, refs)


def repeat(cls, seed: int, tracer=None, events=None, setups=1) -> Repetition:
    """Set up the workload ``setups`` times, dropping all but the last
    instance unrun, and run that one.

    With ``events`` (the count the untimed first repetition dispatched)
    the measured phase is timed in slices, and unless ``tracer`` is set
    a reference call follows every slice, so that ``run_s`` can be
    scaled.
    """
    setup_s = []
    for _ in range(setups):
        workload = None  # freed before the next one is built
        workload, seconds, scale = set_up(cls, seed)
        setup_s.append(seconds)
    if events is None or tracer is not None:
        return Repetition(workload, setup_s, workload.run(tracer, events), setup_scale=scale)
    run_refs: List[float] = []
    result = workload.run(None, events, lambda: run_refs.append(reference()))
    return Repetition(workload, setup_s, result, scaled(sum(result.slice_s), run_refs), scale)


def check(reps: List[Repetition]) -> List[str]:
    """Output checks over a run's repetitions."""
    problems = []
    for rep in reps:
        problems.extend(rep.result.problems)
    digests = {rep.result.digest() for rep in reps}
    if len(digests) != 1:
        problems.append(f"simulated results differ between repetitions: {sorted(digests)}")
    if not (reps[0].result.events > 0 and reps[0].result.sim_ns > 0):
        problems.append("the measured phase dispatched no events or took no simulated time")
    ok_ops = sum(1 for op in reps[0].result.ops if op[4] == "ok")
    if ok_ops < MIN_OPS_FOR_P99:
        problems.append(f"only {ok_ops} completed operations; p99 needs {MIN_OPS_FOR_P99}")
    return problems


# ----------------------------------------------------------------- metrics


def end_to_end(reps: List[Repetition]) -> Dict[str, Tuple[float, str, str]]:
    """name -> (value, unit, sample description)."""
    result = reps[0].result
    n = len(reps)
    scaled_by = "CPU at reference speed"
    latencies = [(op[3] - op[2]) / 1e3 for op in result.ops if op[4] == "ok"]
    ops = len(latencies)
    return {
        "setup_s": (statistics.median(s for r in reps for s in r.setup_s), "s",
                    f"{scaled_by}, median of {sum(len(r.setup_s) for r in reps)} set-ups"),
        "run_s": (statistics.median(r.run_s for r in reps), "s",
                  f"{scaled_by}, median of {n} runs"),
        "run_cpu_s": (statistics.median(r.run_cpu_s for r in reps), "s",
                      f"CPU as measured, median of {n} runs"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "MB", "process high-water"),
        "sim_goodput": (result.goodput_bytes / result.sim_ns, "GB/s",
                        f"{result.goodput_bytes} B over {result.sim_ns:.0f} sim ns"),
        "sim_op_p50_us": (percentile(latencies, 50), "us", f"{ops} operations"),
        "sim_op_p99_us": (percentile(latencies, 99), "us", f"{ops} operations"),
        "sim_fairness": (result.fairness, "jain", "Jain index over flows"),
        "failed_frac": (sum(1 for op in result.ops if op[4] != "ok") / result.attempted,
                        "ratio", f"{result.attempted} attempted"),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(plain: List[Repetition], traced: List[Repetition],
              tracers) -> Dict[str, Tuple[float, str, str]]:
    """name -> (value, unit, sample description) from a traced run."""
    result = traced[0].result
    c = result.counters
    tracer = tracers[len(tracers) // 2]
    untraced_run_s = statistics.median(r.run_s for r in plain)
    untraced_cpu_s = statistics.median(r.run_cpu_s for r in plain)
    traced_cpu_s = statistics.median(r.run_cpu_s for r in traced)
    self_s = {}
    for t in tracers:
        for layer, seconds in t.layer_self_s().items():
            self_s.setdefault(layer, []).append(seconds)
    self_s = {layer: statistics.median(v) for layer, v in self_s.items()}

    def calls(*labels: str) -> int:
        return sum(tracer.calls.get(label, 0) for label in labels)

    link_bytes_per_ns = traced[0].link_bytes_per_ns
    pcie_bytes = c.get("pcie.h2c_bytes", 0.0) + c.get("pcie.c2h_bytes", 0.0)
    hbm_bytes = c.get("mem.hbm_bytes_read", 0.0) + c.get("mem.hbm_bytes_written", 0.0)
    tlb = c.get("mem.tlb_hits", 0.0) + c.get("mem.tlb_misses", 0.0)
    payload_sent = c.get("rdma.payload_sent_bytes", 0.0)
    n, t = f"{len(plain)} untraced runs", f"{len(traced)} traced runs"
    count, secs = "count", "s"
    metrics = {
        "sim.events": (result.events, count, "measured phase"),
        "sim.events_per_host_s": (result.events / untraced_run_s, "1/s", n),
        "sim.engine_self_s": (self_s.get("sim", 0.0), secs, t),
        "sim.queue_high_water": (result.queue_high_water, count, "whole run"),
        "sim.time_ns": (result.sim_ns, "ns", "measured phase"),
        "sim.resources.ops": (calls("sim.resources:request", "sim.resources:release",
                                    "sim.resources:put", "sim.resources:get",
                                    "sim.resources:try_get"), count, "timed calls"),
        "sim.resources.self_s": (self_s.get("sim.resources", 0.0), secs, t),
        "axi.flits": (calls("axi:send"), count, "timed calls"),
        "axi.self_s": (self_s.get("axi", 0.0), secs, t),
        "core.packetizer.packets": (tracer.yields.get("core.packetizer:split", 0),
                                    count, "packets split"),
        "core.packetizer.self_s": (self_s.get("core.packetizer", 0.0), secs, t),
        "core.movers.bytes": (c.get("movers.bytes", 0.0), "B", "mover counters"),
        "core.movers.self_s": (self_s.get("core.movers", 0.0), secs, t),
        "mem.mmu.translations": (calls("mem.mmu:translate", "mem.mmu:translate_any"),
                                 count, "timed calls"),
        "mem.mmu.tlb_hit_ratio": (_ratio(c.get("mem.tlb_hits", 0.0), tlb), "ratio",
                                  f"{tlb:.0f} lookups"),
        "mem.mmu.page_faults": (c.get("mem.page_faults", 0.0), count, "telemetry"),
        "mem.mmu.self_s": (self_s.get("mem.mmu", 0.0), secs, t),
        "mem.hbm.bytes": (hbm_bytes, "B", "telemetry"),
        "mem.hbm.busiest_channel_share": (c.get("mem.hbm_busiest_channel_share", 0.0),
                                          "ratio", "channel accesses"),
        "mem.hbm.self_s": (self_s.get("mem.hbm", 0.0), secs, t),
        "pcie.xdma.bytes": (pcie_bytes, "B", "telemetry"),
        "pcie.xdma.transfers": (c.get("pcie.h2c_transfers", 0.0)
                                + c.get("pcie.c2h_transfers", 0.0), count, "telemetry"),
        "pcie.xdma.link_util": (_ratio(pcie_bytes, result.sim_ns * link_bytes_per_ns),
                                "ratio", "both directions"),
        "pcie.xdma.self_s": (self_s.get("pcie.xdma", 0.0), secs, t),
        "driver.setup_s": (statistics.median(r.driver_setup_s for r in plain),
                           secs, n),
        "driver.descriptors": (c.get("ring.descriptors", 0.0), count, "telemetry"),
        "driver.doorbells": (c.get("ring.doorbells", 0.0), count, "telemetry"),
        "driver.descriptors_per_doorbell": (
            _ratio(c.get("ring.descriptors", 0.0), c.get("ring.doorbells", 0.0)),
            "ratio", "telemetry"),
        "driver.self_s": (self_s.get("driver", 0.0), secs, t),
        "api.cthread.ops": (calls("api.cthread:invoke", "driver:ring_post"), count,
                            "invokes + ring posts"),
        "api.cthread.self_s": (self_s.get("api.cthread", 0.0), secs, t),
        "net.switch.frames": (c.get("switch.forwarded", 0.0), count, "switch counters"),
        "net.switch.tail_drops": (c.get("switch.tail_drops", 0.0), count, "switch counters"),
        "net.switch.ecn_marks": (c.get("switch.ecn_marks", 0.0), count, "switch counters"),
        "net.switch.queue_high_water_bytes": (c.get("switch.queue_high_water_bytes", 0.0),
                                              "B", "egress ports"),
        "net.switch.self_s": (self_s.get("net.switch", 0.0), secs, t),
        "net.rdma.tx_packets": (c.get("rdma.tx_packets", 0.0), count, "RdmaStack.stats"),
        "net.rdma.retransmits": (c.get("rdma.retransmissions", 0.0), count,
                                 "RdmaStack.stats"),
        "net.rdma.useful_ratio": (_ratio(result.goodput_bytes, payload_sent), "ratio",
                                  f"{payload_sent:.0f} payload B sent"),
        "net.rdma.cnps": (c.get("rdma.cnps_sent", 0.0), count, "RdmaStack.stats"),
        "net.rdma.self_s": (self_s.get("net.rdma", 0.0), secs, t),
        "net.packet.builds": (calls("net.packet:build"), count, "timed calls"),
        "net.packet.parses": (c.get("rdma.rx_packets", 0.0), count,
                              "packets decoded by RdmaStack receive loops"),
        "net.packet.self_s": (self_s.get("net.packet", 0.0), secs, t),
        "net.cmac.pause_frames": (c.get("cmac.pause_frames", 0.0), count, "Cmac counters"),
        "net.cmac.self_s": (self_s.get("net.cmac", 0.0), secs, t),
        "bench.trace_overhead_frac": (traced_cpu_s / untraced_cpu_s - 1.0, "ratio",
                                      f"{t} vs {n}"),
    }
    return metrics


# --------------------------------------------------------------------- main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    from layers import LayerTracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    cls = WORKLOADS[args.workload]
    deadline = time.perf_counter() + args.seconds
    warmup = repeat(cls, args.seed)
    events = warmup.result.events
    plain: List[Repetition] = []
    traced: List[Repetition] = []
    tracers = []
    while len(plain) < MIN_REPETITIONS or time.perf_counter() < deadline:
        plain.append(repeat(cls, args.seed, events=events, setups=SETUPS_PER_REPETITION))
        if args.trace:
            with LayerTracer() as tracer:
                traced.append(repeat(cls, args.seed, tracer, events))
            tracers.append(tracer)

    problems = check([warmup] + plain + traced)
    if args.trace:
        metrics = per_layer(plain, traced, tracers)
    else:
        metrics = end_to_end(plain)
    result = plain[0].result
    failed = sum(1 for op in result.ops if op[4] != "ok")
    components = tracers[len(tracers) // 2].component_rows() if tracers else []
    print(f"workload {args.workload}  seed {args.seed}  repetitions 1 untimed + {len(plain)}"
          f"{' + %d traced' % len(traced) if traced else ''}")
    for name, (value, unit, samples) in metrics.items():
        print(f"  {name:<36} {value:>16.6g} {unit:<6} ({samples})")
    if components:
        print("  own time by profiler component (one traced run):")
        for comp, layer, seconds in components:
            print(f"    {comp:<34} {layer:<16} {seconds:10.4f} s")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": result.attempted * len(plain),
        "failed": failed * len(plain),
        "metrics": json_metrics(metrics, args.trace),
    }))
    return 0 if not problems else 1


def json_metrics(metrics, trace: int) -> Dict[str, Dict[str, object]]:
    """The metrics BENCHMARK.json declares for this mode, by name."""
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if trace else "end_to_end"]
    return {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
            for m in declared}


if __name__ == "__main__":
    sys.exit(main())
