"""The benchmark's four workloads, driven through the public harness calls.

All four are open loop in simulated time: the load generators send on
their schedule whatever the simulated node or fabric does.  A workload
is a set-up call (the matching public prewarm on an empty warm-up
cache) and one operation: the public run call(s) plus output checks.
Only the run calls are timed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Callable, Dict, List, Tuple

# Called through their modules, so the wrappers the traced run installs
# on the module attributes are the ones that run.
from repro.harness import fabric, runner
from repro.harness.warmup_cache import WarmupCache
from repro.net.fabric import DROP_CAUSES, Fabric
from repro.nic.drop_fsm import DropCause
from repro.nic.phy import EtherLink
from repro.system.presets import gem5_default

#: One timed public call: (label, thunk).
Call = Tuple[str, Callable[[], object]]


def counts_of(built, fired_base: int) -> Dict[str, int]:
    """Public counters of a node or fabric after a run call.

    ``fired_base`` is the event count right after a checkpoint restore
    (0 when the simulation was warmed up in this call), so
    ``sim.events`` counts the events this call executed.
    """
    sim = built.sim
    counts = {
        "sim.events": sim.events.fired - fired_base,
        "nic.link_frames": sum(obj.stat_frames.value
                               for obj in sim.objects()
                               if isinstance(obj, EtherLink)),
    }
    if isinstance(built, Fabric):
        counts["net.fabric.frames_switched"] = sum(
            switch.stat_rx.value for switch in built.local_switches)
        drops = built.drop_breakdown()
        for cause in DROP_CAUSES:
            counts[f"net.fabric.drops.{cause}"] = drops.get(cause, 0)
        return counts
    nic, hierarchy = built.nic, built.hierarchy
    fsm, dram = nic.drop_fsm, hierarchy.dram
    counts.update({
        "nic.drops.dma": fsm.counts[DropCause.DMA],
        "nic.drops.core": fsm.counts[DropCause.CORE],
        "nic.drops.tx": fsm.counts[DropCause.TX],
        "nic.desc_writebacks": nic.rx_ring.writebacks,
        "mem.llc_hits": hierarchy.llc.hits,
        "mem.llc_misses": hierarchy.llc.misses,
        "mem.dram_row_hits": dram.row_hits,
        "mem.dram_row_misses": dram.row_misses,
        "mem.dram_accesses": dram.reads + dram.writes,
        "cpu.work_units": built.core.work_units,
    })
    pmd = getattr(built, "pmd", None)
    if pmd is not None:
        counts.update({
            "dpdk.rx_bursts": pmd.rx_bursts,
            "dpdk.empty_rx_bursts": pmd.empty_rx_bursts,
            "dpdk.rx_packets": pmd.rx_packets,
        })
    return counts


def result_digest(results: List[object], counts: Dict[str, int]) -> str:
    """SHA-256 over the simulated results and counters of one operation."""
    payload = {"results": [dataclasses.asdict(r) for r in results],
               "counts": counts}
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class Workload:
    """One named workload: set-up, the timed calls, and their checks."""

    name = ""
    #: Set-up repetitions per run; the reported setup_s is their median.
    setup_reps = 5

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.config = gem5_default()

    def prewarm(self, cache: WarmupCache) -> None:
        raise NotImplementedError

    def prepare(self, cache: WarmupCache) -> None:
        """Set-up beyond the prewarm, not part of ``setup_s``; its
        calibrated time is the base of ``dist.overhead_ratio``."""

    def calls(self, cache: WarmupCache) -> List[Call]:
        raise NotImplementedError

    def check(self, results: List[object]) -> List[str]:
        """Failed output checks of one operation (empty when correct)."""
        raise NotImplementedError


class NodeTestpmd(Workload):
    """DPDK TestPMD on the gem5 preset, 64 B frames, two offered loads
    restored from one shared warm-up snapshot."""

    name = "node_testpmd_64b"
    app, size = "testpmd", 64
    #: Below the ~12.7 Gbps service rate (empty polls) and in overload
    #: (full rings, NIC drops).
    loads_gbps = (10.0, 40.0)

    def prewarm(self, cache):
        runner.prewarm_fixed_load(self.config, self.app, self.size,
                           seed=self.seed, warmup_cache=cache)

    def calls(self, cache):
        return [(f"{gbps:g}gbps",
                 lambda gbps=gbps: runner.run_fixed_load(
                     self.config, self.app, self.size, gbps,
                     seed=self.seed, warmup_cache=cache))
                for gbps in self.loads_gbps]

    def check(self, results):
        fails = []
        for result in results:
            if not 0 < result.delivered <= result.sent:
                fails.append(f"{result.offered_gbps:g} Gbps: delivered "
                             f"{result.delivered} of {result.sent}")
        below, over = results
        if below.drop_rate > 0.05:
            fails.append(f"drop rate {below.drop_rate:.3f} below the "
                         f"service rate (expected < 0.05)")
        if over.drop_rate < 0.3:
            fails.append(f"drop rate {over.drop_rate:.3f} in overload "
                         f"(expected > 0.3)")
        return fails


class NodeMemcachedKernel(Workload):
    """Kernel-stack memcached on the gem5 preset at 300k RPS with the
    default client (80% GET / 20% SET over 5,000 preloaded keys)."""

    name = "node_memcached_kernel"
    rate_rps = 300_000.0
    n_requests = 4000

    def prewarm(self, cache):
        runner.prewarm_memcached(self.config, True, seed=self.seed,
                          warmup_cache=cache)

    def calls(self, cache):
        return [("300krps", lambda: runner.run_memcached(
            self.config, True, self.rate_rps, n_requests=self.n_requests,
            seed=self.seed, warmup_cache=cache))]

    def check(self, results):
        (result,) = results
        fails = []
        if result.requests_sent != self.n_requests:
            fails.append(f"sent {result.requests_sent} of "
                         f"{self.n_requests} requests")
        if not 0 < result.responses <= result.requests_sent:
            fails.append(f"{result.responses} responses to "
                         f"{result.requests_sent} requests")
        if result.get_hits + result.get_misses > result.responses:
            fails.append("more GET outcomes than responses")
        return fails


class FabricFlows(Workload):
    """Fat-tree K=4, DPDK hosts, uniform pattern at load 0.5, smoke
    size CDF, 10,000 flows, single process."""

    name = "fabric_k4_flows"
    #: prewarm_fabric takes about 10 ms, so many repetitions.
    setup_reps = 40
    preset, stack = "fat-tree-k4", "dpdk"
    pattern, load, size_cdf = "uniform", 0.5, "smoke"

    def __init__(self, seed: int, n_flows: int = 10_000) -> None:
        super().__init__(seed)
        self.n_flows = n_flows

    def prewarm(self, cache):
        fabric.prewarm_fabric(self.config, self.preset, self.stack,
                              seed=self.seed, warmup_cache=cache)

    def run_kwargs(self) -> dict:
        return dict(pattern=self.pattern, load=self.load,
                    n_flows=self.n_flows, size_cdf=self.size_cdf,
                    seed=self.seed)

    def calls(self, cache):
        return [("flows", lambda: fabric.run_fabric(
            self.config, self.preset, self.stack, warmup_cache=cache,
            **self.run_kwargs()))]

    def check(self, results):
        (result,) = results
        fails = []
        if not (result.flows_started == result.flows_completed
                == self.n_flows):
            fails.append(f"{result.flows_completed} of "
                         f"{result.flows_started} started flows completed; "
                         f"{self.n_flows} offered")
        if not 0 < result.frames_delivered <= result.frames_sent:
            fails.append(f"delivered {result.frames_delivered} of "
                         f"{result.frames_sent} frames")
        return fails


class FabricShards(FabricFlows):
    """The exact schedule and seed of :class:`FabricFlows`, split over
    two shard processes; its flow digest must equal the single-process
    run's.  The single-process reference runs once per benchmark run, in
    set-up, from the same warm-up cache the prewarm filled.

    Runnable by name but not among the workloads BENCHMARK.json names:
    the sharded run differs from the single-process run on some seeds
    (README, "Known defect"), so its digest check fails there."""

    name = "fabric_k4_shards2"
    shards = 2

    def __init__(self, seed: int, n_flows: int = 10_000) -> None:
        super().__init__(seed, n_flows)
        self.reference = None

    def prepare(self, cache):
        self.reference = fabric.run_fabric(
            self.config, self.preset, self.stack, warmup_cache=cache,
            **self.run_kwargs())

    def calls(self, cache):
        return [("shards2", lambda: fabric.run_fabric_sharded(
            self.config, self.preset, self.stack, shards=self.shards,
            **self.run_kwargs()))]

    def check(self, results):
        fails = super().check(results)
        (result,) = results
        ref = self.reference
        if ref is None:
            return fails + ["no single-process reference to compare with"]
        if result.flow_digest != ref.flow_digest:
            same = [field for field in ("flows_completed", "frames_sent",
                                        "frames_delivered")
                    if getattr(result, field) == getattr(ref, field)]
            moved = {key: (ref.fct_us[key], value)
                     for key, value in result.fct_us.items()
                     if ref.fct_us.get(key) != value}
            fails.append(f"flow digest differs from the single-process run "
                         f"at seed {self.seed} (equal: {', '.join(same)}; "
                         f"FCT summary single vs sharded: {moved})")
        return fails


WORKLOADS = {cls.name: cls for cls in (NodeTestpmd, NodeMemcachedKernel,
                                        FabricFlows, FabricShards)}
