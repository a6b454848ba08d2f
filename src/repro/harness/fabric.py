"""Fabric run primitives: build a fabric, offer flows, collect results.

The fabric counterpart of :mod:`repro.harness.runner`: the same
warm-up / checkpoint-restore / measured-window / drain shape, applied to
a whole switch fabric instead of a single node.  The warm-up plan is
deliberately *load- and pattern-independent* (a canonical trickle of
uniform traffic), so every point of a fabric load sweep shares one
post-warm-up snapshot through the warm-up cache.  The phase driver here
runs every fabric simulation: in this process (one shard) or split over
shard processes by :mod:`repro.dist.shard`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional

from repro.harness.runner import _finalize_run
from repro.harness.warmup_cache import WarmupCache, warm_start, warmup_key
from repro.loadgen.flowgen import (
    FlowGenConfig,
    FlowTrafficGenerator,
    fct_summary_from,
    flow_digest_from,
    resolve_size_cdf,
)
from repro.net.fabric import Fabric, FabricConfig, build_fabric
from repro.sim.checkpoint import CheckpointError
from repro.sim.invariants import InvariantViolation
from repro.sim.simobject import Simulation
from repro.sim.ticks import us_to_ticks
from repro.system.config import SystemConfig
from repro.system.presets import FABRIC_PRESETS


def host_service_ns(config: SystemConfig, stack: str) -> float:
    """Per-frame host service cost derived from the platform's measured
    per-packet cycle costs (:class:`repro.cpu.kernels.KernelCosts`).

    DPDK hosts pay the PMD per-packet cost plus amortized mempool
    get/put and an RX-burst share; kernel hosts pay the softirq
    per-packet path, an skb allocation, and amortized interrupt +
    syscall entry (NAPI batch of 8).  This keeps the paper's stack
    contrast — tens of ns vs most of a microsecond per packet — without
    simulating 16 full microarchitectural nodes.
    """
    costs = config.costs
    freq_hz = config.core.freq_hz
    if stack == "dpdk":
        cycles = (costs.pmd_per_packet_cycles
                  + costs.mempool_get_put_cycles
                  + costs.pmd_rx_burst_cycles / 8.0)
    elif stack == "kernel":
        cycles = (costs.softirq_per_packet_cycles
                  + costs.skb_alloc_cycles
                  + costs.interrupt_cycles / 8.0
                  + costs.syscall_cycles / 8.0)
    else:
        raise ValueError(f"unknown stack {stack!r}")
    return cycles / freq_hz * 1e9


@dataclass(frozen=True)
class FabricWarmupPlan:
    """The load-independent warm-up phase for a fabric run.

    A short burst of uniform traffic at a canonical low load exercises
    every tier of the fabric (ECMP spreads the warm flows across the
    core), then the fabric drains to quiescence and resets statistics —
    the state :meth:`repro.net.fabric.Fabric.checkpoint` captures.
    """

    warm_flows: int = 32
    warm_load: float = 0.15
    warm_pattern: str = "uniform"
    warm_size_cdf: str = "smoke"
    drain_chunk_us: float = 200.0
    max_drain_chunks: int = 400


@dataclass
class FabricRunResult:
    """Outcome of one flow-level fabric run."""

    label: str
    preset: str
    stack: str
    pattern: str
    offered_load: float
    n_flows: int
    flows_started: int
    flows_completed: int
    frames_sent: int
    frames_delivered: int
    drop_rate: float
    #: FCT percentiles in microseconds (count/mean/p50/p95/p99/p999/...).
    fct_us: Dict[str, float] = field(default_factory=dict)
    #: Fraction of total drops by cause (sums to 1, or empty when clean).
    drop_breakdown: Dict[str, float] = field(default_factory=dict)
    #: Window drop counts by switch name and cause (nonzero only).
    per_switch_drops: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: SHA-256 over the sorted flow completion records — the
    #: determinism anchor (tracer-independent).
    flow_digest: str = ""
    #: SHA-256 of the exported trace; empty when tracing was off.
    trace_digest: str = ""

    @classmethod
    def from_dict(cls, data: dict) -> "FabricRunResult":
        """Rebuild from ``dataclasses.asdict`` output (the shape the
        parallel executor's cache and workers exchange)."""
        return cls(**data)


def fabric_config_for(config: SystemConfig, preset: str,
                      stack: str) -> FabricConfig:
    """Resolve a named fabric preset against a platform config: the
    preset supplies the geometry, the platform supplies link parameters
    and the per-frame host service cost for the chosen stack."""
    try:
        make: Callable[..., FabricConfig] = FABRIC_PRESETS[preset]
    except KeyError:
        raise ValueError(
            f"unknown fabric preset {preset!r}; expected one of "
            f"{sorted(FABRIC_PRESETS)}") from None
    fab_cfg = make(stack=stack)
    if fab_cfg.host_service_ns == 0.0:
        fab_cfg = replace(fab_cfg,
                          host_service_ns=host_service_ns(config, stack))
    return fab_cfg


def build_fabric_rig(config: SystemConfig, preset: str, stack: str,
                     seed: int = 0, shard_plan=None,
                     shard_id: int = 0) -> Fabric:
    """Build a fabric plus its attached flow generator, validated.

    With a ``shard_plan`` (:class:`repro.dist.shard.ShardPlan`), only the
    components owned by ``shard_id`` are instantiated — remote ones
    become stubs, boundary links become channel halves — and the flow
    generator, which still synthesizes the complete deterministic
    schedule, injects only the flows whose source host is local.
    """
    fab_cfg = fabric_config_for(config, preset, stack)
    sim = Simulation(seed=seed)
    label = f"fabric.{preset}.{stack}"
    fabric = build_fabric(sim, fab_cfg, name=label,
                          shard_plan=shard_plan, shard_id=shard_id)
    flow_filter = None
    if shard_plan is not None:
        flow_filter = (
            lambda flow: shard_plan.host_shard(flow.src) == shard_id)
    generator = FlowTrafficGenerator(
        sim, "flowgen", fabric.hosts, fabric.host_groups(),
        fab_cfg.link_bandwidth_bps, flow_filter=flow_filter)
    fabric.attach_generator(generator)
    fabric.validate_wiring()
    return fabric


def _warm_key(config: SystemConfig, fabric: Fabric, preset: str, stack: str,
              plan: FabricWarmupPlan, seed: int) -> str:
    app_options = {"fabric": fabric.config.canonical_dict()}
    return warmup_key(config, f"fabric:{preset}:{stack}", 0, app_options,
                      plan, seed, fabric.sim.tracer._options_signature())


def measured_config(pattern: str, load: float, n_flows: int,
                    size_cdf: str) -> FlowGenConfig:
    """The measured phase's generator config (fails fast on unknown
    size-CDF names, before any simulation)."""
    resolve_size_cdf(size_cdf)
    return FlowGenConfig(pattern=pattern, load=load, n_flows=n_flows,
                         size_cdf=size_cdf)


class _InProcessFabric:
    """The one-shard backend of the phase driver below: a whole fabric
    in this process, advanced directly on its event queue.  The
    multiprocess backend, :class:`repro.dist.shard._ShardCoordinator`,
    has the same methods and applies each to every shard; ``advance``
    runs to an absolute tick, where ``EventQueue.run(until=...)`` always
    ends."""

    def __init__(self, fabric: Fabric) -> None:
        self.fabric = fabric

    @property
    def now(self) -> int:
        return self.fabric.sim.now

    def start(self, gen_config: FlowGenConfig) -> None:
        self.fabric.generator.start(gen_config)

    def advance(self, target: int) -> None:
        self.fabric.sim.run(until=target)

    def busy(self) -> bool:
        return self.fabric.generator.active or not self.fabric.quiescent()

    def ready(self) -> bool:
        return self.fabric._checkpoint_ready()

    def reset(self) -> None:
        self.fabric.reset_measurement()

    def finalize(self) -> List[dict]:
        """The shard's end-of-run report: the final invariant check runs
        here, then the window's flow records and counters are read."""
        fabric = self.fabric
        trace_digest = _finalize_run(fabric)
        generator = fabric.generator
        return [{
            "invariants": fabric.sim.invariants.mode,
            "trace_digest": trace_digest,
            "records": generator._records,
            "window_started": generator.flows_started,
            "frames_sent": fabric.frames_sent(),
            "frames_delivered": fabric.frames_delivered(),
            "drop_counts": fabric.drop_breakdown(),
            "per_switch_drops": fabric.per_switch_drops(),
        }]


def run_flow_phase(backend, gen_config: FlowGenConfig, label: str,
                   plan: FabricWarmupPlan) -> None:
    """One open-loop flow phase: advance in 50 us chunks until the
    generator has injected every flow and the fabric is quiescent, then
    in drain chunks until it is checkpoint-ready."""
    chunk_us, max_chunks = 50.0, 4000
    backend.start(gen_config)
    chunk = us_to_ticks(chunk_us)
    for _ in range(max_chunks):
        if not backend.busy():
            break
        backend.advance(backend.now + chunk)
    else:
        raise CheckpointError(
            f"fabric {label} phase failed to drain after {max_chunks} "
            f"chunks of {chunk_us}us")
    drain = us_to_ticks(plan.drain_chunk_us)
    for _ in range(plan.max_drain_chunks):
        if backend.ready():
            return
        backend.advance(backend.now + drain)
    raise CheckpointError(
        f"fabric {label} drain failed to reach quiescence after "
        f"{plan.max_drain_chunks} chunks of {plan.drain_chunk_us}us")


def warm_up_fabric(backend, plan: FabricWarmupPlan) -> None:
    """The load-independent warm-up phase, then a statistics reset."""
    warm = FlowGenConfig(pattern=plan.warm_pattern, load=plan.warm_load,
                         n_flows=plan.warm_flows, size_cdf=plan.warm_size_cdf)
    run_flow_phase(backend, warm, "warm-up", plan)
    backend.reset()


def measure_fabric(backend, config: SystemConfig, preset: str, stack: str,
                   measured: FlowGenConfig) -> FabricRunResult:
    """Run the measured phase on a warmed-up backend and fold the
    per-shard payloads into one checked :class:`FabricRunResult`."""
    run_flow_phase(backend, measured, "measured", FabricWarmupPlan())
    payloads = backend.finalize()
    records = [record for payload in payloads
               for record in payload["records"]]
    started = sum(p["window_started"] for p in payloads)
    sent = sum(p["frames_sent"] for p in payloads)
    delivered = sum(p["frames_delivered"] for p in payloads)
    drop_counts: Dict[str, int] = {}
    per_switch: Dict[str, Dict[str, int]] = {}
    for payload in payloads:
        for cause, count in payload["drop_counts"].items():
            drop_counts[cause] = drop_counts.get(cause, 0) + count
        per_switch.update(payload["per_switch_drops"])
    total_drops = sum(drop_counts.values())
    breakdown = ({cause: count / total_drops
                  for cause, count in sorted(drop_counts.items())}
                 if total_drops else {})
    result = FabricRunResult(
        label=config.label,
        preset=preset,
        stack=stack,
        pattern=measured.pattern,
        offered_load=measured.load,
        n_flows=measured.n_flows,
        flows_started=started,
        flows_completed=len(records),
        frames_sent=sent,
        frames_delivered=delivered,
        drop_rate=(total_drops / sent) if sent else 0.0,
        fct_us=fct_summary_from(records),
        drop_breakdown=breakdown,
        per_switch_drops=per_switch,
        flow_digest=flow_digest_from(started,
                                     (r.as_tuple() for r in records)),
        # A trace is one event queue's: sharded runs carry none.
        trace_digest=(payloads[0]["trace_digest"]
                      if len(payloads) == 1 else ""),
    )
    if payloads[0]["invariants"] != "off":
        _check_fabric_sanity(result, backend.now)
    return result


def _check_fabric_sanity(result: FabricRunResult, tick: int) -> None:
    """Harness-level cross-checks on the reported numbers (the fabric's
    internal conservation laws are the invariant registry's job)."""
    fails = []
    if result.flows_completed > result.flows_started:
        fails.append(f"completed {result.flows_completed} flows but only "
                     f"{result.flows_started} started")
    if not 0 <= result.frames_delivered <= result.frames_sent:
        fails.append(f"delivered {result.frames_delivered} outside "
                     f"[0, sent {result.frames_sent}]")
    share = sum(result.drop_breakdown.values())
    if result.drop_breakdown and not 0.999 < share < 1.001:
        fails.append(f"drop-cause breakdown sums to {share:.6f}, not 1: "
                     f"{result.drop_breakdown}")
    count = result.fct_us.get("count", 0)
    if count != result.flows_completed:
        fails.append(f"FCT samples ({count:g}) != completed flows "
                     f"({result.flows_completed})")
    if fails:
        raise InvariantViolation(
            [f"harness.fabric: {msg}" for msg in fails],
            tick=tick, phase="harness")


def _fabric_rig(config: SystemConfig, preset: str, stack: str, seed: int,
                warmup_cache: Optional[WarmupCache],
                prewarm: bool = False):
    """:func:`~repro.harness.warmup_cache.warm_start` for a one-shard
    fabric run."""
    plan = FabricWarmupPlan()
    return warm_start(
        warmup_cache,
        lambda: build_fabric_rig(config, preset, stack, seed=seed),
        lambda fabric: _warm_key(config, fabric, preset, stack, plan, seed),
        lambda fabric: warm_up_fabric(_InProcessFabric(fabric), plan),
        {"phase": "warmup"}, prewarm=prewarm)


def prewarm_fabric(config: SystemConfig, preset: str, stack: str,
                   seed: int = 0,
                   warmup_cache: Optional[WarmupCache] = None) -> bool:
    """Populate the warm-up checkpoint cache for a fabric run.

    Exactly the warm-up block of :func:`run_fabric` (same key, same
    plan), stopped after the snapshot is sealed.  The persistent-worker sweep
    executor calls this in the parent before forking, so workers
    inherit the parsed snapshot through copy-on-write memory.

    Returns True when a fresh snapshot was simulated and stored, False
    on a cache hit or when no cache is configured.
    """
    return _fabric_rig(config, preset, stack, seed, warmup_cache,
                       prewarm=True)[1]


def run_fabric(config: SystemConfig, preset: str, stack: str,
               pattern: str = "uniform", load: float = 0.3,
               n_flows: int = 200, size_cdf: str = "smoke",
               seed: int = 0,
               warmup_cache: Optional[WarmupCache] = None
               ) -> FabricRunResult:
    """Run one open-loop flow phase through a fabric and measure FCTs.

    Warm-up runs a canonical uniform trickle, drains, and resets
    statistics; with ``warmup_cache`` (or ``REPRO_WARMUP_CACHE``) set,
    that state is checkpointed once and restored on every later run
    with the same key — bit-identical to warming up from scratch, and
    shared across patterns and loads.
    """
    measured = measured_config(pattern, load, n_flows, size_cdf)
    fabric, _simulated = _fabric_rig(config, preset, stack, seed,
                                     warmup_cache)
    return measure_fabric(_InProcessFabric(fabric), config, preset, stack,
                          measured)


def run_fabric_sharded(config: SystemConfig, preset: str, stack: str,
                       pattern: str = "uniform", load: float = 0.3,
                       n_flows: int = 200, size_cdf: str = "smoke",
                       seed: int = 0, shards: int = 2,
                       warmup_cache: Optional[WarmupCache] = None
                       ) -> FabricRunResult:
    """Same contract as :func:`run_fabric`, simulated across ``shards``
    processes — see :mod:`repro.dist.shard`.  The flow digest is
    bit-identical to the single-process run.  Imported lazily because
    the dist layer builds on this module.
    """
    from repro.dist.shard import run_fabric_sharded as _impl
    return _impl(config, preset, stack, pattern=pattern, load=load,
                 n_flows=n_flows, size_cdf=size_cdf, seed=seed,
                 shards=shards, warmup_cache=warmup_cache)
