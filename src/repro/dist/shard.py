"""Shard one fabric simulation across OS processes.

SimBricks (PAPERS.md) couples independent component simulators through
latency-tolerant message channels with synchronized virtual time.  This
module is that composition for the reproduction's switch fabrics:

- :func:`plan_fabric_shards` partitions a :class:`FabricConfig`'s
  topology into ``n`` shards (pods or leaves stay whole; cores and
  spines stripe round-robin);
- each shard process builds only its slice of the fabric (remote
  components become stubs, boundary links become
  :class:`~repro.sim.channel.ChannelHalf` ends — see
  :meth:`repro.net.fabric.Fabric._link`) and runs its own
  :class:`~repro.sim.event_queue.EventQueue`;
- a coordinator in the parent is the multiprocess backend of the
  phase driver in :mod:`repro.harness.fabric` — the same warm-up /
  measure / drain loop, merge and sanity check that run a single-process
  fabric — while the shards exchange per-epoch frame batches over
  multiprocessing queues under the conservative quantum bound
  (quantum <= min link latency);
- the merged :class:`FabricRunResult` has a flow digest **bit-identical**
  to the single-process run — the equivalence the cross-process suite
  pins for the 12-case scenario matrix at seed 0.

Determinism argument (docs/sharding.md has the long form): every shard
runs a full replica of the flow generator — same seed, same fork
labels, same RNG draws — and injects only the flows whose source host
it owns.  One driver advances every shard to the same absolute targets
as the single-process run, channel delivery ticks reproduce
:class:`~repro.nic.phy.EtherLink` arithmetic exactly, and epoch
injection is sorted ``(deliver_at, channel, seq)``, so each shard's
event sequence is the projection of the single-process one — except
for the order of same-tick arrivals over a cut link (docs/sharding.md,
"Known defect").

Failure semantics: a shard that dies mid-epoch is detected by the
coordinator's liveness poll (and, as a backstop, by its peers' bounded
channel-receive timeout); everything is torn down — terminate, join
with timeout, kill stragglers — and a :class:`ShardCrashError` naming
the shard is raised.  No deadlocked peers, no orphan processes.
"""

from __future__ import annotations

import queue as queue_lib
import time
from dataclasses import asdict, dataclass
from typing import Dict, List, Tuple

from repro.harness import fabric as harness_fabric
from repro.harness.fabric import (
    FabricRunResult,
    FabricWarmupPlan,
    _InProcessFabric,
    fabric_config_for,
    measure_fabric,
    measured_config,
    warm_up_fabric,
)
from repro.harness.parallel import default_mp_context
from repro.loadgen.flowgen import FlowGenConfig
from repro.net.fabric import FabricConfig
from repro.sim.channel import ChannelError, ChannelGroup
from repro.system.config import SystemConfig

#: How long a shard waits for a peer's epoch batch before declaring the
#: peer dead (backstop — the coordinator's liveness poll usually fires
#: first).
_PEER_TIMEOUT_S = 60.0
#: How long the coordinator waits for one command response from a live
#: shard before giving up on it.
_CMD_TIMEOUT_S = 300.0


class ShardCrashError(RuntimeError):
    """A shard process died (or stopped responding) mid-run."""

    def __init__(self, shard_id: int, message: str) -> None:
        super().__init__(message)
        self.shard_id = shard_id


@dataclass(frozen=True)
class ShardPlan:
    """Who owns what: host index -> shard, logical switch name -> shard.

    Logical switch names are the builder names with the fabric label
    stripped (``pod0.edge1``, ``core3``, ``leaf2``, ``spine0``), so one
    plan applies to any fabric label.
    """

    n_shards: int
    hosts: Tuple[int, ...]
    switches: Dict[str, int]

    def host_shard(self, host_id: int) -> int:
        return self.hosts[host_id]

    def switch_shard(self, logical_name: str) -> int:
        try:
            return self.switches[logical_name]
        except KeyError:
            raise ChannelError(
                f"shard plan has no owner for switch {logical_name!r}; "
                f"plan and builder are out of sync") from None


def plan_fabric_shards(config: FabricConfig, n_shards: int) -> ShardPlan:
    """Partition a fabric topology into ``n_shards`` shards.

    Heuristics (see docs/sharding.md): keep the densest connectivity
    inside a shard and cut only the long links.  Fat-trees keep each pod
    whole (host <-> edge <-> agg traffic never crosses a boundary) and
    stripe core switches round-robin; leaf-spines keep each leaf with
    its hosts and stripe the spines.  Requires the pod/leaf count to
    divide evenly so shards are balanced.
    """
    if n_shards < 1:
        raise ValueError("shard count must be at least 1")
    switches: Dict[str, int] = {}
    if config.topology == "fat_tree":
        k = config.k
        if n_shards > k or k % n_shards:
            raise ValueError(
                f"cannot shard a k={k} fat-tree into {n_shards} shards: "
                f"the shard count must divide the pod count {k}")
        half = k // 2
        pod_owner = [p * n_shards // k for p in range(k)]
        for p in range(k):
            for i in range(half):
                switches[f"pod{p}.edge{i}"] = pod_owner[p]
            for j in range(half):
                switches[f"pod{p}.agg{j}"] = pod_owner[p]
        for c in range(half * half):
            switches[f"core{c}"] = c % n_shards
        hosts_per_pod = half * half
        hosts = tuple(pod_owner[h // hosts_per_pod]
                      for h in range(config.n_hosts))
    else:
        leaves, spines, per_leaf = (config.leaves, config.spines,
                                    config.hosts_per_leaf)
        if n_shards > leaves or leaves % n_shards:
            raise ValueError(
                f"cannot shard a {leaves}-leaf fabric into {n_shards} "
                f"shards: the shard count must divide the leaf count")
        leaf_owner = [li * n_shards // leaves for li in range(leaves)]
        for li in range(leaves):
            switches[f"leaf{li}"] = leaf_owner[li]
        for s in range(spines):
            switches[f"spine{s}"] = s % n_shards
        hosts = tuple(leaf_owner[h // per_leaf]
                      for h in range(leaves * per_leaf))
    return ShardPlan(n_shards=n_shards, hosts=hosts, switches=switches)


def _shard_worker(shard_id: int, plan: ShardPlan, config: SystemConfig,
                  preset: str, stack: str, seed: int,
                  cmd_q, resp_q, send_qs: Dict[int, object],
                  recv_qs: Dict[int, object]) -> None:
    """One shard process: build the slice, serve coordinator commands,
    exchange epoch batches with peer shards."""
    try:
        fabric = harness_fabric.build_fabric_rig(
            config, preset, stack, seed=seed, shard_plan=plan,
            shard_id=shard_id)
        local = _InProcessFabric(fabric)
        group = ChannelGroup(fabric.sim, fabric.channels)
        neighbors = group.neighbors()

        def exchange(epoch: int, horizon: int, outgoing):
            for peer in neighbors:
                send_qs[peer].put((epoch, shard_id, outgoing.get(peer, [])))
            incoming = []
            for peer in neighbors:
                deadline = time.monotonic() + _PEER_TIMEOUT_S
                while True:
                    try:
                        msg = recv_qs[peer].get(timeout=0.2)
                        break
                    except queue_lib.Empty:
                        if time.monotonic() > deadline:
                            raise ShardCrashError(
                                peer,
                                f"shard {shard_id}: no epoch-{epoch} "
                                f"batch from peer shard {peer} within "
                                f"{_PEER_TIMEOUT_S:.0f}s") from None
                got_epoch, src, batches = msg
                if got_epoch != epoch:
                    raise ChannelError(
                        f"shard {shard_id}: expected epoch {epoch} from "
                        f"shard {src}, got {got_epoch} (sync skew)")
                incoming.extend(batches)
            return incoming

        while True:
            op, *args = cmd_q.get()
            if op == "advance":
                group.advance(args[0], exchange)
            elif op == "start":
                local.start(FlowGenConfig(**args[0]))
            elif op == "reset":
                local.reset()
            elif op == "finalize":
                resp_q.put(("ok", shard_id, local.finalize()[0]))
                continue
            elif op == "stop":
                return
            else:
                raise RuntimeError(f"unknown shard command {op!r}")
            resp_q.put(("ok", shard_id,
                        {"busy": local.busy(), "ready": local.ready()}))
    except BaseException as exc:  # report, then die quietly
        try:
            resp_q.put(("error", shard_id,
                        f"{type(exc).__name__}: {exc}"))
        except Exception:
            pass


class _ShardCoordinator:
    """Parent-side multiprocess backend of the fabric phase driver
    (:mod:`repro.harness.fabric`): owns the worker processes and the
    queues, and broadcasts each driver step to every shard."""

    def __init__(self, plan: ShardPlan, config: SystemConfig, preset: str,
                 stack: str, seed: int) -> None:
        self.plan = plan
        self.now = 0
        self._statuses: List[dict] = []
        ctx = default_mp_context()
        n = plan.n_shards
        self.cmd_qs = [ctx.Queue() for _ in range(n)]
        self.resp_qs = [ctx.Queue() for _ in range(n)]
        self.data_qs = {(i, j): ctx.Queue()
                        for i in range(n) for j in range(n) if i != j}
        self.procs = []
        for i in range(n):
            send_qs = {j: self.data_qs[(i, j)] for j in range(n) if j != i}
            recv_qs = {j: self.data_qs[(j, i)] for j in range(n) if j != i}
            proc = ctx.Process(
                target=_shard_worker, name=f"repro-shard-{i}", daemon=True,
                args=(i, plan, config, preset, stack, seed,
                      self.cmd_qs[i], self.resp_qs[i], send_qs, recv_qs))
            proc.start()
            self.procs.append(proc)

    # -- plumbing ------------------------------------------------------------

    def _collect(self, shard_id: int) -> dict:
        deadline = time.monotonic() + _CMD_TIMEOUT_S
        while True:
            try:
                kind, sid, payload = self.resp_qs[shard_id].get(timeout=0.05)
            except queue_lib.Empty:
                for j, proc in enumerate(self.procs):
                    if not proc.is_alive():
                        raise ShardCrashError(
                            j, f"shard {j} (pid {proc.pid}) died mid-run "
                               f"with exit code {proc.exitcode}") from None
                if time.monotonic() > deadline:
                    raise ShardCrashError(
                        shard_id,
                        f"shard {shard_id} sent no response within "
                        f"{_CMD_TIMEOUT_S:.0f}s") from None
                continue
            if kind == "error":
                raise ShardCrashError(sid, f"shard {sid} failed: {payload}")
            return payload

    def broadcast(self, cmd: tuple) -> List[dict]:
        for q in self.cmd_qs:
            q.put(cmd)
        return [self._collect(i) for i in range(self.plan.n_shards)]

    # -- the phase-driver backend --------------------------------------------

    def start(self, gen_config: FlowGenConfig) -> None:
        self._statuses = self.broadcast(("start", asdict(gen_config)))

    def advance(self, target: int) -> None:
        self._statuses = self.broadcast(("advance", target))
        self.now = target

    def busy(self) -> bool:
        return any(s["busy"] for s in self._statuses)

    def ready(self) -> bool:
        return all(s["ready"] for s in self._statuses)

    def reset(self) -> None:
        self.broadcast(("reset",))

    def finalize(self) -> List[dict]:
        return self.broadcast(("finalize",))

    def shutdown(self) -> None:
        """Best-effort orderly stop, then guaranteed teardown."""
        for i, proc in enumerate(self.procs):
            if proc.is_alive():
                try:
                    self.cmd_qs[i].put(("stop",))
                except Exception:
                    pass
        for q in self.cmd_qs:
            q.cancel_join_thread()
        for proc in self.procs:
            # Short first join: a shard blocked waiting on a dead peer's
            # epoch batch never sees the stop command; terminate it.
            proc.join(timeout=1.0)
        for proc in self.procs:
            if proc.is_alive():
                proc.terminate()
        for proc in self.procs:
            proc.join(timeout=5.0)
        for proc in self.procs:
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=5.0)
        all_queues = (list(self.cmd_qs) + list(self.resp_qs)
                      + list(self.data_qs.values()))
        for q in all_queues:
            try:
                q.close()
            except Exception:
                pass


def run_fabric_sharded(config: SystemConfig, preset: str, stack: str,
                       pattern: str = "uniform", load: float = 0.3,
                       n_flows: int = 200, size_cdf: str = "smoke",
                       seed: int = 0, shards: int = 2,
                       warmup_cache=None) -> FabricRunResult:
    """Run one fabric flow phase split over ``shards`` processes.

    Same contract as :func:`repro.harness.fabric.run_fabric` — the same
    phase driver, merge and sanity check, with the simulation
    partitioned per :func:`plan_fabric_shards`.  The warm-up checkpoint
    cache is not used in sharded mode (warm-up is simulated in the
    shards every run); ``warmup_cache`` only applies to the
    ``shards <= 1`` fallback, which delegates to :func:`run_fabric`.
    """
    if shards <= 1:
        return harness_fabric.run_fabric(
            config, preset, stack, pattern=pattern, load=load,
            n_flows=n_flows, size_cdf=size_cdf, seed=seed,
            warmup_cache=warmup_cache)
    plan = plan_fabric_shards(fabric_config_for(config, preset, stack),
                              shards)
    measured = measured_config(pattern, load, n_flows, size_cdf)
    coordinator = _ShardCoordinator(plan, config, preset, stack, seed)
    try:
        warm_up_fabric(coordinator, FabricWarmupPlan())
        return measure_fabric(coordinator, config, preset, stack, measured)
    finally:
        coordinator.shutdown()
