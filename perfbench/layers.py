"""Instrumentation the benchmark applies to the simulator from outside.

Nothing here edits the simulator's source.  Both patch sets replace
attributes of the simulator's modules and classes while a run is being
measured and put the originals back afterwards:

- :class:`Capture` wraps a few cold entry points (the node and fabric
  builders, checkpoint restore, the shard worker) so that after a
  public run call the benchmark can read the public counters of the
  simulation that call built.  It is installed for timed and traced
  runs alike; it runs once per run call, not per event.
- :class:`LayerTracer` wraps the public entry points of every layer
  (:data:`ENTRY_POINTS`), ``EventQueue.schedule`` and the public
  ``EventQueue.on_event`` hook.  Each wrapper records calls and self
  time (its duration minus the time of nested wrapped calls).  Each
  scheduled event's callback is wrapped once to stamp when it starts;
  the hook then charges the callback's host time to the layer whose
  module defines the callback, minus what nested wrapped calls already
  claimed, and leaves the time between events (dequeue, cancelled
  entries) to ``sim``, the event engine.  The hook's own time is kept
  out of every layer.  Totals are summed in memory and read at the
  end.

Shard workers are forked, so they inherit both patch sets.  The
wrapped worker restarts the tracer in the child and, when the worker
returns, writes its counters and layer totals to a handoff file that
the parent reads after the sharded run call.
"""

from __future__ import annotations

import importlib
import json
import resource
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional

clock = time.perf_counter

#: The layers the benchmark reports, in report order.
LAYERS = ("sim", "nic", "mem", "cpu", "dpdk", "kernelstack", "apps",
          "loadgen", "net.fabric", "dist", "harness")

#: Module prefix -> layer.  First match wins; modules that match no
#: prefix (``repro.sim.*``, ``repro.system.*``, packets) belong to sim.
_MODULE_LAYERS = (
    ("repro.sim.channel", "dist"),
    ("repro.sim.checkpoint", "harness"),
    ("repro.dist", "dist"),
    ("repro.net.fabric", "net.fabric"),
    ("repro.nic", "nic"),
    ("repro.pci", "nic"),
    ("repro.mem", "mem"),
    ("repro.cpu", "cpu"),
    ("repro.dpdk", "dpdk"),
    ("repro.kernelstack", "kernelstack"),
    ("repro.apps", "apps"),
    ("repro.kvstore", "apps"),
    ("repro.loadgen", "loadgen"),
    ("repro.harness", "harness"),
)

#: The public entry points the traced run wraps, by layer, as
#: ``module:Class.method`` or ``module:function``.
ENTRY_POINTS: Dict[str, List[str]] = {
    "sim": ["repro.sim.event_queue:EventQueue.run"],
    "nic": ["repro.nic.phy:EtherLink.transmit",
            "repro.nic.dma:DmaEngine.write_packet",
            "repro.nic.dma:DmaEngine.read_packet",
            "repro.nic.dma:DmaEngine.writeback_descriptors"],
    "mem": ["repro.mem.hierarchy:MemoryHierarchy.core_access",
            "repro.mem.hierarchy:MemoryHierarchy.dma_write_line",
            "repro.mem.hierarchy:MemoryHierarchy.dma_read_line",
            "repro.mem.dram:DramModel.access"],
    "cpu": ["repro.cpu.core:CoreModel.execute"],
    "dpdk": ["repro.dpdk.pmd:E1000Pmd.rx_burst",
             "repro.dpdk.pmd:E1000Pmd.tx_burst",
             "repro.dpdk.mempool:Mempool.get",
             "repro.dpdk.mempool:Mempool.put"],
    "kernelstack": ["repro.kernelstack.stack:KernelStackModel.rx_work",
                    "repro.kernelstack.stack:KernelStackModel.tx_work",
                    "repro.kernelstack.driver:InterruptNicDriver.harvest",
                    "repro.kernelstack.driver:InterruptNicDriver.transmit"],
    "apps": ["repro.kvstore.store:KvStore.get",
             "repro.kvstore.store:KvStore.set"],
    "loadgen": ["repro.loadgen.flowgen:FlowTrafficGenerator.start",
                "repro.loadgen.ether_load_gen:EtherLoadGen.start_synthetic",
                "repro.loadgen.memcached_client:MemcachedClient.start",
                "repro.loadgen.memcached_client:MemcachedClient.preload"],
    "net.fabric": ["repro.net.fabric:OutputQueuedSwitch.route_for",
                   "repro.net.fabric:FabricHost.send_flow"],
    "dist": ["repro.sim.channel:ChannelGroup.begin_epoch",
             "repro.sim.channel:ChannelGroup.finish_epoch",
             "repro.sim.channel:ChannelGroup.advance",
             "repro.sim.channel:ChannelHalf.transmit"],
    "harness": ["repro.harness.runner:run_fixed_load",
                "repro.harness.runner:run_memcached",
                "repro.harness.runner:prewarm_fixed_load",
                "repro.harness.runner:prewarm_memcached",
                "repro.harness.runner:build_node",
                "repro.harness.fabric:run_fabric",
                "repro.harness.fabric:run_fabric_sharded",
                "repro.harness.fabric:prewarm_fabric",
                "repro.harness.fabric:build_fabric_rig",
                "repro.harness.warmup_cache:WarmupCache.get",
                "repro.harness.warmup_cache:WarmupCache.put",
                "repro.system.node:DpdkNode.checkpoint",
                "repro.system.node:DpdkNode.restore",
                "repro.net.fabric:Fabric.checkpoint",
                "repro.net.fabric:Fabric.restore"],
}

#: Entry points whose inclusive time is reported on its own.
RESTORE_POINTS = ("repro.system.node:DpdkNode.restore",
                  "repro.net.fabric:Fabric.restore")


def layer_of_module(module: str) -> str:
    for prefix, layer in _MODULE_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return "sim"


def _resolve(target: str):
    """``module:Class.method`` -> (owner class or module, attribute)."""
    module_name, _, path = target.partition(":")
    obj = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        obj = getattr(obj, part)
    if isinstance(obj, type):
        # Patch the class that defines the method, so subclasses that
        # inherit it (KernelNode, OutOfOrderCore, ...) see the wrapper.
        obj = next(c for c in obj.__mro__ if attr in c.__dict__)
    return obj, attr


class Patches:
    """Attribute replacements with LIFO undo.

    A module-level function is also rebound in every loaded ``repro``
    module that imported it by name, so callers that did
    ``from repro.harness.fabric import build_fabric_rig`` see the
    wrapper too.
    """

    def __init__(self) -> None:
        self._undo: List[tuple] = []

    def wrap(self, target: str, make: Callable[[Callable], Callable]
             ) -> None:
        owner, attr = _resolve(target)
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        if isinstance(original, (staticmethod, classmethod, property)):
            raise TypeError(f"{target}: only plain functions are wrapped")
        replacement = make(original)
        sites = [(owner, attr)]
        if not isinstance(owner, type):
            for module in list(sys.modules.values()):
                name = getattr(module, "__name__", "")
                if module is owner or not name.startswith("repro"):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        sites.append((module, key))
        for site, key in sites:
            setattr(site, key, replacement)
            self._undo.append((site, key, original))

    def undo(self) -> None:
        while self._undo:
            site, key, original = self._undo.pop()
            setattr(site, key, original)


class LayerTracer:
    """Per-layer calls and self time, summed in memory."""

    def __init__(self) -> None:
        self.patches = Patches()
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.inclusive_s: Dict[str, float] = defaultdict(float)
        # Open spans, innermost last: [layer, start, child time].  Frames
        # of EventQueue.run carry two more slots: the end of the last
        # event and the child time at that moment.
        self._stack: List[list] = []
        self._run_frames: List[list] = []
        self.restart()

    def restart(self) -> None:
        """Forget every total and open span (a forked shard calls this
        so it reports only its own work).  Containers are cleared in
        place because the installed wrappers hold them."""
        for container in (self.self_s, self.calls, self.inclusive_s,
                          self._stack, self._run_frames):
            container.clear()
        self.harvests = 0
        self.harvested = 0
        self.epochs = 0
        self.busy_epochs = 0
        self.epoch_frames = 0
        self.wait_s = 0.0
        self.hook_s = 0.0
        self._current: Optional[tuple] = None

    # -- spans -----------------------------------------------------------

    def _close(self, frame: list, end: float) -> float:
        duration = end - frame[1]
        self.self_s[frame[0]] += duration - frame[2]
        self.calls[frame[0]] += 1
        stack = self._stack
        if stack:
            stack[-1][2] += duration
        return duration

    def span(self, layer: str, target: str, fn: Callable) -> Callable:
        stack = self._stack
        inclusive = self.inclusive_s

        def traced(*args, **kwargs):
            frame = [layer, 0.0, 0.0]
            stack.append(frame)
            frame[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                inclusive[target] += self._close(frame, end)

        return traced

    def run_span(self, fn: Callable) -> Callable:
        """EventQueue.run: a sim span that also anchors the event hook."""
        stack, run_frames = self._stack, self._run_frames
        hook = self.on_event

        def traced_run(queue, *args, **kwargs):
            if queue.on_event is None:
                queue.on_event = hook
            frame = ["sim", 0.0, 0.0, 0.0, 0.0]
            stack.append(frame)
            run_frames.append(frame)
            frame[1] = frame[3] = clock()
            try:
                return fn(queue, *args, **kwargs)
            finally:
                end = clock()
                run_frames.pop()
                stack.pop()
                self._close(frame, end)

        return traced_run

    def timed_schedule(self, fn: Callable) -> Callable:
        """EventQueue.schedule: wrap the event's callback once so it
        stamps its start time and owning layer when it fires."""
        def schedule(queue, event, when):
            callback = event.callback
            if getattr(callback, "perfbench_layer", None) is None:
                event.callback = self._timed_callback(callback)
            return fn(queue, event, when)

        return schedule

    def _timed_callback(self, callback: Callable) -> Callable:
        layer = self._owner_layer(callback)

        def timed():
            self._current = (clock(), layer)
            callback()

        timed.perfbench_layer = layer
        return timed

    def on_event(self, event) -> None:
        """Split the interval since the previous event: the part before
        the callback started is the event engine's (it stays in the
        EventQueue.run frame, i.e. sim), the callback's own part goes to
        its owner layer, minus what nested wrapped calls claimed.  The
        hook's own time is excluded from every layer."""
        now = clock()
        if not self._run_frames:   # EventQueue.step, outside any run
            return
        frame = self._run_frames[-1]
        current, self._current = self._current, None
        if current is None:        # scheduled before the tracer was on
            current = (frame[3], self._owner_layer(event.callback))
        start, layer = current
        own = now - start - (frame[2] - frame[4])
        self.self_s[layer] += own
        end = clock()
        self.hook_s += end - now
        frame[2] += own + (end - now)
        frame[3] = end
        frame[4] = frame[2]

    @staticmethod
    def _owner_layer(callback) -> str:
        """The layer of the module that defines an event callback; a
        pooled event fires through EventPool's generic ``_fire``, so the
        pool's dispatch callback is the real owner."""
        pool = getattr(getattr(callback, "__self__", None), "pool", None)
        if pool is not None:
            callback = pool.dispatch
        func = getattr(callback, "__func__", callback)
        func = getattr(func, "func", func)   # functools.partial
        return layer_of_module(getattr(func, "__module__", "") or "")

    # -- counting wrappers -------------------------------------------------

    def _count_harvest(self, fn: Callable) -> Callable:
        def harvest(*args, **kwargs):
            descs = fn(*args, **kwargs)
            self.harvests += 1
            self.harvested += len(descs)
            return descs
        return harvest

    def _count_epoch(self, fn: Callable) -> Callable:
        def finish_epoch(*args, **kwargs):
            injected = fn(*args, **kwargs)
            self.epochs += 1
            self.busy_epochs += injected > 0
            self.epoch_frames += injected
            return injected
        return finish_epoch

    def _time_exchange(self, fn: Callable) -> Callable:
        def advance(group, target, exchange):
            def timed_exchange(*args):
                start = clock()
                try:
                    return exchange(*args)
                finally:
                    self.wait_s += clock() - start
            return fn(group, target, timed_exchange)
        return advance

    # -- install -----------------------------------------------------------

    def install(self) -> None:
        patches = self.patches
        counting = {
            "repro.kernelstack.driver:InterruptNicDriver.harvest":
                self._count_harvest,
            "repro.sim.channel:ChannelGroup.finish_epoch": self._count_epoch,
            "repro.sim.channel:ChannelGroup.advance": self._time_exchange,
        }
        patches.wrap("repro.sim.event_queue:EventQueue.schedule",
                     self.timed_schedule)
        for layer, targets in ENTRY_POINTS.items():
            for target in targets:
                if layer == "sim":
                    patches.wrap(target, self.run_span)
                    continue
                extra = counting.get(target)
                if extra is not None:
                    patches.wrap(target, extra)
                patches.wrap(target, lambda fn, layer=layer, target=target:
                             self.span(layer, target, fn))

    def uninstall(self) -> None:
        self.patches.undo()

    # -- results -----------------------------------------------------------

    def totals(self) -> dict:
        """Plain-JSON totals; :func:`merge_totals` adds several up."""
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "restore_s": sum(self.inclusive_s.get(t, 0.0)
                             for t in RESTORE_POINTS),
            "harvests": self.harvests,
            "harvested": self.harvested,
            "epochs": self.epochs,
            "busy_epochs": self.busy_epochs,
            "epoch_frames": self.epoch_frames,
            "wait_s": self.wait_s,
            "hook_s": self.hook_s,
        }


def merge_totals(parts: List[dict]) -> dict:
    merged: dict = {"self_s": defaultdict(float), "calls": defaultdict(int)}
    for part in parts:
        for key, value in part.items():
            if isinstance(value, dict):
                for layer, amount in value.items():
                    merged[key][layer] += amount
            else:
                merged[key] = merged.get(key, 0) + value
    merged["self_s"] = dict(merged["self_s"])
    merged["calls"] = dict(merged["calls"])
    return merged


class Capture:
    """Remember what each public run call built, for counter reads.

    ``count`` maps a built object and the events it had fired right
    after any restore to a dict of integer counters.
    """

    def __init__(self, count: Callable[[object, int], Dict[str, int]],
                 handoff_dir: Path) -> None:
        self.count = count
        self.handoff_dir = Path(handoff_dir)
        self.tracer: Optional[LayerTracer] = None
        self.patches = Patches()
        self._built: List[list] = []   # [object, events fired at start]

    def install(self) -> None:
        self.patches.wrap("repro.harness.runner:build_node", self._builder)
        self.patches.wrap("repro.harness.fabric:build_fabric_rig",
                          self._builder)
        for target in RESTORE_POINTS:
            self.patches.wrap(target, self._restorer)
        self.patches.wrap("repro.dist.shard:_shard_worker", self._worker)

    def uninstall(self) -> None:
        self.patches.undo()

    def _builder(self, fn: Callable) -> Callable:
        def build(*args, **kwargs):
            built = fn(*args, **kwargs)
            self._built.append([built, 0])
            return built
        return build

    def _restorer(self, fn: Callable) -> Callable:
        def restore(obj, *args, **kwargs):
            fn(obj, *args, **kwargs)
            for entry in self._built:
                if entry[0] is obj:
                    entry[1] = obj.sim.events.fired
        return restore

    def _worker(self, fn: Callable) -> Callable:
        def shard_worker(shard_id, *args, **kwargs):
            self._built = []
            tracer = self.tracer
            worker = fn
            start = clock()
            if tracer is not None:
                tracer.restart()
                worker = tracer.span("dist", "shard_worker", fn)
            try:
                worker(shard_id, *args, **kwargs)
            finally:
                payload = {"counts": self.counts(),
                           "process_s": clock() - start,
                           "peak_rss_mb": peak_rss_mb(),
                           "trace": (tracer.totals()
                                     if tracer is not None else None)}
                path = self.handoff_dir / f"shard-{shard_id}.json"
                path.write_text(json.dumps(payload))
        return shard_worker

    # -- per run call --------------------------------------------------------

    def begin(self) -> None:
        self._built = []
        for path in self.handoff_dir.glob("shard-*.json"):
            path.unlink()

    def counts(self) -> Dict[str, int]:
        """Counters of the last object built since :meth:`begin`."""
        if not self._built:
            return {}
        built, fired_base = self._built[-1]
        return self.count(built, fired_base)

    def shard_payloads(self) -> List[dict]:
        return [json.loads(path.read_text())
                for path in sorted(self.handoff_dir.glob("shard-*.json"))]


def peak_rss_mb() -> float:
    """Peak resident set of this process in MiB (``ru_maxrss`` is KiB on
    Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
