"""Parallel sweep execution with deterministic replay.

Every figure in the paper is a sweep of *independent* fixed-rate
simulations (app x packet size x offered load x configuration), yet the
harness historically ran each point serially in one process.  This module
fans sweep points out across worker processes — the dist-gem5 observation
(paper §II.B) that independent simulation instances parallelise trivially
— while keeping the property the harness is built on: bit-identical
results for identical inputs.

Three pieces:

:class:`SweepPoint`
    One simulation invocation, described by plain data: a kind
    (``fixed_load`` / ``memcached`` / ``msb``), a :class:`SystemConfig`,
    the application, the load, and a base seed.  The point's *effective*
    seed is derived from the base seed and a canonical label through
    :meth:`repro.sim.rng.DeterministicRng.fork`, so every point owns an
    independent random stream and adding/removing points never perturbs
    the streams of the others (positional ``seed + i`` schemes do).

:class:`ResultCache`
    An on-disk result store keyed by a stable SHA-256 digest of
    ``(schema version, kind, SystemConfig, app, load, n_packets,
    app_options, seed)``.  Re-running an unchanged point is free;
    corrupted entries are detected, discarded, and recomputed.

:class:`SweepExecutor`
    The scheduler.  ``jobs=1`` executes in-process (the reference serial
    path); ``jobs>1`` runs up to ``jobs`` *persistent* worker processes.
    Workers fork once — after the parent has prewarmed any shared
    warm-up checkpoints, so every worker inherits the parsed snapshots
    through copy-on-write memory — and then loop over batches of points
    dispatched through per-worker task queues.  Each point is announced
    with a tiny start marker (the parent's per-point timeout clock);
    outcomes are reported once per batch, amortising result
    serialisation.  A worker that dies without reporting (crash,
    OOM-kill) may take the shared result queue's write lock with it, so
    the executor charges the in-flight point with the crash and rebuilds
    the pool around a fresh queue: the victim is retried on a fresh
    worker, every other unreported point is requeued at its current
    attempt, uncharged.  Once retries are exhausted a crashed point falls back to
    in-process serial execution; exhausted timeouts raise
    :class:`SweepTimeoutError` — a hanging simulation would hang the
    serial fallback too.

Determinism guarantee: for the same list of points, the executor returns
the same results whether ``jobs`` is 1 or N, whether results came from
workers or the cache, and across runs — each simulation is hermetic in
``(config, effective seed)``.

The test suite injects worker failures (crash, hang, exception) by
registering extra point kinds in ``_KIND_HANDLERS``; forked workers
inherit them.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import queue as queue_lib
import shutil
import tempfile
import time
import traceback
from collections import deque
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.harness.fabric import (
    FabricRunResult,
    prewarm_fabric,
    run_fabric,
)
from repro.harness.msb import MsbResult, _saturation_warmup_us, find_msb
from repro.harness.runner import (
    FixedLoadResult,
    MemcachedRunResult,
    prewarm_fixed_load,
    prewarm_memcached,
    run_fixed_load,
    run_memcached,
)
from repro.harness.warmup_cache import WarmupCache
from repro.sim.invariants import InvariantViolation
from repro.sim.rng import DeterministicRng
from repro.system.config import SystemConfig

# Bump when the cached payload's semantics change (new result fields with
# different meaning, changed seeding scheme, ...): old entries then miss
# instead of silently replaying stale results.
# 2: results gained ``trace_digest`` and runs assert invariants at
#    completion — a pre-checker cached result is no longer equivalent.
# 3: warm-up methodology changed — runs now warm at a canonical
#    load-independent rate and drain to full quiescence before the
#    measurement reset (checkpointable warm-up), and points differing
#    only in offered load share one RNG stream; all measured results
#    moved.
CACHE_VERSION = 3

KIND_FIXED_LOAD = "fixed_load"
KIND_MEMCACHED = "memcached"
KIND_MSB = "msb"
KIND_FABRIC = "fabric"


# ----------------------------------------------------------------------
# Sweep points
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SweepPoint:
    """One independent simulation invocation.

    ``load`` is the offered rate: Gbps for ``fixed_load``, requests/s for
    ``memcached``, and the search ceiling (max Gbps) for ``msb``.
    ``n_packets`` doubles as ``n_requests`` for memcached points.
    """

    kind: str
    config: Optional[SystemConfig] = None
    app: str = ""
    packet_size: int = 0
    load: float = 0.0
    n_packets: int = 0
    app_options: Optional[Dict[str, Any]] = None
    seed: int = 0

    @property
    def rng_label(self) -> str:
        """The canonical per-point RNG label (stable across grid edits).

        The offered ``load`` is deliberately excluded: points that differ
        only in load share one RNG stream, so a load sweep over one
        configuration passes through identical warm-up state and can
        share a single warm-up checkpoint (see
        :mod:`repro.harness.warmup_cache`).
        """
        opts = json.dumps(self.app_options or {}, sort_keys=True)
        return (f"{self.kind}:{self.app}:{self.packet_size}:"
                f"{self.n_packets}:{opts}")

    @property
    def effective_seed(self) -> int:
        """The seed the simulation actually runs with: an independent
        stream forked from the base seed by the point's label."""
        return DeterministicRng(self.seed).fork(self.rng_label).seed

    def describe(self) -> str:
        """Short human-readable label for logs and cache metadata."""
        cfg = self.config.label if self.config is not None else "-"
        return (f"{self.kind} {self.app or '-'} {self.packet_size}B "
                f"@ {self.load:g} on {cfg} (seed {self.seed})")


def fixed_load_point(config: SystemConfig, app: str, packet_size: int,
                     gbps: float, n_packets: int = 2000,
                     app_options: Optional[dict] = None,
                     seed: int = 0) -> SweepPoint:
    """A :func:`repro.harness.runner.run_fixed_load` invocation."""
    return SweepPoint(kind=KIND_FIXED_LOAD, config=config, app=app,
                      packet_size=packet_size, load=float(gbps),
                      n_packets=n_packets, app_options=app_options,
                      seed=seed)


def memcached_point(config: SystemConfig, kernel: bool, rate_rps: float,
                    n_requests: int = 2500, seed: int = 0) -> SweepPoint:
    """A :func:`repro.harness.runner.run_memcached` invocation."""
    app = "memcached_kernel" if kernel else "memcached_dpdk"
    return SweepPoint(kind=KIND_MEMCACHED, config=config, app=app,
                      load=float(rate_rps), n_packets=n_requests, seed=seed)


def msb_point(config: SystemConfig, app: str, packet_size: int,
              max_gbps: float = 70.0, n_packets: int = 2500,
              app_options: Optional[dict] = None,
              seed: int = 0) -> SweepPoint:
    """A whole :func:`repro.harness.msb.find_msb` search as one point."""
    return SweepPoint(kind=KIND_MSB, config=config, app=app,
                      packet_size=packet_size, load=float(max_gbps),
                      n_packets=n_packets, app_options=app_options,
                      seed=seed)


def fabric_point(config: SystemConfig, preset: str, stack: str,
                 pattern: str = "uniform", load: float = 0.3,
                 n_flows: int = 200, size_cdf: str = "smoke",
                 seed: int = 0) -> SweepPoint:
    """A :func:`repro.harness.fabric.run_fabric` invocation.

    ``app`` carries ``preset:stack``; the measured traffic pattern and
    flow-size CDF travel in ``app_options``.  ``load`` is the offered
    load fraction of host link bandwidth, ``n_packets`` the flow count.
    Points differing only in ``load`` share one RNG stream (and hence
    one warm-up checkpoint) exactly like fixed-load points.
    """
    return SweepPoint(kind=KIND_FABRIC, config=config,
                      app=f"{preset}:{stack}", load=float(load),
                      n_packets=n_flows,
                      app_options={"pattern": pattern,
                                   "size_cdf": size_cdf},
                      seed=seed)


# ----------------------------------------------------------------------
# Point execution and result (de)serialisation
# ----------------------------------------------------------------------

def _run_fixed(point: SweepPoint, cache: Optional[WarmupCache]):
    return run_fixed_load(point.config, point.app, point.packet_size,
                          point.load, n_packets=point.n_packets,
                          app_options=point.app_options,
                          seed=point.effective_seed, warmup_cache=cache)


def _run_memcached(point: SweepPoint, cache: Optional[WarmupCache]):
    kernel = point.app == "memcached_kernel"
    return run_memcached(point.config, kernel, point.load,
                         n_requests=point.n_packets,
                         seed=point.effective_seed, warmup_cache=cache)


def _run_msb(point: SweepPoint, cache: Optional[WarmupCache]):
    return find_msb(point.config, point.app, point.packet_size,
                    max_gbps=point.load, n_packets=point.n_packets,
                    app_options=point.app_options,
                    seed=point.effective_seed, warmup_cache=cache)


def _run_fabric(point: SweepPoint, cache: Optional[WarmupCache]):
    preset, stack = point.app.rsplit(":", 1)
    opts = point.app_options or {}
    return run_fabric(point.config, preset, stack,
                      pattern=opts.get("pattern", "uniform"),
                      load=point.load, n_flows=point.n_packets,
                      size_cdf=opts.get("size_cdf", "smoke"),
                      seed=point.effective_seed, warmup_cache=cache)


#: Each handler runs one point with the sweep's warm-up cache (or None).
_KIND_HANDLERS: Dict[str, Callable[[SweepPoint, Optional[WarmupCache]],
                                   Any]] = {
    KIND_FIXED_LOAD: _run_fixed,
    KIND_MEMCACHED: _run_memcached,
    KIND_MSB: _run_msb,
    KIND_FABRIC: _run_fabric,
}


def execute_point(point: SweepPoint,
                  warmup_cache: Optional[WarmupCache] = None):
    """Run one sweep point in the current process, returning the result
    object (:class:`FixedLoadResult` / :class:`MemcachedRunResult` /
    :class:`MsbResult` / :class:`FabricRunResult`).  ``warmup_cache``
    shares warm-up snapshots across points."""
    handler = _KIND_HANDLERS.get(point.kind)
    if handler is None:
        raise ValueError(f"unknown sweep point kind {point.kind!r}; "
                         f"expected one of {sorted(_KIND_HANDLERS)}")
    return handler(point, warmup_cache)


_RESULT_TYPES = {
    "FixedLoadResult": FixedLoadResult,
    "MemcachedRunResult": MemcachedRunResult,
    "MsbResult": MsbResult,
    "FabricRunResult": FabricRunResult,
}


def encode_result(result: Any) -> dict:
    """A JSON/pickle-safe payload for a point's result."""
    if isinstance(result, dict):
        return {"result_type": "dict", "data": result}
    name = type(result).__name__
    if name not in _RESULT_TYPES:
        raise TypeError(f"cannot encode result of type {name}")
    return {"result_type": name, "data": asdict(result)}


def decode_result(payload: dict) -> Any:
    """Reconstruct the result object from :func:`encode_result` output.

    Normalises JSON round-trip artefacts (tuples decoded as lists) so a
    cached result compares equal to a freshly computed one.
    """
    name = payload["result_type"]
    data = payload["data"]
    if name == "dict":
        return data
    cls = _RESULT_TYPES.get(name)
    if cls is None:
        raise ValueError(f"unknown result type {name!r}")
    return cls.from_dict(data)


# ----------------------------------------------------------------------
# On-disk result cache
# ----------------------------------------------------------------------

def cache_key(point: SweepPoint) -> str:
    """Stable digest of everything the simulation's outcome depends on."""
    payload = {
        "version": CACHE_VERSION,
        "kind": point.kind,
        "config": (point.config.canonical_dict()
                   if point.config is not None else None),
        "app": point.app,
        "packet_size": point.packet_size,
        "load": point.load,
        "n_packets": point.n_packets,
        "app_options": point.app_options or {},
        "seed": point.seed,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


class ResultCache:
    """One JSON file per completed sweep point, named by its cache key.

    Any unreadable, mismatched, or undecodable entry counts as corrupt:
    it is deleted and the point recomputed — a damaged cache can slow a
    sweep down but never change its results.
    """

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.corrupt_entries = 0

    def path_for(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def get(self, key: str) -> Optional[dict]:
        """The stored result payload, or None on miss/corruption."""
        path = self.path_for(key)
        if not path.exists():
            return None
        try:
            blob = json.loads(path.read_text())
            if blob.get("version") != CACHE_VERSION or blob.get("key") != key:
                raise ValueError("cache entry metadata mismatch")
            payload = blob["result"]
            decode_result(payload)    # validate before trusting
            return payload
        except Exception:
            self.corrupt_entries += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None

    def put(self, key: str, payload: dict, point: SweepPoint) -> None:
        """Atomically store one result (write-to-temp then rename)."""
        blob = {"version": CACHE_VERSION, "key": key,
                "point": point.describe(), "result": payload}
        tmp = self.path_for(key).with_suffix(".tmp")
        tmp.write_text(json.dumps(blob, sort_keys=True))
        os.replace(tmp, self.path_for(key))


# ----------------------------------------------------------------------
# Executor
# ----------------------------------------------------------------------

class SweepPointError(RuntimeError):
    """A sweep point failed permanently (worker error and the serial
    fallback failed too, or the worker raised)."""

    def __init__(self, point: SweepPoint, detail: str) -> None:
        super().__init__(f"sweep point failed: {point.describe()}\n{detail}")
        self.point = point
        self.detail = detail


class SweepTimeoutError(SweepPointError):
    """A sweep point exceeded its per-attempt timeout on every attempt."""


class SweepInvariantError(SweepPointError):
    """A point's simulation violated a registered invariant.

    Distinct from :class:`SweepPointError` so sweep drivers can tell "the
    simulation produced inconsistent state" (a model bug at exactly this
    configuration/load) apart from infrastructure failures — and so the
    offending point's label travels with the verdict instead of a generic
    worker traceback."""


@dataclass
class ExecutorStats:
    """Counters for one executor's lifetime, exposed for tests/reports."""

    cache_hits: int = 0
    cache_misses: int = 0
    cache_corrupt: int = 0
    executed: int = 0          # simulations that actually ran to completion
    deduped: int = 0           # points satisfied by an identical twin
    retries: int = 0
    crashes: int = 0
    timeouts: int = 0
    serial_fallbacks: int = 0
    wall_s: float = 0.0

    def as_dict(self) -> Dict[str, float]:
        return dict(asdict(self))


def _persistent_worker_main(task_queue, result_queue, worker_id: int,
                            warmup_cache: Optional[WarmupCache]) -> None:
    """Persistent worker: loop over dispatched batches until poisoned.

    Each batch is a list of ``(index, point)`` tasks; ``None`` is the
    shutdown sentinel.  The worker announces every point with a tiny
    ``("start", worker_id, index)`` marker — the parent's per-point
    timeout clock — accumulates outcomes, and reports the whole batch as
    one ``("batch", worker_id, outcomes)`` message, so the (potentially
    large) result payloads cross the queue once per batch rather than
    once per point.  A failing point flushes the outcomes gathered so
    far immediately and abandons the rest of the batch: the parent
    aborts the sweep on any error/invariant verdict, so finishing the
    batch first would only delay it.  ``warmup_cache`` is the
    executor's: a forked worker inherits its in-memory memo.
    """
    while True:
        batch = task_queue.get()
        if batch is None:
            return
        outcomes = []
        failed = False
        for index, point in batch:
            result_queue.put(("start", worker_id, index))
            try:
                payload = encode_result(execute_point(point, warmup_cache))
            except InvariantViolation as exc:
                # The simulation itself is inconsistent: carry the
                # verdict (not a bare traceback) so the driver can name
                # the offending point.
                outcomes.append((index, "invariant", str(exc)))
                failed = True
            except BaseException as exc:   # report, don't kill the sweep
                detail = (f"{type(exc).__name__}: {exc}\n"
                          f"{traceback.format_exc()}")
                outcomes.append((index, "error", detail))
                failed = True
            else:
                outcomes.append((index, "ok", payload))
            if failed:
                break
        result_queue.put(("batch", worker_id, outcomes))


def prewarm_point(point: SweepPoint, warmup_cache: WarmupCache) -> bool:
    """Populate ``warmup_cache`` for one sweep point without running its
    measured phase.  Returns True when a warm-up was simulated and
    stored; False on a cache hit or a kind with no warm-up."""
    if point.kind == KIND_FIXED_LOAD:
        return prewarm_fixed_load(
            point.config, point.app, point.packet_size,
            app_options=point.app_options, seed=point.effective_seed,
            warmup_cache=warmup_cache)
    if point.kind == KIND_MSB:
        # find_msb's first probe runs with the saturation warm-up window
        # and the point's effective seed; prewarm exactly that key.
        return prewarm_fixed_load(
            point.config, point.app, point.packet_size,
            app_options=point.app_options,
            warmup_us=_saturation_warmup_us(point.config),
            seed=point.effective_seed, warmup_cache=warmup_cache)
    if point.kind == KIND_MEMCACHED:
        return prewarm_memcached(
            point.config, point.app == "memcached_kernel",
            seed=point.effective_seed, warmup_cache=warmup_cache)
    if point.kind == KIND_FABRIC:
        preset, stack = point.app.rsplit(":", 1)
        return prewarm_fabric(point.config, preset, stack,
                              seed=point.effective_seed,
                              warmup_cache=warmup_cache)
    return False


def default_mp_context():
    """The multiprocessing context for sweep workers and fabric shards:
    fork, which is cheap and lets children inherit the parent's imports,
    test-registered state and warm-up memo; the platform default
    (spawn on macOS/Windows) where fork is unavailable."""
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


class SweepExecutor:
    """Runs batches of :class:`SweepPoint` with caching and fan-out.

    Parameters
    ----------
    jobs:
        Worker process count.  ``1`` (default) executes in-process —
        the reference serial path the parallel results must match.
    cache_dir:
        Directory for the on-disk result cache; ``None`` disables it.
    timeout_s:
        Per-attempt wall-clock budget for one point in a worker.
    max_retries:
        Extra attempts after the first for crashed or timed-out workers.
    warmup_cache_dir:
        Directory for the shared warm-up checkpoint cache (see
        :mod:`repro.harness.warmup_cache`).  The executor owns one
        :class:`WarmupCache` on it and hands that object to every point
        it runs, in process or in a worker.  With ``None`` and
        ``jobs > 1`` the executor provisions an *ephemeral* warm-up
        cache for each :meth:`run`: warm-up sharing is what lets
        persistent workers fork after one prewarmed checkpoint instead
        of each re-simulating it, so the parallel mode carries its own.
        The ephemeral directory is deleted when :meth:`run` returns;
        restored warm-ups are bit-identical to simulated ones, so
        results are unaffected.
    """

    def __init__(self, jobs: int = 1, cache_dir=None,
                 timeout_s: float = 600.0, max_retries: int = 1,
                 mp_context=None, warmup_cache_dir=None) -> None:
        if jobs < 1:
            raise ValueError("jobs must be at least 1")
        self.jobs = int(jobs)
        self.cache = ResultCache(cache_dir) if cache_dir else None
        self.timeout_s = float(timeout_s)
        self.max_retries = int(max_retries)
        self.warmup_cache = (WarmupCache(warmup_cache_dir)
                             if warmup_cache_dir else None)
        self._ctx = mp_context or default_mp_context()
        self.stats = ExecutorStats()

    # -- public API ----------------------------------------------------

    def run(self, points: Sequence[SweepPoint]) -> List[Any]:
        """Execute all points, in order, returning one result each.

        Identical points (same cache key, hence provably the same
        deterministic result) are computed once and shared.
        """
        if self.warmup_cache is not None or self.jobs == 1:
            return self._run(points, self.warmup_cache)
        # Parallel mode carries its own warm-up sharing: workers fork
        # after the parent prewarms one checkpoint per shared warm-up
        # state (see _prewarm) instead of each re-simulating it.
        ephemeral = tempfile.mkdtemp(prefix="repro-warm-")
        try:
            return self._run(points, WarmupCache(ephemeral))
        finally:
            shutil.rmtree(ephemeral, ignore_errors=True)

    def _run(self, points: Sequence[SweepPoint],
             warmup_cache: Optional[WarmupCache]) -> List[Any]:
        t0 = time.monotonic()
        points = list(points)
        results: List[Optional[dict]] = [None] * len(points)
        keys = [cache_key(p) for p in points]

        # Cache hits first.
        pending: List[int] = []
        for i, key in enumerate(keys):
            payload = self.cache.get(key) if self.cache else None
            if payload is not None:
                self.stats.cache_hits += 1
                results[i] = payload
            else:
                if self.cache:
                    self.stats.cache_misses += 1
                pending.append(i)

        # Dedupe identical pending points: one leader per key.
        leaders: Dict[str, int] = {}
        followers: Dict[int, int] = {}
        unique: List[int] = []
        for i in pending:
            leader = leaders.setdefault(keys[i], i)
            if leader == i:
                unique.append(i)
            else:
                followers[i] = leader
                self.stats.deduped += 1

        if unique:
            if self.jobs == 1 or len(unique) == 1:
                executed = {i: self._execute_in_process(points[i],
                                                        warmup_cache)
                            for i in unique}
            else:
                executed = self._run_parallel(unique, points, warmup_cache)
            for i, payload in executed.items():
                results[i] = payload
                self.stats.executed += 1
                if self.cache:
                    self.cache.put(keys[i], payload, points[i])
        for i, leader in followers.items():
            results[i] = results[leader]

        if self.cache:
            self.stats.cache_corrupt = self.cache.corrupt_entries
        self.stats.wall_s += time.monotonic() - t0
        return [decode_result(payload) for payload in results]

    # -- serial path ---------------------------------------------------

    def _execute_in_process(self, point: SweepPoint,
                            warmup_cache: Optional[WarmupCache]) -> dict:
        try:
            return encode_result(execute_point(point, warmup_cache))
        except InvariantViolation as exc:
            raise SweepInvariantError(point, str(exc)) from exc
        except Exception as exc:
            raise SweepPointError(
                point, f"{type(exc).__name__}: {exc}") from exc

    # -- parallel path -------------------------------------------------

    def _prewarm(self, indices: List[int], points: List[SweepPoint],
                 warmup_cache: WarmupCache) -> None:
        """Simulate shared warm-up snapshots in the parent, pre-fork.

        Only warm-up states that more than one pending point restores
        are worth producing here (a one-off warm-up costs the same
        either way, and in a worker it runs in parallel).  For shared
        states the parent pays once and every forked worker inherits
        the parsed snapshot through copy-on-write memory — without
        this, each worker re-simulates or re-parses the same warm-up.
        Points that differ only in offered load share one warm-up state
        (their RNG label excludes the load, see
        :attr:`SweepPoint.rng_label`), so the result-cache key of the
        point at load 0 groups them.  Failures are left for the workers
        to surface with a proper point-naming verdict.
        """
        groups: Dict[str, List[int]] = {}
        for i in indices:
            groups.setdefault(cache_key(replace(points[i], load=0.0)),
                              []).append(i)
        for members in groups.values():
            if len(members) < 2:
                continue
            try:
                prewarm_point(points[members[0]], warmup_cache)
            except Exception:
                pass

    def _run_parallel(self, indices: List[int], points: List[SweepPoint],
                      warmup_cache: WarmupCache) -> Dict[int, dict]:
        """Persistent-worker scheduler with timeout, retry, fallback.

        Workers fork after :meth:`_prewarm` and stay alive across
        points; each dispatch hands a worker a batch of points, and the
        worker reports one message per batch (plus a tiny start marker
        per point, which drives the per-point timeout clock).
        """
        self._prewarm(indices, points, warmup_cache)
        ctx = self._ctx
        result_queue = ctx.Queue()
        out: Dict[int, dict] = {}
        work = deque((i, 0) for i in indices)           # (index, attempt)
        # worker id -> [proc, task_q, unreported {index: attempt},
        #               in-flight index or None, deadline]
        workers: Dict[int, list] = {}
        next_wid = [0]
        batch_size = max(1, len(indices) // (self.jobs * 2))

        def spawn() -> None:
            wid = next_wid[0]
            next_wid[0] += 1
            task_q = ctx.Queue()
            proc = ctx.Process(target=_persistent_worker_main,
                               args=(task_q, result_queue, wid,
                                     warmup_cache),
                               daemon=True)
            proc.start()
            workers[wid] = [proc, task_q, {}, None, 0.0]

        def dispatch(wid: int) -> None:
            state = workers[wid]
            batch = []
            while work and len(batch) < batch_size:
                index, attempt = work.popleft()
                if index in out:     # satisfied by a late message
                    continue
                state[2][index] = attempt
                batch.append((index, points[index]))
            if batch:
                state[3] = None
                state[4] = time.monotonic() + self.timeout_s
                state[1].put(batch)

        def kill(wid: int) -> None:
            state = workers.pop(wid)
            proc = state[0]
            if proc.is_alive():
                proc.terminate()
            proc.join(timeout=5.0)

        def rebuild() -> None:
            # A worker that dies (or is terminated) mid-``put`` can take
            # the result queue's shared write lock with it, blocking
            # every surviving worker's reports forever.  So any abnormal
            # worker exit treats the queue as poisoned: stop the whole
            # pool, requeue its unreported work at the current attempts,
            # and start over with a fresh queue.  Deterministic
            # simulations make re-execution safe, and crashes are rare
            # enough that the redone work is noise.
            nonlocal result_queue
            for state in workers.values():
                if state[0].is_alive():
                    state[0].terminate()
            for state in workers.values():
                state[0].join(timeout=5.0)
            self._drain(result_queue, handle_message)
            for state in workers.values():
                requeue_survivors(state)
            workers.clear()
            result_queue = ctx.Queue()

        def handle_message(kind: str, wid: int, payload: Any) -> None:
            state = workers.get(wid)   # None for late/killed workers
            if kind == "start":
                if state is not None:
                    state[3] = payload
                    state[4] = time.monotonic() + self.timeout_s
                return
            for index, status, data in payload:
                if state is not None:
                    state[2].pop(index, None)
                if status == "ok":
                    out[index] = data
                elif status == "invariant":
                    raise SweepInvariantError(points[index], data)
                else:
                    raise SweepPointError(points[index], data)
            if state is not None:
                state[3] = None

        def requeue_survivors(state: list) -> None:
            for index, attempt in state[2].items():
                if index not in out:
                    work.append((index, attempt))

        def pop_victim(state: list):
            """The task the failure is charged to: the in-flight point
            if known, else the batch's first unreported task."""
            victim = state[3] if state[3] in state[2] \
                else next(iter(state[2]))
            return victim, state[2].pop(victim)

        def shutdown() -> None:
            for state in workers.values():
                try:
                    state[1].put_nowait(None)
                except Exception:
                    pass
            for state in workers.values():
                state[0].join(timeout=0.5)
                if state[0].is_alive():
                    state[0].terminate()
            for state in workers.values():
                state[0].join(timeout=5.0)
            workers.clear()

        try:
            while work or any(state[2] for state in workers.values()):
                while work and len(workers) < self.jobs:
                    spawn()
                for wid in list(workers):
                    if work and not workers[wid][2]:
                        dispatch(wid)

                try:
                    kind, wid, payload = result_queue.get(timeout=0.05)
                except queue_lib.Empty:
                    pass
                else:
                    handle_message(kind, wid, payload)
                    continue

                now = time.monotonic()
                for wid in list(workers):
                    state = workers[wid]
                    if not state[2]:
                        continue       # idle, nothing to account for
                    if not state[0].is_alive():
                        # Dead mid-batch without reporting: give any
                        # buffered message one chance to drain, then
                        # treat what remains as a crash.
                        time.sleep(0.05)
                        self._drain(result_queue, handle_message)
                        if not state[2]:
                            kill(wid)  # it reported everything first
                            continue
                        victim, attempt = pop_victim(state)
                        self.stats.crashes += 1
                        rebuild()
                        if attempt < self.max_retries:
                            self.stats.retries += 1
                            work.append((victim, attempt + 1))
                        else:
                            # Graceful fallback: the pool environment
                            # may be the problem; run the point here.
                            self.stats.serial_fallbacks += 1
                            out[victim] = self._execute_in_process(
                                points[victim], warmup_cache)
                        break          # pool rebuilt; rescan fresh
                    elif now > state[4]:
                        victim, attempt = pop_victim(state)
                        self.stats.timeouts += 1
                        rebuild()
                        if attempt < self.max_retries:
                            self.stats.retries += 1
                            work.append((victim, attempt + 1))
                        else:
                            raise SweepTimeoutError(
                                points[victim],
                                f"no result within {self.timeout_s:.1f}s "
                                f"after {attempt + 1} attempt(s)")
                        break          # pool rebuilt; rescan fresh
        finally:
            shutdown()
        return out

    def _drain(self, result_queue, handle_message) -> None:
        """Deliver any queued messages without blocking."""
        while True:
            try:
                kind, wid, payload = result_queue.get_nowait()
            except queue_lib.Empty:
                return
            handle_message(kind, wid, payload)




def run_points(points: Sequence[SweepPoint], jobs: int = 1,
               cache_dir=None, warmup_cache_dir=None,
               executor: Optional[SweepExecutor] = None) -> List[Any]:
    """Convenience wrapper: run points through ``executor`` or a fresh
    one built from ``jobs``/``cache_dir``/``warmup_cache_dir``."""
    ex = executor or SweepExecutor(jobs=jobs, cache_dir=cache_dir,
                                   warmup_cache_dir=warmup_cache_dir)
    return ex.run(points)
