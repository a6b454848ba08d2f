"""On-disk warm-up checkpoint cache for sweeps.

The paper's methodology warms every simulation up under load before the
measured window (§VI.A) — and a sweep re-pays that warm-up at every
point.  But the harness warms up at a *canonical, load-independent* rate
and drains to quiescence before resetting statistics, so every point of
a single-configuration load sweep passes through byte-identical post-
warm-up machine state.  This cache stores that state once, as a sealed
:mod:`repro.sim.checkpoint` document, and every subsequent point
restores it instead of re-simulating the warm-up.

Keying: a SHA-256 digest over everything the post-warm-up state depends
on — the result-cache schema version, the checkpoint format, the full
canonical :class:`~repro.system.config.SystemConfig`, the application
and its options, the packet size, the :class:`~repro.system.node.WarmupPlan`,
the *effective* seed, and the tracer configuration.  The offered load is
deliberately absent: that is the whole point.

Failure policy mirrors :class:`repro.harness.parallel.ResultCache`: any
unreadable, version-mismatched, or digest-mismatched entry counts as
corrupt, is deleted, and the warm-up is re-simulated — a damaged cache
can slow a sweep down but never change its results.  Writes are atomic
(temp file + ``os.replace``), so sweep workers racing to produce the
same snapshot never leave a torn file.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple

from repro.sim.checkpoint import (
    CHECKPOINT_FORMAT,
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from repro.sim.trace import TraceOptions
from repro.system.config import SystemConfig
from repro.system.node import WarmupPlan

#: Version of the warm-up *keying* scheme (what state a key promises to
#: describe).  Bump together with methodology changes so stale snapshots
#: miss instead of silently seeding a run with different machine state.
WARMUP_KEY_VERSION = 1


def warmup_key(config: SystemConfig, app: str, packet_size: int,
               app_options: Optional[Dict[str, Any]], plan: WarmupPlan,
               seed: int,
               tracer_signature: Optional[Dict[str, Any]] = None) -> str:
    """Stable digest of everything the post-warm-up state depends on.

    ``tracer_signature`` defaults to the tracer options every rig built
    now would get (:meth:`TraceOptions.from_env`), so a run's key needs
    no built rig."""
    if tracer_signature is None:
        tracer_signature = TraceOptions.from_env().signature()
    options = {k: v for k, v in (app_options or {}).items()
               if k != "store"}   # the store is node-internal state
    payload = {
        "key_version": WARMUP_KEY_VERSION,
        "checkpoint_format": CHECKPOINT_FORMAT,
        "config": config.canonical_dict(),
        "app": app,
        "packet_size": packet_size,
        "app_options": options,
        "plan": asdict(plan),
        "seed": seed,
        "tracer": tracer_signature,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


class WarmupCache:
    """One sealed checkpoint file per warm-up state, named by its key.

    Entries are additionally memoized in memory: within one process a
    warm-up snapshot is parsed (and digest-verified) from disk at most
    once.  Only a *validated disk read* populates the memo — a plain
    :meth:`put` does not — so corruption injected into the file before
    the first read is still detected.  The persistent-worker sweep
    executor leans on the memo: the parent *prewarms* it before forking
    workers, so every worker inherits the already-loaded snapshots
    through copy-on-write fork memory instead of re-reading (and
    re-verifying) them per sweep point.

    Checkpoint documents are treated as immutable once sealed; restore
    paths only read them, so sharing one dict across runs is safe.
    """

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.saves = 0
        self.corrupt_entries = 0
        self._memo: Dict[str, dict] = {}

    def path_for(self, key: str) -> Path:
        return self.root / f"warmup-{key}.json"

    def get(self, key: str) -> Optional[dict]:
        """The stored checkpoint document, or None on miss.

        A corrupt entry (unreadable file, schema drift, digest mismatch)
        is deleted and reported as a miss, so the caller falls back to
        simulating the warm-up and then overwrites the entry.
        """
        memoized = self._memo.get(key)
        if memoized is not None:
            self.hits += 1
            return memoized
        path = self.path_for(key)
        if not path.exists():
            self.misses += 1
            return None
        try:
            document = load_checkpoint(str(path))
        except CheckpointError:
            self.corrupt_entries += 1
            self.misses += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self.hits += 1
        self._memo[key] = document
        return document

    def put(self, key: str, document: dict) -> None:
        """Atomically store one sealed checkpoint.

        Deliberately does *not* memoize: the memo only ever holds
        copies that passed the on-disk digest check, so tests (and
        operators) that corrupt an entry behind the cache's back still
        see the corruption detected on the next read."""
        save_checkpoint(document, str(self.path_for(key)))
        self.saves += 1

    def discard(self, key: str) -> None:
        """Drop an entry that failed to restore (schema drift survives
        the digest check when the writer was a different code version)."""
        self._memo.pop(key, None)
        try:
            self.path_for(key).unlink()
        except OSError:
            pass


def warm_start(cache: Optional[WarmupCache], key: str,
               build: Callable[[], Any], warm_up: Callable[[Any], None],
               meta: Dict[str, Any], prewarm: bool = False
               ) -> Tuple[Any, bool]:
    """The one warm-up protocol of every harness entry point.

    ``key`` is the run's :func:`warmup_key`, computed from its inputs;
    ``build()`` returns the fully attached rig (a node or a fabric) and
    ``warm_up(rig)`` simulates the warm-up and resets statistics.  A
    stored snapshot is restored into a fresh rig; one that fails to
    restore is discarded and the warm-up re-simulated on a rebuilt rig,
    then checkpointed with ``meta`` and stored.  ``prewarm=True`` only
    fills the cache: a hit builds nothing, and a fresh snapshot gets a
    validated read-back to seed the memo.

    Returns ``(rig, simulated)``; ``rig`` is None when prewarming finds
    nothing to do (no cache, or the snapshot is already stored).
    """
    if cache is None and prewarm:
        return None, False
    snapshot = cache.get(key) if cache is not None else None
    if snapshot is not None:
        if prewarm:
            return None, False
        rig = build()
        try:
            rig.restore(snapshot)
            return rig, False
        except CheckpointError:
            # Schema drift that survived the digest check (a snapshot
            # from a different code version): drop it and warm up from
            # scratch on a rebuilt rig (restore may have partially
            # mutated this one).
            cache.discard(key)
    rig = build()
    warm_up(rig)
    if cache is not None:
        cache.put(key, rig.checkpoint(extra_meta=meta))
        if prewarm:
            cache.get(key)   # validated read-back seeds the memo
    return rig, True
