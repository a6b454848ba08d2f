"""Failure semantics of the multiprocess shard runner.

A shard that dies mid-epoch must surface as a :class:`ShardCrashError`
naming the dead shard — promptly (the coordinator polls liveness while
waiting on responses, it does not sit out a full command timeout) — and
teardown must leave neither deadlocked peers nor orphan processes.

Crashes are injected from here: :func:`_crash_at` swaps in a shard
worker that, in shard ``S`` only, wraps ``ChannelGroup.advance`` so the
epoch exchange hard-exits at epoch ``E`` with peers waiting on its
batch.  Workers fork, so they start from the patched module.
"""

import multiprocessing
import os
import time

import pytest

from repro.dist import ShardCrashError, shard
from repro.dist.shard import run_fabric_sharded
from repro.sim.channel import ChannelGroup
from repro.system.presets import gem5_default


def _shard_children():
    return [p for p in multiprocessing.active_children()
            if p.name.startswith("repro-shard-")]


def _crash_at(monkeypatch, shard_id, epoch):
    """Make shard ``shard_id`` die without a word at ``epoch``."""
    worker = shard._shard_worker

    def crashing_worker(sid, *args, **kwargs):
        if sid == shard_id:
            advance = ChannelGroup.advance

            def advance_then_die(group, target, exchange):
                def exchange_or_die(index, horizon, outgoing):
                    if index == epoch:
                        os._exit(23)
                    return exchange(index, horizon, outgoing)
                return advance(group, target, exchange_or_die)

            ChannelGroup.advance = advance_then_die
        return worker(sid, *args, **kwargs)

    monkeypatch.setattr(shard, "_shard_worker", crashing_worker)


def _run(shards=2):
    return run_fabric_sharded(
        gem5_default(), "fat-tree-k4", "dpdk", pattern="uniform",
        load=0.35, n_flows=100, seed=0, shards=shards)


def test_crash_mid_epoch_raises_named_error_without_orphans(monkeypatch):
    _crash_at(monkeypatch, shard_id=1, epoch=5)
    t0 = time.monotonic()
    with pytest.raises(ShardCrashError) as excinfo:
        _run()
    elapsed = time.monotonic() - t0

    # The error identifies the shard that died, not just "a failure".
    assert excinfo.value.shard_id == 1
    assert "shard 1" in str(excinfo.value)

    # Bounded: liveness polling catches the death within seconds; the
    # surviving peer is torn down without waiting out its 60s
    # peer-receive backstop.
    assert elapsed < 30.0, f"crash detection took {elapsed:.1f}s"

    # No orphans: every worker process is joined or killed.
    deadline = time.monotonic() + 5.0
    while _shard_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    assert _shard_children() == []


def test_crash_in_first_epoch_of_four_shards(monkeypatch):
    _crash_at(monkeypatch, shard_id=3, epoch=0)
    with pytest.raises(ShardCrashError) as excinfo:
        _run(shards=4)
    assert excinfo.value.shard_id == 3
    deadline = time.monotonic() + 5.0
    while _shard_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    assert _shard_children() == []


def test_clean_run_leaves_no_processes_behind():
    result = _run()
    assert result.flows_completed > 0
    deadline = time.monotonic() + 5.0
    while _shard_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    assert _shard_children() == []
