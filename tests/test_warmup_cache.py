"""Warm-up cache behaviour under failure: corruption, version drift,
and restore failures must all degrade to re-simulating the warm-up —
a damaged cache can cost time but can never change results.
"""

import dataclasses
import json
import os

import pytest

from repro.harness import fabric, runner
from repro.harness.parallel import SweepExecutor, fixed_load_point
from repro.harness.runner import (
    _fixed_load_plan,
    build_node,
    run_fixed_load,
)
from repro.harness.warmup_cache import WarmupCache, warmup_key
from repro.sim.checkpoint import CHECKPOINT_FORMAT, compute_digest
from repro.sim.trace import TraceOptions
from repro.system.presets import gem5_default, with_core


def _reference(config, **kw):
    return dataclasses.asdict(run_fixed_load(config, "testpmd", 256, 8.0,
                                             n_packets=600, **kw))


def _entry_path(cache):
    entries = sorted(cache.root.glob("warmup-*.json"))
    assert len(entries) == 1
    return entries[0]


#: Warm-up keys of three representative runs on ``gem5_default`` at
#: seed 0 with tracing off.  Existing cache directories stay valid only
#: while these hold; a deliberate keying change bumps
#: ``WARMUP_KEY_VERSION`` and updates them together.
PINNED_KEYS = {
    "testpmd-256": "fd4883913b1dc26c53acda99dfb1c7e4b0654733"
                   "8a97aa702663b2106b0a3e40",
    "memcached-kernel": "2b1132e9a5fd8422aa805f6e2e65e7ac0cbe38c7"
                        "007aa23b16c5a7e09b013b65",
    "fat-tree-k4-dpdk": "6099b0e4ce675bb867c078a6f765967370a094e2"
                        "759df31f47e098709cfb7422",
}


class _KeyRecorder(WarmupCache):
    """A cache that claims every key is stored and records the keys it
    was asked for, so a prewarm reveals its key without simulating."""

    def __init__(self, root):
        super().__init__(root)
        self.asked = []

    def get(self, key):
        self.asked.append(key)
        return {}


def _prewarm(name, cache):
    config = gem5_default()
    if name == "testpmd-256":
        return runner.prewarm_fixed_load(config, "testpmd", 256, seed=0,
                                         warmup_cache=cache)
    if name == "memcached-kernel":
        return runner.prewarm_memcached(config, True, seed=0,
                                        warmup_cache=cache)
    return fabric.prewarm_fabric(config, "fat-tree-k4", "dpdk", seed=0,
                                 warmup_cache=cache)


class TestPinnedKeys:
    @pytest.mark.parametrize("name", sorted(PINNED_KEYS))
    def test_key_is_pinned_and_needs_no_rig(self, name, monkeypatch,
                                            tmp_path):
        for var in ("REPRO_TRACE", "REPRO_TRACE_BUFFER"):
            monkeypatch.delenv(var, raising=False)

        def no_build(*_args, **_kwargs):
            raise AssertionError("a cached prewarm built a rig")

        monkeypatch.setattr(runner, "build_node", no_build)
        monkeypatch.setattr(fabric, "build_fabric_rig", no_build)
        cache = _KeyRecorder(tmp_path)
        assert _prewarm(name, cache) is False
        assert cache.asked == [PINNED_KEYS[name]]

    def test_cached_prewarm_builds_no_node(self, monkeypatch, tmp_path):
        built = []

        def counting_build_node(*args, **kwargs):
            built.append(args[1])
            return build_node(*args, **kwargs)

        monkeypatch.setattr(runner, "build_node", counting_build_node)
        cache = WarmupCache(tmp_path)
        assert _prewarm("testpmd-256", cache) is True
        assert built == ["testpmd"]
        assert _prewarm("testpmd-256", cache) is False
        assert built == ["testpmd"], "a cached prewarm built a node"


class TestKeying:
    def test_key_ignores_nothing_it_should_depend_on(self):
        config = gem5_default()
        plan = _fixed_load_plan(config, 256, True, None)
        sig = {"enabled": False}
        base = warmup_key(config, "testpmd", 256, None, plan, 0, sig)
        assert base == warmup_key(config, "testpmd", 256, None, plan, 0,
                                  sig)
        assert base != warmup_key(config, "touchfwd", 256, None, plan, 0,
                                  sig)
        assert base != warmup_key(config, "testpmd", 512, None, plan, 0,
                                  sig)
        assert base != warmup_key(config, "testpmd", 256, None, plan, 1,
                                  sig)
        assert base != warmup_key(config, "testpmd", 256,
                                  {"proc_time_ns": 40.0}, plan, 0, sig)
        assert base != warmup_key(with_core(config, ooo=False), "testpmd",
                                  256, None, plan, 0, sig)
        assert base != warmup_key(config, "testpmd", 256, None, plan, 0,
                                  {"enabled": True})

    def test_key_excludes_the_store_option(self):
        config = gem5_default()
        plan = _fixed_load_plan(config, 256, True, None)
        sig = {"enabled": False}
        assert warmup_key(config, "testpmd", 256, {"store": object()},
                          plan, 0, sig) == \
            warmup_key(config, "testpmd", 256, None, plan, 0, sig)


class TestCorruptionRecovery:
    def test_truncated_entry_is_deleted_and_resimulated(self, tmp_path):
        config = gem5_default()
        cache = WarmupCache(tmp_path)
        expected = _reference(config)
        _reference(config, warmup_cache=cache)
        path = _entry_path(cache)
        path.write_text(path.read_text()[:100])

        result = _reference(config, warmup_cache=cache)
        assert result == expected
        assert cache.corrupt_entries == 1
        assert cache.hits == 0
        # The corrupt entry was replaced by a good one.
        assert cache.saves == 2
        result = _reference(config, warmup_cache=cache)
        assert result == expected
        assert cache.hits == 1

    def test_bitflipped_entry_fails_the_digest_and_recovers(self,
                                                            tmp_path):
        config = gem5_default()
        cache = WarmupCache(tmp_path)
        expected = _reference(config, warmup_cache=cache)
        path = _entry_path(cache)
        doc = json.loads(path.read_text())
        doc["sim"]["events"]["now"] += 1
        path.write_text(json.dumps(doc))

        assert _reference(config, warmup_cache=cache) == expected
        assert cache.corrupt_entries == 1

    def test_version_mismatched_entry_misses(self, tmp_path):
        config = gem5_default()
        cache = WarmupCache(tmp_path)
        expected = _reference(config, warmup_cache=cache)
        path = _entry_path(cache)
        doc = json.loads(path.read_text())
        doc["format"] = CHECKPOINT_FORMAT + 1
        doc["digest"] = compute_digest(doc)   # digest valid, format not
        path.write_text(json.dumps(doc))

        assert _reference(config, warmup_cache=cache) == expected
        assert cache.corrupt_entries == 1
        assert not path.exists() or cache.saves == 2

    def test_restore_failure_discards_and_rebuilds(self, tmp_path):
        """A digest-valid checkpoint whose *content* cannot restore
        (schema drift from another code version): the runner discards
        it, rebuilds the node, and warms up from scratch."""
        config = gem5_default()
        cache = WarmupCache(tmp_path)
        expected = _reference(config)

        # Forge a valid-looking entry under testpmd's key whose payload
        # belongs to a different application.
        node = build_node(config, "touchfwd", seed=0)
        node.attach_loadgen()
        node.start()
        node.warmup_and_reset(_fixed_load_plan(config, 256, True, None))
        impostor = node.checkpoint()
        plan = _fixed_load_plan(config, 256, True, None)
        key = warmup_key(config, "testpmd", 256, None, plan, 0,
                         TraceOptions.from_env().signature())
        cache.put(key, impostor)

        result = _reference(config, warmup_cache=cache)
        assert result == expected
        assert cache.hits == 1          # the entry *loaded*...
        assert not cache.path_for(key).exists() or cache.saves == 2
        # ...but the fresh warm-up overwrote it with a good snapshot.
        assert _reference(config, warmup_cache=cache) == expected


class TestEnvironmentPlumbing:
    def test_executor_exports_and_restores_env(self, monkeypatch,
                                               tmp_path):
        # The executor hands its cache object to every point; it never
        # exports the directory through the environment.
        monkeypatch.delenv("REPRO_WARMUP_CACHE", raising=False)
        ex = SweepExecutor(jobs=1, warmup_cache_dir=tmp_path)
        point = fixed_load_point(gem5_default(), "testpmd", 256, 8.0,
                                 n_packets=600)
        with_cache = ex.run([point])[0]
        assert os.environ.get("REPRO_WARMUP_CACHE") is None, \
            "executor leaked REPRO_WARMUP_CACHE"
        assert list(tmp_path.glob("warmup-*.json"))
        plain = SweepExecutor(jobs=1).run([point])[0]
        assert dataclasses.asdict(with_cache) == dataclasses.asdict(plain)

    def test_executor_shares_snapshot_across_loads(self, tmp_path):
        config = gem5_default()
        ex = SweepExecutor(jobs=1, warmup_cache_dir=tmp_path)
        ex.run([fixed_load_point(config, "testpmd", 256, gbps,
                                 n_packets=600)
                for gbps in (6.0, 8.0, 10.0)])
        # Same rng_label => same effective seed => one shared snapshot.
        assert len(list(tmp_path.glob("warmup-*.json"))) == 1
