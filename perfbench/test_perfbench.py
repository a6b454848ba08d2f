"""Self-tests of the benchmark at tiny sizes.

Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py

They run real workloads with few flows or requests, one set-up
repetition and one operation each (about a minute in all), so they are
not part of the tier-1 suite under ``tests/``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402
from layers import Capture  # noqa: E402
from repro.harness.warmup_cache import WarmupCache  # noqa: E402
from repro.sim.invariants import InvariantRegistry, InvariantViolation  # noqa: E402

#: trace.unclaimed_s may be at most this share of the traced wall time:
#: the per-layer self times must cover the traced run call.
UNCLAIMED_TOLERANCE = 0.02


def tiny(name: str, seed: int = 0):
    """A workload instance small enough for a self-test."""
    cls = workloads.WORKLOADS[name]
    workload = cls(seed, n_flows=200) if issubclass(
        cls, workloads.FabricFlows) else cls(seed)
    if isinstance(workload, workloads.NodeMemcachedKernel):
        workload.n_requests = 400
    workload.setup_reps = 1
    return workload


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_lists_match_benchmark_json():
    data = spec()
    assert [(m["name"], m["unit"]) for m in data["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in data["per_layer"]] \
        == list(run.PER_LAYER)
    # fabric_k4_shards2 stays runnable by name but is not in
    # BENCHMARK.json while its known defect fails it on some seeds.
    assert [w["name"] for w in data["workloads"]] \
        == [name for name in workloads.WORKLOADS
            if name != workloads.FabricShards.name]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_metric_printed_for_every_workload(name, tmp_path, capsys):
    for trace, expected in ((False, run.END_TO_END), (True, run.PER_LAYER)):
        record = run.run_workload(name, 0, 0, trace, tmp_path / str(trace),
                                  workload=tiny(name))
        assert record["correct"], record["failures"]
        run._print_record(record)
        last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert [(key, m["unit"]) for key, m in last["metrics"].items()] \
            == list(expected)
        if trace:
            traced = record["metrics"]
            wall = traced["trace.wall_s"]["value"]
            assert abs(traced["trace.unclaimed_s"]["value"]) \
                <= UNCLAIMED_TOLERANCE * wall
            layer_sum = sum(m["value"] for key, m in traced.items()
                            if key.endswith(".self_s"))
            assert layer_sum > 0


def _ops(workload, tmp_path, n, count=workloads.counts_of):
    capture = Capture(count, tmp_path / "handoff")
    (tmp_path / "handoff").mkdir()
    cache = WarmupCache(tmp_path / "warm")
    capture.install()
    try:
        workload.prewarm(cache)
        ops = [run.run_op(workload, cache, capture) for _ in range(n)]
    finally:
        capture.uninstall()
    run.flag_digest_mismatches(ops)
    return run.summarize(ops)


def test_forced_digest_mismatch_fails_one_operation(tmp_path):
    calls = []

    def count(built, fired_base):
        counts = workloads.counts_of(built, fired_base)
        calls.append(1)
        if len(calls) == 2:
            counts["sim.events"] += 1
        return counts

    attempted, failed, failures = _ops(tiny("fabric_k4_flows"), tmp_path,
                                       3, count)
    assert (attempted, failed) == (3, 1)
    assert "result digest" in failures[0]


def test_forced_invariant_violation_fails_one_operation(tmp_path,
                                                        monkeypatch):
    original = InvariantRegistry.check
    final_checks = []

    def check(self, final=True):
        if final:
            final_checks.append(1)
            if len(final_checks) == 2:
                raise InvariantViolation(["forced by the self-test"],
                                         tick=0, phase="final")
        return original(self, final)

    monkeypatch.setattr(InvariantRegistry, "check", check)
    attempted, failed, failures = _ops(tiny("fabric_k4_flows"), tmp_path, 3)
    assert (attempted, failed) == (3, 1)
    assert "InvariantViolation" in failures[0]


def test_shard_digest_check_reports_what_the_harness_returns(tmp_path):
    """At seed 1 with 10,000 flows the sharded run's flow digest differs
    from the single-process run's (a known defect); the benchmark must
    report that as a failed operation, and pass when they agree."""
    workload = workloads.FabricShards(1)
    workload.setup_reps = 1
    record = run.run_workload(workload.name, 1, 0, False, tmp_path,
                              workload=workload)
    sharded = run_sharded_digest(workload)
    agree = sharded == workload.reference.flow_digest
    assert record["correct"] == agree
    if not agree:
        assert record["failed"] == record["attempted"] == 1
        assert "flow digest differs" in record["failures"][0]


def run_sharded_digest(workload) -> str:
    from repro.harness.fabric import run_fabric_sharded
    return run_fabric_sharded(workload.config, workload.preset,
                              workload.stack, shards=workload.shards,
                              **workload.run_kwargs()).flow_digest


def test_exits_nonzero_without_the_simulator(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload",
         "fabric_k4_flows", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
