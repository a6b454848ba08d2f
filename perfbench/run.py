"""Host-time benchmark of the simulator: four workloads, end to end and
layer by layer.

Run one workload:

    python3 perfbench/run.py --workload node_testpmd_64b --seed 0 \\
        --seconds 20 --trace 0

``--trace 0`` times the public run calls and prints the end-to-end
metrics; ``--trace 1`` additionally runs one operation with every
layer's public entry points wrapped and prints the per-layer metrics.
``--workload all`` runs every workload, each in its own process, and
prints a table.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the line before it, prefixed ``perfbench-record``, holds the result
digest, counters and raw samples that ``perfbench/compare.py`` reads.
All times are host seconds; simulated results appear only in digests.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from calibrate import slice_s
from layers import LAYERS, Capture, LayerTracer, clock, merge_totals, \
    peak_rss_mb

# ``workloads`` and ``repro`` are imported inside functions: the
# simulator becomes importable only once main() has put src/ on sys.path.

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RECORD_PREFIX = "perfbench-record "

#: (name, unit) of each end-to-end metric, printed with ``--trace 0``.
END_TO_END = (("wall_cal", "cal"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))

#: (name, unit) of each per-layer metric, printed with ``--trace 1``.
#: A metric whose layer a workload does not exercise reads 0.
PER_LAYER = (
    ("sim.events", "count"), ("sim.ns_per_event", "ns"), ("sim.self_s", "s"),
    ("nic.self_s", "s"), ("nic.calls", "count"),
    ("nic.link_frames", "count"), ("nic.drops.dma", "count"),
    ("nic.drops.core", "count"), ("nic.drops.tx", "count"),
    ("nic.desc_writebacks", "count"),
    ("mem.self_s", "s"), ("mem.calls", "count"),
    ("mem.llc_miss_rate", "ratio"), ("mem.dram_row_hit_rate", "ratio"),
    ("mem.dram_accesses", "count"),
    ("cpu.self_s", "s"), ("cpu.calls", "count"), ("cpu.work_units", "count"),
    ("dpdk.self_s", "s"), ("dpdk.calls", "count"),
    ("dpdk.rx_bursts", "count"), ("dpdk.rx_burst_yield", "frames"),
    ("dpdk.empty_poll_frac", "ratio"),
    ("kernelstack.self_s", "s"), ("kernelstack.calls", "count"),
    ("kernelstack.harvest_yield", "frames"),
    ("apps.self_s", "s"), ("apps.calls", "count"),
    ("apps.kv_hit_rate", "ratio"),
    ("loadgen.self_s", "s"), ("loadgen.calls", "count"),
    ("net.fabric.self_s", "s"), ("net.fabric.calls", "count"),
    ("net.fabric.frames_switched", "count"),
    ("net.fabric.drops.switch-queue-full", "count"),
    ("net.fabric.drops.switch-no-route", "count"),
    ("net.fabric.drops.host-queue-full", "count"),
    ("dist.self_s", "s"), ("dist.calls", "count"), ("dist.wait_s", "s"),
    ("dist.epochs", "count"), ("dist.busy_epoch_frac", "ratio"),
    ("dist.frames_per_epoch", "frames"), ("dist.overhead_ratio", "ratio"),
    ("harness.self_s", "s"), ("harness.calls", "count"),
    ("harness.restore_s", "s"), ("harness.snapshot_kb", "KiB"),
    ("trace.wall_s", "s"), ("trace.unclaimed_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


@dataclass
class Op:
    """One operation: the workload's public run call(s) plus checks."""

    wall_s: float = 0.0
    results: list = field(default_factory=list)
    counts: Dict[str, int] = field(default_factory=dict)
    failures: List[str] = field(default_factory=list)
    digest: str = ""
    #: Layer totals of a traced operation, summed over its processes.
    trace: Optional[dict] = None
    #: Host seconds the traced processes ran (wall time, or the sum of
    #: the shard workers' lifetimes for a sharded run).
    process_s: float = 0.0
    #: Peak RSS (MiB) each shard worker reported, by shard id.
    shard_rss_mb: Dict[int, float] = field(default_factory=dict)
    #: Host time of the run calls in calibration units: each call's
    #: seconds over the mean of the slices timed right before and after
    #: it, summed over the calls.  Only the traced operation's is a
    #: metric; the end-to-end ``wall_cal`` is :func:`run_wall_cal`.
    wall_cal: float = 0.0


def run_op(workload, cache, capture, tracer=None,
           slices: Optional[List[float]] = None) -> Op:
    """Time the workload's run calls, read counters, check outputs.

    With ``slices`` (calibration slice times, the last one taken right
    before this operation), a calibration slice is timed after each
    call and appended, and the operation's ``wall_cal`` is filled in.

    Every exception a run call raises (an ``InvariantViolation`` from
    the final invariant check, a harness sanity error, a crashed shard)
    fails this operation only; the caller goes on with the next one.
    """
    from workloads import result_digest

    op = Op()
    traces = []
    calls = workload.calls(cache)
    for label, call in calls:
        capture.begin()
        if tracer is not None:
            tracer.restart()
        gc.collect()
        start = clock()
        try:
            op.results.append(call())
        except Exception as exc:
            op.failures.append(f"{label}: {type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
        finally:
            elapsed = clock() - start
        op.wall_s += elapsed
        shards = capture.shard_payloads()
        expected = getattr(workload, "shards", 0)
        if expected and len(shards) != expected and not op.failures:
            op.failures.append(f"{label}: {len(shards)} of {expected} "
                               f"shards handed back their counters")
        parts = [p["counts"] for p in shards] if expected \
            else [capture.counts()]
        for part in parts:
            for key, value in part.items():
                op.counts[key] = op.counts.get(key, 0) + value
        for shard_id, payload in enumerate(shards):
            op.shard_rss_mb[shard_id] = payload["peak_rss_mb"]
        capture.begin()   # let the simulation go before calibrating
        if slices is not None:
            slices.append(slice_s())
            op.wall_cal += elapsed / ((slices[-2] + slices[-1]) / 2)
        if tracer is not None:
            if expected:
                traces += [p["trace"] for p in shards]
                op.process_s += sum(p["process_s"] for p in shards)
            else:
                traces.append(tracer.totals())
                op.process_s += elapsed
    if tracer is not None:
        op.trace = merge_totals(traces)
        op.trace["parts"] = len(traces)
    if len(op.results) == len(calls):
        op.failures += workload.check(op.results)
        op.digest = result_digest(op.results, op.counts)
    return op


@dataclass
class Run:
    setup_s: List[float]
    snapshot_kb: float
    ops: List[Op]
    traced: Optional[Op]
    #: Host time of ``workload.prepare`` (the sharded workload's
    #: single-process reference run) in calibration units.
    prepare_cal: float = 0.0
    #: Calibration slices of the untraced operations: the one timed
    #: right before the first operation and one after every run call.
    slices: List[float] = field(default_factory=list)


def measure(workload, seconds: float, trace: bool, workdir: Path) -> Run:
    """Set up, run operations until they (with their calibration
    slices) have taken ``seconds`` (at least one operation), then one
    traced operation when ``trace`` is set.

    A calibration slice is timed before the first operation and after
    every run call, so each call is bracketed by two.  The
    ``setup_reps`` prewarm repetitions, each on an empty cache, run
    back to back before the operations, and no set-up rig outlives its
    repetition, so the process's memory history, and with it
    ``peak_rss_mb``, does not depend on how many operations fit in the
    run.
    """
    from repro.harness.warmup_cache import WarmupCache
    from workloads import counts_of

    setup_s: List[float] = []

    def setup_rep() -> WarmupCache:
        cache = WarmupCache(workdir / f"warm{len(setup_s)}")
        gc.collect()
        start = clock()
        workload.prewarm(cache)
        setup_s.append(clock() - start)
        capture.begin()   # the prewarmed rig is garbage from here on
        return cache

    handoff = workdir / "handoff"
    handoff.mkdir(parents=True, exist_ok=True)
    capture = Capture(counts_of, handoff)
    capture.install()
    try:
        cache = setup_rep()
        while len(setup_s) < workload.setup_reps:
            setup_rep()
        snapshot_kb = sum(path.stat().st_size
                          for path in cache.root.iterdir()) / 1024.0
        calibration = [slice_s()]
        start = clock()
        workload.prepare(cache)
        prepare_s = clock() - start
        calibration.append(slice_s())
        prepare_cal = prepare_s / ((calibration[-2] + calibration[-1]) / 2)
        ops: List[Op] = []
        measured = 0.0   # operations and their calibration, not set-up
        while not ops or measured < seconds:
            start = clock()
            ops.append(run_op(workload, cache, capture,
                              slices=calibration))
            measured += clock() - start
        op_slices = calibration[1:]
        traced = None
        if trace:
            tracer = LayerTracer()
            tracer.install()
            capture.tracer = tracer
            try:
                traced = run_op(workload, cache, capture, tracer,
                                slices=calibration)
            finally:
                capture.tracer = None
                tracer.uninstall()
    finally:
        capture.uninstall()
    flag_digest_mismatches(ops + ([traced] if traced else []))
    return Run(setup_s, snapshot_kb, ops, traced, prepare_cal, op_slices)


def flag_digest_mismatches(ops: List[Op]) -> None:
    """Every operation of one run has the same seed, so each must
    reproduce the first operation's result digest exactly."""
    reference = next((op.digest for op in ops if op.digest), "")
    for op in ops:
        if op.digest and op.digest != reference:
            op.failures.append(f"result digest {op.digest[:16]} differs "
                               f"from this run's first {reference[:16]}")


def summarize(ops: List[Op]):
    """(attempted, failed, distinct failure messages) over operations."""
    failures = sorted({msg for op in ops for msg in op.failures})
    return len(ops), sum(1 for op in ops if op.failures), failures


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def run_wall_cal(run: Run) -> float:
    """Mean host seconds of the run's operations over the mean
    calibration slice of the same stretch of time.

    A single slice is too short to tell the host's speed during the
    operation next to it (adjacent slices differ by up to 30% on a
    shared host), so the per-operation ratios scatter; averaging both
    sides over the whole run keeps the drift correction and drops that
    scatter.
    """
    return (statistics.fmean(op.wall_s for op in run.ops)
            / statistics.fmean(run.slices))


def end_to_end_metrics(run: Run) -> Dict[str, float]:
    shard_rss: Dict[int, float] = {}
    for op in run.ops + ([run.traced] if run.traced else []):
        for shard_id, rss in op.shard_rss_mb.items():
            shard_rss[shard_id] = max(rss, shard_rss.get(shard_id, 0.0))
    return {
        "wall_cal": run_wall_cal(run),
        "setup_s": statistics.median(run.setup_s),
        "peak_rss_mb": peak_rss_mb() + sum(shard_rss.values()),
    }


def per_layer_metrics(run: Run, workload) -> Dict[str, float]:
    wall = statistics.median(op.wall_s for op in run.ops)
    wall_cal = run_wall_cal(run)
    counts = run.ops[0].counts
    traced = run.traced
    totals = traced.trace

    def c(key: str) -> int:
        return counts.get(key, 0)

    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = totals["self_s"].get(layer, 0.0)
        metrics[f"{layer}.calls"] = totals["calls"].get(layer, 0)
    for key in ("sim.events", "nic.link_frames", "nic.drops.dma",
                "nic.drops.core", "nic.drops.tx", "nic.desc_writebacks",
                "mem.dram_accesses", "cpu.work_units", "dpdk.rx_bursts",
                "net.fabric.frames_switched",
                "net.fabric.drops.switch-queue-full",
                "net.fabric.drops.switch-no-route",
                "net.fabric.drops.host-queue-full"):
        metrics[key] = c(key)
    hits = sum(getattr(r, "get_hits", 0) for r in run.ops[0].results)
    misses = sum(getattr(r, "get_misses", 0) for r in run.ops[0].results)
    epochs = totals["epochs"]
    shards = totals["parts"] if getattr(workload, "shards", 0) else 1
    metrics.update({
        "sim.ns_per_event": _ratio(wall * 1e9, c("sim.events")),
        "mem.llc_miss_rate": _ratio(
            c("mem.llc_misses"), c("mem.llc_hits") + c("mem.llc_misses")),
        "mem.dram_row_hit_rate": _ratio(
            c("mem.dram_row_hits"),
            c("mem.dram_row_hits") + c("mem.dram_row_misses")),
        "dpdk.rx_burst_yield": _ratio(c("dpdk.rx_packets"),
                                      c("dpdk.rx_bursts")),
        "dpdk.empty_poll_frac": _ratio(c("dpdk.empty_rx_bursts"),
                                       c("dpdk.rx_bursts")),
        "kernelstack.harvest_yield": _ratio(totals["harvested"],
                                            totals["harvests"]),
        "apps.kv_hit_rate": _ratio(hits, hits + misses),
        "dist.wait_s": totals["wait_s"],
        "dist.epochs": epochs / shards,
        "dist.busy_epoch_frac": _ratio(totals["busy_epochs"], epochs),
        "dist.frames_per_epoch": _ratio(totals["epoch_frames"], epochs),
        "dist.overhead_ratio": (_ratio(wall_cal, run.prepare_cal)
                                if shards > 1 else 0.0),
        "harness.restore_s": totals["restore_s"],
        "harness.snapshot_kb": run.snapshot_kb,
        "trace.wall_s": traced.wall_s,
        "trace.unclaimed_s": (traced.process_s - totals["hook_s"]
                              - sum(totals["self_s"].values())),
        "trace.overhead_ratio": _ratio(traced.wall_cal, wall_cal),
    })
    metrics.pop("sim.calls")
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 workdir: Path, workload=None) -> dict:
    """Measure one workload and return its full record."""
    from workloads import WORKLOADS
    workload = workload or WORKLOADS[name](seed)
    run = measure(workload, seconds, trace, workdir)
    ops = run.ops + ([run.traced] if run.traced else [])
    units = dict(PER_LAYER if trace else END_TO_END)
    values = per_layer_metrics(run, workload) if trace \
        else end_to_end_metrics(run)
    attempted, failed, failures = summarize(ops)
    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "result_digest": run.ops[0].digest,
        "counts": run.ops[0].counts,
        "wall_s": [op.wall_s for op in run.ops],
        "wall_cal": [op.wall_cal for op in run.ops],
        "setup_s": run.setup_s,
        "failures": failures,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": values[key], "unit": unit}
                    for key, unit in units.items()},
    }


def _print_record(record: dict) -> None:
    for msg in record["failures"]:
        print(f"FAILED {record['workload']}: {msg}")
    print(f"result_digest {record['workload']} seed={record['seed']} "
          f"{record['result_digest']}")
    # Raw seconds vary with the shared host's speed; the contract metric
    # is wall_cal, but users read seconds.
    print(f"  {'wall_s (median, raw)':38s} "
          f"{statistics.median(record['wall_s']):>16.6g} s")
    for key, metric in record["metrics"].items():
        print(f"  {key:38s} {metric['value']:>16.6g} {metric['unit']}")
    print(RECORD_PREFIX + json.dumps(record, sort_keys=True))
    print(json.dumps({key: record[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))


def run_all(args) -> int:
    """Every workload in its own process, so each reports its own peak
    RSS; prints one table (with the raw median seconds beside the
    contract metrics) and, last, a JSON object by workload."""
    from workloads import WORKLOADS
    results, raw = {}, {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{name}: exited with code {proc.returncode}",
                  file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
        record = json.loads(lines[-2][len(RECORD_PREFIX):])
        raw[name] = statistics.median(record["wall_s"])
    print(f"{'workload':24s} {'metric':38s} {'value':>14s} unit  "
          f"attempted failed")
    for name, result in results.items():
        rows = [("wall_s", {"value": raw[name], "unit": "s"})]
        for key, metric in rows + list(result["metrics"].items()):
            print(f"{name:24s} {key:38s} {metric['value']:>14.6g} "
                  f"{metric['unit']:5s} {result['attempted']:9d} "
                  f"{result['failed']:6d}")
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {SRC}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    from workloads import WORKLOADS
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of "
                     f"{sorted(WORKLOADS)} or 'all'")
    work_root = ROOT / ".perfbench_work"
    workdir = work_root / str(os.getpid())
    try:
        record = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass
    _print_record(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
