"""Shared fixtures."""

import multiprocessing
import os
import time
from pathlib import Path

import pytest

from repro.harness import parallel
from repro.sim.invariants import InvariantViolation


def _in_worker() -> bool:
    return multiprocessing.parent_process() is not None


def _poison_raise(point):
    raise RuntimeError("poisoned sweep point: injected exception")


def _poison_hang(point):
    time.sleep(3600.0)


def _poison_hang_once(point):
    # Hangs on its first attempt (stamping a flag file first) and
    # completes on every later one — exercises timeout -> clean retry.
    # The flag file path travels in ``app_options["flag"]``.
    flag = Path(point.app_options["flag"])
    if not flag.exists():
        flag.write_text("first attempt")
        time.sleep(3600.0)
    return {"ok": True, "via": "retry", "seed": point.seed}


def _poison_crash(point):
    # Hard worker death (no exception, no result) in a worker; the serial
    # in-process fallback fails too — the unrecoverable-point case.
    if _in_worker():
        os._exit(17)
    raise RuntimeError("poisoned sweep point: crashes everywhere")


def _poison_child_crash(point):
    # Dies only inside a worker process; succeeds in-process — exercises
    # the graceful serial fallback after worker death.
    if _in_worker():
        os._exit(17)
    return {"ok": True, "via": "serial-fallback", "seed": point.seed}


def _poison_invariant(point):
    # A simulation whose invariant checker fired — exercises the
    # violation-verdict path (SweepInvariantError naming the point).
    raise InvariantViolation(
        ["poisoned: injected conservation failure"], tick=42)


POISON_KINDS = {
    "_poison_raise": _poison_raise,
    "_poison_hang": _poison_hang,
    "_poison_hang_once": _poison_hang_once,
    "_poison_crash": _poison_crash,
    "_poison_child_crash": _poison_child_crash,
    "_poison_invariant": _poison_invariant,
}


@pytest.fixture
def poison_kinds(monkeypatch):
    """Register the ``_poison_*`` sweep point kinds: failure injection
    that never runs a simulation.  Sweep workers fork after the test
    body starts, so they inherit the registration."""
    for kind, handler in POISON_KINDS.items():
        monkeypatch.setitem(parallel._KIND_HANDLERS, kind, handler)
