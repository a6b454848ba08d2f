"""A fixed reference computation that measures how fast the host runs
Python right now.

On a shared machine the same simulation takes anywhere from 1x to 2x
as long, in phases that last seconds to minutes (measured on a 2-vCPU
container: a K=4 fabric operation moved between 0.9 s and 2.2 s within
three minutes, while its result digest stayed identical).  Raw seconds
then vary more between benchmark runs than any bound worth enforcing.
The benchmark therefore times this loop right before the first
operation and right after every run call, and reports the run's mean
operation time in units of the run's mean slice (``wall_cal``).

The loop shares no code with the simulator, so a change to the
simulator moves ``wall_cal`` exactly as it moves raw seconds.  It
resembles the simulator's hot path: a binary-heap event queue of
tuples, slotted objects, dict and deque traffic and a bounded record
deque.  Its memory stays small (about 3 MB) so that it never sets the
process's peak RSS; a variant whose working set grew to 15 MB set the
fabric workload's peak and tracked the node workloads' speed no better.
"""

from __future__ import annotations

import gc
import heapq
import time
from collections import deque

#: Steps per slice: 0.2 to 0.4 s on a 2-vCPU container, by the hour.
STEPS = 120_000


class _Node:
    __slots__ = ("id", "count", "queue", "peer")

    def __init__(self, ident: int) -> None:
        self.id = ident
        self.count = 0
        self.queue: deque = deque()
        self.peer = None


def reference_work(steps: int = STEPS) -> int:
    """The fixed computation; returns a checksum so nothing is elided."""
    nodes = [_Node(i) for i in range(512)]
    for i, node in enumerate(nodes):
        node.peer = nodes[(i * 7 + 3) % 512]
    heap = [(i, i, nodes[i]) for i in range(512)]
    heapq.heapify(heap)
    table: dict = {}
    records: deque = deque(maxlen=4096)
    retired = 0
    x, seq = 12345, 512
    for _ in range(steps):
        now, _seq, node = heapq.heappop(heap)
        node.count += 1
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = (node.id, x & 31)
        table[key] = table.get(key, 0) + 1
        node.queue.append((now, x))
        if len(node.queue) > 4:
            records.append(node.queue.popleft())
            retired += 1
        seq += 1
        heapq.heappush(heap, (now + 1 + (x & 63), seq,
                              node.peer if x & 1 else node))
    return retired + len(records) + len(table)


def slice_s() -> float:
    """Host seconds of one run of :func:`reference_work`.

    The cyclic garbage collector is off while it runs, so the slice
    does not depend on how many objects the simulation left alive.
    """
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        reference_work()
        return time.perf_counter() - start
    finally:
        gc.enable()
