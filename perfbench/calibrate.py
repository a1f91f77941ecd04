"""Machine-speed calibration by a fixed reference loop.

On a shared machine the host's speed drifts by 10-50% over seconds to
minutes, so raw host times of one workload do not repeat between runs.
The benchmark therefore times :func:`reference_chunk` before the first
run of a pass and after every run, and rescales each run's host time by
how fast the chunk ran around it (:func:`calibrated`)::

    calibrated = run_s * (REFERENCE_S / chunk_s) ** SENSITIVITY

``REFERENCE_S`` is the chunk's median time on the machine the benchmark
was defined on (2-vCPU x86-64 VM, CPython 3.11), so calibrated times
read as seconds at that machine's quiet speed. The chunk is a small
discrete-event loop (heap, slotted objects, method calls, dict counts):
the same kinds of work as the simulator, and none of its code, so a
change to ``src/repro`` cannot move it.

``SENSITIVITY`` is how much of the chunk's slow-down the simulator
shares: the tight chunk slows more than the simulation when the machine
is busy, so a full correction (1.0) over-corrects. It was set from
recorded passes on that machine (parsec-block, six seeds; serving-open,
eight seeds); README.md gives the spreads for each value tried.
"""

import heapq
import time

#: Iterations of one reference chunk.
REFERENCE_EVENTS = 3000
#: Median host time of one chunk on the reference machine.
REFERENCE_S = 0.0021
#: Share of the chunk's relative slow-down that a run's time shares.
SENSITIVITY = 0.8
#: Checksum of one chunk's result: proof that the work was done.
_CHECKSUM = 605


class _Node:
    __slots__ = ('load', 'hits')

    def __init__(self):
        self.load = 0
        self.hits = 0

    def tick(self, amount):
        self.load += amount
        self.hits += 1
        return self.load & 7


def reference_chunk():
    """Run the reference loop; returns a checksum of its result."""
    nodes = [_Node() for __ in range(16)]
    heap = [(i, i, nodes[i]) for i in range(16)]
    counts = {}
    seq = len(heap)
    x = 12345
    for __ in range(REFERENCE_EVENTS):
        now, __, node = heapq.heappop(heap)
        x = (x * 1103515245 + 12345) & 0x7fffffff
        key = node.tick(x & 15)
        counts[key] = counts.get(key, 0) + 1
        seq += 1
        heapq.heappush(heap, (now + (x >> 20) + 1, seq, nodes[x % 16]))
    return sum(k * v for k, v in counts.items()) % 9973


def timed_chunk():
    """Host seconds one reference chunk takes right now."""
    started = time.perf_counter()
    checksum = reference_chunk()
    elapsed = time.perf_counter() - started
    if checksum != _CHECKSUM:
        raise RuntimeError('reference chunk checksum %d != %d'
                           % (checksum, _CHECKSUM))
    return elapsed


def calibrated(host_s, chunk_s):
    """``host_s`` seconds measured while a chunk took ``chunk_s``,
    rescaled to the reference speed."""
    return host_s * (REFERENCE_S / chunk_s) ** SENSITIVITY
