"""A fixed pure-Python reference workload that calibrates host speed.

The host this benchmark runs on is shared: its speed drifts by tens of
percent within minutes (NOTES.md, "Host noise").  Host metrics are
therefore scaled by a reference measured in the same process right next
to each timed interval.  The reference is a tiny discrete-event loop of
the same kind of work as the simulator (a heap of generator processes,
dict updates, small objects, byte slicing) and uses no repro code.  It
runs with the cyclic collector off, so a collection triggered by its
allocations does not walk the program's heap: what the program keeps
alive cannot slow the reference.
"""

from __future__ import annotations

import gc
import heapq
import time

#: reference seconds per chunk: what one chunk took on the 2-core host the
#: benchmark was defined on, so scaled values read in that host's seconds
NOMINAL_S = 0.017
#: events per chunk
EVENTS = 8000
_PROCS = 200
_BUF = bytes(range(256)) * 4


class _Slot:
    __slots__ = ("key", "data", "at")

    def __init__(self, key, data, at):
        self.key = key
        self.data = data
        self.at = at


def chunk() -> float:
    """Run one fixed chunk of reference work; return its wall seconds."""
    table: dict = {}
    clock = [0.0]

    def proc(x):
        while True:
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            table[x & 4095] = _Slot(x, _BUF[x & 511:(x & 511) + 512],
                                    clock[0])
            other = table.get((x >> 3) & 4095)
            yield ((x & 255) + 1) * 1e-4 + (len(other.data) * 1e-9
                                            if other is not None else 0.0)

    was_enabled = gc.isenabled()
    gc.disable()
    started = time.perf_counter()
    heap = []
    for i in range(_PROCS):
        gen = proc(i)
        heapq.heappush(heap, (next(gen), i, gen))
    for _ in range(EVENTS):
        now, i, gen = heapq.heappop(heap)
        clock[0] = now
        heapq.heappush(heap, (now + gen.send(None), i, gen))
    spent = time.perf_counter() - started
    if was_enabled:
        gc.enable()
    return spent


def scale(seconds: float, reference_s: float) -> float:
    """``seconds`` measured next to a chunk that took ``reference_s``,
    expressed in seconds of the host the nominal chunk time came from."""
    return seconds * NOMINAL_S / reference_s
