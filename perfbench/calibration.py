"""A fixed calibration kernel that measures how fast the host CPU is now.

On a shared virtual machine the CPU time one piece of Python takes moves
by a fifth or more from minute to minute, as other guests load the
physical core and its caches.  Timing the simulation alone therefore
mixes the program's cost with the host's current speed.  The benchmark
interleaves short runs of this kernel with the simulation, about every
:data:`EVERY_S` CPU seconds, so both are timed under the same
conditions, and scales its host times to :data:`REFERENCE_S`: a host
time of the program is multiplied by ``REFERENCE_S`` over the kernel's
mean time in the same run.

The kernel does the kind of work the simulator does (a heap of
timestamped events, slotted objects, dictionary updates, integer and
float arithmetic) plus small numpy reductions like the estimator's.  It
touches no state of the program, so it cannot change a simulated
outcome.  Never change it: the scaled numbers of two commits are
comparable only when both ran the same kernel.
"""

from __future__ import annotations

import heapq
from time import process_time

import numpy as np

__all__ = ["EVERY_S", "REFERENCE_S", "sample"]

#: CPU seconds of simulation between two calibration samples.
EVERY_S = 0.1
#: The kernel's CPU time that host times are scaled to (its typical
#: time on the 2-vCPU x86-64 machine the benchmark was written on).
REFERENCE_S = 2.5e-3


class _Item:
    __slots__ = ("key", "weight")

    def __init__(self, key: int, weight: float) -> None:
        self.key = key
        self.weight = weight


_ITEMS = [_Item(i % 16, 1.0 + i / 64.0) for i in range(64)]
_VALUES = np.linspace(1.0, 200.0, 256)


def _kernel() -> float:
    heap = []
    state = {}
    push = heapq.heappush
    pop = heapq.heappop
    x = 12345
    for i in range(32):
        push(heap, (float(i), i, _ITEMS[i]))
    for i in range(1500):
        at, _, item = pop(heap)
        state[item.key] = state.get(item.key, 0.0) * 0.9 + at * item.weight
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        push(heap, (at + (x % 1000) / 10.0, i + 32, _ITEMS[x % 64]))
    total = sum(state.values())
    for _ in range(40):
        cumulative = np.cumsum(_VALUES)
        total += float(np.searchsorted(cumulative, cumulative[-1] * 0.5))
        total += float(np.exp(-_VALUES / 50.0).sum())
    return total


def sample() -> float:
    """CPU seconds of one run of the kernel."""
    started = process_time()
    _kernel()
    return process_time() - started
