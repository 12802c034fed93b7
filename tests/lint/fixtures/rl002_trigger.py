"""RL002 trigger: host-time reads inside a simulation layer."""

import time
from datetime import datetime


def stamp() -> float:
    started = datetime.now().timestamp()
    return time.time() - started


def overhead(sim) -> float:
    t0 = time.perf_counter()
    _ = sim.now
    return time.perf_counter() - t0
