"""RL002 clean: time comes from the sim clock only."""


def elapsed(sim, started_ms: float) -> float:
    return sim.now - started_ms
