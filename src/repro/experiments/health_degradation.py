"""Ablation A15 — the health subsystem under persistent degradation.

A five-replica deployment serves one closed-loop client while one replica
silently drops every message for a two-second window (a persistent
degradation, not a crash: the failure detector never fires).  Without the
health subsystem the selection model starves — the degraded replica's
window never refreshes, its stale-good F(t) keeps winning the tie-break,
and every in-window request burns the full response timeout.  With the
health subsystem the replica is suspected, quarantined, routed around,
and re-admitted through probation probes once the window lifts.

The table reports the timely fraction inside the degradation window, the
overall timely fraction, and the number of quarantine transitions.
"""

from __future__ import annotations

import argparse
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..core.qos import QoSSpec
from ..core.selection import DynamicSelectionPolicy
from ..deployment import SERVICE, Deployment
from ..faultinject import DegradationFault, FaultSchedule
from ..gateway.handlers.timing_fault import TimingFaultClientHandler
from ..health import HealthConfig, HealthState
from ..rng import RNGManager
from ..sim.random import Constant
from .harness import average, print_table
from .parallel import run_sweep

__all__ = ["DegradationPoint", "run_one", "run", "main"]

#: run_all passes ``--workers`` through to :func:`main`.
PARALLEL_CAPABLE = True

REPLICAS = tuple(f"s-{i + 1}" for i in range(5))
WINDOW_START, WINDOW_END = 500.0, 2500.0


@dataclass(frozen=True)
class DegradationPoint:
    """Averaged metrics for one (variant) row of the comparison."""

    variant: str
    window_timely_fraction: float
    overall_timely_fraction: float
    quarantine_transitions: float
    runs: int


def _deploy(
    seed: int, fault_seed: int, with_health: bool
) -> Tuple[Deployment, TimingFaultClientHandler]:
    schedule = FaultSchedule(
        degradations=(
            DegradationFault(
                host=REPLICAS[0],
                start_ms=WINDOW_START,
                end_ms=WINDOW_END,
                omission_probability=1.0,
            ),
        )
    )
    deployment = Deployment(
        seed, schedule=schedule, wire=RNGManager(fault_seed)
    )
    for host in REPLICAS:
        deployment.add_server(host, service_time=Constant(8.0))
    health = HealthConfig(
        suspect_after=2,
        quarantine_after=1,
        probation_after=2,
        backoff_initial_ms=400.0,
        backoff_factor=2.0,
        backoff_max_ms=3200.0,
    )
    client, _stub = deployment.add_client(
        "client-1",
        QoSSpec(SERVICE, 100.0, 0.9),
        rng=deployment.streams.stream("client-1.policy"),
        policy=DynamicSelectionPolicy(crash_tolerance=0),
        response_timeout_factor=3.0,
        probe_interval_ms=200.0,
        health_config=health if with_health else None,
    )
    deployment.inject(schedule)
    return deployment, client


def run_one(
    with_health: bool,
    seed: int,
    fault_seed: int = 11,
    num_requests: int = 150,
):
    """One run; returns (window fraction, overall fraction, transitions)."""
    deployment, client = _deploy(seed, fault_seed, with_health)
    sim = deployment.sim
    outcomes = []

    def load():
        for i in range(num_requests):
            t0 = sim.now
            event = deployment.invoke("client-1", i)
            yield event
            outcomes.append((t0, event.value))
            yield sim.timeout(5.0)

    sim.spawn(load(), name="load.client-1")
    sim.run()
    sim.run(until=6000.0)  # let re-admission probes finish

    in_window = [
        v.timely for t0, v in outcomes if WINDOW_START <= t0 < WINDOW_END
    ]
    overall = [v.timely for _t0, v in outcomes]
    transitions = 0
    if client.health is not None:
        transitions = sum(
            1
            for e in client.health.events
            if e.new_state is HealthState.QUARANTINED
        )
    return (
        sum(in_window) / max(len(in_window), 1),
        sum(overall) / max(len(overall), 1),
        transitions,
    )


def _degradation_point(params, seed: int, repetition: int):
    """Parallel-runner task: one variant run at one scenario seed."""
    with_health, num_requests = params
    return run_one(with_health, seed, num_requests=num_requests)


def run(
    seeds: Sequence[int] = (0, 1, 2),
    num_requests: int = 150,
    workers: int = 1,
) -> List[DegradationPoint]:
    """Compare the health-enabled client against the no-health baseline.

    ``workers`` fans the ``(variant, seed)`` grid across processes via
    :mod:`repro.experiments.parallel`; repetition-ordered merging keeps
    the averaged table bit-identical for any worker count.
    """
    grid = [
        (with_health, num_requests)
        for with_health, _name in ((True, "health"), (False, "no-health"))
    ]
    sweep = run_sweep(_degradation_point, grid, seeds=seeds, workers=workers)
    points = []
    for (_, name), values in zip(
        ((True, "health"), (False, "no-health")), sweep.by_point()
    ):
        window, overall, transitions = zip(*values)
        points.append(
            DegradationPoint(
                variant=name,
                window_timely_fraction=average(window),
                overall_timely_fraction=average(overall),
                quarantine_transitions=average(transitions),
                runs=len(seeds),
            )
        )
    return points


def main(argv: Optional[Sequence[str]] = None) -> None:
    """Print the persistent-degradation comparison table.

    ``--workers N`` runs the sweep through the parallel engine (the
    nightly A15 acceptance invocation uses ``--workers 2``); the table
    is bit-identical to the serial run.
    """
    parser = argparse.ArgumentParser(description="A15 health degradation")
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for the sweep (default 1 = serial)",
    )
    args = parser.parse_args(argv)
    started = time.perf_counter()
    points = run(workers=args.workers)
    rows = [
        (
            p.variant,
            p.window_timely_fraction,
            p.overall_timely_fraction,
            p.quarantine_transitions,
        )
        for p in points
    ]
    print_table(
        "Persistent degradation: s-1 drops all traffic in [500, 2500) ms "
        "(deadline 100 ms, Pc = 0.9)",
        ["variant", "window timely", "overall timely", "quarantines"],
        rows,
    )
    print(
        f"[A15 sweep: {time.perf_counter() - started:.1f}s "
        f"with {max(args.workers, 1)} worker(s)]"
    )


if __name__ == "__main__":
    main()
