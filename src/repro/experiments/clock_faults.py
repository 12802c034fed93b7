"""Ablation A18 — clock faults: skew-tolerant vs absolute-timestamp estimation.

A five-replica deployment serves an open-loop Poisson workload (~48 %
fleet utilization when traffic spreads) while the clock plane
de-synchronizes the fleet: ``s-1``'s clock is stepped 10 s into the
future and then frozen (so it reports far-future absolute stamps and
zero durations), ``s-2``/``s-3`` drift at ±500 ppm, and ``s-4`` takes
an NTP-style ±200 ms step mid-window.  No service time actually
changes — every fault is in the *measurement* plane.

Three variants expose where the damage comes from:

* **naive** — an implementation that assumes synchronized clocks: it
  computes the gateway delay from the replica's absolute reply stamp and
  sanitizes impossible durations instead of rejecting the clock behind
  them (negatives clamped to zero, implausibly large ones discarded as
  outliers).  The frozen replica reports zero queue/service time and a
  far-future send stamp, so the naive estimator predicts R ≈ 0 for it,
  routes *everything* to it, and never learns better (even the
  queue-scaled extension is blind here: scaling a zero-valued delay pmf
  by the real queue depth still predicts zero): under the open-loop
  load the replica's FIFO queue grows without bound and the in-window
  timely fraction collapses.
* **same-clock** — the repository's estimation discipline (every trusted
  interval measured on the gateway's own clock; incoherent reports
  rejected) without the health subsystem.  Rejection alone is not
  enough: a rejected sample also carries the replica's honest queue
  report, so refusing every report from the frozen replica *starves*
  the model of the one signal that would steer traffic away — the
  variant avoids the collapse but keeps paying for mid-window detours
  onto the frozen replica.
* **tolerant** — same-clock estimation plus the clock-sanity health
  signal: incoherent reports accumulate into a quarantine (reason
  ``"clock_fault"``), so the replica whose *measurements* cannot be
  trusted is removed outright instead of being endlessly re-sampled,
  and probation re-admits it once its clock is resynced.

Drift at ±500 ppm stays inside the coherence slack and is tolerated by
every same-clock variant; only replicas with a real clock fault (the
frozen ``s-1`` persistently, the stepped ``s-4`` occasionally) ever
draw a ``"clock_fault"`` quarantine.
"""

from __future__ import annotations

import argparse
import json
import time
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

from ..core.estimator import QueueScaledEstimator
from ..core.qos import QoSSpec
from ..core.selection import DynamicSelectionPolicy
from ..deployment import SERVICE, Deployment
from ..faultinject import ClockFault, FaultSchedule
from ..gateway.handlers.timing_fault import (
    PerformanceUpdate,
    TimingFaultClientHandler,
    _PendingRequest,
)
from ..health import HealthConfig, HealthState
from ..sim.random import Constant, RandomStreams
from .harness import average, print_table
from .parallel import run_sweep

__all__ = [
    "ClockPoint",
    "NaiveAbsoluteTimestampClient",
    "clock_fault_schedule",
    "deploy",
    "run_one",
    "run",
    "export_clock_bench",
    "main",
]

#: run_all passes ``--workers`` through to :func:`main`.
PARALLEL_CAPABLE = True

REPLICAS = tuple(f"s-{i + 1}" for i in range(5))
WINDOW_START, WINDOW_END = 500.0, 2500.0
DEADLINE_MS = 100.0
SERVICE_MS = 8.0
#: Open-loop arrival gap: ~0.3 req/ms over five 8 ms servers is a 48 %
#: fleet utilization — comfortable when traffic spreads, hopeless
#: (utilization 2.4) when a naive estimator funnels it onto one replica.
INTERARRIVAL_MS = 3.3

#: The three comparison rows, in table order.
VARIANTS = ("naive", "same-clock", "tolerant")


@dataclass(frozen=True)
class ClockPoint:
    """Averaged metrics for one variant row of the comparison."""

    variant: str
    window_timely_fraction: float
    overall_timely_fraction: float
    clock_quarantines: float
    clock_rejections: float
    runs: int


class NaiveAbsoluteTimestampClient(TimingFaultClientHandler):
    """The A18 baseline: trusts replica-reported absolute timestamps.

    Three classic synchronized-clock assumptions, each a one-method
    departure from the tolerant handler:

    * the gateway delay is derived from the replica's absolute reply
      stamp (``t4 − sent_at``) — a cross-clock subtraction;
    * physically impossible durations are *sanitized* instead of
      rejected — negatives clamped to zero, implausibly large ones
      dropped as outliers — so a faulty clock's flattering reports
      still enter the windows while its one honest-looking giant
      sample (the duration straddling the 10 s step) is thrown away;
    * no coherence check at all — every surviving report is taken at
      face value.
    """

    #: Reports above this are discarded as "obvious outliers" — the
    #: sanitizer that looks responsible and is exactly what blinds the
    #: naive stack to the step it should have been alarmed by.
    OUTLIER_MS = 1_000.0

    def _admit_perf_sample(
        self, perf: PerformanceUpdate
    ) -> Optional[PerformanceUpdate]:
        if (
            perf.service_time_ms > self.OUTLIER_MS
            or perf.queue_delay_ms > self.OUTLIER_MS
        ):
            return None
        if perf.service_time_ms < 0.0 or perf.queue_delay_ms < 0.0:
            return replace(
                perf,
                service_time_ms=max(perf.service_time_ms, 0.0),
                queue_delay_ms=max(perf.queue_delay_ms, 0.0),
            )
        return perf

    def _reply_coherent(
        self, pending: _PendingRequest, perf: PerformanceUpdate, t4: float
    ) -> bool:
        return True

    def _gateway_delay_sample(
        self, pending: _PendingRequest, perf: PerformanceUpdate, t4: float
    ) -> float:
        # Cross-clock: the reply leg by the replica's own send stamp.  A
        # stepped/frozen replica clock makes this wildly wrong, and the
        # repository's non-negativity clamp turns "wrong" into "zero" —
        # the estimator then predicts an instant replica forever.
        return max(0.0, t4 - perf.sent_at_ms)


def clock_fault_schedule() -> FaultSchedule:
    """The A18 clock-fault windows (pure measurement-plane faults).

    ``s-1`` is stepped 10 s ahead and then frozen for the whole window:
    every duration it reports reads as zero and its reply stamps sit far
    in the future — the estimator's most seductive lie, because a frozen
    replica looks *instant*, so a trusting client keeps funneling
    traffic onto its silently growing queue.  ``s-2``/``s-3`` drift
    apart at ±500 ppm; ``s-4`` takes a 200 ms step for the middle of the
    window (its resync at 2000 ms also exercises the backwards-step →
    negative-duration rejection path).
    """
    return FaultSchedule(
        clocks=(
            ClockFault(
                host=REPLICAS[0], start_ms=WINDOW_START, end_ms=WINDOW_END,
                kind="step", step_ms=10_000.0,
            ),
            ClockFault(
                host=REPLICAS[0], start_ms=WINDOW_START + 1.0,
                end_ms=WINDOW_END, kind="freeze",
            ),
            ClockFault(
                host=REPLICAS[1], start_ms=WINDOW_START, end_ms=WINDOW_END,
                kind="drift", drift_ppm=500.0,
            ),
            ClockFault(
                host=REPLICAS[2], start_ms=WINDOW_START, end_ms=WINDOW_END,
                kind="drift", drift_ppm=-500.0,
            ),
            ClockFault(
                host=REPLICAS[3], start_ms=1000.0, end_ms=2000.0,
                kind="step", step_ms=200.0,
            ),
        )
    )


def _health_config(variant: str) -> Optional[HealthConfig]:
    if variant == "naive" or variant == "same-clock":
        return None
    return HealthConfig(
        suspect_after=2,
        quarantine_after=1,
        recover_after=2,
        probation_after=2,
        backoff_initial_ms=400.0,
        backoff_factor=2.0,
        backoff_max_ms=3200.0,
        adaptive_timeout_quantile=None,
        clock_anomaly_after=3,
        # On this jitter-free LAN the probed round trip is a tight
        # baseline, so a 3x ceiling catches a frozen clock's zero-duration
        # reports from the very first reply (before they can poison the
        # sliding windows).
        clock_deflation_factor=3.0,
    )


def deploy(
    seed: int, variant: str
) -> Tuple[Deployment, TimingFaultClientHandler]:
    """The A18 deployment running ``variant``, clock schedule armed."""
    deployment = Deployment(seed)
    for host in REPLICAS:
        deployment.add_server(host, service_time=Constant(SERVICE_MS))
    client, _stub = deployment.add_client(
        "client-1",
        QoSSpec(SERVICE, DEADLINE_MS, 0.9),
        NaiveAbsoluteTimestampClient
        if variant == "naive"
        else TimingFaultClientHandler,
        rng=deployment.streams.stream("client-1.policy"),
        policy=DynamicSelectionPolicy(crash_tolerance=0),
        # Queue-scaled F keeps the open-loop load spread across the
        # fleet (A16's governed idiom); the naive variant gets the same
        # estimator, so its collapse is purely the clock-trust bug.
        estimator_factory=lambda repo: QueueScaledEstimator(
            repo, bin_width_ms=1.0
        ),
        response_timeout_factor=3.0,
        probe_interval_ms=200.0,
        # Staleness probes keep every variant's honest signals (probed
        # RTT, live queue length) fresh even for an avoided replica, so
        # nobody wins by accident of a stale record: the naive stack
        # re-admits the frozen replica on the strength of its zeroed
        # duration pmf — which also nullifies the queue scaling — while
        # the coherent stacks keep their pre-fault model of it.
        probe_staleness_ms=100.0,
        bootstrap_probes=True,
        health_config=_health_config(variant),
    )
    deployment.inject(clock_fault_schedule())
    return deployment, client


def run_one(
    variant: str,
    seed: int,
    num_requests: int = 900,
) -> Tuple[float, float, int, int]:
    """One run; returns (window timely, overall timely, clock
    quarantines, clock rejections)."""
    deployment, client = deploy(seed, variant)
    sim = deployment.sim
    outcomes = []
    # Open-loop load: requests keep arriving whether or not earlier ones
    # returned, so a selection policy that funnels everything onto one
    # (measurement-faulty) replica builds a genuinely unbounded queue —
    # a closed loop would self-throttle and mask the collapse.
    arrival_rng = RandomStreams(seed=seed).stream("a18.arrivals")

    def waiter(t0: float, event):
        yield event
        outcomes.append((t0, event.value))

    def load():
        for i in range(num_requests):
            event = deployment.invoke("client-1", i)
            sim.spawn(waiter(sim.now, event), name=f"wait.{i}")
            yield sim.timeout(
                float(arrival_rng.exponential(INTERARRIVAL_MS))
            )

    sim.spawn(load(), name="load.open")
    sim.run()
    sim.run(until=max(sim.now, 6000.0))  # let re-admission probes settle

    in_window = [
        v.timely for t0, v in outcomes if WINDOW_START <= t0 < WINDOW_END
    ]
    overall = [v.timely for _t0, v in outcomes]
    quarantines = 0
    if client.health is not None:
        quarantines = sum(
            1
            for e in client.health.events
            if e.new_state is HealthState.QUARANTINED
            and e.reason == "clock_fault"
        )
    return (
        sum(in_window) / max(len(in_window), 1),
        sum(overall) / max(len(overall), 1),
        quarantines,
        client.clock_rejections,
    )


def _clock_point(params, seed: int, repetition: int):
    """Parallel-runner task: one variant run at one scenario seed."""
    variant, num_requests = params
    return run_one(variant, seed, num_requests=num_requests)


def run(
    seeds: Sequence[int] = (0, 1, 2),
    num_requests: int = 900,
    workers: int = 1,
) -> List[ClockPoint]:
    """Compare the three estimation disciplines under the clock schedule.

    ``workers`` fans the ``(variant, seed)`` grid across processes via
    :mod:`repro.experiments.parallel`; repetition-ordered merging keeps
    the averaged table bit-identical for any worker count.
    """
    grid = [(variant, num_requests) for variant in VARIANTS]
    sweep = run_sweep(_clock_point, grid, seeds=seeds, workers=workers)
    points = []
    for variant, values in zip(VARIANTS, sweep.by_point()):
        window, overall, quarantines, rejections = zip(*values)
        points.append(
            ClockPoint(
                variant=variant,
                window_timely_fraction=average(window),
                overall_timely_fraction=average(overall),
                clock_quarantines=average(quarantines),
                clock_rejections=average(rejections),
                runs=len(seeds),
            )
        )
    return points


def export_clock_bench(points: Sequence[ClockPoint], path: str) -> None:
    """Write ``BENCH_clock.json`` (format: docs/PERFORMANCE.md)."""
    payload = {
        "benchmark": "a18-clock-faults",
        "unit": "fractions of issued requests",
        "description": (
            "Per-host clock faults (10 s step + freeze on s-1, ±500 ppm "
            "drift on s-2/s-3, 200 ms step on s-4) against three "
            "estimation disciplines: naive absolute-timestamp, "
            "same-clock, and same-clock plus clock-health quarantine."
        ),
        "points": [
            {
                "variant": p.variant,
                "window_timely_fraction": round(p.window_timely_fraction, 4),
                "overall_timely_fraction": round(p.overall_timely_fraction, 4),
                "clock_quarantines": round(p.clock_quarantines, 3),
                "clock_rejections": round(p.clock_rejections, 3),
            }
            for p in points
        ],
    }
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def main(argv: Optional[Sequence[str]] = None) -> None:
    """Print the clock-fault comparison table and export ``BENCH_clock.json``.

    ``--workers N`` runs the sweep through the parallel engine (the
    nightly A18 acceptance invocation uses ``--workers 2``); the table
    and the exported JSON are bit-identical to the serial run.
    """
    parser = argparse.ArgumentParser(description="A18 clock-fault tolerance")
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for the sweep (default 1 = serial)",
    )
    parser.add_argument(
        "--json",
        default="BENCH_clock.json",
        help="path of the exported benchmark artifact",
    )
    args = parser.parse_args(argv)
    started = time.perf_counter()
    points = run(workers=args.workers)
    rows = [
        (
            p.variant,
            p.window_timely_fraction,
            p.overall_timely_fraction,
            p.clock_quarantines,
            p.clock_rejections,
        )
        for p in points
    ]
    print_table(
        f"Clock faults in [{WINDOW_START:.0f}, {WINDOW_END:.0f}) ms: "
        "10 s step + freeze on s-1, ±500 ppm drift on s-2/s-3, 200 ms "
        f"step on s-4 (deadline {DEADLINE_MS:.0f} ms, Pc = 0.9)",
        ["variant", "window timely", "overall timely", "clock quarantines",
         "rejections"],
        rows,
    )
    export_clock_bench(points, args.json)
    print(f"wrote {args.json}")
    print(
        f"[A18 sweep: {time.perf_counter() - started:.1f}s "
        f"with {max(args.workers, 1)} worker(s)]"
    )


if __name__ == "__main__":
    main()
