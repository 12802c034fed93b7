"""Ablation A14 — the adaptation transient around a crash.

Figures 4/5 of the paper report run-level averages; this harness looks
*inside* a run: the timeline of timely/late replies around a crash of the
best replica, bucketed into time windows.  The interesting quantity is
the transient — the window between the crash and the membership eviction
— where the paper's concurrent redundancy keeps serving while a
single-replica policy drops requests.

The output is a time series (one row per bucket), i.e. the data behind a
figure the paper did not include but whose §5.3.2 argument predicts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from ..core.baselines import SingleFastestPolicy
from ..core.qos import QoSSpec
from ..core.selection import SelectionPolicy
from ..sim.random import Constant
from ..workload.scenarios import Scenario, ScenarioConfig
from .harness import print_table

__all__ = ["TimelineBucket", "run_one", "run", "main"]

CRASH_AT_MS = 10_000.0
BUCKET_MS = 2_500.0
RUN_REQUESTS = 100
THINK_MS = 250.0


@dataclass(frozen=True)
class TimelineBucket:
    """Reply statistics for one time window of the run."""

    policy: str
    start_ms: float
    end_ms: float
    requests: int
    failures: int
    timeouts: int

    @property
    def failure_rate(self) -> float:
        """Fraction of this bucket's requests that missed the deadline."""
        if self.requests == 0:
            return 0.0
        return self.failures / self.requests


def run_one(
    policy_factory: Optional[Callable[[], SelectionPolicy]],
    policy_name: str,
    deadline_ms: float = 170.0,
    min_probability: float = 0.9,
    seed: int = 0,
    horizon_ms: float = 30_000.0,
) -> List[TimelineBucket]:
    """One traced run; returns the reply timeline in buckets."""
    # A deliberately sluggish failure detector (~2 s to evict) widens the
    # window during which selection must survive on redundancy alone —
    # the regime §5.3.2's hedge exists for.
    scenario = Scenario(
        ScenarioConfig(
            seed=seed,
            trace=True,
            response_timeout_factor=3.0,
            fd_poll_interval_ms=1000.0,
        )
    )
    scenario.add_client(
        "client-1",
        QoSSpec(scenario.config.service, deadline_ms, min_probability),
        policy=policy_factory() if policy_factory else None,
        num_requests=RUN_REQUESTS,
        think_time=Constant(THINK_MS),
    )
    scenario.schedule_crash("replica-1", at_ms=CRASH_AT_MS)
    scenario.run_to_completion()

    # Reconstruct per-reply instants from the trace.
    events: List[tuple] = []  # (time, failed, timed_out)
    for record in scenario.tracer.records:
        if record.kind == "client.reply":
            events.append((record.time, not record.data["timely"], False))
        elif record.kind == "client.timeout":
            events.append((record.time, True, True))

    buckets = []
    start = 0.0
    while start < horizon_ms:
        end = start + BUCKET_MS
        members = [e for e in events if start <= e[0] < end]
        buckets.append(
            TimelineBucket(
                policy=policy_name,
                start_ms=start,
                end_ms=end,
                requests=len(members),
                failures=sum(1 for e in members if e[1]),
                timeouts=sum(1 for e in members if e[2]),
            )
        )
        start = end
    return buckets


def run(seed: int = 0) -> List[TimelineBucket]:
    """Timelines for the paper's policy and single-fastest."""
    rows = []
    rows.extend(run_one(None, "dynamic (paper)", seed=seed))
    rows.extend(run_one(SingleFastestPolicy, "single-fastest", seed=seed))
    return rows


def main() -> None:
    """Print the timeline table (crash at t = 10 s)."""
    buckets = run()
    rows = [
        (
            b.policy,
            f"{b.start_ms / 1000:.1f}-{b.end_ms / 1000:.1f}s",
            b.requests,
            b.failures,
            b.timeouts,
            b.failure_rate,
        )
        for b in buckets
        if b.requests
    ]
    print_table(
        "Adaptation timeline around a crash of the best replica at t=10 s "
        "(deadline 170 ms, Pc = 0.9)",
        ["policy", "window", "requests", "failures", "timeouts", "rate"],
        rows,
    )


if __name__ == "__main__":
    main()
