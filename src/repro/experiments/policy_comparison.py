"""Ablation A1 — the dynamic policy vs. related-work baselines.

Runs the Fig. 4 workload (deadline 140 ms, Pc = 0.9 for client 2) under
every selection policy the paper's §1/§7 survey implies, plus the paper's
own, and reports observed failure probability, mean redundancy and mean
response time.  Expected shape: the dynamic policy meets the failure
budget with far less redundancy than send-to-all, while single-replica
policies (fastest / nearest / probe / random) blow the budget at tight
deadlines.

Also includes ablation A4: the dynamic policy with overhead compensation
disabled (selection against ``t`` instead of ``t − δ``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from ..core.baselines import (
    AllReplicasPolicy,
    FixedRedundancyPolicy,
    LowestMeanPolicy,
    NearestPolicy,
    ProbeEstimatePolicy,
    RandomPolicy,
    RoundRobinPolicy,
    SingleFastestPolicy,
)
from ..core.selection import DynamicSelectionPolicy, SelectionPolicy
from ..gateway.handlers.passive import PrimaryBackupPolicy
from .harness import average, print_table, run_two_client_experiment

__all__ = ["PolicyResult", "POLICY_FACTORIES", "run", "main"]


def _dynamic() -> SelectionPolicy:
    return DynamicSelectionPolicy(crash_tolerance=1)


def _dynamic_uncompensated() -> SelectionPolicy:
    return DynamicSelectionPolicy(crash_tolerance=1, compensate_overhead=False)


#: Name → zero-argument factory for every policy in the comparison.
POLICY_FACTORIES: Dict[str, Callable[[], SelectionPolicy]] = {
    "dynamic (paper)": _dynamic,
    "dynamic, no t-delta": _dynamic_uncompensated,
    "all-replicas": AllReplicasPolicy,
    "single-fastest": SingleFastestPolicy,
    "lowest-mean": LowestMeanPolicy,
    "nearest": NearestPolicy,
    "probe-estimate": ProbeEstimatePolicy,
    "random-1": lambda: RandomPolicy(redundancy=1),
    "round-robin-1": lambda: RoundRobinPolicy(redundancy=1),
    "fixed-2": lambda: FixedRedundancyPolicy(redundancy=2),
    "primary-backup": PrimaryBackupPolicy,
}


@dataclass(frozen=True)
class PolicyResult:
    """Averaged metrics for one policy."""

    policy: str
    failure_probability: float
    mean_redundancy: float
    mean_response_ms: float
    runs: int


def run(
    deadline_ms: float = 140.0,
    min_probability: float = 0.9,
    seeds: Sequence[int] = (0, 1, 2),
    policies: Optional[Dict[str, Callable[[], SelectionPolicy]]] = None,
    num_requests: int = 50,
) -> List[PolicyResult]:
    """Compare all policies on the same workload and seeds."""
    chosen = policies if policies is not None else POLICY_FACTORIES
    results = []
    for name, factory in chosen.items():
        per_seed = [
            run_two_client_experiment(
                deadline_ms=deadline_ms,
                min_probability=min_probability,
                seed=seed,
                num_requests=num_requests,
                policy_factory=factory,
            )
            for seed in seeds
        ]
        results.append(
            PolicyResult(
                policy=name,
                failure_probability=average(
                    [r.failure_probability for r in per_seed]
                ),
                mean_redundancy=average(
                    [r.client2.mean_redundancy for r in per_seed]
                ),
                mean_response_ms=average(
                    [r.client2.mean_response_ms for r in per_seed]
                ),
                runs=len(per_seed),
            )
        )
    return results


def main() -> None:
    """Print the policy-comparison table."""
    results = run()
    budget = 1.0 - 0.9
    rows = [
        (
            r.policy,
            r.failure_probability,
            "yes" if r.failure_probability <= budget else "NO",
            r.mean_redundancy,
            r.mean_response_ms,
        )
        for r in sorted(results, key=lambda r: r.failure_probability)
    ]
    print_table(
        "Policy comparison (deadline 140 ms, Pc = 0.9, budget 0.10)",
        ["policy", "failure prob", "meets budget", "mean redundancy",
         "mean response ms"],
        rows,
    )


if __name__ == "__main__":
    main()
