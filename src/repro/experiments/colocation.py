"""Ablation A12 — routing around co-location interference.

The paper's system model allows "a machine may host multiple replicas"
(§3) and lists host load as a prime source of timing faults.  Here two
services share hosts: the measured service (`analytics`, replicated on
all four hosts) and a noisy neighbour (`batch`, co-located on hosts 1–2
only) hammered by an open-loop client.  CPU contention (a coupled load
model) slows the analytics replicas on the shared hosts.

The question: does the timing fault handler's measurement loop *find*
the quiet hosts?  We compare the paper's dynamic policy against a
load-blind random policy of the same redundancy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from ..core.baselines import RandomPolicy
from ..core.qos import QoSSpec
from ..core.selection import SelectionPolicy
from ..proteus.manager import ServiceSpec
from ..replica.load import CoupledLoad, ServiceProfile
from ..sim.random import Constant, Exponential, Normal
from ..workload.scenarios import IntegerServant, Scenario, ScenarioConfig, make_interface
from .harness import average, print_table

__all__ = ["ColocationResult", "run_one", "run", "main"]

NOISY_HOSTS = ("replica-1", "replica-2")


@dataclass(frozen=True)
class ColocationResult:
    """Averaged metrics for one policy under co-location interference."""

    policy: str
    failure_probability: float
    noisy_host_share: float  # fraction of winning replies from noisy hosts
    mean_redundancy: float
    runs: int


def _build_scenario(seed: int) -> Scenario:
    activity_alpha = 2.0

    config = ScenarioConfig(
        seed=seed,
        num_replicas=4,
        service="analytics",
        service_mean_ms=80.0,
        service_sigma_ms=20.0,
    )
    scenario = Scenario(config)
    activity = scenario.manager.host_activity

    # Retrofit coupled load onto the analytics replicas: their profiles
    # were built by the Scenario; replace the load models in place.
    for host in config.replica_hosts():
        handler = scenario.manager.handler_on(host, service="analytics")
        handler.app.profile.load = CoupledLoad(activity, host, alpha=activity_alpha)

    # Deploy the noisy neighbour on the first two hosts.
    batch_interface = make_interface("batch", "crunch")
    spec = ServiceSpec(
        service="batch",
        servant_factory=lambda: IntegerServant(batch_interface),
        profile_factory=lambda host: ServiceProfile(
            default=Normal(60.0, 15.0),
            load=CoupledLoad(activity, host, alpha=activity_alpha),
        ),
        replication_level=len(NOISY_HOSTS),
    )
    scenario.manager.deploy(spec, list(NOISY_HOSTS))

    # An open-loop client hammers the batch service through a plain
    # broadcast handler (its QoS is irrelevant; its load is the point).
    from ..core.baselines import AllReplicasPolicy
    from ..gateway.handlers.timing_fault import TimingFaultClientHandler
    from ..orb.orb import Orb
    from ..workload.client import OpenLoopClient

    scenario.lan.add_host("batch-client")
    batch_handler = TimingFaultClientHandler(
        sim=scenario.sim,
        host="batch-client",
        transport=scenario.transport,
        group_comm=scenario.group_comm,
        interface=batch_interface,
        qos=QoSSpec("batch", 5_000.0, 0.0),
        policy=AllReplicasPolicy(),
        marshalling=scenario.marshalling,
        response_timeout_factor=2.0,
        rng=scenario.streams.stream("batch-client.policy"),
    )
    scenario.manager.gateway_for("batch-client").load_handler(batch_handler)
    batch_orb = Orb()
    batch_orb.register_interface(batch_interface)
    batch_orb.bind_interceptor("batch", batch_handler)
    OpenLoopClient(
        sim=scenario.sim,
        stub=batch_orb.stub("batch"),
        host="batch-client",
        streams=scenario.streams,
        interarrival=Exponential(120.0),
        method="crunch",
        num_requests=300,
    )
    return scenario


def run_one(
    policy_factory: Optional[Callable[[], SelectionPolicy]],
    policy_name: str,
    deadline_ms: float = 160.0,
    min_probability: float = 0.9,
    seeds: Sequence[int] = (0, 1, 2),
    num_requests: int = 40,
) -> ColocationResult:
    """One policy for the analytics client, averaged over seeds."""
    failures, noisy_share, redundancy = [], [], []
    for seed in seeds:
        scenario = _build_scenario(seed)
        client = scenario.add_client(
            "analytics-client",
            QoSSpec("analytics", deadline_ms, min_probability),
            policy=policy_factory() if policy_factory else None,
            num_requests=num_requests,
            think_time=Constant(400.0),
        )
        scenario.run_to_completion()
        summary = client.summary()
        failures.append(summary.failure_probability)
        redundancy.append(summary.mean_redundancy)
        winners = [o.replica for o in client.outcomes if o.replica]
        noisy_share.append(
            sum(1 for replica in winners if replica in NOISY_HOSTS)
            / max(1, len(winners))
        )
    return ColocationResult(
        policy=policy_name,
        failure_probability=average(failures),
        noisy_host_share=average(noisy_share),
        mean_redundancy=average(redundancy),
        runs=len(seeds),
    )


def run(
    seeds: Sequence[int] = (0, 1, 2), num_requests: int = 40
) -> List[ColocationResult]:
    """Dynamic policy vs. load-blind random at equal redundancy."""
    return [
        run_one(None, "dynamic (paper)", seeds=seeds, num_requests=num_requests),
        run_one(
            lambda: RandomPolicy(redundancy=2),
            "random-2 (load-blind)",
            seeds=seeds,
            num_requests=num_requests,
        ),
    ]


def main() -> None:
    """Print the co-location interference table."""
    results = run()
    rows = [
        (r.policy, r.failure_probability, r.noisy_host_share, r.mean_redundancy)
        for r in results
    ]
    print_table(
        "Co-location interference: batch jobs share hosts 1-2 "
        "(deadline 160 ms, Pc = 0.9)",
        ["policy", "failure prob", "noisy-host replies", "redundancy"],
        rows,
    )


if __name__ == "__main__":
    main()
