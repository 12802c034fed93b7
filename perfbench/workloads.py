"""The benchmark's three canonical workloads, each as one fixed-size round.

A *round* builds one stack from the public API, runs it to completion,
audits it and returns a :class:`RoundResult`: host timings, the
per-request outcome log and its digest.  A round is a pure function of
``(workload, seed)`` on the simulated side, so the benchmark can repeat
it as often as its time budget allows and aggregate host timings, while
every simulated number comes from a round whose digest all the others
must reproduce.

The build and run phases and each ``policy.decide`` call are timed in
CPU time of the (single-threaded) benchmark process: on a shared virtual
machine the wall clock also counts the time the hypervisor gives the CPU
to other guests, up to a fifth of it.  A round's ``wall_s`` stays on the
wall clock, the clock the traced spans use.  An untraced round may also
take calibration samples (:mod:`calibration`) at request completions,
never inside a ``policy.decide`` call; their time is taken out of the
round's run and wall times.

Every client handler is a :func:`recording_handler` subclass of the
stack's :class:`TimingFaultClientHandler`.  It changes no behaviour: it
logs each submission, each policy decision and each outcome in the order
they happen, and times each call into ``policy.decide`` (the paper's
δ, measured in live traffic) with one pair of clock reads.
"""

from __future__ import annotations

import hashlib
from array import array
from dataclasses import dataclass, field
from time import perf_counter, process_time, thread_time_ns
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.estimator import QueueScaledEstimator
from repro.core.qos import QoSSpec
from repro.experiments.overload_collapse import default_overload_config
from repro.experiments.parallel import TaskResult, sweep_digest
from repro.faultinject.auditor import LifecycleViolation
from repro.faultinject.campaign import CampaignConfig, run_scenario
from repro.gateway.handlers.timing_fault import TimingFaultClientHandler
from repro.health import HealthState
from repro.net.message import reset_message_ids
from repro.rng import derive_entity_seed
from repro.sim.kernel import Simulator
from repro.sim.random import Constant, Exponential, Normal
from repro.workload.scenarios import Scenario, ScenarioConfig

import calibration

__all__ = [
    "WORKLOADS",
    "RoundLog",
    "RoundResult",
    "Workload",
    "cache_counts",
    "quarantines",
    "recording_handler",
    "run_round",
]

# One outcome entry: (index, kind, timely, response ms, replica, redundancy).
Outcome = Tuple[int, str, bool, float, Optional[str], int]


class RoundLog:
    """Everything the recording handlers observe during one round."""

    def __init__(self) -> None:
        self.handlers: List[TimingFaultClientHandler] = []
        #: (scope, host) -> ordered submit / decide / outcome entries.
        self.entries: Dict[Tuple[int, str], List[Tuple[Any, ...]]] = {}
        self.decide_ns = array("q")
        self.sims: List[Simulator] = []
        #: Chaos scenario index of the handlers being built (0 otherwise).
        self.scope = 0
        #: Requests of the round's parts that broke a check.
        self.failed = 0
        #: Whether completions interleave calibration samples (untraced).
        self.calibrate = False
        #: CPU seconds of each calibration kernel run during the round.
        self.calibration_s = array("d")
        self.next_calibration = 0.0

    def outcomes(self) -> List[Outcome]:
        """Every request's outcome entry, in log order."""
        return [
            entry[1:]
            for key in sorted(self.entries)
            for entry in self.entries[key]
            if entry[0] == "o"
        ]

    def submitted(self) -> int:
        """Requests submitted through every handler."""
        return sum(
            1
            for entries in self.entries.values()
            for entry in entries
            if entry[0] == "s"
        )

    def digest(self) -> str:
        """SHA-256 over every handler's ordered log, floats bit-exact."""
        digest = hashlib.sha256()
        for key in sorted(self.entries):
            digest.update(f"{key[0]}|{key[1]}\n".encode())
            for entry in self.entries[key]:
                digest.update(
                    "|".join(
                        value.hex() if isinstance(value, float) else repr(value)
                        for value in entry
                    ).encode()
                )
                digest.update(b"\n")
        return digest.hexdigest()


def recording_handler(log: RoundLog) -> type:
    """A :class:`TimingFaultClientHandler` subclass that reports to ``log``."""

    class RecordingHandler(TimingFaultClientHandler):
        """Logs submissions, decisions and outcomes; times policy.decide.

        The decide time is CPU time of this thread, in nanoseconds.
        """

        def __init__(self, *args: Any, **kwargs: Any) -> None:
            super().__init__(*args, **kwargs)
            entries: List[Tuple[Any, ...]] = []
            log.entries[(log.scope, self.host)] = entries
            log.handlers.append(self)
            if not log.sims or log.sims[-1] is not self.sim:
                log.sims.append(self.sim)
            self._bench_entries = entries
            self._bench_submitted = 0
            decide = self.policy.decide
            decide_ns = log.decide_ns

            def timed_decide(ctx: Any) -> Any:
                started = thread_time_ns()
                decision = decide(ctx)
                decide_ns.append(thread_time_ns() - started)
                entries.append(("d", decision.selected))
                return decision

            self.policy.decide = timed_decide

        def submit(self, request: Any) -> Any:
            index = self._bench_submitted
            self._bench_submitted += 1
            entries = self._bench_entries
            entries.append(("s", index))
            event = super().submit(request)

            def done(fired: Any) -> None:
                if log.calibrate and process_time() >= log.next_calibration:
                    log.calibration_s.append(calibration.sample())
                    log.next_calibration = process_time() + calibration.EVERY_S
                if not fired.ok:
                    entries.append(("o", index, "error", False, 0.0, None, 0))
                    return
                outcome = fired.value
                entries.append(
                    (
                        "o",
                        index,
                        outcome.kind.value,
                        bool(outcome.timely),
                        float(outcome.response_time_ms),
                        outcome.replica,
                        int(outcome.redundancy),
                    )
                )

            event.add_callback(done)
            return event

    return RecordingHandler


@dataclass
class RoundResult:
    """One round's host timings, outcome log and correctness verdict."""

    workload: str
    seed: int
    log: RoundLog
    digest: str
    build_s: float  # CPU seconds
    run_s: float  # CPU seconds
    wall_s: float  # wall-clock seconds of the whole round
    issued: int
    violations: List[str] = field(default_factory=list)
    #: Requests behind the violations: the whole round, or in chaos-a17
    #: only the scenarios that broke a check.
    failed: int = 0
    campaign_digest: Optional[str] = None
    #: CPU seconds of each calibration sample taken during the run phase.
    calibration_s: List[float] = field(default_factory=list)

    @property
    def processed_events(self) -> int:
        """Kernel events fired across every simulator of the round."""
        return sum(sim.processed_events for sim in self.log.sims)


@dataclass(frozen=True)
class Workload:
    """A named, seeded, fixed-size round plus the reason it exists."""

    name: str
    why: str
    params: Dict[str, Any]
    run: Callable[[int, RoundLog], Tuple[float, float, List[str], Optional[str]]]


# -- the two Scenario workloads ----------------------------------------------

def _scenario_round(
    config: ScenarioConfig,
    clients: List[Tuple[QoSSpec, int, Any, Dict[str, Any]]],
    log: RoundLog,
) -> Tuple[float, float, List[str], Optional[str]]:
    """Build, run and audit one Scenario.

    Returns (build seconds, run seconds, violations, campaign digest);
    the campaign digest is ``None`` outside chaos-a17.
    """
    reset_message_ids()
    started = process_time()
    scenario = Scenario(config)
    handler_cls = recording_handler(log)
    for i, (qos, num_requests, think, kwargs) in enumerate(clients):
        scenario.add_client(
            f"client-{i + 1}",
            qos,
            handler_cls=handler_cls,
            num_requests=num_requests,
            think_time=think,
            handler_kwargs=kwargs,
        )
    built = process_time()
    scenario.run_to_completion()
    ended = process_time()
    violations: List[str] = []
    try:
        scenario.audit_lifecycle()
    except LifecycleViolation as exc:
        violations.append(f"lifecycle audit: {exc}")
    expected = sum(num_requests for _, num_requests, _, _ in clients)
    if log.submitted() != expected:
        violations.append(
            f"closed loop issued {log.submitted()} of {expected} requests"
        )
    if violations:
        log.failed = log.submitted()
    return built - started, ended - built, violations, None


# Round sizes: every workload answers at least 1000 requests per round,
# so the 95th response-time percentile has 50 samples beyond it.
FLEET_REQUESTS = 250
CROWD_CLIENTS = 16
CROWD_REQUESTS = 64
CHAOS_SCENARIOS = 40


def _fleet_n128(seed: int, log: RoundLog):
    # The paper's section 6 testbed (service and QoS mix) at 128 replicas.
    config = ScenarioConfig(seed=seed, num_replicas=128, keep_samples=False)
    qos = [QoSSpec(config.service, 200.0, 0.0)] + [
        QoSSpec(config.service, 140.0, 0.9)
    ] * 3
    return _scenario_round(
        config, [(spec, FLEET_REQUESTS, Constant(1000.0), {}) for spec in qos], log
    )


def _crowd_n5(seed: int, log: RoundLog):
    # The A16 governed stack past the knee (experiments.overload_collapse).
    config = ScenarioConfig(
        seed=seed,
        num_replicas=5,
        service_mean_ms=8.0,
        service_sigma_ms=2.0,
        service_distribution_factory=lambda host: Normal(8.0, 2.0),
        response_timeout_factor=3.0,
        keep_samples=False,
        overload_config=default_overload_config(),
    )
    kwargs = {
        "estimator_factory": lambda repo: QueueScaledEstimator(
            repo, bin_width_ms=1.0
        )
    }
    qos = QoSSpec(config.service, deadline_ms=60.0, min_probability=0.9)
    return _scenario_round(
        config,
        [(qos, CROWD_REQUESTS, Exponential(5.0), kwargs)] * CROWD_CLIENTS,
        log,
    )


# -- the chaos campaign workload ---------------------------------------------

class _FirstRun:
    """Stamps the process CPU time of the first ``Simulator.run`` call."""

    def __init__(self) -> None:
        self.at: Optional[float] = None
        self._original = Simulator.__dict__["run"]

    def __enter__(self) -> "_FirstRun":
        original = self._original

        def run(sim: Simulator, until: Optional[float] = None) -> None:
            if self.at is None:
                self.at = process_time()
            original(sim, until)

        Simulator.run = run  # type: ignore[method-assign]
        return self

    def __exit__(self, *exc: object) -> None:
        Simulator.run = self._original  # type: ignore[method-assign]


def _chaos_a17(seed: int, log: RoundLog):
    """The first K scenarios of the default A17 campaign, serially."""
    config = CampaignConfig(schedules=CHAOS_SCENARIOS, base_seed=seed)
    handler_cls = recording_handler(log)
    build_s = run_s = 0.0
    violations: List[str] = []
    results = []
    with _FirstRun() as first_run:
        for index in range(config.schedules):
            log.scope = index
            before = log.submitted()
            first_run.at = None
            started = process_time()
            outcome = run_scenario(config, index, handler_cls=handler_cls)
            ended = process_time()
            assert first_run.at is not None
            build_s += first_run.at - started
            run_s += ended - first_run.at
            problems = list(outcome.violations)
            if log.submitted() - before != outcome.submitted:
                problems.append(
                    f"scenario {index}: logged {log.submitted() - before} "
                    f"submissions, auditor saw {outcome.submitted}"
                )
            if problems:
                violations.extend(problems)
                log.failed += log.submitted() - before
            results.append(
                TaskResult(
                    point_index=0,
                    repetition=index,
                    seed=derive_entity_seed(seed, "chaos.campaign", 0, index),
                    value=outcome,
                )
            )
    # Same digest as run_campaign(config).digest (the A17 pin's form).
    return build_s, run_s, violations, sweep_digest(results)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "fleet-n128",
            "Read-heavy estimator regime: each decide reads 128 rows of which "
            "few changed, and most kernel events are failure-detector polls "
            "(ROADMAP item 2's two hogs).",
            {
                "replicas": 128,
                "service_ms": "Normal(100, 50)",
                "clients": ["200 ms / Pc 0"] + ["140 ms / Pc 0.9"] * 3,
                "think_ms": 1000.0,
                "requests_per_client": FLEET_REQUESTS,
                "policy": "handler default (modelled delta 0.3 ms)",
                "load": "closed loop",
            },
            _fleet_n128,
        ),
        Workload(
            "crowd-n5",
            "A16 flash crowd past the knee with the governed stack: dense "
            "transport traffic, many repository writes per decision, the only "
            "run of the overload governor and admission control.",
            {
                "replicas": 5,
                "service_ms": "Normal(8, 2)",
                "clients": CROWD_CLIENTS,
                "qos": "60 ms / Pc 0.9",
                "think_ms": "Exponential(5)",
                "requests_per_client": CROWD_REQUESTS,
                "overload": "default_overload_config() + QueueScaledEstimator",
                "policy": "handler default (modelled delta 0.3 ms)",
                "load": "closed loop",
            },
            _crowd_n5,
        ),
        Workload(
            "chaos-a17",
            "First 40 scenarios of the default A17 chaos campaign, serially "
            "in-process: composed crash, partition, drop, delay, duplicate and "
            "surge windows with the health subsystem on.",
            {
                "campaign": "CampaignConfig() defaults",
                "scenarios": CHAOS_SCENARIOS,
                "policy": "handler default (modelled delta 0 ms)",
                "load": "closed loop plus scheduled surges",
            },
            _chaos_a17,
        ),
    )
}


def run_round(workload: Workload, seed: int, calibrate: bool = False) -> RoundResult:
    """Run one fixed-size round of ``workload`` at ``seed``.

    With ``calibrate``, a request's completion runs the calibration
    kernel when :data:`calibration.EVERY_S` CPU seconds have passed since
    the last sample; the samples' time is taken out of ``run_s`` and
    ``wall_s``.
    """
    log = RoundLog()
    log.calibrate = calibrate
    started = perf_counter()
    build_s, run_s, violations, campaign_digest = workload.run(seed, log)
    calibration_s = sum(log.calibration_s)
    run_s -= calibration_s
    wall_s = perf_counter() - started - calibration_s
    outcomes = log.outcomes()
    issued = log.submitted()
    problems = [
        f"request {o[0]} failed with an exception" for o in outcomes if o[1] == "error"
    ]
    if len(outcomes) != issued:
        problems.append(f"{issued} requests issued, {len(outcomes)} completed")
    if problems:
        violations.extend(problems)
        log.failed = issued
    return RoundResult(
        workload=workload.name,
        seed=seed,
        log=log,
        digest=log.digest(),
        build_s=build_s,
        run_s=run_s,
        wall_s=wall_s,
        issued=issued,
        violations=violations,
        failed=log.failed,
        campaign_digest=campaign_digest,
        calibration_s=list(log.calibration_s),
    )


def quarantines(log: RoundLog) -> int:
    """Health transitions into QUARANTINED across every handler."""
    return sum(
        1
        for handler in log.handlers
        if handler.health is not None
        for event in handler.health.events
        if event.new_state is HealthState.QUARANTINED
    )


def cache_counts(log: RoundLog) -> Tuple[int, int]:
    """Summed (hits, misses) of every handler's default estimator cache."""
    hits = misses = 0
    for handler in log.handlers:
        info = handler.estimator.cache_info()
        hits += info["hits"]
        misses += info["misses"]
    return hits, misses
