"""The timing fault handler (paper §5.4) — client and server sides.

Client side (:class:`TimingFaultClientHandler`): intercepts a request at
``t0``, runs the selection policy, multicasts the request to the selected
replicas at ``t1``, delivers the *first* reply to the client, mines every
reply (including redundant ones) for performance data, detects timing
failures (``tr = t4 − t0 > t``), and notifies the client via a callback
when the observed timely frequency drops below the QoS minimum.

Server side (:class:`TimingFaultServerHandler`): enqueues requests at
``t2``, dequeues at ``t3`` (FIFO), services them (``ts``), replies with the
performance data ``(ts, tq = t3 − t2, queue length)`` embedded, and pushes
the same data to all subscribed clients on every processed request.

All interval end-points are measured on a single simulated host, so no
clock synchronization is assumed — exactly as in the paper.

Paper §8 extensions implemented here, all off by default:

* **Request classification** (``classifier=``): performance data is kept
  per request class — e.g. per method ("classify performance data based
  on the method interfaces") or per argument shape ("distinguish between
  requests made to the same server based on the arguments passed").
* **Active probing** (``probe_staleness_ms=``): when a replica's record
  goes stale, the handler pings its gateway out of band to refresh the
  gateway delay and queue length ("use active probes [5] when a replica's
  performance information is obsolete").
* **Gateway-delay windows** (``gateway_window_size=``): ``T_i`` becomes a
  sliding-window distribution instead of a point value, for LANs whose
  traffic does fluctuate (§5.3.1's "simple to extend" remark).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Generator,
    List,
    Optional,
    Set,
    Tuple,
)

import numpy as np

from ...core.estimator import ResponseTimeEstimator
from ...core.qos import QoSSpec, QoSViolationCallback, TimingFailureStats
from ...core.repository import InformationRepository
from ...core.selection import (
    DynamicSelectionPolicy,
    SelectionContext,
    SelectionDecision,
    SelectionMeta,
    SelectionPolicy,
)
from ...group.ensemble import GroupCommunication
from ...group.membership import GroupView, MembershipError
from ...health import HealthConfig, HealthListener, HealthMonitor
from ...metrics.collector import MetricsCollector
from ...net.message import Message
from ...net.transport import TransportAPI
from ...overload import (
    AdmissionController,
    GovernedSelectionPolicy,
    LoadTracker,
    OverloadConfig,
)
from ...orb.iiop import MarshalledCall, MarshalledReply, MarshallingModel
from ...orb.object import MethodRequest, ServiceInterface
from ...orb.orb import RequestInterceptor
from ...replica.server import ReplicaApplication
from ...rng import seeded_generator
from ...sim.events import Event
from ...sim.hostclock import HostClock
from ...sim.kernel import Simulator
from ...sim.trace import NullTracer, Tracer
from ..gateway import ProtocolHandler

__all__ = [
    "MSG_REQUEST",
    "MSG_REPLY",
    "MSG_PERF",
    "MSG_SUBSCRIBE",
    "MSG_PROBE",
    "MSG_PROBE_REPLY",
    "DEFAULT_CLASS",
    "OutcomeKind",
    "PerformanceUpdate",
    "ReplyOutcome",
    "RequestClassifier",
    "method_classifier",
    "TimingFaultServerHandler",
    "TimingFaultClientHandler",
]

MSG_REQUEST = "tf-request"
MSG_REPLY = "tf-reply"
MSG_PERF = "tf-perf"
MSG_SUBSCRIBE = "tf-subscribe"
MSG_PROBE = "tf-probe"
MSG_PROBE_REPLY = "tf-probe-reply"

#: Class key used when no classifier is configured (the paper's base
#: design: one model per service).
DEFAULT_CLASS = ""

# A classifier maps a request to the performance class whose history
# should model it.
RequestClassifier = Callable[[MethodRequest], str]


def method_classifier(request: MethodRequest) -> str:
    """Classify by method name — the paper's multi-interface extension."""
    return request.method


@dataclass(frozen=True)
class PerformanceUpdate:
    """The measurements a replica publishes after servicing a request.

    ``request`` identifies what was serviced so that classifying clients
    can file the measurement under the right performance class.

    ``enqueued_at_ms`` and ``sent_at_ms`` are *absolute readings of the
    replica's own clock* (``t2`` and the reply-send instant).  The
    skew-tolerant client ignores them — absolute remote timestamps are
    not comparable with its own clock — but a naive implementation can
    be built on them, which is exactly what experiment A18 measures.
    """

    replica: str
    service: str
    service_time_ms: float  # ts
    queue_delay_ms: float  # tq
    queue_length: int
    request: Optional[MethodRequest] = None
    enqueued_at_ms: float = 0.0  # t2 on the replica's clock
    sent_at_ms: float = 0.0  # reply-send instant on the replica's clock


class OutcomeKind(Enum):
    """The three mutually exclusive completion outcomes of a request.

    Every request ends exactly one way — a reply XOR a timeout XOR a
    shed (the exactly-once invariant the
    :class:`~repro.faultinject.auditor.LifecycleAuditor` audits).
    Consumers should branch on :attr:`ReplyOutcome.kind` and close the
    chain with ``assert_never`` so the type checker proves every outcome
    — in particular ``SHED`` — is handled.
    """

    REPLY = "reply"
    TIMEOUT = "timeout"
    SHED = "shed"


@dataclass(frozen=True)
class ReplyOutcome:
    """What the client's invocation event fires with.

    ``timed_out`` marks requests for which no reply arrived before the
    handler's response timeout (e.g. every selected replica crashed);
    these count as timing failures.  ``shed`` marks requests the
    admission controller fail-fast rejected before any copy hit the
    wire — the third, mutually exclusive completion outcome (reply XOR
    timeout XOR shed); sheds are *not* timing failures and stay out of
    :class:`~repro.core.qos.TimingFailureStats`.  :attr:`kind` folds the
    two flags into the closed :class:`OutcomeKind` enum; new code should
    branch on it exhaustively rather than on the booleans.
    """

    value: Any
    response_time_ms: float
    timely: bool
    timed_out: bool
    replica: Optional[str]
    redundancy: int
    request_id: int
    decision_meta: SelectionMeta = field(
        default_factory=lambda: SelectionMeta()
    )
    shed: bool = False

    @property
    def kind(self) -> OutcomeKind:
        """The completion outcome as a checker-enforceable enum."""
        if self.shed:
            return OutcomeKind.SHED
        if self.timed_out:
            return OutcomeKind.TIMEOUT
        return OutcomeKind.REPLY


# ---------------------------------------------------------------------------
# Server side
# ---------------------------------------------------------------------------


class TimingFaultServerHandler(ProtocolHandler):
    """Server-gateway half of the timing fault handler.

    Owns the replica's FIFO request queue and the stage timestamps
    ``t2``/``t3``/``ts`` (paper §5.4.1).  Probes (the §8 extension) are
    answered directly by the gateway, without entering the FIFO queue —
    they measure the network and read the queue depth, not the servant.
    """

    message_kinds = (MSG_REQUEST, MSG_SUBSCRIBE, MSG_PROBE)

    def __init__(
        self,
        sim: Simulator,
        app: ReplicaApplication,
        transport: TransportAPI,
        marshalling: Optional[MarshallingModel] = None,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsCollector] = None,
        clock: Optional[HostClock] = None,
    ) -> None:
        self.sim = sim
        self.clock = clock if clock is not None else HostClock(sim, host=app.host)
        self.app = app
        self.transport = transport
        self.marshalling = marshalling or MarshallingModel()
        self.tracer = tracer if tracer is not None else NullTracer()
        self.metrics = metrics or MetricsCollector(keep_samples=False)
        self.service = app.service
        self.host = app.host
        self._queue: Deque[Tuple[Message, float]] = deque()
        self._subscribers: Set[str] = set()
        self._wakeup: Optional[Event] = None
        self._busy = False
        self.crashed = False
        self.probes_answered = 0
        self._process = sim.spawn(self._run(), name=f"server.{self.host}")

    # -- inspection ------------------------------------------------------------
    @property
    def queue_length(self) -> int:
        """Outstanding requests: waiting plus the one in service."""
        return len(self._queue) + (1 if self._busy else 0)

    @property
    def subscribers(self) -> List[str]:
        """Clients subscribed to performance updates (sorted)."""
        return sorted(self._subscribers)

    # -- message handling --------------------------------------------------------
    def handle_message(self, message: Message) -> None:
        if self.crashed:
            return
        if message.kind == MSG_SUBSCRIBE:
            self._subscribers.add(message.payload["client"])
            return
        if message.kind == MSG_PROBE:
            self._answer_probe(message)
            return
        # MSG_REQUEST: record the enqueue time t2 and wake the consumer.
        t2 = self.clock.now
        self._queue.append((message, t2))
        self.tracer.emit(
            self.clock.kernel_now, f"server.{self.host}", "server.enqueued",
            msg_id=message.msg_id, queue=len(self._queue),
        )
        if self._wakeup is not None and not self._wakeup.triggered:
            self._wakeup.succeed(None)

    def _answer_probe(self, message: Message) -> None:
        """Reply to a gateway-level probe, bypassing the FIFO queue."""
        self.probes_answered += 1
        self.transport.send(
            Message(
                sender=self.host,
                destination=message.sender,
                kind=MSG_PROBE_REPLY,
                payload={
                    "service": self.service,
                    "replica": self.host,
                    "queue_length": self.queue_length,
                },
                size_bytes=64,
                correlation_id=message.msg_id,
            )
        )

    # -- the FIFO service loop ---------------------------------------------------
    def _run(self) -> Generator[Event, Any, None]:
        while True:
            while not self._queue:
                self._wakeup = self.sim.event()
                yield self._wakeup
            message, t2 = self._queue.popleft()
            self._busy = True
            t3 = self.clock.now
            queue_delay = t3 - t2  # tq

            call = message.payload["call"]
            request, demarshal_cost = self.marshalling.demarshal_request(call)
            yield self.sim.timeout(demarshal_cost)

            # The load profile is a physical process: it follows the
            # kernel clock, not this host's (possibly faulty) view of it.
            duration = self.app.service_duration(
                request.method, self.clock.kernel_now
            )
            service_started = self.clock.now
            self.app.begin_service()
            try:
                yield self.sim.timeout(duration)
                value = self.app.execute(request)
            finally:
                self.app.end_service()
            # ts (Stage 4 only), *measured on this host's clock*: exact
            # on a healthy clock, corrupted by drift/step/freeze faults.
            service_time = self.clock.elapsed_since(service_started, duration)

            signature = self.app.servant.interface.method(request.method)
            reply, marshal_cost = self.marshalling.marshal_reply(value, signature)
            yield self.sim.timeout(marshal_cost)
            self._busy = False

            if self.crashed:
                return  # crashed mid-service: the reply is lost
            self.tracer.emit(
                self.clock.kernel_now, f"server.{self.host}", "server.serviced",
                msg_id=message.msg_id, tq=queue_delay, ts=service_time,
                demarshal=demarshal_cost, marshal=marshal_cost,
            )
            self._send_reply(
                message, request, reply, service_time, queue_delay, t2
            )

    def _send_reply(
        self,
        request_msg: Message,
        request: MethodRequest,
        reply: MarshalledReply,
        service_time: float,
        queue_delay: float,
        enqueued_at: float,
    ) -> None:
        perf = PerformanceUpdate(
            replica=self.host,
            service=self.service,
            service_time_ms=service_time,
            queue_delay_ms=queue_delay,
            queue_length=self.queue_length,
            request=request,
            enqueued_at_ms=enqueued_at,
            sent_at_ms=self.clock.now,
        )
        reply_msg = Message(
            sender=self.host,
            destination=request_msg.sender,
            kind=MSG_REPLY,
            payload={
                "service": self.service,
                "reply": reply,
                "perf": perf,
                "replica": self.host,
            },
            size_bytes=reply.size_bytes,
            correlation_id=request_msg.msg_id,
        )
        self.transport.send(reply_msg)
        self.metrics.increment(
            "server.replies", labels={"replica": self.host}
        )
        # Push the fresh performance data to every subscriber except the
        # requester (whose copy rides inside the reply itself).
        for subscriber in self._subscribers:
            if subscriber == request_msg.sender:
                continue
            self.transport.send(
                Message(
                    sender=self.host,
                    destination=subscriber,
                    kind=MSG_PERF,
                    payload={
                        "service": self.service,
                        "replica": self.host,
                        "perf": perf,
                    },
                    size_bytes=96,
                )
            )

    # -- fault lifecycle ---------------------------------------------------------
    def crash(self) -> None:
        """Fail-stop: drop queued work and halt the service loop."""
        if self.crashed:
            return
        self.crashed = True
        self._queue.clear()
        self._busy = False
        if self._process.alive:
            self._process.interrupt("crash")

    def restart(self) -> None:
        """Come back after a crash with an empty queue (new incarnation)."""
        if not self.crashed:
            return
        self.crashed = False
        self._queue.clear()
        self._busy = False
        self._wakeup = None
        self._process = self.sim.spawn(self._run(), name=f"server.{self.host}")

    # -- lifecycle invariants ------------------------------------------------
    def lifecycle_leaks(self) -> Dict[str, List[Any]]:
        """Server state that must be empty/idle once traffic has drained."""
        leaks: Dict[str, List[Any]] = {}
        if self.crashed:
            return leaks  # a crashed incarnation holds no live obligations
        if self._queue:
            leaks["queued_requests"] = [m.msg_id for m, _t2 in self._queue]
        if self._busy:
            leaks["busy"] = [self.host]
        return leaks

    def __repr__(self) -> str:
        return (
            f"<TimingFaultServerHandler {self.host!r} queue={self.queue_length} "
            f"crashed={self.crashed}>"
        )


# ---------------------------------------------------------------------------
# Client side
# ---------------------------------------------------------------------------


@dataclass
class _PendingRequest:
    """Client-side bookkeeping for one outstanding request.

    ``expected`` holds the replicas a reply may still arrive from (the
    replicas actually addressed, including later retransmission targets);
    ``replied`` the replicas heard from so far.  Once a completed request
    has heard from every expected replica, no redundant reply can arrive
    any more and the record is dropped without waiting for the response
    timeout — the bound that keeps ``_pending`` sized by in-flight work.
    """

    request: MethodRequest
    t0: float
    t1: float
    event: Event
    decision: SelectionDecision
    completed: bool = False
    expired: bool = False
    expected: Set[str] = field(default_factory=set)
    replied: Set[str] = field(default_factory=set)
    # Replicas already charged an omission fault for this request (health
    # accounting) — a retry timeout and the final response timeout must
    # not both bill the same silence.
    faulted: Set[str] = field(default_factory=set)


class TimingFaultClientHandler(ProtocolHandler, RequestInterceptor):
    """Client-gateway half of the timing fault handler (paper §5.4).

    Parameters
    ----------
    sim, host, transport, group_comm:
        Simulation substrate and this client's host.
    interface:
        Interface of the replicated service (for marshalling sizes).
    qos:
        The client's QoS specification.
    policy:
        Replica-selection policy; defaults to the paper's
        :class:`DynamicSelectionPolicy` with single-crash tolerance and
        overhead compensation.
    window_size:
        The repository's sliding-window size ``l`` (paper default 5).
    bin_width_ms:
        Quantization grid of the empirical pmfs.
    selection_charge_ms:
        Simulated CPU time charged between request interception and
        transmission (covers marshalling + selection).  It is the one
        ``δ`` of the paper's §5.3.3 deadline compensation: every
        selection context carries it, so the policy evaluates
        ``F_{R_i}(t − δ)`` in simulated time, independent of host speed.
    response_timeout_factor:
        A request with no reply after ``factor × deadline`` completes as a
        timed-out failure (the paper's clients wait forever; a closed-loop
        simulation must not).  With an adaptive timeout quantile in
        effect, ``factor × deadline`` becomes the *ceiling* of the
        adaptive timeout instead.
    violation_callback:
        Invoked as ``callback(service, observed_probability, spec)`` when
        the observed timely frequency first drops below the QoS minimum.
    rng:
        Random generator handed to stochastic policies.
    classifier:
        Optional request classifier (§8 extension): performance history
        and models are kept per class key.  ``None`` keeps the paper's
        one-model-per-service design.
    gateway_window_size:
        When set, keep a sliding window of gateway delays per replica and
        model ``T_i`` as a distribution (§5.3.1 extension).
    probe_staleness_ms:
        When set, replicas whose records are older than this are probed
        out of band every ``probe_interval_ms`` (§8 extension).
    bootstrap_probes:
        When true, every group member is probed once at startup so each
        replica has a baseline round trip measured on this gateway's own
        clock before any replica-reported timing is trusted — the
        reference the clock-sanity deflation test compares against.
        Off by default (no extra traffic in legacy configurations).
    health_config:
        When set, the handler runs a per-replica
        :class:`~repro.health.HealthMonitor` fed by reply outcomes,
        omission timeouts, probe results and crash declarations; the
        selection context then carries the health view (quarantine
        exclusion + trust discounts) and the probe tick also serves the
        monitor's verification/re-admission probes.
    health_listener:
        Optional callback receiving every
        :class:`~repro.health.HealthEvent` (scenarios wire this to the
        Proteus manager — the paper's fault-notification path).
    adaptive_timeout_quantile:
        Quantile of the selected replicas' predicted ``R_i`` pmfs used as
        the response timeout, clamped to
        ``[deadline, factor × deadline]``.  ``None`` inherits the
        ``health_config`` default (and stays disabled without one), so
        legacy configurations keep the fixed timeout bit-for-bit.
    clock:
        The :class:`~repro.sim.hostclock.HostClock` of this gateway's
        host.  Every timestamp the handler takes (``t0``/``t1``/``t4``,
        probe send/receive times, staleness reads, health evidence) is
        read from it; scheduling stays on the kernel.  Defaults to a
        pristine clock, which reads identically to the kernel.
    overload_config:
        When set, the handler runs the overload subsystem
        (docs/ARCHITECTURE.md §6): a :class:`~repro.overload.LoadTracker`
        fed from the queue evidence on every reply/push/probe, the
        selection policy wrapped in a
        :class:`~repro.overload.GovernedSelectionPolicy` (redundancy
        cap), and an :class:`~repro.overload.AdmissionController` that
        fail-fast sheds hopeless requests and suppresses hedged
        retransmissions under pressure.
    """

    message_kinds = (MSG_REPLY, MSG_PERF, MSG_PROBE_REPLY)

    def __init__(
        self,
        sim: Simulator,
        host: str,
        transport: TransportAPI,
        group_comm: GroupCommunication,
        interface: ServiceInterface,
        qos: QoSSpec,
        policy: Optional[SelectionPolicy] = None,
        window_size: int = 5,
        bin_width_ms: float = 1.0,
        marshalling: Optional[MarshallingModel] = None,
        selection_charge_ms: float = 0.3,
        response_timeout_factor: float = 10.0,
        violation_callback: Optional[QoSViolationCallback] = None,
        min_violation_samples: int = 10,
        rng: Optional[np.random.Generator] = None,
        distance: Optional[Callable[[str], float]] = None,
        classifier: Optional[RequestClassifier] = None,
        gateway_window_size: Optional[int] = None,
        probe_staleness_ms: Optional[float] = None,
        probe_interval_ms: float = 200.0,
        bootstrap_probes: bool = False,
        estimator_factory: Optional[
            Callable[[InformationRepository], ResponseTimeEstimator]
        ] = None,
        health_config: Optional[HealthConfig] = None,
        health_listener: Optional[HealthListener] = None,
        adaptive_timeout_quantile: Optional[float] = None,
        overload_config: Optional[OverloadConfig] = None,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsCollector] = None,
        clock: Optional[HostClock] = None,
    ) -> None:
        if qos.service != interface.name:
            raise ValueError(
                f"QoS names service {qos.service!r} but the interface is "
                f"{interface.name!r}"
            )
        if selection_charge_ms < 0:
            raise ValueError(
                f"selection_charge_ms must be >= 0, got {selection_charge_ms}"
            )
        if response_timeout_factor <= 1:
            raise ValueError(
                "response_timeout_factor must exceed 1 (the deadline itself), "
                f"got {response_timeout_factor}"
            )
        if probe_staleness_ms is not None and probe_staleness_ms <= 0:
            raise ValueError(
                f"probe_staleness_ms must be > 0, got {probe_staleness_ms}"
            )
        if probe_interval_ms <= 0:
            raise ValueError(
                f"probe_interval_ms must be > 0, got {probe_interval_ms}"
            )
        if adaptive_timeout_quantile is None and health_config is not None:
            adaptive_timeout_quantile = health_config.adaptive_timeout_quantile
        if adaptive_timeout_quantile is not None and not (
            0.0 < adaptive_timeout_quantile <= 1.0
        ):
            raise ValueError(
                "adaptive_timeout_quantile must be in (0, 1], got "
                f"{adaptive_timeout_quantile}"
            )
        self.sim = sim
        self.clock = clock if clock is not None else HostClock(sim, host=host)
        self.host = host
        self.transport = transport
        self.group_comm = group_comm
        self.interface = interface
        self.service = interface.name
        self.qos = qos
        self.marshalling = marshalling or MarshallingModel()
        self.selection_charge_ms = float(selection_charge_ms)
        self.response_timeout_factor = float(response_timeout_factor)
        self.violation_callback = violation_callback
        self.tracer = tracer if tracer is not None else NullTracer()
        self.metrics = metrics or MetricsCollector(keep_samples=False)
        self.rng = rng if rng is not None else seeded_generator(0)
        self.distance = distance
        self.classifier = classifier
        self.window_size = int(window_size)
        self.bin_width_ms = float(bin_width_ms)
        self.gateway_window_size = gateway_window_size
        self.probe_staleness_ms = probe_staleness_ms
        self.probe_interval_ms = float(probe_interval_ms)
        self.bootstrap_probes = bool(bootstrap_probes)
        self.adaptive_timeout_quantile = adaptive_timeout_quantile
        # Pluggable estimator construction (e.g. QueueScaledEstimator).
        self.estimator_factory = estimator_factory
        self.probes_sent = 0
        self.probes_expired = 0

        # Clock-sanity state (docs/ARCHITECTURE.md §10): replica-reported
        # measurements are admitted only when coherent with this
        # gateway's own same-clock observations.  The trusted round trips
        # come from probes — measured entirely on this host's clock.
        self.clock_rejections = 0
        self._trusted_rtt: Dict[str, float] = {}
        self._clock_sanity = (
            health_config is not None
            and health_config.clock_anomaly_after is not None
        )
        self._clock_slack_ms = (
            health_config.clock_slack_ms if health_config is not None else 1.0
        )
        self._clock_deflation_factor = (
            health_config.clock_deflation_factor
            if health_config is not None
            else 6.0
        )

        # Performance state is kept per request class.  The default class
        # always exists; `self.repository` / `self.estimator` alias it for
        # the paper's base design (and backward compatibility).
        self._repositories: Dict[str, InformationRepository] = {}
        self._estimators: Dict[str, ResponseTimeEstimator] = {}
        self._members: List[str] = []
        self.repository = self._repo_for(DEFAULT_CLASS)
        self.estimator = self._estimators[DEFAULT_CLASS]

        self.policy = policy or DynamicSelectionPolicy()
        self.stats = TimingFailureStats(min_samples=min_violation_samples)
        self._pending: Dict[int, _PendingRequest] = {}
        # msg_id -> (send time, target replica)
        self._probes_in_flight: Dict[int, Tuple[float, str]] = {}
        self._violation_reported = False

        # Track the service group: seed the repositories from the current
        # view, follow future views, and subscribe to performance pushes.
        self._mgroup = group_comm.multicast_group(self.service)
        group_comm.on_view_change(self.service, host, self._on_view_change)
        self._members = self._mgroup.members()
        self._sync_repositories()
        self._send_subscription()

        # Health subsystem (docs/ARCHITECTURE.md §5): state machine fed by
        # the evidence this handler already collects.
        self.health: Optional[HealthMonitor] = None
        self._crash_unsubscribe: Optional[Callable[[], None]] = None
        # (msg_id, offending replicas) pairs — requests dispatched to a
        # quarantined replica.  Must stay empty; surfaced as a lifecycle
        # leak so the fault-injection auditor enforces the invariant.
        self.quarantined_traffic: List[Tuple[int, Tuple[str, ...]]] = []
        if health_config is not None:
            self.health = HealthMonitor(health_config, listener=health_listener)
            self.health.sync_members(self._members, self.clock.now)
            detector = getattr(group_comm, "failure_detector", None)
            if detector is not None:
                self._crash_unsubscribe = detector.on_crash(
                    self._on_crash_declared
                )
        if self.probe_staleness_ms is not None or self.health is not None:
            self.sim.call_in(
                self.probe_interval_ms, self._probe_tick, daemon=True
            )
        if self.bootstrap_probes:
            self.sim.call_in(0.0, self._bootstrap_probe_round, daemon=True)

        # Overload subsystem (docs/ARCHITECTURE.md §6): tracker always,
        # governor wraps the policy, admission controls the dispatch path.
        self.load_tracker: Optional[LoadTracker] = None
        self.admission: Optional[AdmissionController] = None
        self.sheds = 0
        if overload_config is not None:
            self.load_tracker = LoadTracker(
                overload_config.load,
                inflight_provider=self._inflight_copies,
            )
            if overload_config.governor is not None:
                self.policy = GovernedSelectionPolicy(
                    self.policy,
                    self.load_tracker,
                    overload_config.governor,
                )
            if overload_config.admission is not None:
                self.admission = AdmissionController(overload_config.admission)

    # -- per-class state -------------------------------------------------------
    def _repo_for(self, class_key: str) -> InformationRepository:
        repo = self._repositories.get(class_key)
        if repo is None:
            repo = InformationRepository(
                window_size=self.window_size,
                gateway_window_size=self.gateway_window_size,
            )
            repo.sync_members(self._members)
            self._repositories[class_key] = repo
            if self.estimator_factory is not None:
                estimator = self.estimator_factory(repo)
            else:
                estimator = ResponseTimeEstimator(
                    repo, bin_width_ms=self.bin_width_ms
                )
            self._estimators[class_key] = estimator
        return repo

    def _estimator_for(self, class_key: str) -> ResponseTimeEstimator:
        self._repo_for(class_key)
        return self._estimators[class_key]

    def _classify(self, request: MethodRequest) -> str:
        if self.classifier is None:
            return DEFAULT_CLASS
        return self.classifier(request)

    def request_classes(self) -> List[str]:
        """Class keys with performance state (always includes default)."""
        return sorted(self._repositories)

    def _sync_repositories(self) -> None:
        for class_key, repo in self._repositories.items():
            repo.sync_members(self._members)
            # Keep the estimator's versioned caches in step with the view:
            # entries for evicted replicas must not survive a re-join with
            # a fresh (restarted) record whose versions start over.
            self._estimators[class_key].prune(self._members)

    # -- membership tracking -----------------------------------------------------
    def _on_view_change(self, view: GroupView) -> None:
        joined = set(view.members) - set(self._members)
        self._members = list(view.members)
        self._sync_repositories()
        if self.health is not None:
            self.health.sync_members(self._members, self.clock.now)
        if self.load_tracker is not None:
            self.load_tracker.sync_members(self._members)
        self.tracer.emit(
            self.clock.kernel_now, f"client.{self.host}", "client.view",
            view=view.view_id, members=list(view.members),
        )
        if joined:
            # New replicas need this client's subscription too.
            self._send_subscription()

    def _on_crash_declared(self, host_name: str) -> None:
        """Failure-detector declaration: quarantine immediately.

        The monitor ignores hosts it does not track (e.g. other clients),
        so this can safely receive every declaration.
        """
        if self.health is not None:
            self.health.record_crash(host_name, self.clock.now)

    def _send_subscription(self) -> None:
        members = self._mgroup.members()
        if not members:
            return
        self._mgroup.send(
            Message(
                sender=self.host,
                destination="",
                kind=MSG_SUBSCRIBE,
                payload={"service": self.service, "client": self.host},
                size_bytes=64,
            )
        )

    # -- QoS -----------------------------------------------------------------
    def renegotiate_qos(self, new_spec: QoSSpec) -> None:
        """Adopt a new QoS specification at runtime (paper §4)."""
        if new_spec.service != self.service:
            raise ValueError(
                f"new spec names {new_spec.service!r}, handler serves "
                f"{self.service!r}"
            )
        self.qos = new_spec
        self.stats.reset()
        self._violation_reported = False

    # -- request path (RequestInterceptor) ------------------------------------------
    def submit(self, request: MethodRequest) -> Event:
        """Intercept a client invocation; returns its outcome event."""
        t0 = self.clock.now
        outcome_event = self.sim.event()
        signature = self.interface.method(request.method)
        call, marshal_cost = self.marshalling.marshal_request(request, signature)
        # Marshalling plus selection are CPU work on the client host,
        # charged before the request hits the wire (paper §5.3.3).
        self.sim.call_in(
            marshal_cost + self.selection_charge_ms,
            lambda: self._dispatch(request, call, t0, outcome_event),
        )
        return outcome_event

    def _dispatch(
        self,
        request: MethodRequest,
        call: MarshalledCall,
        t0: float,
        outcome_event: Event,
    ) -> int:
        """Select, transmit and register one request; returns its msg_id.

        Returns ``-1`` when the admission controller shed the request
        (no message was created, nothing hit the wire).
        """
        decision = self._decide(list(self._members), request)
        if self.load_tracker is not None:
            load = self.system_load()
            self.metrics.observe(
                "tf.load_index", load,
                labels={"client": self.host, "service": self.service},
            )
            if self.admission is not None and self.admission.should_shed(
                decision.meta, load
            ):
                self._shed(decision, load, t0, outcome_event)
                return -1
        message = Message(
            sender=self.host,
            destination="",
            kind=MSG_REQUEST,
            payload={"service": self.service, "call": call, "client": self.host},
            size_bytes=call.size_bytes,
        )
        pending = _PendingRequest(
            request=request,
            t0=t0,
            t1=self.clock.now,
            event=outcome_event,
            decision=decision,
        )
        self._pending[message.msg_id] = pending

        sent_to: Tuple[str, ...] = ()
        if decision.selected:
            try:
                sent_to = tuple(self._mgroup.send(message, decision.selected))
            except MembershipError:
                sent_to = ()
        if sent_to:
            pending.decision = SelectionDecision(
                selected=sent_to, meta=decision.meta
            )
            pending.expected.update(sent_to)
            self.metrics.observe(
                "tf.redundancy", len(sent_to),
                labels={"client": self.host, "service": self.service},
            )
        if (
            self.health is not None
            and sent_to
            and not decision.meta.get("quarantine_override", False)
        ):
            # Invariant: quarantined replicas receive no client traffic
            # (the override — every replica quarantined — is exempt).
            violated = tuple(
                r for r in sent_to if self.health.is_quarantined(r)
            )
            if violated:
                self.quarantined_traffic.append((message.msg_id, violated))
        self.tracer.emit(
            self.clock.kernel_now, f"client.{self.host}", "client.sent",
            msg_id=message.msg_id, selected=list(sent_to), t0=t0,
            bootstrap=decision.meta.get("bootstrap", False),
        )
        self.metrics.increment(
            "tf.requests", labels={"client": self.host, "service": self.service}
        )
        if not sent_to:
            # The request reached zero replicas (empty view or a racing
            # eviction): no reply can ever arrive, so fail fast as a
            # timeout instead of burning factor × deadline.
            self.sim.call_in(0.0, lambda: self._expire(message.msg_id))
            return message.msg_id
        # Arm the response timeout; it also keeps the kernel's run loop
        # alive while a reply is in flight.
        timeout_ms = self._response_timeout_ms(sent_to, self._classify(request))
        self.sim.call_in(
            timeout_ms, lambda: self._expire(message.msg_id)
        )
        return message.msg_id

    def _response_timeout_ms(
        self, selected: Tuple[str, ...], class_key: str
    ) -> float:
        """How long to wait for a reply before declaring the request dead.

        Legacy behaviour: a fixed ``factor × deadline``.  With an adaptive
        quantile configured, the timeout follows the model instead — the
        worst selected replica's predicted ``R_i`` at that quantile — so a
        silent replica is billed an omission after roughly how long a
        *working* one would plausibly take, not after a 10× grace period.
        Clamped to ``[deadline, factor × deadline]``: never give up before
        the deadline has actually passed, never wait longer than legacy.
        """
        ceiling = self.qos.deadline_ms * self.response_timeout_factor
        if self.adaptive_timeout_quantile is None or not selected:
            return ceiling
        estimator = self._estimator_for(class_key)
        quantiles: List[float] = []
        for replica in selected:
            try:
                pmf = estimator.response_time_pmf(replica)
            except KeyError:
                pmf = None  # mid-view-change: not tracked yet
            if pmf is None:
                return ceiling  # cold model: keep the generous legacy wait
            quantiles.append(pmf.quantile(self.adaptive_timeout_quantile))
        return min(ceiling, max(self.qos.deadline_ms, max(quantiles)))

    def _decide(
        self, replicas: List[str], request: MethodRequest
    ) -> SelectionDecision:
        if not replicas:
            return SelectionDecision(selected=(), meta={"no_replicas": True})
        class_key = self._classify(request)
        ctx = SelectionContext(
            replicas=replicas,
            estimator=self._estimator_for(class_key),
            qos=self.qos,
            now_ms=self.clock.now,
            rng=self.rng,
            distance=self.distance,
            health=self.health,
            selection_charge_ms=self.selection_charge_ms,
        )
        decision = self.policy.decide(ctx)
        if class_key != DEFAULT_CLASS:
            decision.meta["request_class"] = class_key
        return decision

    # -- overload ---------------------------------------------------------------
    def _inflight_copies(self) -> int:
        """Request copies addressed but not yet replied to (tracker input)."""
        return sum(
            len(p.expected - p.replied) for p in self._pending.values()
        )

    def system_load(self) -> float:
        """The load index over the active (non-quarantined) replica set."""
        if self.load_tracker is None:
            return 0.0
        names = self._members
        if self.health is not None:
            active = [r for r in names if not self.health.is_quarantined(r)]
            names = active or names
        return self.load_tracker.system_load(names)

    def _shed(
        self,
        decision: SelectionDecision,
        load: float,
        t0: float,
        outcome_event: Event,
    ) -> None:
        """Fail-fast reject one request before any copy hits the wire.

        Sheds are the third completion outcome: no ``_pending`` entry is
        created, no replica sees the request, and the response-time stats
        are left untouched (a shed is load control, not a timing fault).
        """
        self.sheds += 1
        self.metrics.increment(
            "tf.sheds", labels={"client": self.host, "service": self.service}
        )
        meta: SelectionMeta = {**decision.meta, "shed_load": load}
        outcome = ReplyOutcome(
            value=None,
            response_time_ms=max(0.0, self.clock.now - t0),
            timely=False,
            timed_out=False,
            replica=None,
            redundancy=0,
            request_id=-1,
            decision_meta=meta,
            shed=True,
        )
        self.tracer.emit(
            self.clock.kernel_now, f"client.{self.host}", "client.shed", load=load
        )
        outcome_event.succeed(outcome)

    # -- reply path ------------------------------------------------------------
    def handle_message(self, message: Message) -> None:
        if message.kind == MSG_PERF:
            perf: PerformanceUpdate = message.payload["perf"]
            self._record_perf(perf)
            return
        if message.kind == MSG_PROBE_REPLY:
            self._on_probe_reply(message)
            return
        # MSG_REPLY
        t4 = self.clock.now
        perf = message.payload["perf"]
        replica = message.payload["replica"]
        pending = self._pending.get(message.correlation_id)

        # Every reply — first or redundant — is mined for performance
        # data (paper §5.4.1), but only when the replica's reported
        # timings are coherent with this gateway's own same-clock
        # observations: one sample from a faulty clock poisons the
        # sliding windows for the next ``l`` requests.
        recorded = False
        coherent = True
        if pending is None:
            self._record_perf(perf)
        elif self._reply_coherent(pending, perf, t4):
            recorded = self._record_perf(perf)
        else:
            coherent = False
            self._note_clock_anomaly(replica, t4)
        if pending is not None:
            if recorded:
                gateway_delay = self._gateway_delay_sample(pending, perf, t4)
                self._record_gateway_delay(
                    replica, gateway_delay, t4,
                    class_key=self._classify(pending.request),
                )
                if self.health is not None:
                    self.health.record_coherent_sample(replica)
            pending.replied.add(replica)
            if self.health is not None and coherent:
                # Every coherent reply — first or redundant — is health
                # evidence: within the deadline a success, a straggler a
                # timing fault.  (A timely reply from a quarantined
                # replica proves liveness and re-admits it to probation.)
                # An *incoherent* reply already became clock-anomaly
                # evidence above; letting it also "prove liveness" would
                # re-admit the very replica the clock quarantine just
                # removed, flapping it through probation forever.
                if t4 - pending.t0 <= self.qos.deadline_ms:
                    self.health.record_success(replica, t4)
                else:
                    self.health.record_fault(replica, t4, kind="timing")

        if pending is None or pending.completed:
            self._maybe_forget(message.correlation_id)
            return  # redundant (or post-expiry) reply: discard

        pending.completed = True
        reply: MarshalledReply = message.payload["reply"]
        value, demarshal_cost = self.marshalling.demarshal_reply(reply)
        # The paper's tr = t4 − t0, both on this gateway's clock; clamped
        # at zero so a backward-stepped client clock can never admit a
        # negative response time (auditor invariant, ARCHITECTURE.md §10).
        response_time = max(0.0, t4 - pending.t0)
        timely = response_time <= self.qos.deadline_ms
        self._account(response_time)
        outcome = ReplyOutcome(
            value=value,
            response_time_ms=response_time,
            timely=timely,
            timed_out=False,
            replica=replica,
            redundancy=pending.decision.redundancy,
            request_id=message.correlation_id,
            decision_meta=pending.decision.meta.copy(),
        )
        self.tracer.emit(
            self.clock.kernel_now, f"client.{self.host}", "client.reply",
            msg_id=message.correlation_id, replica=replica,
            tr=response_time, timely=timely,
        )
        # The CORBA upcall happens after demarshalling.
        self.sim.call_in(
            demarshal_cost, lambda: outcome_event_succeed(pending.event, outcome)
        )
        self._maybe_forget(message.correlation_id)

    def _maybe_forget(self, msg_id: int) -> None:
        """Drop a completed record once every expected reply has arrived.

        Redundant replies from the remaining expected replicas are still
        mined for performance data, so the record stays until they have
        all been heard from (or the response timeout gives up on them).
        """
        pending = self._pending.get(msg_id)
        if pending is None or not pending.completed:
            return
        if pending.expected <= pending.replied:
            self._forget(msg_id)

    def _forget(self, msg_id: int) -> Optional[_PendingRequest]:
        """Remove a request record; notifies subclasses via the hook."""
        pending = self._pending.pop(msg_id, None)
        if pending is not None:
            self._on_request_forgotten(msg_id)
        return pending

    def _on_request_forgotten(self, msg_id: int) -> None:
        """Hook: a request left ``_pending`` (subclasses clean aliases)."""

    def _expire(self, msg_id: int) -> None:
        pending = self._forget(msg_id)
        if pending is None:
            return
        if self.health is not None:
            # Replicas addressed but never heard from are omission faults
            # (the `faulted` set keeps retry timeouts from billing twice).
            for replica in sorted(
                pending.expected - pending.replied - pending.faulted
            ):
                pending.faulted.add(replica)
                self.health.record_fault(replica, self.clock.now, kind="omission")
        if pending.completed:
            return  # normal case: reply already delivered; just forget it
        pending.completed = True
        pending.expired = True
        response_time = max(0.0, self.clock.now - pending.t0)
        self._account(response_time)
        self.metrics.increment(
            "tf.timeouts", labels={"client": self.host, "service": self.service}
        )
        outcome = ReplyOutcome(
            value=None,
            response_time_ms=response_time,
            timely=False,
            timed_out=True,
            replica=None,
            redundancy=pending.decision.redundancy,
            request_id=msg_id,
            decision_meta=pending.decision.meta.copy(),
        )
        self.tracer.emit(
            self.clock.kernel_now, f"client.{self.host}", "client.timeout", msg_id=msg_id
        )
        pending.event.succeed(outcome)

    # -- probing (§8 extension + health re-admission) ----------------------------
    def _probe_tick(self) -> None:
        due: Set[str] = set()
        if self.probe_staleness_ms is not None:
            for repo in self._repositories.values():
                for name in repo.replicas():
                    if (
                        repo.record(name).staleness(self.clock.now)
                        > self.probe_staleness_ms
                    ):
                        due.add(name)
        if self.health is not None:
            due.update(self.health.due_probes(self.clock.now))
        # A replica with a probe already in flight is not probed again —
        # neither by the staleness path (its window going stale mid-probe
        # must not double-probe it) nor by the health path.
        in_flight = {replica for _sent, replica in self._probes_in_flight.values()}
        for replica in sorted(due - in_flight):
            self._send_probe(replica)
        self.sim.call_in(self.probe_interval_ms, self._probe_tick, daemon=True)

    def _bootstrap_probe_round(self) -> None:
        """Probe every member once, unconditionally (startup baseline)."""
        in_flight = {
            replica for _sent, replica in self._probes_in_flight.values()
        }
        for replica in sorted(set(self._members) - in_flight):
            self._send_probe(replica)

    def _send_probe(self, replica: str) -> None:
        message = Message(
            sender=self.host,
            destination=replica,
            kind=MSG_PROBE,
            payload={"service": self.service, "client": self.host},
            size_bytes=64,
        )
        self._probes_in_flight[message.msg_id] = (self.clock.now, replica)
        self.probes_sent += 1
        if self.health is not None:
            self.health.note_probe_sent(replica, self.clock.now)
        self.transport.send(message)
        # A probe whose reply is lost must not pin its record forever:
        # give up on it after one probe interval (it will be re-probed if
        # the replica stays stale), keeping the map bounded.
        self.sim.call_in(
            self.probe_interval_ms,
            lambda: self._expire_probe(message.msg_id),
            daemon=True,
        )
        self.tracer.emit(
            self.clock.kernel_now, f"client.{self.host}", "client.probe", replica=replica
        )

    def quiesce_probes(self) -> None:
        """Expire every in-flight probe through the normal expiry path.

        Probe expiry is daemon work (a lost probe must not keep the
        simulation alive), so a finite-horizon run can stop with probes
        still in flight.  Drain-time audits call this before auditing:
        it applies exactly the bookkeeping the expiry timers would have,
        just without waiting out the probe interval.
        """
        for msg_id in sorted(self._probes_in_flight):
            self._expire_probe(msg_id)

    def _expire_probe(self, msg_id: int) -> None:
        entry = self._probes_in_flight.pop(msg_id, None)
        if entry is None:
            return
        self.probes_expired += 1
        if self.health is not None:
            self.health.record_probe_failure(entry[1], self.clock.now)

    def _on_probe_reply(self, message: Message) -> None:
        entry = self._probes_in_flight.pop(message.correlation_id, None)
        if entry is None:
            return
        sent_at, _target = entry
        replica = message.payload["replica"]
        # Measured entirely on this gateway's clock — the trusted T_i
        # baseline replica-reported timings are checked against.
        round_trip = max(0.0, self.clock.now - sent_at)
        self._trusted_rtt[replica] = round_trip
        queue_length = message.payload["queue_length"]
        for repo in self._repositories.values():
            if replica not in repo:
                continue
            self._record_gateway_delay_into(
                repo, replica, round_trip, self.clock.now
            )
            repo.record(replica).queue_length = queue_length
        if self.load_tracker is not None and replica in self._members:
            self.load_tracker.observe_probe(
                replica, queue_length, self.clock.now
            )
        if self.health is not None:
            self.health.record_probe_success(replica, self.clock.now)

    # -- clock-sanity admission (docs/ARCHITECTURE.md §10) -----------------------
    def _admit_perf_sample(
        self, perf: PerformanceUpdate
    ) -> Optional[PerformanceUpdate]:
        """Admission control for replica-reported measurements.

        A negative duration is physically impossible — no healthy clock
        measures one — so the whole sample is rejected rather than
        clamped: a clamped zero would still poison the window with a
        fabricated "instant" service.  Subclasses that deliberately
        trust faulty reports (the A18 naive baseline) override this.
        """
        if perf.service_time_ms < 0.0 or perf.queue_delay_ms < 0.0:
            return None
        return perf

    def _reply_coherent(
        self, pending: _PendingRequest, perf: PerformanceUpdate, t4: float
    ) -> bool:
        """Is a reply's reported timing coherent with our own clock?

        Two same-clock cross-checks, both free of any synchronization
        assumption because every trusted quantity (``t1``, ``t4``, probe
        round trips) was read on this gateway's clock:

        * **inflation** — the replica cannot have spent longer queueing
          and servicing than the whole round trip took
          (``tq + ts ≤ t4 − t1 + slack``);
        * **deflation** — a replica claiming near-zero ``tq + ts`` while
          the round trip dwarfs the probed (same-clock) round trip is
          under-reporting: its clock is slow, stopped, or stepped.  Only
          active with the clock-sanity health signal enabled, since it
          needs a trusted probe round trip to compare against.
        """
        reported = perf.queue_delay_ms + perf.service_time_ms
        if reported > t4 - pending.t1 + self._clock_slack_ms:
            return False
        if self._clock_sanity and reported < 1.0:
            trusted = self._trusted_rtt.get(perf.replica)
            if trusted is not None:
                implied = t4 - pending.t1 - reported
                ceiling = (
                    self._clock_deflation_factor * max(trusted, 1.0)
                    + self._clock_slack_ms
                )
                if implied > ceiling:
                    return False
        return True

    def _gateway_delay_sample(
        self, pending: _PendingRequest, perf: PerformanceUpdate, t4: float
    ) -> float:
        """The T_i sample a coherent reply contributes.

        ``t4 − t1`` is measured entirely on this gateway's clock;
        subtracting the replica's *duration* reports (never its absolute
        stamps) keeps constant skew out of the estimate by construction.
        """
        return t4 - pending.t1 - perf.queue_delay_ms - perf.service_time_ms

    def _note_clock_anomaly(self, replica: str, now_ms: float) -> None:
        """One physically impossible / incoherent sample was dropped."""
        self.clock_rejections += 1
        self.metrics.increment(
            "tf.clock_rejections",
            labels={"client": self.host, "service": self.service},
        )
        self.tracer.emit(
            self.clock.kernel_now, f"client.{self.host}",
            "client.clock-anomaly", replica=replica,
        )
        if self.health is not None:
            self.health.record_clock_anomaly(replica, now_ms)

    # -- accounting --------------------------------------------------------------
    def _record_perf(self, perf: PerformanceUpdate) -> bool:
        admitted = self._admit_perf_sample(perf)
        if admitted is None:
            self._note_clock_anomaly(perf.replica, self.clock.now)
            return False
        perf = admitted
        class_key = (
            self._classify(perf.request)
            if perf.request is not None
            else DEFAULT_CLASS
        )
        repo = self._repo_for(class_key)
        if perf.replica not in repo:
            return False  # evicted replica; a stale push must not resurrect it
        repo.record_performance(
            perf.replica,
            perf.service_time_ms,
            perf.queue_delay_ms,
            perf.queue_length,
            self.clock.now,
        )
        if self.load_tracker is not None:
            self.load_tracker.observe_reply(
                perf.replica,
                perf.queue_length,
                perf.queue_delay_ms,
                perf.service_time_ms,
                self.clock.now,
            )
        return True

    def _record_gateway_delay(
        self, replica: str, delay_ms: float, now_ms: float, class_key: str
    ) -> None:
        repo = self._repo_for(class_key)
        self._record_gateway_delay_into(repo, replica, delay_ms, now_ms)
        # The gateway delay is request-class independent (it is a property
        # of the network path): share it with the default class too, so
        # rarely-used classes still have a fresh T_i.
        if class_key != DEFAULT_CLASS:
            self._record_gateway_delay_into(
                self._repo_for(DEFAULT_CLASS), replica, delay_ms, now_ms
            )

    @staticmethod
    def _record_gateway_delay_into(
        repo: InformationRepository, replica: str, delay_ms: float, now_ms: float
    ) -> None:
        if replica in repo:
            repo.record_gateway_delay(replica, delay_ms, now_ms)

    def _account(self, response_time: float) -> None:
        failed = self.stats.record(response_time, self.qos.deadline_ms)
        self.metrics.observe(
            "tf.response_time_ms", response_time,
            labels={"client": self.host, "service": self.service},
        )
        if failed:
            self.metrics.increment(
                "tf.timing_failures",
                labels={"client": self.host, "service": self.service},
            )
        if self.stats.violates(self.qos):
            if not self._violation_reported and self.violation_callback:
                self.violation_callback(
                    self.service,
                    self.stats.observed_timely_probability,
                    self.qos,
                )
            self._violation_reported = True
        else:
            self._violation_reported = False

    # -- lifecycle invariants ------------------------------------------------
    def lifecycle_leaks(self) -> Dict[str, List[Any]]:
        """State that must be empty once the system has fully drained.

        Keys map invariant names to the offending entries; an empty dict
        means the handler holds no leaked request-lifecycle state.  The
        fault-injection auditor (:mod:`repro.faultinject.auditor`) calls
        this at drain time.
        """
        leaks: Dict[str, List[Any]] = {}
        if self._pending:
            leaks["pending"] = sorted(self._pending)
        if self._probes_in_flight:
            leaks["probes_in_flight"] = sorted(self._probes_in_flight)
        members = set(self._members)
        resurrected = sorted(
            {
                name
                for repo in self._repositories.values()
                for name in repo.replicas()
                if name not in members
            }
        )
        if resurrected:
            leaks["resurrected_replicas"] = resurrected
        # Timestamp discipline (ARCHITECTURE.md §10): every repository
        # stamp comes from this gateway's own clock, so no record can be
        # newer than the clock's current reading.  A future stamp means
        # a replica's absolute timestamp was admitted — the exact bug
        # class the clock plane exists to catch.
        now_local = self.clock.now
        future_stamped = sorted(
            {
                name
                for repo in self._repositories.values()
                for name in repo.replicas()
                if (repo.record(name).last_update_ms or 0.0)
                > now_local + 1e-6
            }
        )
        if future_stamped:
            leaks["future_stamped_records"] = future_stamped
        if self.quarantined_traffic:
            # The no-traffic-to-quarantined invariant (ARCHITECTURE.md
            # §5): any entry here is a selection-layer bug.
            leaks["quarantined_traffic"] = [
                (msg_id, list(replicas))
                for msg_id, replicas in self.quarantined_traffic
            ]
        return leaks

    def __repr__(self) -> str:
        return (
            f"<TimingFaultClientHandler {self.host!r} service={self.service!r} "
            f"pending={len(self._pending)}>"
        )


def outcome_event_succeed(event: Event, outcome: ReplyOutcome) -> None:
    """Deliver ``outcome`` unless the event already completed (expiry race)."""
    if not event.triggered:
        event.succeed(outcome)
