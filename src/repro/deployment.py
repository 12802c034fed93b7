"""The one builder of a simulated AQuA deployment: :class:`Deployment`.

The paper's timing fault handler is one gateway handler inside a fixed
stack (§2): a LAN, group communication with crash detection, ORB
interception, and replicas behind per-host gateways.  Scenarios, the
chaos campaign, the A15/A18 ablations and the test suites all assemble
that stack here, so the orders that fix the sequence of same-time kernel
events — host registration, ``join(watch=True)``, fault-driver arming —
live in one place.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Dict, Optional, Tuple, Type, Union

import numpy as np

from .core.qos import QoSSpec
from .faultinject.auditor import LifecycleAuditor
from .faultinject.clock import ClockDriver
from .faultinject.drivers import LifecycleFaultDriver
from .faultinject.overload import OverloadDriver
from .faultinject.partition import PartitionDriver
from .faultinject.schedule import FaultSchedule
from .faultinject.transport import FaultyTransport
from .gateway.gateway import Gateway
from .gateway.handlers.timing_fault import (
    TimingFaultClientHandler,
    TimingFaultServerHandler,
)
from .group.ensemble import GroupCommunication
from .group.failure_detector import FailureDetector
from .net.lan import LanModel, LinkProfile
from .net.transport import Transport, TransportAPI
from .orb.iiop import MarshallingModel
from .orb.object import MethodSignature, Servant, ServiceInterface
from .orb.orb import Orb, Stub
from .replica.load import ServiceProfile
from .replica.server import ReplicaApplication
from .rng import RNGManager, derive_entity_seed
from .sim.events import Event
from .sim.hostclock import ClockRegistry
from .sim.kernel import Simulator
from .sim.random import Constant, Distribution, RandomStreams
from .sim.trace import NullTracer, Tracer

__all__ = ["SERVICE", "METHOD", "Deployment", "IntegerServant", "make_interface"]

#: Service and method of the one-method interface every harness serves.
SERVICE = "search"
METHOD = "process"

#: Every deployment's group layer: view changes reach members after 1 ms,
#: and a host is declared crashed after two consecutive missed polls.
NOTIFY_DELAY_MS = 1.0
CONFIRM_POLLS = 2


def make_interface(
    service: str = SERVICE,
    method: str = METHOD,
    request_bytes: int = 64,
    reply_bytes: int = 64,
) -> ServiceInterface:
    """A single-method interface, as the paper assumes (§8: one method)."""
    interface = ServiceInterface(service)
    interface.add_method(
        MethodSignature(
            name=method, request_bytes=request_bytes, reply_bytes=reply_bytes
        )
    )
    return interface


class IntegerServant(Servant):
    """Replies with integer data, like the paper's test servers (§6).

    Accepts every method on its interface (the reply value is the echoed
    request index either way); the *duration* differences between methods
    live in the replica's :class:`ServiceProfile`.
    """

    def dispatch(self, method: str, args: Tuple[Any, ...]) -> int:
        """Echo the request index (the first argument) as the reply."""
        if method not in self.interface:
            raise KeyError(f"unknown method {method!r}")
        index = args[0] if args else 0
        return int(index)


class Deployment:
    """A wired simulated AQuA stack.

    It owns the simulator, the per-host clocks, the named random streams,
    the LAN, the transport, the failure detector, group communication,
    the marshalling model and a lifecycle auditor watching every client
    and server it builds.

    ``link`` defaults to deterministic 1 ms hops and ``marshalling`` to
    zero cost.  ``vantage`` is the host the failure detector observes
    from (``None``: it sees crashes but not partitions).  Given a
    ``schedule``, the transport is a :class:`FaultyTransport` enforcing
    its message-level faults, seeded by ``wire`` (an :class:`RNGManager`
    or a bare generator), and the auditor checks its partition
    invariants; :meth:`inject` arms the host-level rest.
    """

    def __init__(
        self,
        seed: int = 0,
        *,
        link: Optional[LinkProfile] = None,
        shared_congestion: Optional[Distribution] = None,
        poll_interval_ms: float = 10.0,
        vantage: Optional[str] = None,
        marshalling: Optional[MarshallingModel] = None,
        interface: Optional[ServiceInterface] = None,
        tracer: Optional[Tracer] = None,
        schedule: Optional[FaultSchedule] = None,
        wire: Union[RNGManager, np.random.Generator, None] = None,
    ) -> None:
        self.sim = Simulator()
        # One virtual clock per host; handlers stamp on their own host's
        # clock so the clock-fault plane can de-synchronize them.
        self.clocks = ClockRegistry(self.sim)
        self.streams = RandomStreams(seed=seed)
        self.tracer: Tracer = tracer if tracer is not None else NullTracer()
        self.lan = LanModel(
            self.streams,
            default_profile=link
            or LinkProfile(
                stack_ms=1.0, per_kb_ms=0.0, per_member_ms=0.0, jitter=Constant(0.0)
            ),
            shared_congestion=shared_congestion,
        )
        inner = Transport(self.sim, self.lan, tracer=self.tracer)
        self.transport: TransportAPI = inner
        self.auditor = LifecycleAuditor()
        if schedule is not None:
            self.transport = FaultyTransport(
                inner,
                schedule=schedule,
                rng=wire if isinstance(wire, np.random.Generator) else None,
                streams=wire if isinstance(wire, RNGManager) else None,
                tracer=self.tracer,
            )
            self.auditor.set_schedule(schedule)
        # Jitter windows draw from streams keyed off the wire seed, so a
        # campaign scenario's clock noise replays with its wire.
        self._clock_streams = (
            RNGManager(derive_entity_seed(wire.base_seed, "chaos.clock", 0, 0))
            if isinstance(wire, RNGManager)
            else None
        )
        detector = FailureDetector(
            self.sim,
            self.lan,
            poll_interval_ms=poll_interval_ms,
            confirm_polls=CONFIRM_POLLS,
            tracer=self.tracer,
            vantage=vantage,
        )
        self.group_comm = GroupCommunication(
            self.sim,
            self.lan,
            self.transport,
            notify_delay_ms=NOTIFY_DELAY_MS,
            failure_detector=detector,
            tracer=self.tracer,
        )
        self.marshalling = marshalling or MarshallingModel(
            base_ms=0.0, per_kb_ms=0.0, envelope_bytes=0
        )
        self.interface = interface or make_interface()
        self.service = self.interface.name
        self.servers: Dict[str, TimingFaultServerHandler] = {}
        self.clients: Dict[str, TimingFaultClientHandler] = {}
        self.stubs: Dict[str, Stub] = {}
        #: Crash/restart, churn and degradation driver over ``servers``.
        self.lifecycle = LifecycleFaultDriver(
            sim=self.sim,
            lan=self.lan,
            group_comm=self.group_comm,
            service=self.service,
            servers=self.servers,
            tracer=self.tracer,
        )

    def _gateway(self, host: str) -> Gateway:
        return Gateway(host, self.sim, self.transport, tracer=self.tracer)

    def add_server(
        self, host: str, service_time: Optional[Distribution] = None
    ) -> TimingFaultServerHandler:
        """Start a replica on a new host (10 ms constant service by default)."""
        self.lan.add_host(host)
        app = ReplicaApplication(
            host=host,
            servant=IntegerServant(self.interface),
            profile=ServiceProfile(default=service_time or Constant(10.0)),
            streams=self.streams,
        )
        server = TimingFaultServerHandler(
            sim=self.sim,
            app=app,
            transport=self.transport,
            marshalling=self.marshalling,
            tracer=self.tracer,
            clock=self.clocks.clock(host),
        )
        self._gateway(host).load_handler(server)
        self.group_comm.join(self.service, host, watch=True)
        self.servers[host] = server
        self.auditor.watch_server(server)
        return server

    def add_client(
        self,
        host: str,
        qos: QoSSpec,
        handler_cls: Type[TimingFaultClientHandler] = TimingFaultClientHandler,
        gateway_for: Optional[Callable[[str], Gateway]] = None,
        **handler_kwargs: Any,
    ) -> Tuple[TimingFaultClientHandler, Stub]:
        """Add a client host running ``handler_cls``; returns (handler, stub).

        ``handler_kwargs`` reach the handler unchanged.  Unless they say
        otherwise, it charges no selection time, traces to the
        deployment's tracer, stamps on its host's clock and draws from the
        ``client.<host>.policy`` stream.  ``gateway_for`` supplies the
        host's gateway when a Proteus manager owns the gateways.
        """
        self.lan.add_host(host)
        handler_kwargs.setdefault("selection_charge_ms", 0.0)
        handler_kwargs.setdefault("tracer", self.tracer)
        handler_kwargs.setdefault("clock", self.clocks.clock(host))
        if "rng" not in handler_kwargs:
            handler_kwargs["rng"] = self.streams.stream(f"client.{host}.policy")
        handler = handler_cls(
            sim=self.sim,
            host=host,
            transport=self.transport,
            group_comm=self.group_comm,
            interface=self.interface,
            qos=qos,
            marshalling=self.marshalling,
            **handler_kwargs,
        )
        (gateway_for or self._gateway)(host).load_handler(handler)
        self.auditor.watch_client(handler)
        # Each client process gets its own ORB, like separate CORBA
        # applications on separate hosts.
        orb = Orb()
        orb.register_interface(self.interface)
        orb.bind_interceptor(self.service, handler)
        self.clients[host] = handler
        self.stubs[host] = orb.stub(self.service)
        return handler, self.stubs[host]

    def invoke(self, client_host: str, arg: int = 0) -> Event:
        """Fire one request through the client's stub; returns its event."""
        return self.stubs[client_host].invoke(METHOD, arg)

    def inject(self, schedule: FaultSchedule) -> None:
        """Arm the host-level fault families of ``schedule``.

        Lifecycle, partition, overload and clock drivers are armed in that
        order, since same-time transitions fire in arming order.  The
        message-level families belong to the transport: pass the same
        schedule to the constructor.
        """
        self.lifecycle.apply(schedule)
        PartitionDriver(
            sim=self.sim,
            lan=self.lan,
            group_comm=self.group_comm,
            service=self.service,
            replicas=tuple(self.servers),
            tracer=self.tracer,
        ).apply(schedule)
        if schedule.overloads:
            submitters = {host: partial(self.invoke, host) for host in self.stubs}
            OverloadDriver(self.sim, submitters, tracer=self.tracer).apply(schedule)
        ClockDriver(
            self.sim,
            self.clocks.clocks(),
            tracer=self.tracer,
            streams=self._clock_streams,
        ).apply(schedule)
