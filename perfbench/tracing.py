"""In-process span tracing for the benchmark's traced runs.

The benchmark measures each layer from outside: :class:`Instrumentation`
replaces a fixed list of public methods and functions of the built stack
with thin wrappers that open a span on entry and close it on exit, and
restores the originals afterwards.  Nothing under ``src/`` changes.

A span has a name, a start, an end, a parent and (where the call's
first argument is a message) the request's ``msg_id``.  The parent is
the innermost open span: every traced call runs synchronously inside one
kernel callback, so Python call nesting is the causal nesting.  A span's
*self* time is its duration minus the time its child spans cover; the
recorder accumulates self time, inclusive time and call counts per name
online, and keeps the raw spans of one round in flat arrays so they can
be written out once the run ends.

``Simulator.call_in`` is wrapped at its callback argument only: the
kernel still schedules its own closure, so no event or process identity
changes.  Each fired callback is attributed to the module that defined
it (``__globals__['__name__']``, or the class of its bound ``__self__``);
failure-detector polls additionally get a ``group.fd`` span.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from collections import Counter
from time import perf_counter_ns
from typing import Any, Callable, Dict, List, Tuple

from repro.core.estimator import ResponseTimeEstimator
from repro.core.repository import InformationRepository
from repro.core.selection import DynamicSelectionPolicy
from repro.faultinject.auditor import LifecycleAuditor
from repro.faultinject.transport import FaultyTransport
from repro.gateway.handlers.timing_fault import TimingFaultClientHandler
from repro.health.monitor import HealthMonitor
from repro.net.transport import Transport
from repro.overload.admission import AdmissionController
from repro.overload.governor import GovernedSelectionPolicy
from repro.replica.server import ReplicaApplication
from repro.sim.kernel import Simulator

__all__ = ["SpanRecorder", "Instrumentation", "FD_MODULE"]

#: Module whose ``call_in`` callbacks are failure-detector polls.
FD_MODULE = "repro.group.failure_detector"

#: (span name, owner class, method names) — the timed public calls.
METHOD_TARGETS: Tuple[Tuple[str, type, Tuple[str, ...]], ...] = (
    ("core.decide", DynamicSelectionPolicy, ("decide",)),
    ("core.estimator.batch", ResponseTimeEstimator, ("batch_probability_by",)),
    (
        "core.repository.write",
        InformationRepository,
        ("record_performance", "record_gateway_delay"),
    ),
    ("gateway.handle_message", TimingFaultClientHandler, ("handle_message",)),
    ("gateway.submit", TimingFaultClientHandler, ("submit",)),
    ("net.send", Transport, ("send",)),
    ("net.multicast", Transport, ("multicast",)),
    ("replica.execute", ReplicaApplication, ("execute",)),
    ("overload.governor", GovernedSelectionPolicy, ("decide",)),
    ("overload.admission", AdmissionController, ("should_shed",)),
    (
        "health",
        HealthMonitor,
        tuple(
            name
            for name in vars(HealthMonitor)
            if name.startswith("record_") and name != "record_for"
        )
        + ("is_quarantined", "discount"),
    ),
    ("faultinject.transport", FaultyTransport, ("send", "multicast")),
    ("faultinject.audit", LifecycleAuditor, ("audit",)),
)

#: (span name, defining module, function name) — module-level functions;
#: every ``repro`` module that imported the function gets the wrapper.
FUNCTION_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("core.alg1", "repro.core.selection", "select_replicas_arrays"),
)


def _msg_id(args: Tuple[Any, ...]) -> int:
    """The request identifier a call's message argument carries, or -1."""
    if len(args) < 2:
        return -1
    message = args[1]
    correlation = getattr(message, "correlation_id", None)
    if correlation is not None:
        return int(correlation)
    msg_id = getattr(message, "msg_id", None)
    return int(msg_id) if msg_id is not None else -1


class SpanRecorder:
    """Collects spans, per-name self/inclusive time and call counts."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_index: Dict[str, int] = {}
        # Open spans: [span index or -1, start ns, child ns, name index].
        self._stack: List[List[int]] = []
        self.self_ns: Counter[str] = Counter()
        self.total_ns: Counter[str] = Counter()
        self.calls: Counter[str] = Counter()
        #: Inclusive durations of ``core.decide`` (for its p99).
        self.decide_ns = array("q")
        #: ``call_in`` callbacks fired, by defining module.
        self.callbacks: Counter[str] = Counter()
        self.keep_spans = False
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("i")
        self.span_msg = array("q")

    def name_index(self, name: str) -> int:
        """Stable small integer for ``name`` (the spans' name table)."""
        index = self._name_index.get(name)
        if index is None:
            index = len(self.names)
            self._name_index[name] = index
            self.names.append(name)
        return index

    def enter(self, name_index: int, msg_id: int) -> None:
        """Open a span; its parent is the innermost open span."""
        start = perf_counter_ns()
        index = -1
        if self.keep_spans:
            index = len(self.span_start)
            self.span_name.append(name_index)
            self.span_start.append(start)
            self.span_end.append(0)
            self.span_parent.append(self._stack[-1][0] if self._stack else -1)
            self.span_msg.append(msg_id)
        self._stack.append([index, start, 0, name_index])

    def exit(self) -> None:
        """Close the innermost span and charge its time."""
        end = perf_counter_ns()
        index, start, child_ns, name_index = self._stack.pop()
        duration = end - start
        name = self.names[name_index]
        self.self_ns[name] += duration - child_ns
        self.total_ns[name] += duration
        self.calls[name] += 1
        if name == "core.decide":
            self.decide_ns.append(duration)
        if index >= 0:
            self.span_end[index] = end
        if self._stack:
            self._stack[-1][2] += duration

    def write_spans(self, path: str) -> int:
        """Write the kept spans as gzip CSV; returns how many were written."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write("index,name,start_ns,end_ns,parent,msg_id\n")
            for i in range(len(self.span_start)):
                handle.write(
                    f"{i},{self.names[self.span_name[i]]},{self.span_start[i]},"
                    f"{self.span_end[i]},{self.span_parent[i]},{self.span_msg[i]}\n"
                )
        return len(self.span_start)


def _callback_origin(callback: Callable[..., Any]) -> str:
    """The module that defined ``callback`` (bound methods: their class's)."""
    owner = getattr(callback, "__self__", None)
    if owner is not None:
        return type(owner).__module__
    func = getattr(callback, "func", callback)  # functools.partial
    globals_ = getattr(func, "__globals__", None)
    if globals_ is not None:
        return str(globals_.get("__name__", "?"))
    return type(callback).__module__


class Instrumentation:
    """Installs span wrappers on the stack's public calls; restorable.

    Use as a context manager around building *and* running a stack:
    objects that capture a bound method at construction (the auditor
    wraps ``submit``) must see the wrapper, so it has to be in place
    before the stack exists.
    """

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._restore: List[Tuple[Any, str, Any]] = []

    def __enter__(self) -> "Instrumentation":
        for name, owner, methods in METHOD_TARGETS:
            for method in methods:
                original = owner.__dict__[method]
                self._patch(owner, method, self._span_wrapper(name, original))
        for name, module_name, function in FUNCTION_TARGETS:
            original = getattr(sys.modules[module_name], function)
            wrapper = self._span_wrapper(name, original)
            for module in list(sys.modules.values()):
                if (
                    getattr(module, "__name__", "").startswith("repro")
                    and getattr(module, function, None) is original
                ):
                    self._patch(module, function, wrapper)
        self._patch(Simulator, "call_in", self._call_in_wrapper())
        return self

    def __exit__(self, *exc: object) -> None:
        for owner, attribute, original in reversed(self._restore):
            setattr(owner, attribute, original)
        self._restore.clear()

    def _patch(self, owner: Any, attribute: str, replacement: Any) -> None:
        self._restore.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def _span_wrapper(self, name: str, original: Callable[..., Any]) -> Any:
        recorder = self.recorder
        name_index = recorder.name_index(name)
        enter, exit_ = recorder.enter, recorder.exit

        def traced(*args: Any, **kwargs: Any) -> Any:
            enter(name_index, _msg_id(args))
            try:
                return original(*args, **kwargs)
            finally:
                exit_()

        traced.__name__ = getattr(original, "__name__", name)
        traced.__doc__ = getattr(original, "__doc__", None)
        return traced

    def _call_in_wrapper(self) -> Any:
        recorder = self.recorder
        original = Simulator.__dict__["call_in"]
        fd_index = recorder.name_index("group.fd")
        callbacks = recorder.callbacks
        enter, exit_ = recorder.enter, recorder.exit

        def call_in(
            sim: Simulator,
            delay: float,
            callback: Callable[[], None],
            daemon: bool = False,
        ) -> Any:
            origin = _callback_origin(callback)
            if origin == FD_MODULE:

                def fire() -> None:
                    callbacks[origin] += 1
                    enter(fd_index, -1)
                    try:
                        callback()
                    finally:
                        exit_()

            else:

                def fire() -> None:
                    callbacks[origin] += 1
                    callback()

            return original(sim, delay, fire, daemon)

        return call_in
