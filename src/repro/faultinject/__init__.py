"""Fault injection and lifecycle auditing for the request path.

Composable layers:

* :mod:`~repro.faultinject.schedule` — declarative fault schedules
  (drops, delay spikes, duplicated/late replies, crash+restart, view
  churn, persistent degradation, network partitions, clock faults) plus
  a randomized-schedule generator;
* :mod:`~repro.faultinject.transport` /
  :mod:`~repro.faultinject.drivers` /
  :mod:`~repro.faultinject.partition` /
  :mod:`~repro.faultinject.clock` — interpreters that apply a schedule
  to a running deployment (message level, host level, connectivity
  level and clock level respectively);
* :mod:`~repro.faultinject.auditor` — the drain-time
  :class:`LifecycleAuditor` asserting the request-lifecycle invariants
  (exactly-once completion, no leaked bookkeeping, no resurrected
  replicas, idle servers, no acks from the dark side of a cut);
* :mod:`~repro.faultinject.campaign` — the randomized chaos-campaign
  engine: composed schedules fanned over the parallel sweep runner,
  audited per scenario, with a delta-debugging shrinker that minimizes
  failing schedules to a replayable reproducer.  It runs each scenario
  on a :class:`~repro.deployment.Deployment`, which is built from the
  layers above, so it is a layer above them too: import it from
  ``repro.faultinject.campaign`` (the package does not re-export it).

See docs/ARCHITECTURE.md ("Fault injection and lifecycle invariants").
"""

from .auditor import (
    AuditReport,
    LifecycleAuditor,
    LifecycleViolation,
    SubmissionRecord,
)
from .clock import CLOCK_FAULT_KINDS, ClockDriver, ClockFault
from .drivers import LifecycleFaultDriver
from .overload import OverloadDriver
from .partition import (
    PROBE_EXEMPT_KINDS,
    PartitionDriver,
    PartitionFault,
    grey_partition,
)
from .schedule import (
    ChurnFault,
    CrashRestartFault,
    DegradationFault,
    DelayRule,
    DropRule,
    DuplicateRule,
    FaultSchedule,
    OverloadFault,
    random_fault_schedule,
)
from .transport import FaultyTransport

__all__ = [
    "AuditReport",
    "CLOCK_FAULT_KINDS",
    "ChurnFault",
    "ClockDriver",
    "ClockFault",
    "CrashRestartFault",
    "DegradationFault",
    "DelayRule",
    "DropRule",
    "DuplicateRule",
    "FaultSchedule",
    "FaultyTransport",
    "LifecycleAuditor",
    "LifecycleFaultDriver",
    "LifecycleViolation",
    "OverloadDriver",
    "OverloadFault",
    "PROBE_EXEMPT_KINDS",
    "PartitionDriver",
    "PartitionFault",
    "SubmissionRecord",
    "grey_partition",
    "random_fault_schedule",
]
