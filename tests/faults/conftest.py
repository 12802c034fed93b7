"""Shared fixture for the fault-injection tests.

A deterministic deployment whose transport is a
:class:`~repro.faultinject.FaultyTransport` (empty schedule; tests set
``stack.transport.schedule``), whose auditor watches every client and
server, and whose ``lifecycle`` driver applies crash/restart and churn.
"""

import pytest

from repro.deployment import Deployment
from repro.faultinject import FaultSchedule


@pytest.fixture
def stack() -> Deployment:
    return Deployment(schedule=FaultSchedule())
