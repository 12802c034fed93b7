"""A seed fixes every simulated number, however fast the host runs.

The §5.3.3 deadline compensation uses ``δ`` = the handler's simulated
selection charge.  Were ``δ`` measured on the host, a slower machine
would shrink the effective deadline and select more replicas; this test
runs A2's 2-crash hedge with ``time.perf_counter`` reporting a host 20×
slower and requires the very same result.
"""

import time

import pytest

from repro.core.selection import DynamicSelectionPolicy
from repro.experiments import crash_tolerance


def _two_crash_hedge():
    return crash_tolerance.run_crash_experiment(
        lambda: DynamicSelectionPolicy(crash_tolerance=2),
        "dynamic, 2-crash hedge",
        seeds=(0, 1, 2, 3, 4),
        num_requests=50,
    )


def test_a2_two_crash_hedge_ignores_host_speed(monkeypatch):
    as_is = _two_crash_hedge()
    real = time.perf_counter
    monkeypatch.setattr(time, "perf_counter", lambda: 20.0 * real())
    slow_host = _two_crash_hedge()
    assert slow_host == as_is
    assert as_is.mean_redundancy == pytest.approx(3.708)
    assert as_is.failure_probability == 0.0
