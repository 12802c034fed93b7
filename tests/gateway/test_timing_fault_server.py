"""Unit tests for the server side of the timing fault handler."""

import pytest

from repro.core.qos import QoSSpec
from repro.deployment import SERVICE
from repro.sim.random import Constant


def test_request_is_serviced_and_replied(stack):
    stack.add_server("replica-1", service_time=Constant(20.0))
    stack.add_client("client-1", QoSSpec(SERVICE, 200.0, 0.0))
    event = stack.invoke("client-1", 7)
    stack.sim.run()
    outcome = event.value
    assert outcome.value == 7
    assert outcome.replica == "replica-1"
    assert not outcome.timed_out


def test_fifo_ordering_under_backlog(stack):
    server = stack.add_server("replica-1", service_time=Constant(50.0))
    stack.add_client("client-1", QoSSpec(SERVICE, 10_000.0, 0.0))
    first = stack.invoke("client-1", 1)
    second = stack.invoke("client-1", 2)
    stack.sim.run()
    assert first.value.value == 1
    assert second.value.value == 2
    # The second request waited behind the first: its reply carries the
    # queuing delay in its response time.
    assert second.value.response_time_ms > first.value.response_time_ms


def test_queue_delay_reported_in_perf_data(stack):
    stack.add_server("replica-1", service_time=Constant(50.0))
    client, _ = stack.add_client("client-1", QoSSpec(SERVICE, 10_000.0, 0.0))
    stack.invoke("client-1", 1)
    stack.invoke("client-1", 2)
    stack.sim.run()
    delays = client.repository.record("replica-1").queue_delays.values()
    assert delays[0] == pytest.approx(0.0, abs=0.01)
    assert delays[1] >= 49.0  # waited one service time


def test_service_time_reported_in_perf_data(stack):
    stack.add_server("replica-1", service_time=Constant(35.0))
    client, _ = stack.add_client("client-1", QoSSpec(SERVICE, 10_000.0, 0.0))
    stack.invoke("client-1", 1)
    stack.sim.run()
    services = client.repository.record("replica-1").service_times.values()
    assert services == [pytest.approx(35.0)]


def test_queue_length_counts_waiting_and_in_service(stack):
    server = stack.add_server("replica-1", service_time=Constant(100.0))
    stack.add_client("client-1", QoSSpec(SERVICE, 100_000.0, 0.0))
    for i in range(3):
        stack.invoke("client-1", i)
    stack.sim.run(until=30.0)  # all three arrived; one in service
    assert server.queue_length == 3
    stack.sim.run(until=150.0)  # first finished
    assert server.queue_length == 2


def test_subscription_registers_client(stack):
    server = stack.add_server("replica-1")
    stack.add_client("client-1", QoSSpec(SERVICE, 100.0, 0.0))
    stack.sim.run()
    assert server.subscribers == ["client-1"]


def test_perf_updates_pushed_to_other_subscribers(stack):
    stack.add_server("replica-1", service_time=Constant(10.0))
    active, _ = stack.add_client("client-1", QoSSpec(SERVICE, 1000.0, 0.0))
    passive, _ = stack.add_client("client-2", QoSSpec(SERVICE, 1000.0, 0.0))
    stack.sim.run()  # let subscriptions land
    stack.invoke("client-1", 1)
    stack.sim.run()
    # The passive client saw a perf push without ever sending a request.
    record = passive.repository.record("replica-1")
    assert len(record.service_times) == 1
    # But it has no gateway-delay measurement of its own yet.
    assert record.gateway_delay_ms is None


def test_crashed_server_ignores_requests(stack):
    server = stack.add_server("replica-1", service_time=Constant(10.0))
    stack.add_client("client-1", QoSSpec(SERVICE, 50.0, 0.0))
    server.crash()
    event = stack.invoke("client-1", 1)
    stack.sim.run()
    assert event.value.timed_out


def test_crash_mid_service_loses_reply(stack):
    server = stack.add_server("replica-1", service_time=Constant(100.0))
    stack.add_client("client-1", QoSSpec(SERVICE, 50.0, 0.0))
    event = stack.invoke("client-1", 1)
    stack.sim.call_in(30.0, server.crash)  # while request is in service
    stack.sim.run()
    assert event.value.timed_out


def test_restart_after_crash_processes_again(stack):
    server = stack.add_server("replica-1", service_time=Constant(10.0))
    stack.add_client("client-1", QoSSpec(SERVICE, 1000.0, 0.0))
    server.crash()
    server.restart()
    event = stack.invoke("client-1", 5)
    stack.sim.run()
    assert event.value.value == 5


def test_crash_and_restart_are_idempotent(stack):
    server = stack.add_server("replica-1")
    server.crash()
    server.crash()
    server.restart()
    server.restart()
    assert not server.crashed
