"""A18 acceptance: the clock-fault ablation's qualitative contract.

Reduced sweep (one scenario seed) of the real harness, asserting the
ISSUE 10 acceptance shape: the skew-tolerant stack holds the in-window
timely floor and quarantines the clock-faulty replica, the same-clock
discipline alone degrades but avoids the collapse, and the naive
absolute-timestamp baseline collapses under the open-loop load.
"""

import pytest

from repro.experiments import clock_faults
from repro.health import HealthState


@pytest.fixture(scope="module")
def points():
    return {p.variant: p for p in clock_faults.run(seeds=(0,))}


class TestA18Shape:
    def test_tolerant_holds_the_window_floor(self, points):
        assert points["tolerant"].window_timely_fraction >= 0.90

    def test_naive_collapses(self, points):
        # The funnel: zeroed duration reports + future-stamp-clamped
        # gateway delays keep the frozen replica looking instant, so the
        # open-loop load piles onto its unbounded real queue.
        assert points["naive"].window_timely_fraction < 0.5

    def test_disciplines_order_strictly(self, points):
        assert (
            points["naive"].window_timely_fraction
            < points["same-clock"].window_timely_fraction
            < points["tolerant"].window_timely_fraction
        )

    def test_only_the_tolerant_variant_quarantines(self, points):
        assert points["tolerant"].clock_quarantines >= 1
        assert points["naive"].clock_quarantines == 0
        assert points["same-clock"].clock_quarantines == 0

    def test_every_variant_rejects_some_reports(self, points):
        # naive's rejections are its outlier discards; the same-clock
        # variants' are coherence rejections.  All non-zero: the fault
        # windows are actually observed by every discipline.
        for p in points.values():
            assert p.clock_rejections > 0


class TestA18Determinism:
    @pytest.mark.parametrize(
        "variant, expected",
        [
            ("naive", (0.4244604316546763, 0.6733333333333333, 0, 10)),
            ("same-clock", (0.7338129496402878, 0.8166666666666667, 0, 9)),
            ("tolerant", (0.9496402877697842, 0.9366666666666666, 2, 13)),
        ],
    )
    def test_run_one_outcomes_are_pinned(self, variant, expected):
        assert clock_faults.run_one(variant, 0, num_requests=300) == expected

    def test_run_one_is_bit_identical(self):
        assert clock_faults.run_one("tolerant", 0) == clock_faults.run_one(
            "tolerant", 0
        )

    def test_parallel_sweep_matches_serial(self):
        serial = clock_faults.run(seeds=(0,))
        fanned = clock_faults.run(seeds=(0,), workers=2)
        assert fanned == serial


class TestA18QuarantineTargets:
    def test_clock_quarantines_name_only_clock_faulted_replicas(self):
        # s-1 (step + freeze) must be quarantined with the clock reason;
        # the drifting replicas (±500 ppm, inside the coherence slack)
        # must never be.  s-4's 200 ms step may or may not accumulate a
        # streak — it is allowed either way, being genuinely faulted.
        from repro.sim.random import RandomStreams

        deployment, client = clock_faults.deploy(0, "tolerant")
        sim = deployment.sim
        arrival = RandomStreams(seed=0).stream("a18.arrivals")

        def waiter(event):
            yield event

        def load():
            for i in range(900):
                event = deployment.invoke("client-1", i)
                sim.spawn(waiter(event), name=f"wait.{i}")
                yield sim.timeout(
                    float(arrival.exponential(clock_faults.INTERARRIVAL_MS))
                )

        sim.spawn(load(), name="load.open")
        sim.run()
        culprits = {
            e.replica
            for e in client.health.events
            if e.new_state is HealthState.QUARANTINED
            and e.reason == "clock_fault"
        }
        assert "s-1" in culprits
        assert culprits <= {"s-1", "s-4"}
