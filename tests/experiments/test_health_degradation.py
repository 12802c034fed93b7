"""A15 acceptance: the persistent-degradation ablation's contract.

Reduced sweep (one scenario seed) of the real harness: the health
subsystem quarantines the silently dropping replica and holds the
in-window timely floor, while the no-health baseline keeps selecting the
stale-good replica and every in-window request burns its timeout.
"""

import pytest

from repro.experiments import health_degradation


@pytest.fixture(scope="module")
def points():
    return {p.variant: p for p in health_degradation.run(seeds=(0,))}


class TestA15Shape:
    def test_health_holds_the_window_floor(self, points):
        assert points["health"].window_timely_fraction >= 0.9

    def test_no_health_collapses(self, points):
        assert points["no-health"].window_timely_fraction < 0.1

    def test_only_the_health_variant_quarantines(self, points):
        assert points["health"].quarantine_transitions >= 1
        assert points["no-health"].quarantine_transitions == 0


class TestA15Determinism:
    def test_run_one_outcomes_are_pinned(self):
        # Literal values, so a change that shifts outcomes identically on
        # every run still fails.
        assert health_degradation.run_one(True, 0) == (
            0.9913793103448276,
            0.9866666666666667,
            1,
        )
        assert health_degradation.run_one(False, 0) == (
            0.0,
            0.9533333333333334,
            0,
        )

    def test_parallel_sweep_matches_serial(self):
        serial = health_degradation.run(seeds=(0,))
        fanned = health_degradation.run(seeds=(0,), workers=2)
        assert fanned == serial
