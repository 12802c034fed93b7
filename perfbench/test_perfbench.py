"""The benchmark's own checks: determinism, seed plumbing, pins, tracing.

Run from the repository root with ``python3 -m pytest perfbench -q``.
Each workload runs at its real size (about two minutes in all, most of
it ``fleet-n128``).
"""

import json
import os

import pytest

from bench import HERE, ROOT, SPEC, layer_metrics, measure, simulated_metrics
from repro.sim.kernel import Simulator
from tracing import Instrumentation, SpanRecorder
from workloads import WORKLOADS, run_round

PINNED_SEED = 0


@pytest.fixture(scope="module", params=list(WORKLOADS))
def pinned_round(request):
    """One untraced round of each workload at the pinned seed."""
    result = run_round(WORKLOADS[request.param], PINNED_SEED)
    assert result.violations == []
    return result


def test_pinned_seed_reproduces_the_pins(pinned_round):
    pins = SPEC["pins"][pinned_round.workload][str(PINNED_SEED)]
    assert pinned_round.digest == pins["digest"]
    assert pinned_round.campaign_digest == pins.get("campaign_digest")


def test_same_seed_twice_is_identical(pinned_round):
    # The second run interleaves calibration samples, which must not
    # perturb the simulation.
    again = run_round(WORKLOADS[pinned_round.workload], PINNED_SEED, calibrate=True)
    assert again.calibration_s and not pinned_round.calibration_s
    assert again.digest == pinned_round.digest
    assert again.campaign_digest == pinned_round.campaign_digest
    assert simulated_metrics(again) == simulated_metrics(pinned_round)
    assert again.processed_events == pinned_round.processed_events


def test_another_seed_reaches_the_simulation(pinned_round):
    other = run_round(WORKLOADS[pinned_round.workload], PINNED_SEED + 1)
    assert other.violations == []
    assert other.digest != pinned_round.digest
    if pinned_round.campaign_digest is not None:
        assert other.campaign_digest != pinned_round.campaign_digest


def test_traced_round_does_not_perturb_the_simulation(pinned_round):
    original_call_in = Simulator.__dict__["call_in"]
    recorder = SpanRecorder()
    recorder.keep_spans = True
    with Instrumentation(recorder):
        traced = run_round(WORKLOADS[pinned_round.workload], PINNED_SEED)
    assert Simulator.__dict__["call_in"] is original_call_in
    assert traced.digest == pinned_round.digest
    layers, spans_self = layer_metrics(traced, recorder)
    assert 0.0 < spans_self <= traced.wall_s
    assert layers["core.decide.calls"] == len(pinned_round.log.decide_ns)
    # Every kept span closed, inside its parent's interval.
    for index in range(len(recorder.span_start)):
        assert recorder.span_end[index] >= recorder.span_start[index]
        parent = recorder.span_parent[index]
        if parent >= 0:
            assert recorder.span_start[parent] <= recorder.span_start[index]
            assert recorder.span_end[index] <= recorder.span_end[parent]


def test_result_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        record = measure("crowd-n5", PINNED_SEED, 0.0, trace, out_dir=None)
        assert record["correct"] and record["failed"] == 0
        assert record["attempted"] >= 1
        assert {
            name: metric["unit"] for name, metric in record["metrics"].items()
        } == {m["name"]: m["unit"] for m in declared[key]}
        assert record["manifest"]["pinned"]
        assert record["manifest"]["samples"]["response_p95_ms"] >= 1000
    assert os.path.basename(HERE) in declared["paths"]
