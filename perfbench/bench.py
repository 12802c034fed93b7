"""Measure one workload: repeated rounds, checks and a manifest.

:func:`measure` repeats a workload's fixed-size round while the next
round still fits in the time budget.  Simulated metrics come from the
first round, and every later round (traced or not) must reproduce its
outcome digest exactly.  The first round is also the warm-up: host-time
metrics come from the later rounds when there are any.  Untraced rounds
interleave calibration samples (:mod:`calibration`), and the throughput
is counted in CPU time scaled to the calibration kernel's reference
speed, so that the host's own speed, which moves from minute to minute
on a shared machine, does not show as a change of the program.  With
``trace=True`` traced and untraced rounds alternate, so the per-layer
split and the tracing overhead come from the same process and the same
inputs.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from array import array
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

import calibration
from tracing import FD_MODULE, Instrumentation, SpanRecorder
from workloads import (
    WORKLOADS,
    RoundResult,
    cache_counts,
    quarantines,
    run_round,
)

__all__ = [
    "HERE",
    "ROOT",
    "SPEC",
    "import_seconds",
    "layer_metrics",
    "measure",
    "simulated_metrics",
]

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

with open(os.path.join(HERE, "spec.json"), encoding="utf-8") as _handle:
    #: Pinned outcome digests by workload and seed; per-layer predictions.
    SPEC: Dict[str, Any] = json.load(_handle)

#: Imports timed (in CPU time) in fresh interpreters for ``setup_s``.
_IMPORT_PROBE = (
    "import time\n"
    "started = time.process_time()\n"
    "import repro.workload.scenarios, repro.faultinject.campaign\n"
    "import repro.experiments.overload_collapse\n"
    "print(time.process_time() - started)\n"
)
IMPORT_REPEATS = 5


def import_seconds() -> float:
    """Median CPU time to import the stack, each in a fresh interpreter.

    Not scaled to the calibration kernel's speed: an import slows about
    half as much as the kernel on a busy host, so scaling would overshoot.
    """
    env = dict(os.environ, PYTHONPATH=SRC)
    samples = []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def _percentile(values: Any, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def simulated_metrics(result: RoundResult) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Timeliness, redundancy and response time of one round's requests.

    Sheds and failed requests count as late; redundancy is averaged over
    admitted requests; response times are those of answered requests.
    Returns the metrics and the sample count behind each.

    Response time is reported as a mean and a 95th percentile.  The
    median cannot be an end-to-end metric: chaos-a17 models constant
    service and jitter-free links, so its median reply takes exactly
    12 ms on every seed.  The 99th percentile falls in crowd-n5's sparse
    tail and moves between about 80 and 145 ms from seed to seed.  Both
    are kept in the manifest (``response_p50_ms``, ``response_p99_ms``).
    """
    outcomes = result.log.outcomes()
    admitted = [o for o in outcomes if o[1] != "shed"]
    replies = [o[3] for o in outcomes if o[1] == "reply"]
    timely = sum(1 for o in outcomes if o[1] == "reply" and o[2])
    metrics = {
        "timely_fraction": timely / result.issued,
        "mean_redundancy": sum(o[5] for o in admitted) / max(len(admitted), 1),
        "response_mean_ms": statistics.fmean(replies),
        "response_p95_ms": _percentile(replies, 95),
        "response_p50_ms": _percentile(replies, 50),
        "response_p99_ms": _percentile(replies, 99),
    }
    samples = {
        "timely_fraction": result.issued,
        "mean_redundancy": len(admitted),
        "response_mean_ms": len(replies),
        "response_p95_ms": len(replies),
    }
    return metrics, samples


def layer_metrics(
    result: RoundResult, recorder: SpanRecorder
) -> Tuple[Dict[str, float], float]:
    """Per-layer metrics of one traced round; also the summed self time."""
    s = {name: ns / 1e9 for name, ns in recorder.self_ns.items()}
    calls = recorder.calls
    issued = result.issued
    outcomes = result.log.outcomes()
    first_replies = sum(1 for o in outcomes if o[1] == "reply")
    sheds = sum(1 for o in outcomes if o[1] == "shed")
    callbacks = sum(recorder.callbacks.values())
    fd_events = recorder.callbacks.get(FD_MODULE, 0)
    decide_total = recorder.total_ns.get("core.decide", 0)
    hits, misses = cache_counts(result.log)
    spans_self = sum(s.values())
    metrics = {
        "sim.events_per_request": result.processed_events / issued,
        "sim.self_s": result.wall_s - spans_self,
        "group.fd_events": float(fd_events),
        "group.fd_event_share": fd_events / max(callbacks, 1),
        "group.fd_self_s": s.get("group.fd", 0.0),
        "net.messages_per_request": calls.get("net.send", 0) / issued,
        "net.send_self_s": s.get("net.send", 0.0) + s.get("net.multicast", 0.0),
        "core.decide.calls": float(calls.get("core.decide", 0)),
        "core.decide.self_s": s.get("core.decide", 0.0),
        "core.decide.p50_us": (
            _percentile(recorder.decide_ns, 50) / 1e3 if recorder.decide_ns else 0.0
        ),
        "core.decide.p99_us": (
            _percentile(recorder.decide_ns, 99) / 1e3 if recorder.decide_ns else 0.0
        ),
        "core.estimator.batch_s": s.get("core.estimator.batch", 0.0),
        "core.estimator.share_of_decide": (
            recorder.total_ns.get("core.estimator.batch", 0) / decide_total
            if decide_total
            else 0.0
        ),
        "core.estimator.cache_hit_ratio": hits / max(hits + misses, 1),
        "core.alg1_s": s.get("core.alg1", 0.0),
        "core.repository.writes_per_decide": (
            calls.get("core.repository.write", 0) / max(calls.get("core.decide", 0), 1)
        ),
        "core.repository.write_s": s.get("core.repository.write", 0.0),
        "gateway.handle_message_self_s": (
            s.get("gateway.handle_message", 0.0) + s.get("gateway.submit", 0.0)
        ),
        "gateway.replies_per_request": calls.get("gateway.handle_message", 0) / issued,
        "replica.copies_per_request": calls.get("replica.execute", 0) / issued,
        "replica.useful_copy_ratio": (
            first_replies / max(calls.get("replica.execute", 0), 1)
        ),
        "overload.governor_self_s": (
            s.get("overload.governor", 0.0) + s.get("overload.admission", 0.0)
        ),
        "overload.shed_fraction": sheds / issued,
        "health.self_s": s.get("health", 0.0),
        "health.quarantines": float(quarantines(result.log)),
        "faultinject.transport_self_s": s.get("faultinject.transport", 0.0),
        "faultinject.audit_s": s.get("faultinject.audit", 0.0),
    }
    return metrics, spans_self


def _source_sha256() -> str:
    """Content hash of the program and benchmark sources that ran."""
    digest = hashlib.sha256()
    for base in (os.path.join(SRC, "repro"), HERE):
        for directory, dirs, files in os.walk(base):
            dirs[:] = sorted(d for d in dirs if d not in ("__pycache__", "out"))
            for name in sorted(files):
                if name.endswith((".py", ".json")):
                    path = os.path.join(directory, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as handle:
                        digest.update(handle.read())
    return digest.hexdigest()


def _git_commit() -> Optional[str]:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=30,
        )
    except OSError:
        return None
    if done.returncode != 0:
        return None
    return done.stdout.strip() or None


def manifest(
    workload: str, seed: int, seconds: float, trace: bool
) -> Dict[str, Any]:
    """Provenance of one benchmark run (filled in further by measure)."""
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = os.cpu_count() or 1
    return {
        "benchmark": "perfbench",
        "workload": workload,
        "params": WORKLOADS[workload].params,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": affinity,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "platform": platform.platform(),
    }


def _check_pins(result: RoundResult) -> List[str]:
    """Digest mismatches against the pins (only pinned seeds have pins)."""
    pins = SPEC["pins"].get(result.workload, {}).get(str(result.seed))
    if pins is None:
        return []
    problems = []
    if result.digest != pins["digest"]:
        problems.append(f"outcome digest {result.digest} != pin {pins['digest']}")
    pinned_campaign = pins.get("campaign_digest")
    if pinned_campaign is not None and result.campaign_digest != pinned_campaign:
        problems.append(
            f"campaign digest {result.campaign_digest} != pin {pinned_campaign}"
        )
    return problems


def _add_row(
    rows: List[Dict[str, Any]],
    result: RoundResult,
    reference: Optional[Dict[str, Any]],
    traced: bool,
) -> Dict[str, Any]:
    """Reduce a finished round to its row; returns the run's first row.

    A round fails its checks when it has violations, when it does not
    reproduce the run's first round exactly, or when a pin for its seed
    disagrees.  Its ``failed`` count is the requests behind its
    violations, or every request when its outcomes are not reproduced.
    """
    row = {
        "traced": traced,
        "build_s": result.build_s,
        "run_s": result.run_s,
        "wall_s": result.wall_s,
        "calibration_s": sum(result.calibration_s),
        "calibrations": len(result.calibration_s),
        "issued": result.issued,
        "digest": result.digest,
        "campaign_digest": result.campaign_digest,
        "problems": list(result.violations),
        "failed": result.failed,
    }
    mismatches = _check_pins(result)
    if reference is not None:
        if row["digest"] != reference["digest"]:
            mismatches.append(
                f"digest {row['digest']} differs from the run's first round "
                f"{reference['digest']}"
            )
        if row["campaign_digest"] != reference["campaign_digest"]:
            mismatches.append("campaign digest differs from the run's first round")
    if mismatches:
        row["problems"].extend(mismatches)
        row["failed"] = row["issued"]
    rows.append(row)
    return reference if reference is not None else row


def measure(
    workload_name: str,
    seed: int,
    seconds: float,
    trace: bool,
    out_dir: Optional[str] = OUT,
) -> Dict[str, Any]:
    """Run ``workload_name`` for ``seconds`` and return the full record.

    The record holds the driver-facing result (``correct``,
    ``attempted``, ``failed``, ``metrics``), the manifest and the
    per-round detail; ``out_dir`` receives it as JSON (and, for traced
    runs, the first traced round's spans) unless it is ``None``.
    """
    workload = WORKLOADS[workload_name]
    info = manifest(workload_name, seed, seconds, trace)
    # Only the end-to-end run reports setup_s, so only it pays for it.
    import_s = 0.0 if trace else import_seconds()
    # Rounds are reduced to rows as they finish, so no stack outlives its
    # round: retained stacks would make every later garbage collection
    # (and the peak memory) grow with the number of rounds.
    rows: List[Dict[str, Any]] = []
    layer_rows: List[Dict[str, float]] = []
    untraced_decide_ns: List[array] = []
    reference: Optional[Dict[str, Any]] = None
    sim: Dict[str, float] = {}
    samples: Dict[str, int] = {}
    first_recorder: Optional[SpanRecorder] = None
    round_started = perf_counter()
    deadline = round_started + seconds
    # A round starts only if a round as long as the longest so far would
    # still end by the deadline, so a run never overshoots its budget by
    # most of a round.  A traced run makes at least one traced round.
    longest = 0.0
    while True:
        traced = trace and reference is not None and not rows[-1]["traced"]
        if traced:
            recorder = SpanRecorder()
            recorder.keep_spans = first_recorder is None
            with Instrumentation(recorder):
                result = run_round(workload, seed)
            layers, spans_self = layer_metrics(result, recorder)
            _add_row(rows, result, reference, traced=True)
            if spans_self > result.wall_s:
                rows[-1]["problems"].append(
                    f"span self times {spans_self:.6f}s exceed the traced "
                    f"wall time {result.wall_s:.6f}s"
                )
                rows[-1]["failed"] = result.issued
            layer_rows.append(layers)
            if first_recorder is None:
                first_recorder = recorder
            del recorder
        else:
            result = run_round(workload, seed, calibrate=True)
            if reference is None:
                sim, samples = simulated_metrics(result)
            untraced_decide_ns.append(result.log.decide_ns)
            reference = _add_row(rows, result, reference, traced=False)
        del result
        gc.collect()
        now = perf_counter()
        longest = max(longest, now - round_started)
        round_started = now
        if now + longest > deadline and (not trace or layer_rows):
            break
    assert reference is not None

    failures = [
        (f"round {index}", row["problems"])
        for index, row in enumerate(rows)
        if row["problems"]
    ]
    attempted = sum(row["issued"] for row in rows)
    failed = sum(row["failed"] for row in rows)
    untraced = [row for row in rows if not row["traced"]]
    traced = [row for row in rows if row["traced"]]
    # Leave out the warm-up round when there are later untraced rounds.
    timed = untraced[1:] or untraced
    decide_ns = array("q")
    for times in untraced_decide_ns[len(untraced) - len(timed):]:
        decide_ns.extend(times)
    calibrations = sum(r["calibrations"] for r in timed)
    # Above 1 when the host ran slower than the reference speed.
    slowdown = (
        sum(r["calibration_s"] for r in timed) / calibrations
    ) / calibration.REFERENCE_S
    cpu_rate = sum(r["issued"] for r in timed) / sum(r["run_s"] for r in timed)
    cpu_decide_us = statistics.median(decide_ns) / 1e3
    metrics: Dict[str, Tuple[float, str]]
    if not trace:
        metrics = {
            "sim_requests_per_s": (cpu_rate * slowdown, "1/s"),
            "setup_s": (
                import_s + statistics.median(r["build_s"] for r in timed),
                "s",
            ),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "MB",
            ),
            "timely_fraction": (sim["timely_fraction"], "fraction"),
            "mean_redundancy": (sim["mean_redundancy"], "copies"),
            "response_mean_ms": (sim["response_mean_ms"], "ms"),
            "response_p95_ms": (sim["response_p95_ms"], "ms"),
            "correct_fraction": (1.0 - failed / attempted, "fraction"),
        }
    else:
        assert first_recorder is not None
        samples["core.decide.p50_us"] = len(first_recorder.decide_ns)
        samples["core.decide.p99_us"] = len(first_recorder.decide_ns)
        # Counts repeat exactly from round to round; host times do not.
        metrics = {
            name: (
                statistics.median(layers[name] for layers in layer_rows),
                unit,
            )
            for name, unit in _LAYER_UNITS.items()
            if name != "trace.overhead_ratio"
        }
        metrics["trace.overhead_ratio"] = (
            statistics.median(r["wall_s"] for r in traced)
            / statistics.median(r["wall_s"] for r in timed),
            "ratio",
        )

    info.update(
        {
            "rounds": {
                "untraced": len(untraced),
                "timed_untraced": len(timed),
                "traced": len(traced),
            },
            "host_speed": {
                "calibration_samples": calibrations,
                "slowdown_vs_reference": slowdown,
                "unscaled_sim_requests_per_cpu_s": cpu_rate,
            },
            # The paper's delta in live traffic: policy.decide CPU time.
            # Not an end-to-end metric: it slows more than the
            # calibration kernel under contention, so even scaled it
            # spreads by up to a quarter between runs on a shared host.
            "selection_overhead_p50_us": {
                "cpu": cpu_decide_us,
                "scaled": cpu_decide_us / slowdown,
                "samples": len(decide_ns),
            },
            "requests_per_round": reference["issued"],
            "samples": samples,
            "simulated": sim,
            "import_s": import_s,
            "digest": reference["digest"],
            "campaign_digest": reference["campaign_digest"],
            "pinned": str(seed) in SPEC["pins"].get(workload_name, {}),
        }
    )
    if first_recorder is not None:
        info["callbacks_by_module"] = dict(first_recorder.callbacks.most_common())
    record = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
        "manifest": info,
        "failures": failures,
        "rounds": rows,
    }
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        stem = os.path.join(
            out_dir, f"{workload_name}-seed{seed}-trace{int(trace)}"
        )
        if first_recorder is not None:
            record["manifest"]["spans_written"] = first_recorder.write_spans(
                stem + "-spans.csv.gz"
            )
        with open(stem + ".json", "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1)
            handle.write("\n")
    return record


_LAYER_UNITS = {
    "sim.events_per_request": "events",
    "sim.self_s": "s",
    "group.fd_events": "count",
    "group.fd_event_share": "fraction",
    "group.fd_self_s": "s",
    "net.messages_per_request": "messages",
    "net.send_self_s": "s",
    "core.decide.calls": "count",
    "core.decide.self_s": "s",
    "core.decide.p50_us": "us",
    "core.decide.p99_us": "us",
    "core.estimator.batch_s": "s",
    "core.estimator.share_of_decide": "fraction",
    "core.estimator.cache_hit_ratio": "fraction",
    "core.alg1_s": "s",
    "core.repository.writes_per_decide": "writes",
    "core.repository.write_s": "s",
    "gateway.handle_message_self_s": "s",
    "gateway.replies_per_request": "messages",
    "replica.copies_per_request": "copies",
    "replica.useful_copy_ratio": "fraction",
    "overload.governor_self_s": "s",
    "overload.shed_fraction": "fraction",
    "health.self_s": "s",
    "health.quarantines": "count",
    "faultinject.transport_self_s": "s",
    "faultinject.audit_s": "s",
    "trace.overhead_ratio": "ratio",
}
