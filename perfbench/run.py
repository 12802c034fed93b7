#!/usr/bin/env python3
"""End-to-end benchmark of the simulated timing-fault stack.

Run from the repository root::

    python3 perfbench/run.py --workload crowd-n5 --seed 0 --seconds 36 --trace 0

``--workload`` is one of ``fleet-n128``, ``crowd-n5``, ``chaos-a17`` or
``all`` (every workload in turn, in this one process).  The run repeats
the workload's fixed-size round while the next round fits in
``--seconds`` seconds; the first round is a warm-up whose host times are
not reported.  ``--trace 0`` reports the end-to-end metrics, with host
times in CPU time scaled to a calibration kernel's reference speed (see
``calibration.py``); ``--trace 1`` alternates traced and untraced rounds
and reports the per-layer split.  A table and a provenance manifest go
to standard output, the full record (and a traced run's spans) to
``perfbench/out/``; the last line of standard output is the JSON
result.  The exit code is non-zero when the program sources are missing
or the run cannot be measured; a failed correctness check is reported
in the result (``correct: false``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
# One thread per process: the benchmark is single-threaded Python, and a
# BLAS thread pool would only add scheduling noise to numpy calls.
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _table(record):
    info = record["manifest"]
    lines = [
        f"== {info['workload']} seed={info['seed']} trace={int(info['trace'])} "
        f"rounds={info['rounds']} requests/round={info['requests_per_round']} "
        f"digest={info['digest'][:16]} correct={record['correct']}"
    ]
    for name, metric in record["metrics"].items():
        lines.append(f"  {name:<36} {metric['value']:>16.6g} {metric['unit']}")
    for where, problems in record["failures"]:
        lines.extend(f"  FAILED {where}: {problem}" for problem in problems)
    return "\n".join(lines)


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: program sources not found under {SRC}", file=sys.stderr)
        return 2
    for var in _THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [SRC, HERE]
    from bench import measure
    from workloads import WORKLOADS

    if args.workload == "all":
        names = list(WORKLOADS)
    elif args.workload in WORKLOADS:
        names = [args.workload]
    else:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    records = []
    for name in names:
        record = measure(name, args.seed, args.seconds, bool(args.trace))
        records.append(record)
        print(_table(record))
        print("manifest " + json.dumps(record["manifest"], sort_keys=True))
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {
            f"{r['manifest']['workload']}.{name}": metric
            for r in records
            for name, metric in r["metrics"].items()
        }
    result = {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
