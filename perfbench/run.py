"""Run one benchmark workload and print its metrics.

Usage (from the checkout root)::

    python3 perfbench/run.py --workload trace-to-store --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, measured with no tracing;
``--trace 1`` prints the per-layer metrics of a traced run and writes its
spans as Chrome trace-event JSON to ``.perfbench/traces/<run id>.json``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record
(environment stamp, every pass, every failed check) is written to
``.perfbench/results/<run id>.json``.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import sys
import time
import uuid

from common import (ROOT, SRC, STATE, BenchError, environment, finish_environment,
                    require_source_tree)

#: Hard stop for one run, below the 180 s a run may take.
RUN_TIMEOUT_S = 170


def _timeout(signum, frame):
    raise BenchError(f"run exceeded {RUN_TIMEOUT_S} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        require_source_tree()
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy

    from workloads import WORKLOADS, Run
    from tracer import write_chrome_trace

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    run_id = f"{time.strftime('%Y%m%dT%H%M%S')}-{uuid.uuid4().hex[:8]}"
    scratch = STATE / "tmp" / run_id
    scratch.mkdir(parents=True)
    run = Run(args.workload, abs(args.seed) % (1 << 32), args.seconds, bool(args.trace),
              run_id, scratch)
    env = environment(numpy.__version__)
    # Servers stop on SIGINT.  A shell that starts this run in the background
    # ignores SIGINT, and children inherit an ignored signal through exec; a
    # handler is reset to the default instead, which Python turns into
    # KeyboardInterrupt.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(RUN_TIMEOUT_S)
    try:
        outcome = WORKLOADS[args.workload](run)
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        shutil.rmtree(scratch, ignore_errors=True)
    finish_environment(env)

    trace_file = None
    if outcome.spans:
        traces = STATE / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        trace_file = traces / f"{run_id}.json"
        write_chrome_trace(trace_file, run_id, outcome.spans)
    metrics = {
        name: {"value": float(value), "unit": unit}
        for name, (value, unit) in sorted(outcome.metrics.items())
    }
    correct = not outcome.checks
    record = {
        "run_id": run_id,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "trace_file": str(trace_file.relative_to(ROOT)) if trace_file else None,
        "environment": env,
        "correct": correct,
        "failed_checks": sorted(set(outcome.checks)),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
        "details": outcome.details,
    }
    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{run_id}.json").write_text(json.dumps(record, indent=1, default=str))
    print(f"perfbench: {args.workload} seed {args.seed} run {run_id}"
          + ("" if correct else f" FAILED CHECKS: {record['failed_checks']}"))
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
