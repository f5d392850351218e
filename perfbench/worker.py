"""One measured process: ``python3 perfbench/worker.py <kind> <json args>``.

The harness starts a fresh worker per measured pass and talks to it over
stdin/stdout (see :class:`common.Worker`).  Set-up — interpreter start,
imports and opening the store — ends with ``PB-READY``; the inputs are then
loaded outside every clock; the timed region runs from the first input
record handed to the program until the answer exists (and is committed,
where a store is involved).  With ``"trace"`` in the arguments, the layer
entry points are wrapped by :mod:`tracer` before anything runs and the
spans are written to that path at the end.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from common import PARAMS, answer_digest, vm_hwm_mb
from inputs import load_database, load_feed


def _say(tag: str, payload=None) -> None:
    sys.stdout.write(tag + ("" if payload is None else " " + json.dumps(payload)) + "\n")
    sys.stdout.flush()


def _wait_go() -> None:
    if sys.stdin.readline().strip() != "GO":
        raise SystemExit("harness went away before GO")


def trace_to_store(args):
    """Raw CSV through the firewall, numpy mining and a fresh file store."""
    from repro.core.config import GatheringParameters
    from repro.core.pipeline import GatheringMiner
    from repro.engine.registry import ExecutionConfig
    from repro.quality import QualityConfig
    from repro.store import PatternStore
    from repro.trajectory import io

    store = PatternStore(args["store"])
    miner = GatheringMiner(GatheringParameters(**PARAMS), config=ExecutionConfig(backend="numpy"))
    _say("PB-READY")
    quality = QualityConfig(
        policy="lenient", max_speed=args["max_speed"], bounds=tuple(args["bounds"])
    )
    _say("PB-ARMED")
    _wait_go()
    started = time.perf_counter()
    database, report = io.load_csv_report(args["csv"], quality)
    result = miner.mine(database)
    inserted = store.write_result(result)
    wall = time.perf_counter() - started
    answer = {
        "wall_s": wall,
        "fixes": report.total,
        "report": {
            "total": report.total,
            "accepted": report.accepted,
            "dropped": report.dropped,
            "repaired": report.repaired,
            "dropped_by_rule": report.dropped_by_rule,
        },
        "digest": answer_digest(result.closed_crowds, result.gatherings),
        "crowds": len(result.closed_crowds),
        "gatherings": len(result.gatherings),
        "inserted": inserted,
        "stored": {"crowds": store.crowd_count(), "gatherings": store.gathering_count()},
    }
    store.close()
    return answer


def mine_dense(args):
    """A clean database handed in memory to the numpy miner."""
    from repro.core.config import GatheringParameters
    from repro.core.pipeline import GatheringMiner
    from repro.engine.registry import ExecutionConfig

    miner = GatheringMiner(GatheringParameters(**PARAMS), config=ExecutionConfig(backend="numpy"))
    _say("PB-READY")
    database = load_database(args["fixes"])
    fixes = sum(len(trajectory) for trajectory in database)
    _say("PB-ARMED")
    _wait_go()
    started = time.perf_counter()
    result = miner.mine(database)
    wall = time.perf_counter() - started
    return {
        "wall_s": wall,
        "fixes": fixes,
        "digest": answer_digest(result.closed_crowds, result.gatherings),
        "crowds": len(result.closed_crowds),
        "gatherings": len(result.gatherings),
    }


def stream_rw(args):
    """Replay an arrival feed through the streaming service into a file store."""
    from repro.core.config import GatheringParameters
    from repro.engine.registry import ExecutionConfig
    from repro.store import PatternStore
    from repro.stream.service import StreamingGatheringService

    store = PatternStore(args["store"])
    service = StreamingGatheringService(
        GatheringParameters(**PARAMS),
        window=args["window"],
        config=ExecutionConfig(backend="numpy"),
        slack=args["slack"],
        eviction="frozen",
        store=store,
    )
    _say("PB-READY")
    feed = load_feed(args["feed"])
    size = args["batch_points"]
    batches = [feed[start : start + size] for start in range(0, len(feed), size)]
    checkpoint = Path(args["checkpoint"])
    _say("PB-ARMED")
    _wait_go()
    started = time.perf_counter()
    for number, batch in enumerate(batches, start=1):
        service.ingest_many(batch)
        if number % args["checkpoint_every"] == 0:
            service.checkpoint(checkpoint, keep=args["keep"])
    result = service.finish()
    wall = time.perf_counter() - started
    stats = result.stats
    answer = {
        "wall_s": wall,
        "fixes": len(feed),
        "digest": answer_digest(result.closed_crowds, result.gatherings),
        "crowds": len(result.closed_crowds),
        "gatherings": len(result.gatherings),
        "stored": {"crowds": store.crowd_count(), "gatherings": store.gathering_count()},
        "stats": {
            "points_ingested": stats.points_ingested,
            "points_late": stats.points_late,
            "windows_closed": stats.windows_closed,
            "peak_pending_points": stats.peak_pending_points,
            "peak_retained_clusters": stats.peak_retained_clusters,
        },
        "checkpoint_bytes": checkpoint.stat().st_size if checkpoint.exists() else 0,
    }
    store.close()
    return answer


KINDS = {"trace-to-store": trace_to_store, "mine-dense": mine_dense, "stream-rw": stream_rw}


def main() -> None:
    kind, args = sys.argv[1], json.loads(sys.argv[2])
    tracer = None
    if args.get("trace"):
        from tracer import Tracer

        tracer = Tracer(args["run_id"])
        tracer.install()
    answer = KINDS[kind](args)
    answer["peak_rss_mb"] = vm_hwm_mb()
    if tracer is not None:
        tracer.write(args["trace"])
    _say("PB-RESULT", answer)


if __name__ == "__main__":
    main()
