"""The three workloads: passes, answer checks and metrics.

Each workload function takes a :class:`Run` and returns a :class:`Outcome`
holding the end-to-end metrics (``run.trace == 0``) or the per-layer
metrics (``run.trace == 1``), the operation counts and the answer checks.
See ``README.md`` for why each workload exists and which layer it loads.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from common import (
    BENCH_DIR,
    PARAMS,
    ROOT,
    BenchError,
    Worker,
    free_port,
    median,
    quantile,
    worker_env,
)
from inputs import STREAM, CityInputs, MetroInputs
from loadgen import LoadResult, get_json, healthy, open_loop
from tracer import SpanSet

#: Client connections of the read mix (the box's core count, at most).
CONNECTIONS = max(1, min(2, os.cpu_count() or 1))
#: stream-rw's low fixed read rate beside the writer, in requests/s.
STREAM_READ_RATE = 100.0


@dataclass
class Run:
    """One invocation of the benchmark."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    run_id: str
    scratch: Path

    def path(self, name: str) -> Path:
        """A file in this run's scratch directory."""
        return self.scratch / name


@dataclass
class Outcome:
    """What a workload measured and whether its answers were right."""

    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    checks: List[str] = field(default_factory=list)
    details: Dict = field(default_factory=dict)
    #: ``(process name, spans)`` of every traced process, for the trace file.
    spans: List[Tuple[str, SpanSet]] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        """Record one answer check; a failure is kept by name."""
        if not ok:
            self.checks.append(what)
        return ok


# -- servers ------------------------------------------------------------------------------
class Server:
    """A pattern server in its own process, ready once ``/healthz`` is 200.

    Untraced servers are the CLI (``python -m repro query --serve``); traced
    ones are ``serve_traced.py``.
    """

    def __init__(self, store: Path, run: Run, trace_path: Optional[Path] = None) -> None:
        self.host, self.port = "127.0.0.1", free_port()
        self.trace_path = trace_path
        if trace_path is None:
            command = [sys.executable, "-m", "repro", "query", "--store", str(store),
                       "--serve", "--port", str(self.port)]
        else:
            command = [sys.executable, str(BENCH_DIR / "serve_traced.py"), str(store),
                       str(self.port), str(trace_path), run.run_id]
        self._log = run.path(f"server-{self.port}.log").open("w")
        started = time.perf_counter()
        self.process = subprocess.Popen(command, cwd=str(ROOT), env=worker_env(),
                                        stdout=self._log, stderr=subprocess.STDOUT)
        while not healthy(self.host, self.port):
            if self.process.poll() is not None or time.perf_counter() - started > 60:
                self.stop()
                raise BenchError(f"server did not come up: {command}")
            time.sleep(0.002)

    def stats(self) -> Dict:
        """The server's ``/stats`` document."""
        return get_json(self.host, self.port, "/stats")

    def stop(self) -> None:
        """Interrupt the server (it flushes its trace) and wait for it to end."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=5)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=15)
        self._log.close()

    def spans(self) -> SpanSet:
        """The traced server's spans (after :meth:`stop`)."""
        return SpanSet(json.loads(self.trace_path.read_text()))


def _read_mix(store: Path, seed: int, count: int = 20000) -> List[str]:
    """The seeded read mix of ``repro loadtest`` profiled on ``store``."""
    from repro.loadtest import StoreProfile, WorkloadConfig, generate_requests
    from repro.store import PatternStore

    with PatternStore(store, readonly=True) as handle:
        profile = StoreProfile.from_store(handle)
    return generate_requests(
        WorkloadConfig(requests=count, clients=CONNECTIONS, seed=seed), profile
    )


def _ms(seconds: float) -> float:
    return seconds * 1000.0


# -- batch workloads -------------------------------------------------------------------------
def _passes(run: Run, kind: str, make_args: Callable[[int], Dict],
            check: Callable[[Dict, Outcome], bool], outcome: Outcome,
            traced_every: int = 0) -> Tuple[List[Dict], List[Dict]]:
    """Fresh-process passes until ``run.seconds`` is used up.

    With ``traced_every = 2`` every second pass runs traced; returns the
    untraced and the traced pass records.
    """
    plain: List[Dict] = []
    traced: List[Dict] = []
    deadline = time.perf_counter() + run.seconds
    number = 0
    while number < (2 if traced_every else 1) or time.perf_counter() < deadline:
        args = make_args(number)
        is_traced = bool(traced_every) and number % traced_every == 1
        if is_traced:
            args["trace"] = str(run.path(f"spans-{number}.json"))
            args["run_id"] = run.run_id
        record = Worker(kind, args, run.scratch).run()
        if is_traced:
            record["trace_path"] = args["trace"]
        outcome.attempted += 1
        if not check(record, outcome):
            outcome.failed += 1
        (traced if is_traced else plain).append(record)
        number += 1
    return plain, traced


def _batch_e2e(outcome: Outcome, passes: List[Dict]) -> None:
    walls = [record["wall_s"] for record in passes]
    outcome.metrics = {
        "throughput_per_s": (median([r["fixes"] / r["wall_s"] for r in passes]), "1/s"),
        "lat_p50_ms": (_ms(median(walls)), "ms"),
        "lat_p90_ms": (_ms(quantile(walls, 0.90)), "ms"),
        "peak_rss_mb": (median([r["peak_rss_mb"] for r in passes]), "MB"),
        "setup_s": (median([r["setup_s"] for r in passes]), "s"),
    }


def trace_to_store(run: Run) -> Outcome:
    """Raw CSV → firewall → numpy mining → fresh file store."""
    inputs = MetroInputs(run.seed)
    raw = inputs.raw()
    oracle = inputs.oracle()
    outcome = Outcome()

    def make_args(number: int) -> Dict:
        return {"csv": raw["path"], "max_speed": raw["max_speed"], "bounds": raw["bounds"],
                "store": str(run.path(f"store-{number}.db"))}

    def check(record: Dict, outcome: Outcome) -> bool:
        report = record["report"]
        counts = {"crowds": oracle["crowds"], "gatherings": oracle["gatherings"]}
        return all([
            outcome.check(report["total"] == raw["records"], "every record was read"),
            outcome.check(
                report["accepted"] + report["dropped"] + report["repaired"] == report["total"],
                "accepted + dropped + repaired == total"),
            outcome.check(report["dropped"] == raw["injected"], "dropped == injected"),
            outcome.check(report["dropped_by_rule"] == raw["dropped_by_rule"],
                          "dropped by rule == injected by rule"),
            outcome.check(report["accepted"] == raw["fixes"], "every clean fix accepted"),
            outcome.check(record["digest"] == oracle["digest"],
                          "crowds and gatherings equal the scalar oracle's"),
            outcome.check(record["inserted"] == counts, "store inserts == answer"),
            outcome.check(record["stored"] == counts, "store row counts == answer"),
        ])

    plain, traced = _passes(run, "trace-to-store", make_args, check, outcome,
                            traced_every=2 if run.trace else 0)
    if run.trace:
        spans = worker_spans(traced[-1])
        outcome.spans.append(("worker", spans))
        outcome.metrics = layer_metrics(plain, traced, spans)
    else:
        _batch_e2e(outcome, plain)
    outcome.details["passes"] = plain + traced
    return outcome


def mine_dense(run: Run) -> Outcome:
    """The clean metro database handed in memory to the numpy miner."""
    inputs = MetroInputs(run.seed)
    fixes = str(inputs.fixes_path())
    oracle = inputs.oracle()
    outcome = Outcome()

    def check(record: Dict, outcome: Outcome) -> bool:
        return outcome.check(record["digest"] == oracle["digest"],
                             "crowds, gatherings and participators equal the scalar oracle's")

    plain, traced = _passes(run, "mine-dense", lambda number: {"fixes": fixes}, check,
                            outcome, traced_every=2 if run.trace else 0)
    if run.trace:
        spans = worker_spans(traced[-1])
        outcome.spans.append(("worker", spans))
        outcome.metrics = layer_metrics(plain, traced, spans)
    else:
        _batch_e2e(outcome, plain)
    outcome.details["passes"] = plain + traced
    return outcome


def worker_spans(record: Dict) -> SpanSet:
    """The spans a traced worker wrote."""
    return SpanSet(json.loads(Path(record["trace_path"]).read_text()))


# -- streaming --------------------------------------------------------------------------------
def _count_load(outcome: Outcome, result: LoadResult) -> None:
    outcome.attempted += result.sent
    outcome.failed += result.failed
    outcome.check(result.failed == 0, f"{result.failed} of {result.sent} requests failed")


def stream_rw(run: Run) -> Outcome:
    """Arrival feed through the streaming service into a store being read."""
    inputs = CityInputs(run.seed)
    feed = str(inputs.feed_path())
    reference = inputs.reference()
    targets = _read_mix(inputs.reference_store(), run.seed)
    outcome = Outcome()
    replays: List[Dict] = []
    deadline = time.perf_counter() + run.seconds
    number = 0
    while number < (2 if run.trace else 1) or time.perf_counter() < deadline:
        traced = run.trace and number % 2 == 1
        replays.append(_stream_replay(run, number, feed, targets, reference, outcome, traced))
        number += 1

    plain = [r for r in replays if not r["traced"]]
    if run.trace:
        last = [r for r in replays if r["traced"]][-1]
        spans = worker_spans(last["writer"])
        outcome.spans += [("writer", spans), ("server", last["server_spans"])]
        outcome.metrics = layer_metrics(
            [r["writer"] for r in plain], [last["writer"]], spans,
            last["server_spans"], last["stats"], last["load"])
    else:
        latencies = [value for r in plain for value in r["load"].latencies]
        outcome.metrics = {
            "throughput_per_s": (median([r["writer"]["fixes"] / r["writer"]["wall_s"]
                                         for r in plain]), "1/s"),
            "lat_p50_ms": (_ms(median(latencies)), "ms"),
            "lat_p90_ms": (_ms(quantile(latencies, 0.90)), "ms"),
            "peak_rss_mb": (median([r["writer"]["peak_rss_mb"] for r in plain]), "MB"),
            "setup_s": (median([r["writer"]["setup_s"] for r in plain]), "s"),
        }
    outcome.details["passes"] = [
        {"writer": r["writer"], "reads": r["load"].sent, "traced": r["traced"]} for r in replays
    ]
    return outcome


def _stream_replay(run: Run, number: int, feed: str, targets: List[str], reference: Dict,
                   outcome: Outcome, traced: bool) -> Dict:
    """One replay: fresh store, server on it, writer process, reads beside it."""
    from repro.core.config import GatheringParameters
    from repro.store import PatternStore

    store_path = run.path(f"stream-{number}.db")
    with PatternStore(store_path) as store:
        store.set_params(GatheringParameters(**PARAMS))
    server = Server(store_path, run,
                    trace_path=run.path(f"server-spans-{number}.json") if traced else None)
    args = dict(STREAM, feed=feed, store=str(store_path),
                checkpoint=str(run.path(f"checkpoint-{number}.json")))
    if traced:
        args.update(trace=str(run.path(f"spans-{number}.json")), run_id=run.run_id)
    stop = threading.Event()
    holder: Dict[str, LoadResult] = {}
    reader = threading.Thread(
        target=lambda: holder.update(load=open_loop(
            server.host, server.port, targets, STREAM_READ_RATE, CONNECTIONS, stop)),
        name="stream-reads",
    )
    worker = None
    try:
        worker = Worker("stream-rw", args, run.scratch)
        worker.wait_ready()
        worker.arm()
        reader.start()
        worker.go()
        record = worker.result()
        record["setup_s"] = worker.setup_s
        if traced:
            record["trace_path"] = args["trace"]
    finally:
        stop.set()
        if reader.ident is not None:
            reader.join(timeout=60)
        if worker is not None:
            worker.close()
        try:
            stats = server.stats()
        finally:
            server.stop()
    load = holder["load"]
    outcome.attempted += 1
    ok = all([
        outcome.check(record["digest"] == reference["digest"],
                      "stream answer equals batch mining of the same database"),
        outcome.check(record["stored"] == {"crowds": record["crowds"],
                                           "gatherings": record["gatherings"]},
                      "store rows == stream answer"),
        outcome.check(record["stats"]["points_ingested"] == reference["fixes"],
                      "the service ingested every fix"),
        outcome.check(record["stats"]["points_late"] == 0, "no fix arrived late"),
    ])
    if not ok:
        outcome.failed += 1
    _count_load(outcome, load)
    return {"writer": record, "load": load, "stats": stats, "traced": traced,
            "server_spans": server.spans() if traced else None}


# -- per-layer metrics -----------------------------------------------------------------------
def layer_metrics(plain: List[Dict], traced: List[Dict], w: SpanSet,
                  server: Optional[SpanSet] = None, stats: Optional[Dict] = None,
                  load: Optional[LoadResult] = None) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric of the worker spans ``w`` and, for stream-rw,
    of the traced server; layers a workload does not load read 0."""
    m: Dict[str, Tuple[float, str]] = {}
    last = traced[-1]
    counters = w.counters
    total = w.total

    report = last.get("report", {})
    records = report.get("total", 0)
    ingest_s = total("ingest.load_csv_report")
    m["ingest.total_s"] = (ingest_s, "s")
    m["ingest.pipeline_s"] = (total("ingest.run_pipeline"), "s")
    m["ingest.build_s"] = (total("ingest.database_from_records"), "s")
    m["ingest.records"] = (records, "count")
    m["ingest.accepted"] = (report.get("accepted", 0), "count")
    m["ingest.dropped"] = (report.get("dropped", 0), "count")
    m["ingest.accepted_ratio"] = (report.get("accepted", 0) / records if records else 0.0,
                                  "ratio")
    m["ingest.records_per_s"] = (records / ingest_s if ingest_s else 0.0, "1/s")

    m["phase1.total_s"] = (total("phase1.cluster"), "s")
    m["phase1.calls"] = (len(w.durations("phase1.cluster")), "count")
    m["phase1.interpolate_s"] = (total("phase1.build_arena_block"), "s")
    m["phase1.arena_rows"] = (counters.get("phase1.arena_rows", 0), "count")
    m["phase1.pairs_s"] = (total("phase1.neighbor_pairs_batched"), "s")
    m["phase1.pairs"] = (counters.get("phase1.pairs", 0), "count")
    m["phase1.label_s"] = (w.self_time("phase1.dbscan_numpy_batched"), "s")
    m["phase1.frames_s"] = (total("phase1.frames_from_arena")
                            + total("phase1.extend_cluster_database"), "s")
    m["phase1.clusters"] = (counters.get("phase1.clusters", 0), "count")

    m["phase2.total_s"] = (total("phase2.discover_closed_crowds")
                           + total("phase2.incremental_update"), "s")
    m["phase2.proximity_s"] = (total("phase2.build_proximity_graph"), "s")
    m["phase2.sweep_s"] = (total("phase2.sweep_crowds_frontier"), "s")
    m["phase2.graph_nodes"] = (counters.get("phase2.graph_nodes", 0), "count")
    m["phase2.graph_edges"] = (counters.get("phase2.graph_edges", 0), "count")
    m["phase2.closed_crowds"] = (last.get("crowds", 0), "count")
    m["phase3.detect_s"] = (total("phase3.detect"), "s")
    m["phase3.gatherings"] = (last.get("gatherings", 0), "count")

    m["store.write_s"] = (total("store.add_crowds") + total("store.add_gatherings"), "s")
    m["store.write_calls"] = (counters.get("store.write_calls", 0), "count")
    m["store.rows_inserted"] = (counters.get("store.rows_inserted", 0), "count")
    m["store.read_s"] = (server.total("store.pool_read") if server else 0.0, "s")

    stats = stats or {}
    cache = stats.get("cache", {})
    resilience = stats.get("resilience", {})
    lookups = cache.get("hits", 0) + cache.get("misses", 0)
    handle = server.durations("serve.handle_request") if server else []
    statuses = load.statuses if load else []
    m["store.locked_retries"] = (stats.get("pool", {}).get("locked_retries", 0), "count")
    m["serve.handle_p50_ms"] = (_ms(median(handle)) if handle else 0.0, "ms")
    m["serve.handle_p99_ms"] = (_ms(quantile(handle, 0.99)) if handle else 0.0, "ms")
    m["serve.transport_ms"] = (
        _ms(median(load.latencies) - median(handle)) if handle and load else 0.0, "ms")
    m["serve.requests"] = (len(statuses), "count")
    m["serve.cache_lookups"] = (lookups, "count")
    m["serve.cache_hit_ratio"] = (cache.get("hits", 0) / lookups if lookups else 0.0, "ratio")
    m["serve.not_modified"] = (cache.get("not_modified", 0), "count")
    m["serve.shed"] = (resilience.get("shed", 0), "count")
    m["serve.timeouts"] = (resilience.get("request_timeouts", 0), "count")
    for code in (200, 304, 503):
        m[f"serve.status.{code}"] = (statuses.count(code), "count")
    m["serve.status.other"] = (sum(1 for s in statuses if s not in (200, 304, 503)), "count")
    m["serve.generator_lag_ms"] = (_ms(quantile(load.lags, 0.99)) if load else 0.0, "ms")
    m["serve.late_sends"] = (load.late_sends if load else 0, "count")

    stats_stream = last.get("stats", {})
    windows = [c + u for c, u in zip(w.durations("phase1.cluster"),
                                      w.durations("phase2.incremental_update"))]
    m["stream.ingest_s"] = (w.self_time("stream.ingest_many"), "s")
    m["stream.window_p50_ms"] = (_ms(median(windows)) if windows else 0.0, "ms")
    m["stream.window_max_ms"] = (_ms(max(windows)) if windows else 0.0, "ms")
    for key in ("windows_closed", "points_late", "peak_pending_points",
                "peak_retained_clusters"):
        m[f"stream.{key}"] = (stats_stream.get(key, 0), "count")
    m["stream.checkpoint_s"] = (total("stream.checkpoint"), "s")
    m["stream.checkpoint_bytes"] = (last.get("checkpoint_bytes", 0), "B")

    for layer in ("ingest", "phase1", "phase2", "store"):
        m[f"rss.after_{layer}_mb"] = (w.rss_after.get(layer, 0.0), "MB")

    traced_wall = median([r["wall_s"] for r in traced])
    m["trace.overhead_frac"] = (traced_wall / median([r["wall_s"] for r in plain]) - 1.0,
                                "ratio")
    m["trace.coverage_frac"] = (w.top_level_total() / last["wall_s"], "ratio")
    return m


WORKLOADS: Dict[str, Callable[[Run], Outcome]] = {
    "trace-to-store": trace_to_store,
    "mine-dense": mine_dense,
    "stream-rw": stream_rw,
}
