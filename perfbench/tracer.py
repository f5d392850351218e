"""In-memory span recorder that wraps the program's public layer entry points.

The program itself carries no instrumentation, so a traced worker (or the
traced server launcher) replaces the named functions *as each caller binds
them* — e.g. ``repro.engine.phase1.build_arena_block``, the name phase 1
looks up, not the definition in ``repro.engine.arena`` — with wrappers
that record one span per call: name, start, end, parent span and thread.
Counters are taken from the wrapped calls' results, and the process's
``VmHWM`` is sampled when a layer's top-level call returns.

Spans stay in memory and are written once, at the end, as Chrome
trace-event JSON (``chrome://tracing`` / Perfetto open it).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

from common import vm_hwm_mb


def _arena_rows(result, args, kwargs) -> Dict[str, float]:
    return {"phase1.arena_rows": len(result.coords)}


def _pairs(result, args, kwargs) -> Dict[str, float]:
    return {"phase1.pairs": len(result[0])}


def _clusters(result, args, kwargs) -> Dict[str, float]:
    frames = args[3] if len(args) > 3 else kwargs["frames"]
    return {"phase1.clusters": sum(len(frame.clusters) for frame in frames.values())}


def _graph(result, args, kwargs) -> Dict[str, float]:
    return {"phase2.graph_nodes": result.node_count, "phase2.graph_edges": result.edge_count}


def _inserted(result, args, kwargs) -> Dict[str, float]:
    return {"store.rows_inserted": result, "store.write_calls": 1}


#: ``(module, attribute, span name, counter function, VmHWM key)``.  The
#: attribute is a module-level name or ``Class.method``; the span name's
#: first dotted part is the layer.
LAYER_SPANS: Tuple[Tuple[str, str, str, Optional[Callable], Optional[str]], ...] = (
    ("repro.trajectory.io", "load_csv_report", "ingest.load_csv_report", None, "ingest"),
    ("repro.trajectory.io", "run_pipeline", "ingest.run_pipeline", None, None),
    ("repro.trajectory.io", "database_from_records", "ingest.database_from_records", None, None),
    ("repro.core.pipeline", "GatheringMiner.cluster", "phase1.cluster", None, "phase1"),
    ("repro.engine.phase1", "build_arena_block", "phase1.build_arena_block", _arena_rows, None),
    ("repro.engine.phase1", "dbscan_numpy_batched", "phase1.dbscan_numpy_batched", None, None),
    ("repro.engine.dbscan", "neighbor_pairs_batched", "phase1.neighbor_pairs_batched", _pairs, None),
    ("repro.engine.phase1", "frames_from_arena", "phase1.frames_from_arena", None, None),
    ("repro.engine.phase1", "extend_cluster_database", "phase1.extend_cluster_database",
     _clusters, None),
    ("repro.core.pipeline", "discover_closed_crowds", "phase2.discover_closed_crowds", None,
     "phase2"),
    ("repro.core.pipeline", "IncrementalGatheringMiner.update", "phase2.incremental_update",
     None, "phase2"),
    ("repro.engine.proximity", "build_proximity_graph", "phase2.build_proximity_graph", _graph,
     None),
    ("repro.engine.sweep", "sweep_crowds_frontier", "phase2.sweep_crowds_frontier", None, None),
    ("repro.core.pipeline", "GatheringMiner.detect", "phase3.detect", None, None),
    ("repro.store.pattern_store", "PatternStore.add_crowds", "store.add_crowds", _inserted,
     "store"),
    ("repro.store.pattern_store", "PatternStore.add_gatherings", "store.add_gatherings",
     _inserted, "store"),
    ("repro.stream.service", "StreamingGatheringService.ingest_many", "stream.ingest_many",
     None, None),
    ("repro.stream.service", "StreamingGatheringService.finish", "stream.finish", None, None),
    ("repro.stream.service", "StreamingGatheringService.checkpoint", "stream.checkpoint",
     None, None),
)

#: The server side: the request handler and the pooled store read.
SERVER_SPANS: Tuple[Tuple[str, str, str, Optional[Callable], Optional[str]], ...] = (
    ("repro.serve.app", "PatternApp.handle_request", "serve.handle_request", None, None),
    ("repro.serve.pool", "ReadConnectionPool.read", "store.pool_read", None, None),
)


class Tracer:
    """Spans, counters and per-layer ``VmHWM`` samples of one process."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.pid = os.getpid()
        #: ``[id, name, start_ns, end_ns, parent_id, thread_id]`` per span.
        self.spans: List[list] = []
        self.counters: Dict[str, float] = {}
        self.rss_after: Dict[str, float] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _count(self, increments: Dict[str, float]) -> None:
        with self._lock:
            for key, value in increments.items():
                self.counters[key] = self.counters.get(key, 0) + value

    def wrap(self, original: Callable, name: str, count=None, rss_key=None) -> Callable:
        """A wrapper of ``original`` recording one span per call."""

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = [next(self._ids), name, 0, 0, stack[-1] if stack else -1,
                    threading.get_ident()]
            stack.append(span[0])
            span[2] = time.perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                span[3] = time.perf_counter_ns()
                stack.pop()
                self.spans.append(span)
            if count is not None:
                self._count(count(result, args, kwargs))
            if rss_key is not None:
                self.rss_after[rss_key] = vm_hwm_mb()
            return result

        return traced

    def install(self, table=LAYER_SPANS) -> None:
        """Replace every function named in ``table`` by its traced wrapper."""
        for module_name, attribute, name, count, rss_key in table:
            owner = importlib.import_module(module_name)
            *classes, leaf = attribute.split(".")
            for class_name in classes:
                owner = getattr(owner, class_name)
            original = owner.__dict__[leaf] if classes else getattr(owner, leaf)
            setattr(owner, leaf, self.wrap(original, name, count, rss_key))

    def export(self) -> Dict:
        """Spans and counters as one JSON-ready document."""
        return {
            "run_id": self.run_id,
            "pid": self.pid,
            "spans": sorted(self.spans, key=lambda span: span[2]),
            "counters": self.counters,
            "rss_after": self.rss_after,
        }

    def write(self, path) -> None:
        """Write :meth:`export` to ``path``."""
        with open(path, "w") as handle:
            json.dump(self.export(), handle)


# -- analysis (harness side) -------------------------------------------------------------
class SpanSet:
    """Spans of one process with durations, self times and top levels."""

    def __init__(self, document: Dict) -> None:
        self.pid = document["pid"]
        self.spans = document["spans"]
        self.counters = document["counters"]
        self.rss_after = document["rss_after"]
        child_time: Dict[int, int] = {}
        for span in self.spans:
            if span[4] >= 0:
                child_time[span[4]] = child_time.get(span[4], 0) + span[3] - span[2]
        self._child_time = child_time

    def durations(self, name: str) -> List[float]:
        """Seconds of every span called ``name``, in start order."""
        return [(s[3] - s[2]) / 1e9 for s in self.spans if s[1] == name]

    def total(self, name: str) -> float:
        """Summed seconds of the spans called ``name``."""
        return sum(self.durations(name))

    def self_time(self, name: str) -> float:
        """Summed self seconds (duration minus child spans) of ``name``."""
        return sum(
            (s[3] - s[2] - self._child_time.get(s[0], 0)) / 1e9
            for s in self.spans
            if s[1] == name
        )

    def top_level_total(self) -> float:
        """Summed seconds of the spans without a parent."""
        return sum((s[3] - s[2]) / 1e9 for s in self.spans if s[4] < 0)

    def chrome_events(self, run_id: str, process_name: str) -> List[Dict]:
        """Chrome trace-event records (complete events, microseconds)."""
        events = [
            {"name": "process_name", "ph": "M", "pid": self.pid,
             "args": {"name": process_name}}
        ]
        for span_id, name, start, end, parent, thread in self.spans:
            events.append(
                {
                    "name": name,
                    "cat": name.split(".", 1)[0],
                    "ph": "X",
                    "ts": start / 1000.0,
                    "dur": (end - start) / 1000.0,
                    "pid": self.pid,
                    "tid": thread,
                    "args": {"id": span_id, "parent": parent, "run_id": run_id},
                }
            )
        return events


def write_chrome_trace(path, run_id: str, processes: List[Tuple[str, SpanSet]]) -> None:
    """One trace file holding the spans of every traced process of a run."""
    events: List[Dict] = []
    for process_name, spans in processes:
        events.extend(spans.chrome_events(run_id, process_name))
    with open(path, "w") as handle:
        json.dump(
            {"traceEvents": events, "displayTimeUnit": "ms", "otherData": {"run_id": run_id}},
            handle,
        )
