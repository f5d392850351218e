"""Traced pattern server: ``python3 perfbench/serve_traced.py STORE PORT TRACE RUN_ID``.

Serves a store exactly as ``python -m repro query --store STORE --serve``
does (same pool size, cache size and request timeout), but first wraps
``PatternApp.handle_request`` and ``ReadConnectionPool.read`` so every
request and every pooled store read records a span.  On SIGINT the server
stops and the spans are written to ``TRACE``.
"""

from __future__ import annotations

import sys

from tracer import SERVER_SPANS, Tracer


def main() -> None:
    store, port, trace_path, run_id = sys.argv[1:5]
    tracer = Tracer(run_id)
    tracer.install(SERVER_SPANS)
    from repro.serve import PatternApp, ReadConnectionPool, run_async_server

    pool = ReadConnectionPool(store, size=4)
    try:
        run_async_server(PatternApp(pool, cache_size=256), host="127.0.0.1", port=int(port))
    finally:
        pool.close()
        tracer.write(trace_path)


if __name__ == "__main__":
    main()
