"""Open-loop HTTP load generator.

Requests are *due* on a fixed schedule (``rate`` per second) whatever the
server does; at most ``connections`` requests are in flight on persistent
keep-alive connections, and a due request waits in the client's queue for
a free connection.  Each request is timed from its due time, so a stall
also charges the wait it imposes on the requests queued behind it.

How late the scheduler itself woke up (actual enqueue time minus due
time) is recorded separately as the generator lag: it measures the
harness, not the server, and says whether the latency numbers are valid.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

#: A send later than this (seconds after its due time) counts as late.
LATE_SEND_S = 0.001


@dataclass
class LoadResult:
    """What one open-loop phase saw."""

    latencies: List[float] = field(default_factory=list)
    statuses: List[int] = field(default_factory=list)
    lags: List[float] = field(default_factory=list)

    @property
    def sent(self) -> int:
        """Requests attempted."""
        return len(self.statuses)

    @property
    def failed(self) -> int:
        """Transport errors and statuses other than 200 / 304."""
        return sum(1 for status in self.statuses if status not in (200, 304))

    @property
    def late_sends(self) -> int:
        """Requests the scheduler enqueued more than ``LATE_SEND_S`` late."""
        return sum(1 for lag in self.lags if lag > LATE_SEND_S)


async def _connection(host: str, port: int, queue: asyncio.Queue, result: LoadResult) -> None:
    reader = writer = None
    while True:
        item = await queue.get()
        if item is None:
            break
        target, due = item
        status = 0
        try:
            if writer is None:
                reader, writer = await asyncio.open_connection(host, port)
            writer.write(f"GET {target} HTTP/1.1\r\nHost: {host}\r\n\r\n".encode())
            head = await reader.readuntil(b"\r\n\r\n")
            lines = head.decode("latin-1").split("\r\n")
            status = int(lines[0].split()[1])
            length = 0
            for line in lines[1:]:
                name, _, value = line.partition(":")
                if name.strip().lower() == "content-length":
                    length = int(value)
            await reader.readexactly(length)
        except (OSError, asyncio.IncompleteReadError, ValueError, IndexError):
            status = 0
            if writer is not None:
                writer.close()
            reader = writer = None
        result.latencies.append(time.perf_counter() - due)
        result.statuses.append(status)
    if writer is not None:
        writer.close()


async def _open_loop(host, port, targets, rate, connections, stop, drain_timeout) -> LoadResult:
    result = LoadResult()
    queue: asyncio.Queue = asyncio.Queue()
    workers = [
        asyncio.create_task(_connection(host, port, queue, result))
        for _ in range(connections)
    ]
    start = time.perf_counter() + 0.005
    number = 0
    while True:
        due = start + number / rate
        if stop.is_set():
            break
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        result.lags.append(max(0.0, time.perf_counter() - due))
        queue.put_nowait((targets[number % len(targets)], due))
        number += 1
    for _ in workers:
        queue.put_nowait(None)
    _, pending = await asyncio.wait(workers, timeout=drain_timeout)
    for task in pending:
        task.cancel()
    await asyncio.gather(*workers, return_exceptions=True)
    return result


def open_loop(host: str, port: int, targets: Sequence[str], rate: float, connections: int,
              stop: threading.Event, drain_timeout: float = 30.0) -> LoadResult:
    """Send ``targets`` (cycled) at ``rate`` per second until ``stop`` is set."""
    return asyncio.run(
        _open_loop(host, port, list(targets), float(rate), connections, stop, drain_timeout)
    )


def get_json(host: str, port: int, target: str, timeout: float = 10.0) -> Dict:
    """One blocking GET returning the decoded JSON body (for ``/stats``)."""
    connection = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        connection.request("GET", target)
        response = connection.getresponse()
        body = response.read()
        if response.status != 200:
            raise RuntimeError(f"GET {target} answered {response.status}")
        return json.loads(body)
    finally:
        connection.close()


def healthy(host: str, port: int) -> bool:
    """``True`` once ``/healthz`` answers 200."""
    connection = http.client.HTTPConnection(host, port, timeout=1.0)
    try:
        connection.request("GET", "/healthz")
        return connection.getresponse().status == 200
    except (OSError, http.client.HTTPException):
        return False
    finally:
        connection.close()
