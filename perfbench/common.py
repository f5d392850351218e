"""Shared plumbing of the benchmark: paths, worker processes, statistics.

Everything here runs in the harness process (``run.py``) except
:func:`vm_hwm_mb` and :func:`answer_digest`, which the worker processes
import too.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, Optional, Sequence

#: The benchmark's own directory and the checkout root it lives in.
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Generated inputs, traces, result records and per-run scratch space.
#: Git-ignored; never part of the benchmark's sources.
STATE = ROOT / ".perfbench"

#: Mining thresholds of both fleet shapes: the ``city``/``metro`` rows of
#: ``repro bench`` with ``delta`` at 300 instead of 500.  Near 500 these
#: fleets branch crowd candidates combinatorially on some seeds (one seed
#: mined 74k closed crowds instead of ~35), so the work per seed — and
#: every rate — would depend on the seed more than on the code.
PARAMS = dict(eps=220.0, min_points=4, mc=4, delta=300.0, kc=8, kp=6, mp=4)


class BenchError(RuntimeError):
    """The benchmark itself could not run (not an answer-check failure)."""


def require_source_tree() -> None:
    """Fail fast unless the program's sources sit next to the benchmark."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"program sources not found under {SRC}")


def worker_env() -> Dict[str, str]:
    """Environment of every measured process: the checkout's ``src`` first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env.pop("REPRO_FAULT_PLAN", None)
    return env


# -- statistics ---------------------------------------------------------------------
def quantile(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile (``q`` in [0, 1]) of a non-empty sample."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of an empty sample")
    rank = max(1, -(-len(ordered) * q // 1))
    return float(ordered[int(min(rank, len(ordered))) - 1])


def median(values: Sequence[float]) -> float:
    """Median (mean of the middle pair for even counts)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of an empty sample")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


# -- answers and memory ---------------------------------------------------------------
def answer_digest(crowds: Iterable, gatherings: Iterable) -> str:
    """Order-free identity of a mined answer.

    Crowd keys, gathering keys and participator sets — the identity the
    parity tests and ``repro bench`` compare across backends.
    """
    crowd_keys = sorted(tuple(crowd.keys()) for crowd in crowds)
    gathering_keys = sorted(
        (tuple(g.keys()), tuple(sorted(g.participator_ids))) for g in gatherings
    )
    return hashlib.sha256(repr((crowd_keys, gathering_keys)).encode()).hexdigest()


def vm_hwm_mb(pid: Optional[int] = None) -> float:
    """Peak resident set (``VmHWM``) of a process, in MB.

    ``VmHWM`` belongs to the address space ``exec`` created, so a child
    never inherits its parent's high-water mark (``ru_maxrss`` would).
    """
    status = Path(f"/proc/{pid or 'self'}/status")
    for line in status.read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM in {status}")


# -- environment stamp ----------------------------------------------------------------
def git_commit() -> Optional[str]:
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_probe_ms(repeats: int = 5) -> float:
    """Median time of a fixed pure-Python loop, in milliseconds.

    Taken at the start and the end of every run, it shows whether the
    machine itself ran slower (a shared virtual machine drifts by tens of
    percent) when a run's figures moved.
    """
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        total = 0
        for value in range(300_000):
            total += value * value
        times.append((time.perf_counter() - started) * 1000.0)
    return median(times)


def cpu_ticks() -> Sequence[int]:
    """``(steal, total)`` jiffies of all CPUs from ``/proc/stat`` (zeros if absent)."""
    try:
        with open("/proc/stat") as handle:
            fields = [int(value) for value in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return (0, 0)
    return (fields[7] if len(fields) > 7 else 0, sum(fields))


def environment(numpy_version: str) -> Dict:
    """The stamp every result record carries; :func:`finish_environment` completes it."""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "loadavg_start": list(os.getloadavg()),
        "cpu_probe_ms_start": cpu_probe_ms(),
        "cpu_ticks_start": cpu_ticks(),
    }


def finish_environment(env: Dict) -> None:
    """Add the end-of-run load, CPU probe and the share of CPU time stolen
    by the hypervisor while the run lasted."""
    env["loadavg_end"] = list(os.getloadavg())
    env["cpu_probe_ms_end"] = cpu_probe_ms()
    steal, total = (end - start for end, start in zip(cpu_ticks(), env.pop("cpu_ticks_start")))
    env["steal_frac"] = steal / total if total else 0.0


def free_port() -> int:
    """An ephemeral localhost port that was free a moment ago."""
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


# -- worker processes -----------------------------------------------------------------
class Worker:
    """One fresh measured process running ``worker.py``.

    Protocol (one line each on the worker's stdout): ``PB-READY`` once
    imports and store opening are done (the end of set-up), ``PB-ARMED``
    once the inputs are loaded, then — after the harness writes ``GO`` to
    its stdin — ``PB-RESULT <json>`` when the timed work is complete.
    """

    def __init__(self, kind: str, args: Dict, scratch: Path) -> None:
        self.kind = kind
        self.stderr_path = scratch / f"worker-{kind}-{time.monotonic_ns()}.err"
        self._stderr = self.stderr_path.open("w")
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "worker.py"), kind, json.dumps(args)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=self._stderr,
            env=worker_env(),
            cwd=str(ROOT),
            text=True,
        )
        self.setup_s: Optional[float] = None

    def _expect(self, tag: str) -> str:
        line = self.process.stdout.readline()
        if not line.startswith(tag):
            self.process.wait(timeout=30)
            raise BenchError(
                f"worker {self.kind} sent {line.strip()!r} instead of {tag}: "
                + self.stderr_path.read_text()[-2000:]
            )
        return line[len(tag):].strip()

    def wait_ready(self) -> float:
        """Block until set-up is done; returns the set-up seconds."""
        self._expect("PB-READY")
        self.setup_s = time.perf_counter() - self.started
        return self.setup_s

    def arm(self) -> None:
        """Block until the worker holds its inputs."""
        self._expect("PB-ARMED")

    def go(self) -> None:
        """Start the timed work."""
        self.process.stdin.write("GO\n")
        self.process.stdin.flush()

    def result(self, timeout: float = 150.0) -> Dict:
        """The worker's result record (waits for it to exit)."""
        payload = json.loads(self._expect("PB-RESULT"))
        self.process.wait(timeout=timeout)
        return payload

    def run(self) -> Dict:
        """The whole life cycle of a batch worker: ready, armed, go, result."""
        try:
            self.wait_ready()
            self.arm()
            self.go()
            payload = self.result()
        finally:
            self.close()
        payload["setup_s"] = self.setup_s
        return payload

    def close(self) -> None:
        """Stop the worker if it still runs and wait for it to end."""
        if self.process.poll() is None:
            self.process.kill()
            self.process.wait(timeout=30)
        for stream in (self.process.stdin, self.process.stdout):
            if stream is not None and not stream.closed:
                stream.close()
        self._stderr.close()
