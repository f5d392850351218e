"""Seeded workload inputs, generated once per seed and cached.

Two fleet shapes feed the three workloads:

* **metro** (trace-to-store, mine-dense): ``metro_scenario`` written as a
  raw ``object_id,t,x,y`` CSV with seeded invalid rows, the clean trace
  and the scalar-oracle answer;
* **city** (stream-rw): ``city_scenario`` replayed as a jittered arrival
  feed, its batch-mined answer, and a store of that answer from which the
  read mix takes its query profile.

The simulators cost seconds to minutes per seed, so every artifact is
built once into ``.perfbench/cache/<shape>-<parameter hash>-s<seed>/`` and
re-used; nothing here is timed by any metric.  Files land atomically
(written aside, then renamed), so an interrupted build never leaves a
half-written input behind.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from common import PARAMS, STATE, answer_digest

#: Size of the metro fleet (tiled, see :func:`_tiled`) and the share of
#: injected invalid rows.
METRO = {
    "fleet": 1000,
    "duration": 100,
    "districts": 9,
    "tiles": 2,
    "tile_gap": 5000.0,
    "corrupt_frac": 0.03,
    "speed_margin": 1.1,
    "bounds_margin": 1000.0,
    "version": 2,
}
#: Size of the city fleet and the arrival jitter, in snapshots; the jitter
#: stays below the stream's slack so every fix lands in an open window.
#: Each tile is a fleet simulated from its own seed: with copies of one
#: fleet, the stream's rates spread 0.11 between seeds.
CITY = {
    "fleet": 600,
    "duration": 80,
    "districts": 4,
    "tiles": 2,
    "tile_gap": 5000.0,
    "jitter": 0.9,
    "version": 3,
}
#: How the stream-rw writer drives the service.
STREAM = {"window": 5, "slack": 1, "batch_points": 4000, "checkpoint_every": 6, "keep": 2}

#: The corruption kinds and the firewall reason each one must be dropped for.
CORRUPTIONS = (
    ("schema", "schema"),
    ("parse", "parse"),
    ("non_finite", "non_finite"),
    ("out_of_bounds", "out_of_bounds"),
    ("duplicate", "duplicate_timestamp"),
    ("backwards", "non_monotone"),
    ("teleport", "teleport"),
)


def _key(shape: Dict) -> str:
    return hashlib.sha256(json.dumps([shape, PARAMS], sort_keys=True).encode()).hexdigest()[:10]


def _atomic_write(path: Path, data: bytes) -> None:
    partial = path.with_name(f".{path.name}.{os.getpid()}.partial")
    partial.write_bytes(data)
    os.replace(partial, path)


class _Cached:
    """One seed's cache directory with per-artifact lazy builders.

    Only plain data is cached — numpy arrays and JSON — never pickled
    program objects, so a later version of the program never meets objects
    laid out by an earlier one.
    """

    shape: Dict = {}
    name = ""

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)
        self.dir = STATE / "cache" / f"{self.name}-{_key(self.shape)}-s{self.seed}"
        self.dir.mkdir(parents=True, exist_ok=True)

    def _arrays(self, filename: str, build) -> Path:
        path = self.dir / filename
        if not path.exists():
            partial = path.with_name(f".{path.name}.{os.getpid()}.partial")
            with partial.open("wb") as handle:
                np.savez(handle, **build())
            os.replace(partial, path)
        return path

    def _json(self, filename: str, build) -> Dict:
        path = self.dir / filename
        if not path.exists():
            _atomic_write(path, json.dumps(build(), indent=1).encode())
        return json.loads(path.read_text())

    def fixes_path(self) -> Path:
        """The clean trace as ``object_id``/``t``/``x``/``y`` arrays (``.npz``)."""
        return self._arrays("fixes.npz", lambda: _columns(self._simulate()))

    def database(self):
        """The clean trajectory database of this seed."""
        return load_database(self.fixes_path())

    def _simulate(self):
        raise NotImplementedError


def _columns(database) -> Dict[str, np.ndarray]:
    """A database as fix columns, grouped by object in database order."""
    rows = [(trajectory.object_id, t, point.x, point.y)
            for trajectory in database for t, point in trajectory]
    return _feed_columns(rows)


def _feed_columns(rows) -> Dict[str, np.ndarray]:
    ids, ts, xs, ys = zip(*rows)
    return {"object_id": np.asarray(ids, dtype=np.int64), "t": np.asarray(ts, dtype=float),
            "x": np.asarray(xs, dtype=float), "y": np.asarray(ys, dtype=float)}


def load_feed(path) -> List[Tuple[int, float, float, float]]:
    """The ``(object_id, t, x, y)`` rows of a cached column file, in file order."""
    with np.load(path) as columns:
        return list(zip(*(columns[name].tolist() for name in ("object_id", "t", "x", "y"))))


def load_database(path):
    """Build the trajectory database of a cached, object-grouped column file."""
    from repro.trajectory.trajectory import Trajectory, TrajectoryDatabase

    database = TrajectoryDatabase()
    rows = load_feed(path)
    start = 0
    for end in range(1, len(rows) + 1):
        if end == len(rows) or rows[end][0] != rows[start][0]:
            database.add(Trajectory.from_coordinates(
                rows[start][0], [row[1:] for row in rows[start:end]]))
            start = end
    return database


def _mine(database, backend: str):
    from repro.core.config import GatheringParameters
    from repro.core.pipeline import GatheringMiner
    from repro.engine.registry import ExecutionConfig

    miner = GatheringMiner(GatheringParameters(**PARAMS), config=ExecutionConfig(backend=backend))
    return miner.mine(database)


def _tiled(fleets, shape: Dict):
    """The ``fleets`` laid out side by side on the x axis, as one database.

    Tiles sit ``shape["tile_gap"]`` apart — far beyond ``eps`` and
    ``delta`` — and get fresh object ids, so each tile mines like the fleet
    it holds.  The simulator is the slow part of input generation; tiling
    copies of one fleet buys mining and ingest work per simulated second,
    and tiling distinct fleets averages out how much work one seed holds.
    """
    from repro.geometry.point import Point
    from repro.trajectory.trajectory import Trajectory, TrajectoryDatabase

    width = max(point.x for base in fleets for trajectory in base for _, point in trajectory)
    shift = width + shape["tile_gap"]
    ids = max(max(base.object_ids()) for base in fleets) + 1
    tiled = TrajectoryDatabase()
    for tile, base in enumerate(fleets):
        for trajectory in base:
            tiled.add(
                Trajectory(
                    trajectory.object_id + tile * ids,
                    [(t, Point(p.x + tile * shift, p.y)) for t, p in trajectory],
                )
            )
    return tiled


def _write_store(path: Path, result) -> None:
    from repro.store import PatternStore

    partial = path.with_name(f".{path.name}.{os.getpid()}.partial")
    with PatternStore(partial) as store:
        store.write_result(result)
    for suffix in ("-wal", "-shm"):
        Path(str(partial) + suffix).unlink(missing_ok=True)
    os.replace(partial, path)


class MetroInputs(_Cached):
    """The metro fleet: raw CSV, clean database, oracle answer, mined store."""

    shape = METRO
    name = "metro"

    def _simulate(self):
        from repro.datagen.scenarios import metro_scenario

        base = metro_scenario(
            fleet_size=self.shape["fleet"],
            duration=self.shape["duration"],
            districts=self.shape["districts"],
            seed=self.seed,
        ).database
        return _tiled([base] * self.shape["tiles"], self.shape)

    def raw(self) -> Dict:
        """The raw CSV's path, the injected rows and the firewall config."""
        meta = self._json("raw.json", self._write_raw)
        meta["path"] = str(self.dir / "raw.csv")
        return meta

    def _write_raw(self) -> Dict:
        database = self.database()
        rows: List[Tuple[int, float, float, float]] = []
        hosts: List[int] = []
        fastest = 0.0
        for trajectory in database:
            samples = list(trajectory)
            for index, (t, point) in enumerate(samples):
                if 0 < index < len(samples) - 1:
                    hosts.append(len(rows))
                if index:
                    t0, p0 = samples[index - 1]
                    step = float(np.hypot(point.x - p0.x, point.y - p0.y)) / (t - t0)
                    fastest = max(fastest, step)
                rows.append((trajectory.object_id, t, point.x, point.y))
        xs = np.array([row[2] for row in rows])
        ys = np.array([row[3] for row in rows])
        margin = self.shape["bounds_margin"]
        bounds = [
            float(xs.min()) - margin,
            float(ys.min()) - margin,
            float(xs.max()) + margin,
            float(ys.max()) + margin,
        ]
        center_x = (bounds[0] + bounds[2]) / 2.0

        rng = np.random.default_rng([self.seed, 1])
        count = int(round(self.shape["corrupt_frac"] * len(rows)))
        chosen = rng.choice(len(hosts), size=count, replace=False)
        kinds = rng.integers(0, len(CORRUPTIONS), size=count)
        injected_after: Dict[int, int] = {
            hosts[int(host)]: int(kind) for host, kind in zip(chosen, kinds)
        }
        expected: Dict[str, int] = {}
        lines = ["object_id,t,x,y"]
        for position, (oid, t, x, y) in enumerate(rows):
            lines.append(f"{oid},{t!r},{x!r},{y!r}")
            kind = injected_after.get(position)
            if kind is None:
                continue
            label, reason = CORRUPTIONS[kind]
            expected[reason] = expected.get(reason, 0) + 1
            if label == "schema":
                lines.append(f"{oid},{t!r}")
            elif label == "parse":
                lines.append(f"{oid},{t!r},abc,{y!r}")
            elif label == "non_finite":
                lines.append(f"{oid},{t + 0.25!r},{'nan' if position % 2 else 'inf'},{y!r}")
            elif label == "out_of_bounds":
                lines.append(f"{oid},{t + 0.25!r},{bounds[2] + 5 * margin!r},{y!r}")
            elif label == "duplicate":
                lines.append(lines[-1])
            elif label == "backwards":
                lines.append(f"{oid},{(rows[position - 1][1] + t) / 2.0!r},{x!r},{y!r}")
            else:  # teleport: 3 km in a thousandth of a time unit
                jump = 3000.0 if x < center_x else -3000.0
                lines.append(f"{oid},{t + 0.001!r},{x + jump!r},{y!r}")
        _atomic_write(self.dir / "raw.csv", ("\n".join(lines) + "\n").encode())
        return {
            "fixes": len(rows),
            "records": len(lines) - 1,
            "injected": count,
            "dropped_by_rule": dict(sorted(expected.items())),
            "max_speed": fastest * self.shape["speed_margin"],
            "bounds": bounds,
        }

    def oracle(self) -> Dict:
        """The scalar ``python`` backend's answer on the clean database."""

        def build() -> Dict:
            result = _mine(self.database(), "python")
            return {
                "digest": answer_digest(result.closed_crowds, result.gatherings),
                "crowds": len(result.closed_crowds),
                "gatherings": len(result.gatherings),
            }

        return self._json("oracle.json", build)


class CityInputs(_Cached):
    """The city fleet: arrival feed, batch answer and a store of it."""

    shape = CITY
    name = "city"

    def _simulate(self):
        from repro.datagen.scenarios import city_scenario

        tiles = self.shape["tiles"]
        return _tiled(
            [
                city_scenario(
                    fleet_size=self.shape["fleet"],
                    duration=self.shape["duration"],
                    districts=self.shape["districts"],
                    seed=self.seed * tiles + tile,
                ).database
                for tile in range(tiles)
            ],
            self.shape,
        )

    def feed_path(self) -> Path:
        """The arrival-ordered feed as ``object_id``/``t``/``x``/``y`` arrays."""
        from repro.datagen.scenarios import arrival_stream

        return self._arrays(
            "feed.npz",
            lambda: _feed_columns(
                arrival_stream(self.database(), jitter=self.shape["jitter"], seed=self.seed)
            ),
        )

    def reference(self) -> Dict:
        """Batch mining of the same database: the stream's expected answer."""

        def build() -> Dict:
            result = _mine(self.database(), "numpy")
            _write_store(self.dir / "reference.db", result)
            return {
                "digest": answer_digest(result.closed_crowds, result.gatherings),
                "crowds": len(result.closed_crowds),
                "gatherings": len(result.gatherings),
                "fixes": sum(len(trajectory) for trajectory in self.database()),
            }

        return self._json("reference.json", build)

    def reference_store(self) -> Path:
        """A store holding the batch answer (the read mix's query profile)."""
        self.reference()
        return self.dir / "reference.db"

