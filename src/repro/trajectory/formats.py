"""Readers for the public trajectory datasets the paper's line of work uses.

* **T-Drive** (Microsoft Research) — one text file per taxi, each line
  ``taxi_id,YYYY-MM-DD HH:MM:SS,longitude,latitude``.  The paper's evaluation
  dataset is the (larger, proprietary) superset of this release.
* **GeoLife** — one ``.plt`` file per trip with a six-line header and lines
  ``latitude,longitude,0,altitude,days,date,time``.

Both readers return a :class:`~repro.trajectory.TrajectoryDatabase` whose
point coordinates are ``(longitude, latitude)`` degrees and whose timestamps
are seconds relative to the earliest fix (scaled by ``time_unit``).  Pass the
result through :func:`repro.trajectory.geo.project_database` to obtain the
planar metre coordinates the miner expects.

Every record runs through the data-quality firewall (:mod:`repro.quality`)
with geographic defaults (haversine speed gate in m/s over epoch-second
timestamps, WGS-84 coordinate bounds) before the time base is rescaled, and
every load is fully accounted in an
:class:`~repro.quality.report.IngestReport` — the ``load_*_report`` variants
return it alongside the database.
"""

from __future__ import annotations

import datetime as _dt
from pathlib import Path
from typing import Iterable, Iterator, Optional, Tuple, Union

from ..quality import IngestReport, QualityConfig, RawRecord, run_pipeline
from ..quality.pipeline import PipelineResult
from ..quality.rules import PARSE, SCHEMA
from .trajectory import TrajectoryDatabase

__all__ = [
    "load_tdrive",
    "load_tdrive_report",
    "load_tdrive_directory",
    "load_tdrive_directory_report",
    "load_geolife_plt",
    "load_geolife_plt_report",
    "load_geolife_user",
    "load_geolife_user_report",
]

PathLike = Union[str, Path]

_TDRIVE_TIME_FORMAT = "%Y-%m-%d %H:%M:%S"

#: Lines of preamble every GeoLife ``.plt`` trip file carries.
_GEOLIFE_HEADER_LINES = 6


def _to_epoch(stamp: str, fmt: str) -> float:
    return _dt.datetime.strptime(stamp, fmt).replace(tzinfo=_dt.timezone.utc).timestamp()


def _geo_quality(quality: Optional[QualityConfig]) -> QualityConfig:
    """The effective firewall config for lon/lat degree records."""
    return (quality or QualityConfig()).with_geo_defaults()


# -- T-Drive ------------------------------------------------------------------------
def _tdrive_records(files: Iterable[PathLike]) -> Iterator[RawRecord]:
    """Parse-stage reader: one :class:`RawRecord` per T-Drive log line."""
    index = 0
    for path in files:
        path = Path(path)
        with path.open() as handle:
            for line in handle:
                raw = line.strip()
                if not raw:
                    continue
                parts = raw.split(",")
                if len(parts) != 4:
                    yield RawRecord(index=index, raw=raw, error=SCHEMA)
                    index += 1
                    continue
                try:
                    yield RawRecord(
                        index=index,
                        raw=raw,
                        object_id=int(parts[0]),
                        t=_to_epoch(parts[1], _TDRIVE_TIME_FORMAT),
                        x=float(parts[2]),
                        y=float(parts[3]),
                    )
                except ValueError:
                    yield RawRecord(index=index, raw=raw, error=PARSE)
                index += 1


def load_tdrive_report(
    files: Iterable[PathLike],
    time_unit: float = 60.0,
    origin: Optional[float] = None,
    quality: Optional[QualityConfig] = None,
) -> Tuple[TrajectoryDatabase, IngestReport]:
    """Load T-Drive-format taxi logs; returns ``(database, ingest report)``.

    Parameters
    ----------
    files:
        Paths to per-taxi text files (``taxi_id,timestamp,longitude,latitude``
        per line).
    time_unit:
        Seconds per time unit of the returned database; the default of 60
        matches the paper's minute-level discretisation.
    origin:
        Epoch seconds of time zero.  Defaults to the earliest accepted fix.
    quality:
        Firewall knobs; geographic defaults (haversine metric, WGS-84
        bounds) are applied on top.  The default ``lenient`` policy drops
        malformed lines with full accounting — real T-Drive files contain
        occasional truncated records.
    """
    files = [Path(path) for path in files]
    source = files[0].parent.as_posix() if files else "<tdrive>"
    result = run_pipeline(
        _tdrive_records(files), _geo_quality(quality), source=f"{source} (tdrive)"
    )
    database = _rescaled_database(result, time_unit=time_unit, origin=origin)
    return database, result.report


def load_tdrive(
    files: Iterable[PathLike],
    time_unit: float = 60.0,
    origin: Optional[float] = None,
    quality: Optional[QualityConfig] = None,
) -> TrajectoryDatabase:
    """Load T-Drive-format taxi logs (ingest report discarded)."""
    return load_tdrive_report(files, time_unit=time_unit, origin=origin, quality=quality)[0]


def load_tdrive_directory_report(
    directory: PathLike,
    pattern: str = "*.txt",
    time_unit: float = 60.0,
    origin: Optional[float] = None,
    quality: Optional[QualityConfig] = None,
) -> Tuple[TrajectoryDatabase, IngestReport]:
    """Load every T-Drive file in a directory; returns ``(database, report)``."""
    directory = Path(directory)
    return load_tdrive_report(
        sorted(directory.glob(pattern)),
        time_unit=time_unit,
        origin=origin,
        quality=quality,
    )


def load_tdrive_directory(
    directory: PathLike,
    pattern: str = "*.txt",
    time_unit: float = 60.0,
    origin: Optional[float] = None,
    quality: Optional[QualityConfig] = None,
) -> TrajectoryDatabase:
    """Load every T-Drive file in a directory (ingest report discarded)."""
    return load_tdrive_directory_report(
        directory, pattern=pattern, time_unit=time_unit, origin=origin, quality=quality
    )[0]


# -- GeoLife ------------------------------------------------------------------------
def _geolife_records(path: Path, object_id: int, start_index: int = 0) -> Iterator[RawRecord]:
    """Parse-stage reader: one :class:`RawRecord` per ``.plt`` data line.

    A file too short to contain the six-line preamble yields a single
    ``schema`` record accounting for the truncated header, so corrupt trip
    files are visible in the report instead of silently loading as empty.
    """
    with path.open() as handle:
        lines = handle.read().splitlines()
    index = start_index
    if len(lines) < _GEOLIFE_HEADER_LINES:
        yield RawRecord(
            index=index,
            raw=f"<truncated header: {len(lines)} line(s) in {path.name}>",
            error=SCHEMA,
        )
        return
    for line in lines[_GEOLIFE_HEADER_LINES:]:
        raw = line.strip()
        if not raw:
            continue
        parts = raw.split(",")
        if len(parts) < 7:
            yield RawRecord(index=index, raw=raw, error=SCHEMA)
            index += 1
            continue
        try:
            yield RawRecord(
                index=index,
                raw=raw,
                object_id=object_id,
                t=_to_epoch(f"{parts[5]} {parts[6]}", "%Y-%m-%d %H:%M:%S"),
                x=float(parts[1]),
                y=float(parts[0]),
            )
        except ValueError:
            yield RawRecord(index=index, raw=raw, error=PARSE)
        index += 1


def load_geolife_plt_report(
    path: PathLike,
    object_id: int,
    time_unit: float = 60.0,
    origin: Optional[float] = None,
    quality: Optional[QualityConfig] = None,
) -> Tuple[TrajectoryDatabase, IngestReport]:
    """Load one GeoLife ``.plt`` trip file; returns ``(database, report)``."""
    path = Path(path)
    result = run_pipeline(
        _geolife_records(path, object_id), _geo_quality(quality), source=str(path)
    )
    database = _rescaled_database(result, time_unit=time_unit, origin=origin)
    return database, result.report


def load_geolife_plt(
    path: PathLike,
    object_id: int,
    time_unit: float = 60.0,
    origin: Optional[float] = None,
    quality: Optional[QualityConfig] = None,
) -> TrajectoryDatabase:
    """Load one GeoLife ``.plt`` trip file (ingest report discarded)."""
    return load_geolife_plt_report(
        path, object_id, time_unit=time_unit, origin=origin, quality=quality
    )[0]


def load_geolife_user_report(
    user_directory: PathLike,
    object_id: int,
    time_unit: float = 60.0,
    origin: Optional[float] = None,
    quality: Optional[QualityConfig] = None,
) -> Tuple[TrajectoryDatabase, IngestReport]:
    """Load every trip of one GeoLife user (``Data/<user>/Trajectory/*.plt``).

    All trips validate through one firewall pass and share one time base:
    the origin is the earliest accepted fix across *all* trips (or the
    explicit ``origin``), so a user's trips land on one aligned clock —
    a per-file origin would silently merge trips on misaligned time axes.
    """
    user_directory = Path(user_directory)
    trajectory_dir = user_directory / "Trajectory"
    search_root = trajectory_dir if trajectory_dir.is_dir() else user_directory

    def _all_records() -> Iterator[RawRecord]:
        index = 0
        for plt_file in sorted(search_root.glob("*.plt")):
            for record in _geolife_records(plt_file, object_id, start_index=index):
                yield record
                index = record.index + 1

    result = run_pipeline(
        _all_records(), _geo_quality(quality), source=str(user_directory)
    )
    database = _rescaled_database(result, time_unit=time_unit, origin=origin)
    return database, result.report


def load_geolife_user(
    user_directory: PathLike,
    object_id: int,
    time_unit: float = 60.0,
    origin: Optional[float] = None,
    quality: Optional[QualityConfig] = None,
) -> TrajectoryDatabase:
    """Load every trip of one GeoLife user (ingest report discarded)."""
    return load_geolife_user_report(
        user_directory, object_id, time_unit=time_unit, origin=origin, quality=quality
    )[0]


def _rescaled_database(
    result: PipelineResult,
    time_unit: float,
    origin: Optional[float],
) -> TrajectoryDatabase:
    """Rescale accepted epoch-second records onto the relative time base."""
    if time_unit <= 0:
        raise ValueError("time_unit must be positive")
    if not len(result.t):
        return TrajectoryDatabase()
    zero = origin if origin is not None else float(result.t.min())
    return TrajectoryDatabase.from_columns(
        result.object_id, (result.t - zero) / time_unit, result.x, result.y
    )
