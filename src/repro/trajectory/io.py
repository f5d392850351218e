"""Plain-text import/export for trajectory databases.

Two interchangeable formats are supported:

* **CSV** — one sample per row, ``object_id,t,x,y`` with a header line.  This
  mirrors how the public T-Drive taxi logs are usually distributed (one file
  of timestamped GPS fixes per taxi).
* **JSONL** — one JSON object per line with keys ``object_id`` and
  ``samples`` (a list of ``[t, x, y]`` triples), convenient when trajectories
  should stay grouped per object.

Both loaders run every record through the data-quality firewall
(:mod:`repro.quality`): records are validated (schema, finiteness, bounds,
duplicate/non-monotone timestamps, teleport speed gate) under the configured
policy and every load is fully accounted in an
:class:`~repro.quality.report.IngestReport`.  The ``load_*`` functions keep
their historical database-only signature; the ``load_*_report`` variants
return ``(database, report)``.
"""

from __future__ import annotations

import csv
import json
from itertools import chain, islice, repeat
from pathlib import Path
from typing import Callable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..quality import IngestReport, QualityConfig, RawRecord, run_pipeline
from ..quality.pipeline import CHUNK_ROWS, PipelineResult, RecordChunk
from ..quality.rules import PARSE, REASONS, SCHEMA
from .trajectory import TrajectoryDatabase

__all__ = [
    "save_csv",
    "load_csv",
    "load_csv_report",
    "save_jsonl",
    "load_jsonl",
    "load_jsonl_report",
]

PathLike = Union[str, Path]

_SCHEMA_CODE = REASONS.index(SCHEMA)
_PARSE_CODE = REASONS.index(PARSE)


def database_from_records(result: PipelineResult) -> TrajectoryDatabase:
    """Assemble the firewall's surviving columns into a :class:`TrajectoryDatabase`.

    A named step of its own because ``perfbench/tracer.py`` times it (as
    ``ingest.build_s``) under this name.
    """
    return TrajectoryDatabase.from_columns(result.object_id, result.t, result.x, result.y)


def save_csv(database: TrajectoryDatabase, path: PathLike) -> None:
    """Write a database as ``object_id,t,x,y`` rows (with header)."""
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["object_id", "t", "x", "y"])
        for trajectory in database:
            for t, point in trajectory:
                writer.writerow([trajectory.object_id, t, point.x, point.y])


def _parse_column(values: List[str], caster: Callable, fill) -> Tuple[list, List[int]]:
    """``caster`` over ``values``; failures become ``fill``, positions returned."""
    parsed: list = []
    failed: List[int] = []
    remaining = iter(values)
    while True:
        try:
            parsed.extend(map(caster, remaining))
            return parsed, failed
        except ValueError:
            # map() consumed the bad value; resume right after it.
            failed.append(len(parsed))
            parsed.append(fill)


def _csv_chunk(
    raws: List[str],
    fields: Optional[List[List[str]]],
    indices: Sequence[int],
    columns: List[int],
    width: int,
) -> RecordChunk:
    """One chunk of CSV rows as parse-stage columns.

    ``fields`` are the rows as ``csv.reader`` split them, or ``None`` when
    every row's fields are its raw text split on commas.  A row of the
    wrong width is a ``schema`` error; a row whose id is not an integer or
    whose ``t`` / ``x`` / ``y`` is not a float is a ``parse`` error —
    decided by the same ``int()`` / ``float()`` calls a record-at-a-time
    reader makes.
    """
    n = len(raws)
    if fields is None:
        widths = map(str.count, raws, repeat(","))
        shaped = np.flatnonzero(np.fromiter(widths, dtype=np.int64, count=n) == width - 1)
        good = raws if len(shaped) == n else [raws[row] for row in shaped.tolist()]
        # Every good row has ``width`` fields, so one split of the joined rows
        # lays the table out row-major.
        flat = ",".join(good).split(",") if good else []
    else:
        shaped = np.flatnonzero(np.fromiter(map(len, fields), dtype=np.int64, count=n) == width)
        flat = list(chain.from_iterable(fields[row] for row in shaped.tolist()))
    error = np.full(n, _SCHEMA_CODE, dtype=np.int8)
    error[shaped] = -1
    ids, failed = _parse_column(flat[columns[0] :: width], int, 0)
    values = []
    for column in columns[1:]:
        parsed, bad = _parse_column(flat[column::width], float, float("nan"))
        values.append(parsed)
        failed += bad
    error[shaped[failed]] = _PARSE_CODE
    ids = RecordChunk.id_column(ids)
    object_id = np.zeros(n, dtype=ids.dtype)
    object_id[shaped] = ids
    t, x, y = (np.full(n, np.nan) for _ in range(3))
    t[shaped], x[shaped], y[shaped] = values
    return RecordChunk(
        index=np.asarray(indices, dtype=np.int64),
        object_id=object_id,
        t=t,
        x=x,
        y=y,
        error=error,
        raw=raws,
    )


def _quoted_rows(lines: List[str], handle) -> Iterator[List[str]]:
    """``csv.reader`` rows of ``lines``, reading on from ``handle`` only to
    close a quoted field that spans the end of ``lines``."""
    remaining = len(lines)

    def feed() -> Iterator[str]:
        nonlocal remaining
        for line in lines:
            remaining -= 1
            yield line
        yield from handle

    for row in csv.reader(feed()):
        yield row
        if not remaining:
            return


def _csv_chunks(path: Path) -> Iterator[RecordChunk]:
    """Parse-stage reader: the CSV's data rows as :class:`RecordChunk` columns.

    Reads :data:`~repro.quality.pipeline.CHUNK_ROWS` lines at a time.  A
    chunk without a double quote is split on commas directly — exactly what
    ``csv.reader`` does to such lines; a chunk with one goes through
    ``csv.reader``.  Blank rows are no record but still consume an index.
    """
    with path.open(newline="") as handle:
        header = next(csv.reader(handle), None)
        required = {"object_id", "t", "x", "y"}
        if header is None or not required.issubset(header):
            raise ValueError(f"CSV file {path} must contain columns {sorted(required)}")
        columns = [header.index(name) for name in ("object_id", "t", "x", "y")]
        width = len(header)
        index = 0
        while True:
            lines = list(islice(handle, CHUNK_ROWS))
            if not lines:
                return
            fields = None
            if '"' in "".join(lines):
                fields = list(_quoted_rows(lines, handle))
                raws = [",".join(row) for row in fields]
            else:
                # Lines end in one of \n, \r\n or \r (newline="").
                raws = [line.rstrip("\r\n") for line in lines]
            indices = range(index, index + len(raws))
            index += len(raws)
            rows = raws if fields is None else fields
            if not all(rows):
                kept = [row for row, parts in enumerate(rows) if parts]
                indices = [indices[row] for row in kept]
                raws = [raws[row] for row in kept]
                if fields is not None:
                    fields = [fields[row] for row in kept]
            if raws:
                yield _csv_chunk(raws, fields, indices, columns, width)


def load_csv_report(
    path: PathLike, quality: Optional[QualityConfig] = None
) -> Tuple[TrajectoryDatabase, IngestReport]:
    """Read ``object_id,t,x,y`` rows through the firewall; database + report."""
    path = Path(path)
    result = run_pipeline(_csv_chunks(path), quality, source=str(path))
    return database_from_records(result), result.report


def load_csv(path: PathLike, quality: Optional[QualityConfig] = None) -> TrajectoryDatabase:
    """Read a database from ``object_id,t,x,y`` rows (report discarded)."""
    return load_csv_report(path, quality)[0]


def save_jsonl(database: TrajectoryDatabase, path: PathLike) -> None:
    """Write one JSON document per trajectory."""
    path = Path(path)
    with path.open("w") as handle:
        for trajectory in database:
            record = {
                "object_id": trajectory.object_id,
                "samples": [[t, p.x, p.y] for t, p in trajectory],
            }
            handle.write(json.dumps(record) + "\n")


def _jsonl_records(path: Path) -> Iterator[RawRecord]:
    """Parse-stage reader: one :class:`RawRecord` per sample triple.

    A line that cannot be parsed at all (bad JSON, wrong shape, bad object
    id) counts as **one** record with a ``schema``/``parse`` reason — its
    sample count is unknowable, so the line itself is the accounting unit.
    """
    index = 0
    with path.open() as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                document = json.loads(line)
            except json.JSONDecodeError:
                yield RawRecord(index=index, raw=line, error=PARSE)
                index += 1
                continue
            if (
                not isinstance(document, dict)
                or "object_id" not in document
                or not isinstance(document.get("samples"), list)
            ):
                yield RawRecord(index=index, raw=line, error=SCHEMA)
                index += 1
                continue
            try:
                object_id = int(document["object_id"])
            except (TypeError, ValueError):
                yield RawRecord(index=index, raw=line, error=PARSE)
                index += 1
                continue
            for sample in document["samples"]:
                raw = json.dumps({"object_id": object_id, "sample": sample})
                if not isinstance(sample, (list, tuple)) or len(sample) != 3:
                    yield RawRecord(index=index, raw=raw, error=SCHEMA)
                    index += 1
                    continue
                try:
                    t, x, y = (float(value) for value in sample)
                except (TypeError, ValueError):
                    yield RawRecord(index=index, raw=raw, error=PARSE)
                    index += 1
                    continue
                yield RawRecord(index=index, raw=raw, object_id=object_id, t=t, x=x, y=y)
                index += 1


def load_jsonl_report(
    path: PathLike, quality: Optional[QualityConfig] = None
) -> Tuple[TrajectoryDatabase, IngestReport]:
    """Read a :func:`save_jsonl` file through the firewall; database + report."""
    path = Path(path)
    result = run_pipeline(_jsonl_records(path), quality, source=str(path))
    return database_from_records(result), result.report


def load_jsonl(path: PathLike, quality: Optional[QualityConfig] = None) -> TrajectoryDatabase:
    """Read a database written by :func:`save_jsonl` (report discarded)."""
    return load_jsonl_report(path, quality)[0]
