"""The policy-driven validation + repair pipeline, run as array passes.

:func:`run_pipeline` is the single choke point every ingest path feeds its
raw records through, as :class:`RecordChunk` columns (the CSV loader
parses straight into chunks; the other loaders yield :class:`RawRecord`
rows that are grouped into chunks here).  It applies the stateless rules
(parse errors, finiteness, bounds) as boolean masks, the per-object
sequence rules (duplicate / non-monotone timestamps, the teleport speed
gate, the minimum-samples floor) as one stable per-object sort plus
segmented passes, and the configured policy:

``strict``
    The first violation (in input order) raises
    :class:`~repro.quality.report.IngestError`.
``lenient``
    Violating records are dropped and accounted; the surviving records are
    exactly the input's clean subset, byte-for-byte untouched.
``repair``
    Deterministic fixes: exact-duplicate timestamps are dropped
    (keep-first), out-of-order sequences are re-sorted, out-of-bounds
    coordinates are clamped onto the box, and trajectories are split into
    new objects at teleport jumps.  Running repair over its own output is a
    no-op (idempotence is property-tested).

The results equal the record-at-a-time rules exactly (reports, quarantine
lines, surviving records and their order); ``docs/data_quality.md`` ("How
the firewall runs") explains why the segmented passes are exact, and
``tests/quality/oracle.py`` keeps the sequential rules as the test oracle.

Every call returns a fully-accounted
:class:`~repro.quality.report.IngestReport` — the pipeline itself asserts
``accepted + dropped + repaired == total`` before returning.

The ``ingest.garble`` fault site (see :mod:`repro.resilience.faults`) is
probed once per record, in input order, whenever a fault plan is armed:
when it fires, the record's coordinates are replaced with NaN before
validation, so chaos runs can corrupt records mid-stream deterministically
and watch the firewall account for them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, List, NamedTuple, Optional, Sequence, Union

import numpy as np

from ..resilience.faults import active_plan, maybe_fault
from .config import QualityConfig
from .quarantine import QuarantineWriter
from .report import UNPARSED_KEY, IngestError, IngestReport
from .rules import (
    DUPLICATE_TIMESTAMP,
    NON_FINITE,
    NON_MONOTONE,
    OUT_OF_BOUNDS,
    REASONS,
    SCHEMA,
    TELEPORT,
    TOO_FEW_SAMPLES,
    RawRecord,
    speed_violations,
    travel_distance,
)

__all__ = ["CHUNK_ROWS", "CleanRecord", "PipelineResult", "RecordChunk", "run_pipeline"]

#: Fault site: corrupt one raw record (coordinates become NaN) before
#: validation.  Armed via the shared FaultPlan registry.
GARBLE_SITE = "ingest.garble"

#: Records per parse chunk: large enough that per-chunk numpy overhead
#: vanishes, small enough that one chunk's Python strings stay a few MB.
CHUNK_ROWS = 32768

#: Vectorized teleport rounds before the objects still flagged are
#: resolved record by record (an object whose every later fix is a
#: teleport would otherwise cost one round per fix).
TELEPORT_ROUNDS = 8

_CODE = {reason: code for code, reason in enumerate(REASONS)}
_NONE = -1


class CleanRecord(NamedTuple):
    """A record that survived the firewall, ready for a trajectory database."""

    object_id: int
    t: float
    x: float
    y: float


@dataclass
class RecordChunk:
    """The parse stage's output for a run of input records, as columns.

    ``error`` holds ``-1`` for a parsed record and the :data:`REASONS`
    index of :data:`SCHEMA` or :data:`PARSE` otherwise; the numeric
    columns of an unparsed record are placeholders (id 0, NaN).  ``raw``
    keeps each record's original text for quarantine and error messages.
    :func:`run_pipeline` consumes its chunks: garbling and clamping write
    into their coordinate columns.
    """

    index: np.ndarray
    object_id: np.ndarray
    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    error: np.ndarray
    raw: List[str]

    def __len__(self) -> int:
        return len(self.raw)

    @staticmethod
    def id_column(values: Sequence) -> np.ndarray:
        """Object ids as int64, or as Python objects when they do not fit."""
        try:
            return np.array(values, dtype=np.int64)
        except (OverflowError, TypeError, ValueError):
            column = np.empty(len(values), dtype=object)
            column[:] = list(values)
            return column

    @classmethod
    def from_records(cls, records: Sequence[RawRecord]) -> "RecordChunk":
        """Columns of parse-stage :class:`RawRecord` rows (in order)."""
        n = len(records)
        error = np.full(n, _NONE, dtype=np.int8)
        ids: List = [0] * n
        t = [float("nan")] * n
        x = [float("nan")] * n
        y = [float("nan")] * n
        for row, record in enumerate(records):
            if record.error is not None:
                error[row] = _CODE[record.error]
            elif not record.is_parsed():
                error[row] = _CODE[SCHEMA]
            else:
                ids[row], t[row], x[row], y[row] = (
                    record.object_id, record.t, record.x, record.y
                )
        return cls(
            index=np.array([record.index for record in records], dtype=np.int64),
            object_id=cls.id_column(ids),
            t=np.array(t, dtype=float),
            x=np.array(x, dtype=float),
            y=np.array(y, dtype=float),
            error=error,
            raw=[record.raw for record in records],
        )

    @classmethod
    def concat(cls, chunks: Sequence["RecordChunk"]) -> "RecordChunk":
        """One chunk holding ``chunks`` back to back."""
        if len(chunks) == 1:
            return chunks[0]
        if not chunks:
            return cls.from_records([])
        return cls(
            *(np.concatenate([getattr(c, name) for c in chunks])
              for name in ("index", "object_id", "t", "x", "y", "error")),
            raw=list(itertools.chain.from_iterable(c.raw for c in chunks)),
        )

    def record(self, row: int) -> RawRecord:
        """Row ``row`` as a :class:`RawRecord` (for quarantine and errors)."""
        index, raw = int(self.index[row]), self.raw[row]
        if self.error[row] != _NONE:
            return RawRecord(index=index, raw=raw, error=REASONS[self.error[row]])
        return RawRecord(
            index=index,
            raw=raw,
            object_id=self.object_id[row : row + 1].tolist()[0],
            t=float(self.t[row]),
            x=float(self.x[row]),
            y=float(self.y[row]),
        )


@dataclass
class PipelineResult:
    """Surviving records (accepted + repaired) as columns, plus the report.

    The columns are in output order: input order under ``strict`` /
    ``lenient``; by object id, split segment and time under ``repair``.
    """

    object_id: np.ndarray
    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    report: IngestReport

    @property
    def records(self) -> List[CleanRecord]:
        """The surviving records as :class:`CleanRecord` rows."""
        return [
            CleanRecord(*row)
            for row in zip(
                self.object_id.tolist(), self.t.tolist(), self.x.tolist(), self.y.tolist()
            )
        ]


def _chunks(items: Iterable[Union[RecordChunk, RawRecord]]) -> Iterator[RecordChunk]:
    """Chunks as given, and :class:`RawRecord` rows grouped into chunks."""
    pending: List[RawRecord] = []
    for item in items:
        if isinstance(item, RecordChunk):
            if pending:
                yield RecordChunk.from_records(pending)
                pending = []
            yield item
        else:
            pending.append(item)
            if len(pending) >= CHUNK_ROWS:
                yield RecordChunk.from_records(pending)
                pending = []
    if pending:
        yield RecordChunk.from_records(pending)


def _garble(chunk: RecordChunk) -> None:
    """Probe the garble site once per record; fired records get NaN coords."""
    for row in range(len(chunk)):
        if maybe_fault(GARBLE_SITE) is not None and chunk.error[row] == _NONE:
            chunk.x[row] = chunk.y[row] = np.nan


def _stateless(rows: RecordChunk, bounds) -> np.ndarray:
    """Per record, the stateless reason code violated (``-1``: none)."""
    reason = rows.error.copy()
    parsed = reason == _NONE
    finite = np.isfinite(rows.t) & np.isfinite(rows.x) & np.isfinite(rows.y)
    reason[parsed & ~finite] = _CODE[NON_FINITE]
    if bounds is not None:
        min_x, min_y, max_x, max_y = bounds
        with np.errstate(invalid="ignore"):
            inside = (
                (min_x <= rows.x) & (rows.x <= max_x) & (min_y <= rows.y) & (rows.y <= max_y)
            )
        reason[parsed & finite & ~inside] = _CODE[OUT_OF_BOUNDS]
    return reason


def run_pipeline(
    records: Iterable[Union[RecordChunk, RawRecord]],
    config: Optional[QualityConfig] = None,
    source: str = "<records>",
) -> PipelineResult:
    """Validate (and under ``repair``, fix) raw records per the policy.

    Parameters
    ----------
    records:
        The parse stage's output in input order: :class:`RecordChunk`
        columns, or :class:`RawRecord` rows (one per accounting unit),
        which are grouped into chunks of :data:`CHUNK_ROWS`.
    config:
        The firewall knobs; defaults to ``QualityConfig()`` (lenient, no
        speed gate, no bounds).
    source:
        Label recorded in the report and quarantine entries.
    """
    config = config or QualityConfig()
    chunks = []
    for chunk in _chunks(records):
        if active_plan() is not None:
            _garble(chunk)
        chunks.append(chunk)
    rows = RecordChunk.concat(chunks)
    del chunks  # the concatenation holds every record now
    reason = _stateless(rows, config.bounds)
    splits = {}
    if config.policy == "repair":
        keep, object_id, repair, too_few, splits = _repair(rows, reason, config)
    else:
        keep, repair, too_few = _filter(rows, reason, config)
        object_id = rows.object_id[keep]
    report = IngestReport(
        source=source, policy=config.policy, total=len(rows), splits=splits
    )
    if config.quarantine_path is not None:
        # The record-at-a-time order: drops in input order, then the
        # whole-object ``too_few_samples`` drops, object by object.
        with QuarantineWriter(config.quarantine_path, source=source) as quarantine:
            dropped = np.flatnonzero((reason != _NONE) & (reason != _CODE[TOO_FEW_SAMPLES]))
            for row in itertools.chain(dropped.tolist(), too_few.tolist()):
                quarantine.write(rows.record(row), REASONS[reason[row]])
    _tally(report, rows, reason, repair, quarantined=config.quarantine_path is not None)
    report.check()
    return PipelineResult(
        object_id=object_id, t=rows.t[keep], x=rows.x[keep], y=rows.y[keep], report=report
    )


# -- accounting ---------------------------------------------------------------------
def _tally(
    report: IngestReport,
    rows: RecordChunk,
    reason: np.ndarray,
    repair: np.ndarray,
    quarantined: bool,
) -> None:
    """Count every record's disposition into ``report``, per object.

    Each record lands in one of ``1 + 2 * len(REASONS)`` classes (accepted,
    repaired per reason, dropped per reason); one ``bincount`` over
    ``(class, object)`` pairs yields every total the report holds.
    """
    parsed = np.flatnonzero(rows.error == _NONE)
    ids, segment, order = _group(rows.object_id[parsed])
    keys = [str(key) for key in ids.tolist()] + [UNPARSED_KEY]
    object_code = np.full(len(rows), len(ids), dtype=np.int64)
    object_code[parsed[order]] = segment
    kind = np.where(
        reason != _NONE,
        1 + len(REASONS) + reason.astype(np.int64),
        np.where(repair != _NONE, 1 + repair.astype(np.int64), 0),
    )
    table = np.bincount(
        kind * len(keys) + object_code, minlength=(1 + 2 * len(REASONS)) * len(keys)
    ).reshape(1 + 2 * len(REASONS), len(keys))
    accepted = table[0]
    repaired = table[1 : 1 + len(REASONS)]
    dropped = table[1 + len(REASONS) :]
    report.accepted = int(accepted.sum())
    report.repaired = int(repaired.sum())
    report.dropped = int(dropped.sum())
    report.quarantined = report.dropped if quarantined else 0
    for by_rule, counts in ((report.repaired_by_rule, repaired), (report.dropped_by_rule, dropped)):
        for code, count in enumerate(counts.sum(axis=1).tolist()):
            if count:
                by_rule[REASONS[code]] = count
    per_object = np.stack((accepted, dropped.sum(axis=0), repaired.sum(axis=0)), axis=1)
    for code in np.flatnonzero(per_object.sum(axis=1)).tolist():
        report.objects[keys[code]] = dict(
            zip(("accepted", "dropped", "repaired"), per_object[code].tolist())
        )


# -- sequence passes -----------------------------------------------------------------
def _group(object_id: np.ndarray, *keys: np.ndarray):
    """Sort rows by object id, then ``keys`` (most significant last, as
    :func:`numpy.lexsort`), ties in input order.

    Returns the distinct ids (ascending), each sorted row's object code
    (its id's position in them) and the sorting order.
    """
    order = np.lexsort(keys + (object_id,)) if keys else np.argsort(object_id, kind="stable")
    ordered = object_id[order]
    starts = np.ones(len(order), dtype=bool)
    starts[1:] = ordered[1:] != ordered[:-1]
    return ordered[starts], np.cumsum(starts) - 1, order


def _ranks(t: np.ndarray) -> np.ndarray:
    """Dense ranks ``1..`` of ``t`` (equal values, ``-0.0 == 0.0`` included,
    share a rank), so ``(object, time)`` fits one int64 key."""
    return np.unique(t, return_inverse=True)[1].ravel().astype(np.int64) + 1


def _running_max_before(keys: np.ndarray, segment: np.ndarray, stride: int) -> np.ndarray:
    """Per row, the largest key among earlier rows of its segment (``seg *
    stride`` when there is none).  ``keys`` are ``seg * stride + rank``
    with ``rank >= 1`` and rows grouped by ascending segment, so one global
    running maximum never leaks across segments."""
    floor = segment.astype(np.int64) * stride
    before = np.empty_like(keys)
    if len(keys):
        before[0] = floor[0]
        before[1:] = np.maximum.accumulate(keys)[:-1]
    return np.maximum(before, floor)


def _filter(rows: RecordChunk, reason: np.ndarray, config: QualityConfig):
    """strict / lenient: the drop reason of every row (filled into
    ``reason``), the kept rows in input order and the ``too_few_samples``
    rows in quarantine order."""
    strict = config.policy == "strict"
    candidates = np.flatnonzero(reason == _NONE)
    too_few = np.empty(0, dtype=np.int64)
    ids, segment, order = _group(rows.object_id[candidates])
    grouped = candidates[order]
    reason[grouped] = _sequence_reasons(
        segment, rows.t[grouped], rows.x[grouped], rows.y[grouped], config
    )
    if strict:
        _raise_first(rows, reason)
    if config.min_samples > 1 and len(grouped):
        accepted = reason[grouped] == _NONE
        counts = np.bincount(segment[accepted], minlength=len(ids))
        # Grouped rows run by ascending object id, then input order: the
        # order the rule rejects (and quarantines) them in.
        too_few = grouped[accepted & (counts[segment] < config.min_samples)]
        if strict and len(too_few):
            raise IngestError(TOO_FEW_SAMPLES, rows.record(int(too_few[0])))
        reason[too_few] = _CODE[TOO_FEW_SAMPLES]
    keep = np.flatnonzero(reason == _NONE)
    return keep, np.full(len(rows), _NONE, dtype=np.int8), too_few


def _raise_first(rows: RecordChunk, reason: np.ndarray) -> None:
    """strict: raise for the first rejected record in input order."""
    rejected = np.flatnonzero(reason != _NONE)
    if len(rejected):
        row = int(rejected[0])
        raise IngestError(REASONS[reason[row]], rows.record(row))


def _sequence_reasons(
    segment: np.ndarray, t: np.ndarray, x: np.ndarray, y: np.ndarray, config: QualityConfig
) -> np.ndarray:
    """The sequence rules over rows grouped by object (input order inside).

    Accepted timestamps rise strictly per object, so a row passes the order
    rules iff its ``t`` exceeds every earlier *accepted* ``t`` — which,
    with no teleports, is the running max of every earlier row.  Teleports
    break that: a jump rejected by the speed gate must not count.  The
    first flagged jump per object is always a true one (everything before
    it is settled), so each round rejects it and re-runs that object until
    no flag remains; objects still flagged after :data:`TELEPORT_ROUNDS`
    rounds finish record by record.  The order-rejected rows are then
    duplicates iff their ``t`` is among the object's accepted ones.
    """
    n = len(t)
    result = np.full(n, _NONE, dtype=np.int8)
    if not n:
        return result
    ranks = _ranks(t)
    stride = int(ranks.max()) + 1
    keys = segment.astype(np.int64) * stride + ranks
    alive = np.ones(n, dtype=bool)
    in_order = np.zeros(n, dtype=bool)
    pending = np.arange(n)
    for _round in range(TELEPORT_ROUNDS):
        rows = pending[alive[pending]]
        ok = keys[rows] > _running_max_before(keys[rows], segment[rows], stride)
        in_order[rows] = ok
        if config.max_speed is None:
            pending = pending[:0]
            break
        chain = rows[ok]
        same = segment[chain[1:]] == segment[chain[:-1]]
        before, after = chain[:-1][same], chain[1:][same]
        flagged = after[
            speed_violations(
                x[before], y[before], t[before], x[after], y[after], t[after],
                config.max_speed, config.metric,
            )
        ]
        if not len(flagged):
            pending = pending[:0]
            break
        first = flagged[np.unique(segment[flagged], return_index=True)[1]]
        alive[first] = False
        result[first] = _CODE[TELEPORT]
        hot = np.zeros(int(segment[-1]) + 1, dtype=bool)
        hot[segment[first]] = True
        pending = pending[hot[segment[pending]]]
    if len(pending):
        _sequence_scalar(pending, segment, t, x, y, config, alive, in_order, result)
    late = np.flatnonzero(alive & ~in_order)
    if len(late):
        # Every object's first row is accepted, so ``accepted`` is never
        # empty here; its keys ascend (by object, then rising t).
        accepted = keys[alive & in_order]
        slot = np.minimum(np.searchsorted(accepted, keys[late]), len(accepted) - 1)
        result[late] = np.where(
            accepted[slot] == keys[late], _CODE[DUPLICATE_TIMESTAMP], _CODE[NON_MONOTONE]
        )
    return result


def _sequence_scalar(pending, segment, t, x, y, config, alive, in_order, result) -> None:
    """The sequential rules, record by record, over the ``pending`` rows
    (whole objects, grouped): fills ``alive`` / ``in_order`` / ``result``
    the way the rounds would have."""
    seg = segment[pending].tolist()
    times, xs, ys = t[pending].tolist(), x[pending].tolist(), y[pending].tolist()
    last = None
    for position, row in enumerate(pending.tolist()):
        if position == 0 or seg[position] != seg[position - 1]:
            last = None
        ti, xi, yi = times[position], xs[position], ys[position]
        alive[row], in_order[row], result[row] = True, True, _NONE
        if last is not None and ti <= last[0]:
            in_order[row] = False
        elif last is not None and travel_distance(
            last[1], last[2], xi, yi, config.metric
        ) > config.max_speed * (ti - last[0]):
            alive[row] = False
            result[row] = _CODE[TELEPORT]
        else:
            last = (ti, xi, yi)


def _repair(rows: RecordChunk, reason: np.ndarray, config: QualityConfig):
    """repair: clamp, dedupe, re-sort and split at teleports.

    Returns the kept rows in output order (by object id, segment, time),
    their (possibly new) object ids, the per-row repair tags, the
    ``too_few_samples`` rows in quarantine order and the split counts per
    object; ``reason`` is filled in.
    """
    repair = np.full(len(rows), _NONE, dtype=np.int8)
    empty = np.empty(0, dtype=np.int64)
    clamped = np.flatnonzero(reason == _CODE[OUT_OF_BOUNDS])
    if len(clamped):
        # Pull the fix onto the box edge; the in-range coordinate is kept
        # bit for bit.
        min_x, min_y, max_x, max_y = config.bounds
        for column, low, high in ((rows.x, min_x, max_x), (rows.y, min_y, max_y)):
            values = column[clamped]
            column[clamped] = np.where(values < low, low, np.where(values > high, high, values))
        reason[clamped] = _NONE
        repair[clamped] = _CODE[OUT_OF_BOUNDS]
    candidates = np.flatnonzero(reason == _NONE)
    if not len(candidates):
        return empty, rows.object_id[empty], repair, empty, {}
    ids, segment, order = _group(rows.object_id[candidates], rows.t[candidates])
    grouped = candidates[order]
    t = rows.t[grouped]
    # Keep-first dedupe: rows sort by (object, t, input order).
    duplicate = np.zeros(len(grouped), dtype=bool)
    duplicate[1:] = (segment[1:] == segment[:-1]) & (t[1:] == t[:-1])
    reason[grouped[duplicate]] = _CODE[DUPLICATE_TIMESTAMP]
    entries, segment, t = grouped[~duplicate], segment[~duplicate], t[~duplicate]

    # Non-monotone: arrivals behind their object's running max (no ties
    # are left after the dedupe).
    ranks = _ranks(t)
    stride = int(ranks.max()) + 1
    arrival = np.lexsort((entries, segment))
    keys = (segment.astype(np.int64) * stride + ranks)[arrival]
    behind = keys < _running_max_before(keys, segment[arrival], stride)
    late = entries[arrival][behind]
    repair[late[repair[late] == _NONE]] = _CODE[NON_MONOTONE]

    # Split at teleports: each implausible jump starts a new segment.
    same = segment[1:] == segment[:-1]
    starts = np.ones(len(entries), dtype=bool)
    starts[1:] = ~same
    if config.max_speed is not None:
        before, after = entries[:-1][same], entries[1:][same]
        jumps = speed_violations(
            rows.x[before], rows.y[before], rows.t[before],
            rows.x[after], rows.y[after], rows.t[after],
            config.max_speed, config.metric,
        )
        starts[1:][same] = jumps
    piece = np.cumsum(starts) - 1
    piece_object = segment[starts]
    piece_size = np.bincount(piece)
    first_piece = np.ones(len(piece_object), dtype=bool)
    first_piece[1:] = piece_object[1:] != piece_object[:-1]
    pieces = np.bincount(piece_object, minlength=len(ids))
    split = np.flatnonzero(pieces > 1)
    splits = dict(zip(map(str, ids[split].tolist()), pieces[split].tolist()))
    kept_piece = piece_size >= config.min_samples
    fresh = kept_piece & ~first_piece
    next_id = ids[-1] + 1
    piece_id = ids[piece_object].copy()
    piece_id[fresh] = next_id + np.arange(int(fresh.sum()), dtype=ids.dtype)
    too_few = entries[~kept_piece[piece]]
    reason[too_few] = _CODE[TOO_FEW_SAMPLES]
    keep = entries[kept_piece[piece]]
    moved = entries[fresh[piece]]
    repair[moved[repair[moved] == _NONE]] = _CODE[TELEPORT]
    return keep, piece_id[piece[kept_piece[piece]]], repair, too_few, splits
