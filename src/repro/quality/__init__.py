"""Data-quality firewall for trajectory ingestion.

Real GPS traces are hostile: truncated lines, NaN or out-of-range
coordinates, duplicated and out-of-order timestamps, teleporting fixes.
This package is the single validation + repair boundary every ingest path
runs through before records reach the miners:

* :mod:`repro.quality.rules` — the reason-code vocabulary, the raw-record
  type and the teleport gate's distance;
* :mod:`repro.quality.config` — :class:`QualityConfig`, the policy /
  threshold knobs (``strict`` / ``lenient`` / ``repair``);
* :mod:`repro.quality.pipeline` — :func:`run_pipeline`, the policy-driven
  columnar validator that turns raw record chunks into clean columns plus
  an :class:`IngestReport`;
* :mod:`repro.quality.report` — the fully-accounted ingest report
  (``accepted + dropped + repaired == total``, always);
* :mod:`repro.quality.quarantine` — the dead-letter sink for rejected raw
  records and its replay loader.

See ``docs/data_quality.md`` for the operational walkthrough.
"""

from .config import GEO_BOUNDS, POLICIES, QualityConfig
from .pipeline import CleanRecord, PipelineResult, RecordChunk, run_pipeline
from .quarantine import QuarantineWriter, load_quarantine, replay_records
from .report import IngestError, IngestReport
from .rules import (
    DUPLICATE_TIMESTAMP,
    NON_FINITE,
    NON_MONOTONE,
    OUT_OF_BOUNDS,
    PARSE,
    REASONS,
    SCHEMA,
    TELEPORT,
    TOO_FEW_SAMPLES,
    RawRecord,
)

__all__ = [
    "GEO_BOUNDS",
    "POLICIES",
    "QualityConfig",
    "CleanRecord",
    "PipelineResult",
    "RecordChunk",
    "run_pipeline",
    "QuarantineWriter",
    "load_quarantine",
    "replay_records",
    "IngestError",
    "IngestReport",
    "RawRecord",
    "REASONS",
    "SCHEMA",
    "PARSE",
    "NON_FINITE",
    "OUT_OF_BOUNDS",
    "DUPLICATE_TIMESTAMP",
    "NON_MONOTONE",
    "TELEPORT",
    "TOO_FEW_SAMPLES",
]
