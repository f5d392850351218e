"""The columnar firewall against the record-at-a-time oracle.

Every input runs through both :func:`repro.quality.run_pipeline` (or the
columnar ``load_csv_report``) and ``firewall_oracle``, under strict,
lenient and repair × euclidean and haversine × ``min_samples`` 1 and 3 ×
bounds on and off.  The two must agree exactly: the report, the quarantine
file byte for byte, the surviving records and the database built from them
(object order, samples, sample triples), and under strict the reason and
record of the error.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.quality import IngestError, QualityConfig, run_pipeline
from repro.quality.rules import speed_violations
from repro.resilience.faults import FaultPlan, clear_plan, install_plan
from repro.trajectory import io
from repro.trajectory.formats import (
    _geolife_records,
    _tdrive_records,
    load_geolife_plt_report,
    load_tdrive_report,
)

from firewall_oracle import load_csv_oracle, oracle_database, oracle_pipeline
from test_ingest_fuzz import RANDOM_ENTRY, corrupted_stream
from test_quality_pipeline import records_from

FIXTURES = Path(__file__).parents[1] / "fixtures" / "ingest"

#: Speed gates per metric: planar units per tick, metres per second.
SPEED = {"euclidean": 10.0, "haversine": 300_000.0}

CONFIGS = [
    QualityConfig(
        policy=policy,
        metric=metric,
        max_speed=SPEED[metric],
        min_samples=min_samples,
        bounds=bounds,
    )
    for policy, metric, min_samples, bounds in itertools.product(
        ("strict", "lenient", "repair"),
        ("euclidean", "haversine"),
        (1, 3),
        (None, (-100.0, -80.0, 100.0, 80.0)),
    )
] + [QualityConfig(policy=policy) for policy in ("lenient", "repair")]

CONFIG_IDS = [
    f"{c.policy}-{c.metric}-min{c.min_samples}-{'box' if c.bounds else 'nobox'}"
    f"-{'gate' if c.max_speed else 'nogate'}"
    for c in CONFIGS
]


def _exact(value):
    """A comparison key that also tells ``-0.0`` from ``0.0``."""
    return repr(value)


def assert_same_database(columnar, oracle):
    assert [tr.object_id for tr in columnar] == [tr.object_id for tr in oracle]
    for ours, theirs in zip(columnar, oracle):
        assert _exact(ours.samples) == _exact(theirs.samples)
        assert ours.sample_triples().shape == theirs.sample_triples().shape
        assert ours.sample_triples().tobytes() == theirs.sample_triples().tobytes()


def _quarantine(path):
    return path.read_bytes() if path.exists() else None


def run_both(records, config, tmp_path, ours=run_pipeline, theirs=oracle_pipeline):
    """Feed ``records`` (a list) to both firewalls and compare everything."""
    ours_q, theirs_q = tmp_path / "ours.jsonl", tmp_path / "theirs.jsonl"
    for path in (ours_q, theirs_q):
        path.unlink(missing_ok=True)
    ours_error = theirs_error = None
    try:
        result = ours(records, replace(config, quarantine_path=ours_q), "src")
    except IngestError as error:
        ours_error = error
    try:
        clean, report = theirs(records, replace(config, quarantine_path=theirs_q), "src")
    except IngestError as error:
        theirs_error = error
    assert (ours_error is None) == (theirs_error is None)
    if ours_error is not None:
        assert config.policy == "strict"
        assert ours_error.reason == theirs_error.reason
        assert ours_error.record.index == theirs_error.record.index
        assert ours_error.record.raw == theirs_error.record.raw
        assert str(ours_error) == str(theirs_error)
        assert not ours_q.exists() and not theirs_q.exists()
        return None
    assert result.report.as_dict() == report.as_dict()
    assert _exact(result.records) == _exact(clean)
    assert _quarantine(ours_q) == _quarantine(theirs_q)
    assert_same_database(io.database_from_records(result), oracle_database(clean))
    return result


@pytest.mark.parametrize("config", CONFIGS, ids=CONFIG_IDS)
class TestRecordStreams:
    @given(corrupted_stream())
    @settings(max_examples=15, deadline=None)
    def test_corrupted_streams(self, tmp_path_factory, config, data):
        _clean, stream = data
        rows = [row for _tag, row in stream]
        run_both(records_from(rows), config, tmp_path_factory.mktemp("q"))

    @given(st.lists(RANDOM_ENTRY, max_size=24))
    @settings(max_examples=15, deadline=None)
    def test_random_entries(self, tmp_path_factory, config, rows):
        run_both(records_from(rows), config, tmp_path_factory.mktemp("q"))

    def test_garbled_records(self, tmp_path, config):
        rows = [(oid, float(t), float(t), 0.5 * oid) for t in range(8) for oid in (1, 2)]
        plans = []

        def armed(run):
            def call(records, cfg, source):
                plans.append(FaultPlan.parse(
                    '{"faults": [{"site": "ingest.garble", "at": [0, 5, 6, 11]}]}'
                ))
                install_plan(plans[-1])
                try:
                    return run(records, cfg, source)
                finally:
                    clear_plan()

            return call

        run_both(records_from(rows), config, tmp_path,
                 ours=armed(run_pipeline), theirs=armed(oracle_pipeline))
        if config.policy != "strict":
            # Both firewalls probe the site exactly once per record.
            assert [plan.hit_counts() for plan in plans] == [{"ingest.garble": len(rows)}] * 2

    def test_teleport_storm_outlasts_the_vectorized_rounds(self, tmp_path, config):
        # Object 1's first fix is far off, so the fixes after it are
        # teleports against it until enough time has passed; object 2
        # spikes every other fix.  Both need more rounds than the columnar
        # pass runs before finishing record by record, and both carry
        # duplicate and backwards timestamps into that last stretch.
        rows = [(1, 0.0, 90.0, 70.0)]
        rows += [(2, 0.0, 0.0, 0.0)]
        for t in range(1, 30):
            rows += [(1, float(t), 0.1 * t, 0.0), (2, float(t), 60.0 * (t % 2), 0.0)]
            if t % 5 == 0:
                rows += [(1, float(t), 0.2 * t, 0.0), (2, t - 0.5, 0.0, 0.0),
                         (2, float(t - 1), 0.0, 0.0)]
        rows += [(3, float(t), 0.0, 0.1 * t) for t in range(5)]
        run_both(records_from(rows), config, tmp_path)


# -- CSV files -------------------------------------------------------------------------
HEADER = "object_id,t,x,y"

CSV_CASES = {
    "blank_lines": [HEADER, "1,0,0,0", "", "1,1,1,0", "", "", "2,0,5,5", "1,2,2,0", ""],
    "crlf": [HEADER + "\r", "1,0,0,0\r", "\r", "1,1,1,0\r", "1,1,2,0\r"],
    "cr_only": "object_id,t,x,y\r1,0,0,0\r1,1,1,0\r\r1,2,9,9\r",
    "quoted": [HEADER, '"1","0","0.5","0"', '1,"1",1,0', '"1,5",2,0,0',
               '2,0,"7",1', '""', '1,3,"3,0",0', '2,1,"8"," 1"'],
    "quoted_newline": [HEADER, '1,0,0,0', '1,"1\n",1,0', '1,2,"2', '",0', "1,3,3,0"],
    "padded": [HEADER, " 1 , 0 ,0.5 , 1", "1,\t1,1,1", "1, 2 ,2,1 "],
    "literals": [HEADER, "1,0,0,0", "1,nan,0,0", "1,1,inf,0", "1,2,-Infinity,0",
                 "1_0,1_0,2,3", "10,11,1_0.5,3", "1,3,1e400,0", "1,4,0x10,0",
                 "1,5,+1.5,-0", "1.0,6,0,0", "١,7,0,0", "1,8,NaN,nan"],
    "reordered": ["t,y,object_id,x", "0,1,1,0", "1,1,1,1", "2,1,2,5", "2,1,1,3"],
    "extra_columns": ["object_id,speed,t,x,y,note", "1,9,0,0,0,a", "1,9,1,1,0,",
                      "1,9,2", "1,9,3,3,0,b,c", "2,,0,5,5,"],
    "header_only": [HEADER],
    "width": [HEADER, "1,0,0", "1,0,0,0,", ",,,", "1,0,0,0", "1,1,1,0,0,0"],
    "signed_zero": [HEADER, "1,-0.0,0,0", "1,0.0,1,0", "1,0,-0.0,-0.0", "1,1,-0.0,0"],
    "big_ids": [HEADER, f"{2 ** 70},0,0,0", f"{2 ** 70},1,1,0", "3,0,0,0"],
    "duplicates_and_order": [HEADER, "1,5,0,0", "1,5,1,0", "1,3,0,0", "1,7,0,0",
                             "1,3,0,0", "1,6,0,0", "1,9,0,0", "1,8,90,70", "1,10,0,0"],
}


def _write(tmp_path, name, lines):
    path = tmp_path / f"{name}.csv"
    text = lines if isinstance(lines, str) else "\n".join(lines) + "\n"
    path.write_bytes(text.encode())
    return path


def _load_both(path, config, tmp_path):
    ours_q, theirs_q = tmp_path / "ours.jsonl", tmp_path / "theirs.jsonl"
    for quarantine in (ours_q, theirs_q):
        quarantine.unlink(missing_ok=True)
    outcomes = []
    for loader, quarantine in ((io.load_csv_report, ours_q), (load_csv_oracle, theirs_q)):
        try:
            outcomes.append(loader(path, replace(config, quarantine_path=quarantine)))
        except IngestError as error:
            outcomes.append(error)
    ours, theirs = outcomes
    assert type(ours) is type(theirs)
    if isinstance(ours, IngestError):
        assert (ours.reason, ours.record.index, ours.record.raw) == (
            theirs.reason, theirs.record.index, theirs.record.raw
        )
        return
    assert ours[1].as_dict() == theirs[1].as_dict()
    assert _quarantine(ours_q) == _quarantine(theirs_q)
    assert_same_database(ours[0], theirs[0])


@pytest.mark.parametrize("chunk_rows", [3, 32768])
@pytest.mark.parametrize("case", sorted(CSV_CASES))
@pytest.mark.parametrize("config", CONFIGS, ids=CONFIG_IDS)
def test_csv_edge_cases(tmp_path, monkeypatch, config, case, chunk_rows):
    monkeypatch.setattr(io, "CHUNK_ROWS", chunk_rows)
    path = _write(tmp_path, case, CSV_CASES[case])
    _load_both(path, config, tmp_path)


@pytest.mark.parametrize("lines", [[], ["object_id,t,x"], [""], ['"object_id,t",x,y']])
def test_unusable_headers_raise_alike(tmp_path, lines):
    path = _write(tmp_path, "bad", lines)
    with pytest.raises(ValueError) as ours:
        io.load_csv_report(path)
    with pytest.raises(ValueError) as theirs:
        load_csv_oracle(path)
    assert str(ours.value) == str(theirs.value)


def _random_csv(seed: int) -> str:
    """A seeded messy trace: a few objects with colliding timestamps,
    teleports, corrupt lines, odd literals, blank lines and CRLF endings."""
    rng = random.Random(seed)
    ending = rng.choice(["\n", "\r\n"])
    lines = [HEADER]
    position = {oid: (rng.uniform(-50, 50), rng.uniform(-50, 50)) for oid in range(4)}
    for _ in range(rng.randint(20, 120)):
        oid = rng.randrange(4)
        t = rng.randrange(40) / rng.choice([1, 2, 4])
        x, y = position[oid]
        x, y = x + rng.uniform(-3, 3), y + rng.uniform(-3, 3)
        roll = rng.random()
        if roll < 0.06:
            x += rng.choice([-1, 1]) * rng.uniform(40, 300)
        else:
            position[oid] = (x, y)
        line = f"{oid},{t!r},{x!r},{y!r}"
        if roll > 0.97:
            line = rng.choice(["", "   ", f"{oid},{t}", f"{oid},{t},abc,1", f"{oid},{t},nan,1",
                               f'"{oid}",{t},"{x}",{y}', f"{oid},{t},1e999,0",
                               f" {oid} ,{t},{x} , {y}", f"{oid},{t},{x},{y},", "x,y,z,w"])
        lines.append(line)
    return ending.join(lines) + ending


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("config", CONFIGS, ids=CONFIG_IDS)
def test_random_csv_files(tmp_path, monkeypatch, config, seed):
    monkeypatch.setattr(io, "CHUNK_ROWS", 7 + seed)
    path = _write(tmp_path, f"seed{seed}", _random_csv(seed))
    _load_both(path, config, tmp_path)


# -- the geographic loaders --------------------------------------------------------------
@pytest.mark.parametrize("policy", ["strict", "lenient", "repair"])
def test_tdrive_fixture_matches_oracle(policy):
    quality = QualityConfig(policy=policy, max_speed=30.0).with_geo_defaults()
    files = [FIXTURES / "tdrive_corrupt.txt"]
    try:
        database, report = load_tdrive_report(files, quality=quality)
    except IngestError as error:
        with pytest.raises(IngestError) as theirs:
            oracle_pipeline(_tdrive_records(files), quality)
        assert (error.reason, error.record.index) == (theirs.value.reason, theirs.value.record.index)
        return
    clean, expected = oracle_pipeline(_tdrive_records(files), quality, report.source)
    assert report.as_dict() == expected.as_dict()
    zero = min(record.t for record in clean)
    rescaled = [record._replace(t=(record.t - zero) / 60.0) for record in clean]
    assert_same_database(database, oracle_database(rescaled))


@pytest.mark.parametrize("policy", ["lenient", "repair"])
def test_geolife_fixture_matches_oracle(policy):
    quality = QualityConfig(policy=policy, max_speed=50.0).with_geo_defaults()
    path = FIXTURES / "geolife_corrupt.plt"
    database, report = load_geolife_plt_report(path, object_id=4, quality=quality)
    clean, expected = oracle_pipeline(_geolife_records(path, 4), quality, str(path))
    assert report.as_dict() == expected.as_dict()
    zero = min(record.t for record in clean)
    rescaled = [record._replace(t=(record.t - zero) / 60.0) for record in clean]
    assert_same_database(database, oracle_database(rescaled))


# -- the speed gate's last bits ------------------------------------------------------------
def _straddling_pair():
    """``(dx, dy)`` whose numpy and math hypot differ in the last bit."""
    rng = np.random.default_rng(12)
    dx, dy = rng.uniform(-1e3, 1e3, size=(2, 200_000))
    vectorized = np.hypot(dx, dy)
    scalar = np.array([math.hypot(a, b) for a, b in zip(dx.tolist(), dy.tolist())])
    differ = np.flatnonzero(vectorized != scalar)
    if not len(differ):
        pytest.skip("numpy's hypot matches math.hypot bit for bit on this platform")
    row = int(differ[0])
    return float(dx[row]), float(dy[row]), float(vectorized[row]), float(scalar[row])


def test_gate_rechecks_last_bit_ties_with_the_scalar_distance():
    dx, dy, vectorized, scalar = _straddling_pair()
    # The gate sits on the smaller of the two distances, so the raw numpy
    # comparison and the scalar rule disagree about this jump.
    max_speed = min(vectorized, scalar)
    assert (vectorized > max_speed) != (scalar > max_speed)
    zero, one = np.zeros(1), np.ones(1)
    decided = speed_violations(
        zero, zero, zero, np.array([dx]), np.array([dy]), one, max_speed, "euclidean"
    )
    assert bool(decided[0]) == (scalar > max_speed)

    rows = [(1, 0.0, 0.0, 0.0), (1, 1.0, dx, dy), (1, 2.0, dx, dy)]
    for policy in ("lenient", "repair"):
        config = QualityConfig(policy=policy, max_speed=max_speed)
        result = run_pipeline(records_from(rows), config)
        clean, report = oracle_pipeline(records_from(rows), config)
        assert result.report.as_dict() == report.as_dict()
        assert result.records == clean


def test_latitudes_beyond_the_poles_fail_alike():
    # The haversine of these fixes is negative: the scalar square root
    # raises, and the vectorized gate must not quietly pass the jump.
    rows = [(1, 0.0, 0.0, 100.0), (1, 1.0, 180.0, 80.0)]
    config = QualityConfig(metric="haversine", max_speed=1.0)
    with pytest.raises(ValueError, match="math domain error"):
        run_pipeline(records_from(rows), config)
    with pytest.raises(ValueError, match="math domain error"):
        oracle_pipeline(records_from(rows), config)
