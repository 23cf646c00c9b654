"""Trace rows: lossless round trips and structural validation."""

import math
import struct

import numpy as np
import pytest

from prunescope.errors import DataFormatError
from prunescope.harness.trace import (TRACE_FIELDS, TraceRecord, check_trace,
                                      emit_trace, group_order, read_trace)


def record(epoch, gid, kind="component_specific", **overrides):
    values = dict(lambda_=1e-5, raw_grad=0.1, ema_grad=0.2, raw_fisher=0.3,
                  ema_fisher=0.4, raw_bayes=0.5, ema_bayes=0.6, l1_norm=7.0,
                  task_loss=0.01, total_loss=0.011)
    values.update(overrides)
    return TraceRecord(epoch=epoch, group_id=gid, kind=kind, **values)


def synthetic_trace(epochs=5, groups=("a", "b", "c")):
    rng = np.random.default_rng(0)
    records = []
    for epoch in range(1, epochs + 1):
        for gid in groups:
            records.append(record(
                epoch, gid,
                lambda_=float(rng.uniform(1e-6, 2e-5)),
                raw_grad=float(rng.uniform()), ema_grad=float(rng.uniform()),
                raw_fisher=float(rng.uniform()), ema_fisher=float(rng.uniform()),
                raw_bayes=float(rng.uniform()), ema_bayes=float(rng.uniform()),
                l1_norm=float(rng.uniform(0, 100)),
                task_loss=float(rng.uniform()), total_loss=float(rng.uniform())))
    return records


def test_header_names_use_lambda_not_the_attribute_spelling(tmp_path):
    path = tmp_path / "trace.csv"
    emit_trace([record(1, "g")], path)
    header = path.read_text().splitlines()[0].split(",")
    assert "lambda" in header and "lambda_" not in header
    assert tuple(header) == TRACE_FIELDS
    assert TRACE_FIELDS[:4] == ("epoch", "group_id", "kind", "lambda")


def test_csv_round_trip_is_bitwise(tmp_path):
    """%.17g keeps every double distinguishable, so reading the CSV back
    reproduces the exact bit patterns, subnormals included."""
    tricky = [math.pi, 1.0 / 3.0, 5e-324, 1e308, -0.0, 123456789.123456789]
    records = [record(1, f"g{i}", l1_norm=v, lambda_=v / 7 if v else v)
               for i, v in enumerate(tricky)]
    path = tmp_path / "trace.csv"
    emit_trace(records, path)
    back = read_trace(path)
    assert back == records
    for a, b in zip(back, records):
        assert struct.pack("d", a.l1_norm) == struct.pack("d", b.l1_norm)


def test_csv_round_trip_of_a_full_length_trace(tmp_path):
    records = synthetic_trace(epochs=110, groups=tuple("abcde"))
    assert len(records) == 110 * 5
    path = tmp_path / "trace.csv"
    emit_trace(records, path)
    assert read_trace(path) == records


def test_csv_header_is_enforced(tmp_path):
    records = synthetic_trace(epochs=1)
    path = tmp_path / "trace.csv"
    emit_trace(records, path)
    text = path.read_text()
    swapped = text.replace("epoch,group_id", "group_id,epoch", 1)
    path.write_text(swapped)
    with pytest.raises(DataFormatError, match="header"):
        read_trace(path)


def test_unknown_extension_and_missing_file(tmp_path):
    for name in ("trace.txt", "trace.json"):  # a trace is CSV only
        with pytest.raises(DataFormatError, match="must end in .csv"):
            emit_trace([], tmp_path / name)
        assert not (tmp_path / name).exists()
    with pytest.raises(DataFormatError):
        read_trace(tmp_path / "absent.csv")
    bad = tmp_path / "trace.json"
    bad.write_text("[]")
    with pytest.raises(DataFormatError, match="must end in .csv"):
        read_trace(bad)


def test_malformed_row_is_reported(tmp_path):
    path = tmp_path / "trace.csv"
    emit_trace(synthetic_trace(epochs=1), path)
    lines = path.read_text().splitlines()
    lines[1] = lines[1].replace(lines[1].split(",")[3], "not-a-number", 1)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataFormatError, match="malformed trace row"):
        read_trace(path)


def test_validate_accepts_clean_traces():
    check_trace(synthetic_trace())


def test_validate_flags_structural_problems():
    with pytest.raises(DataFormatError, match="trace is empty"):
        check_trace([])

    gap = [r for r in synthetic_trace() if r.epoch != 3]
    with pytest.raises(DataFormatError, match="contiguous"):
        check_trace(gap)

    late = [record(2, "a"), record(3, "a")]
    with pytest.raises(DataFormatError, match="start at 2"):
        check_trace(late)

    dupes = [record(1, "a"), record(1, "a")]
    with pytest.raises(DataFormatError, match="duplicate"):
        check_trace(dupes)

    drift = [record(1, "a"), record(1, "b"), record(2, "a"), record(2, "c")]
    with pytest.raises(DataFormatError, match="disagree"):
        check_trace(drift)


def test_group_order_preserves_first_epoch_layout():
    records = [record(1, "z"), record(1, "a"), record(1, "m"),
               record(2, "a"), record(2, "m"), record(2, "z")]
    assert group_order(records) == ["z", "a", "m"]
    with pytest.raises(DataFormatError):
        group_order([])
