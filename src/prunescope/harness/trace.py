"""Importance-trace records and their CSV round trip.

One trace row is emitted per (epoch, group): the schedule coefficient in
force, the raw and smoothed importance metrics from the epoch's final
iteration, the group's L1 norm after the epoch's updates, and the epoch-end
losses. Floats are written with repr-faithful precision so a written trace
reloads to bitwise-identical values; every float must be finite.
"""

from __future__ import annotations

import csv
import io
from dataclasses import astuple, dataclass
from pathlib import Path
from typing import Iterable

from ..artifacts import Fields, read_csv, write_atomic
from ..errors import DataFormatError

TRACE_FIELDS = ("epoch", "group_id", "kind", "lambda", "raw_grad", "ema_grad",
                "raw_fisher", "ema_fisher", "raw_bayes", "ema_bayes",
                "l1_norm", "task_loss", "total_loss")

_FLOAT_FIELDS = TRACE_FIELDS[3:]


@dataclass(frozen=True)
class TraceRecord:
    epoch: int
    group_id: str
    kind: str
    lambda_: float
    raw_grad: float
    ema_grad: float
    raw_fisher: float
    ema_fisher: float
    raw_bayes: float
    ema_bayes: float
    l1_norm: float
    task_loss: float
    total_loss: float


def _record_from_row(row: Fields) -> TraceRecord:
    return TraceRecord(row.int("epoch"), row.str("group_id"), row.str("kind"),
                       *(row.float(name, finite=True) for name in _FLOAT_FIELDS))


def emit_trace(records: Iterable[TraceRecord], path: str | Path) -> None:
    """Write records as CSV; ``path`` must end in ``.csv``."""
    path = _csv_path(path)
    buf = io.StringIO()
    csv.writer(buf).writerows([TRACE_FIELDS] + [
        [rec.epoch, rec.group_id, rec.kind]
        + [format(value, ".17g") for value in astuple(rec)[3:]] for rec in records])
    write_atomic(path, buf.getvalue())


def read_trace(path: str | Path) -> list[TraceRecord]:
    rows = read_csv(_csv_path(path), "trace", TRACE_FIELDS)
    return [_record_from_row(row) for row in rows]


def _csv_path(path: str | Path) -> Path:
    path = Path(path)
    if path.suffix != ".csv":
        raise DataFormatError(f"trace path {path} must end in .csv")
    return path


def check_trace(records: list[TraceRecord]) -> None:
    """Refuse a trace that is empty, whose epochs do not run from 1 without
    a gap, that repeats an (epoch, group) row, or whose epochs disagree on
    the set of groups; the error lists every problem found."""
    if not records:
        raise DataFormatError("trace is not well formed: trace is empty")
    problems: list[str] = []
    epochs = sorted({rec.epoch for rec in records})
    if epochs[0] != 1:
        problems.append(f"epochs start at {epochs[0]}, expected 1")
    if epochs != list(range(epochs[0], epochs[0] + len(epochs))):
        problems.append("epoch numbers are not contiguous")
    seen: set[tuple[int, str]] = set()
    for rec in records:
        key = (rec.epoch, rec.group_id)
        if key in seen:
            problems.append(f"duplicate row for epoch {rec.epoch}, "
                            f"group {rec.group_id}")
        seen.add(key)
    groups_by_epoch = {}
    for rec in records:
        groups_by_epoch.setdefault(rec.epoch, set()).add(rec.group_id)
    group_sets = {frozenset(g) for g in groups_by_epoch.values()}
    if len(group_sets) > 1:
        problems.append("epochs disagree on the set of groups")
    if problems:
        raise DataFormatError("trace is not well formed: " + "; ".join(problems))


def group_order(records: list[TraceRecord]) -> list[str]:
    """Group ids in their first-epoch row order."""
    if not records:
        raise DataFormatError("trace is empty")
    first = min(rec.epoch for rec in records)
    return [rec.group_id for rec in records if rec.epoch == first]
