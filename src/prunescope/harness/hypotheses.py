"""Read a finished trace back and score the importance-dynamics hypotheses.

H1: coupling groups end up at the top of the smoothed-importance ranking.
H2: the earliest component-specific group sinks toward the bottom.
H3: rankings are not static; crossover epochs mark reorderings over training.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import DataFormatError
from ..importance import METRICS, ranked
from ..modelgraph import KIND_COMPONENT, KIND_COUPLING
from .trace import TraceRecord, check_trace, group_order


@dataclass(frozen=True)
class HypothesisReport:
    window: int
    group_ids: tuple[str, ...]
    kinds: dict[str, str]
    top_group: dict[str, str]
    coupling_on_top: dict[str, bool]
    earliest_specific: str | None
    earliest_specific_rank: dict[str, int]
    earliest_specific_bottom: dict[str, bool]
    crossover_epochs: dict[str, list[int]]
    notes: tuple[str, ...]


def _by_epoch(records: list[TraceRecord]) -> dict[int, dict[str, TraceRecord]]:
    table: dict[int, dict[str, TraceRecord]] = {}
    for rec in records:
        table.setdefault(rec.epoch, {})[rec.group_id] = rec
    return table


def evaluate_hypotheses(records: list[TraceRecord], window: int) -> HypothesisReport:
    """Score H1-H3 from trace rows; ``window`` is the late-training span used
    for the mean smoothed scores (shrunk when the run is shorter)."""
    if window < 1:
        raise DataFormatError("window must be at least 1")
    check_trace(records)
    ids = tuple(group_order(records))
    kinds = {rec.group_id: rec.kind for rec in records}
    epochs = sorted({rec.epoch for rec in records})
    table = _by_epoch(records)

    notes: list[str] = []
    used = min(window, len(epochs))
    if used < window:
        notes.append(f"window shrunk to {used} epochs (run is only "
                     f"{len(epochs)} epochs long)")
    late = epochs[-used:]

    specific = [g for g in ids if kinds[g] == KIND_COMPONENT]
    earliest = specific[0] if specific else None
    if earliest is None:
        notes.append("no component-specific groups in this trace")

    top: dict[str, str] = {}
    coupling_top: dict[str, bool] = {}
    earliest_rank: dict[str, int] = {}
    earliest_bottom: dict[str, bool] = {}
    crossovers: dict[str, list[int]] = {}
    for metric in METRICS:
        field = f"ema_{metric}"
        means = {g: sum(getattr(table[e][g], field) for e in late) / used
                 for g in ids}
        order = ranked(means, ids)
        top[metric] = order[0]
        coupling_top[metric] = kinds[order[0]] == KIND_COUPLING
        if earliest is not None:
            rank = order.index(earliest) + 1
            earliest_rank[metric] = rank
            earliest_bottom[metric] = rank == len(ids)
        orders = [ranked({g: getattr(table[e][g], field) for g in ids}, ids)
                  for e in epochs]
        crossovers[metric] = [e for e, prev, cur in zip(epochs[1:], orders, orders[1:])
                              if cur != prev]

    return HypothesisReport(
        window=used, group_ids=ids, kinds=kinds,
        top_group=top, coupling_on_top=coupling_top,
        earliest_specific=earliest, earliest_specific_rank=earliest_rank,
        earliest_specific_bottom=earliest_bottom,
        crossover_epochs=crossovers, notes=tuple(notes))


def render_report(report: HypothesisReport) -> str:
    lines = [f"hypothesis report (late window: {report.window} epochs)"]
    lines.append("groups: " + ", ".join(
        f"{g} [{report.kinds[g]}]" for g in report.group_ids))
    lines.append("")
    lines.append("H1  coupling groups rank highest")
    for metric in METRICS:
        verdict = "yes" if report.coupling_on_top[metric] else "no"
        lines.append(f"    {metric:<7} top={report.top_group[metric]:<28} "
                     f"coupling_on_top={verdict}")
    lines.append("H2  earliest component-specific group sinks")
    if report.earliest_specific is None:
        lines.append("    (no component-specific groups)")
    else:
        n = len(report.group_ids)
        for metric in METRICS:
            rank = report.earliest_specific_rank[metric]
            verdict = "yes" if report.earliest_specific_bottom[metric] else "no"
            lines.append(f"    {metric:<7} {report.earliest_specific} "
                         f"rank={rank}/{n} bottom={verdict}")
    lines.append("H3  ranking crossovers over training")
    for metric in METRICS:
        flips = report.crossover_epochs[metric]
        shown = ", ".join(map(str, flips[:12]))
        if len(flips) > 12:
            shown += ", ..."
        lines.append(f"    {metric:<7} {len(flips)} crossover epoch(s)"
                     + (f": {shown}" if flips else ""))
    for note in report.notes:
        lines.append(f"note: {note}")
    return "\n".join(lines)
