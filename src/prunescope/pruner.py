"""Dependency-consistent structured pruning.

A prune plan removes output units. Removing unit u of layer k excises row u
of that layer's weight, entry u of its bias, and column u of every
consumer's weight, so the network stays shape-consistent by construction.
Budgets are parameter-weighted: group removal fractions are proportional to
one minus the min-max-normalized smoothed importance, rescaled until the
exact number of excised parameters (overlaps counted once) meets the
target, with at most 90% of any group's units removed, at least one unit
left in every layer and protected groups untouched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .artifacts import Fields, read_json, write_json
from .errors import ConfigurationError, InfeasiblePlanError
from .importance import GroupImportanceState, _minmax, metric_scores
from .modelgraph import ComponentGraph, PruningGroup, build_groups
from .netcore import Network

UNIT_CAP_FRACTION = 0.9

PLAN_FORMAT = "prunescope.plan"
PLAN_VERSION = 1


@dataclass
class PrunePlan:
    """Units to remove, keyed by group id as (layer, unit) pairs."""

    target_sparsity: float
    ranking_used: str
    per_group: dict[str, list[tuple[int, int]]]
    predicted_removed: int

    def total_units(self) -> int:
        return sum(len(units) for units in self.per_group.values())

    def to_dict(self) -> dict:
        return {
            "format": PLAN_FORMAT,
            "version": PLAN_VERSION,
            "target_sparsity": self.target_sparsity,
            "metric": self.ranking_used,
            "predicted_removed_params": self.predicted_removed,
            "groups": {
                gid: {"unit_count": len(units),
                      "units": [[layer, unit] for layer, unit in units]}
                for gid, units in sorted(self.per_group.items())
            },
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "PrunePlan":
        doc = Fields.document(doc, "prune plan", PLAN_FORMAT, PLAN_VERSION)
        groups = doc.obj("groups")
        per_group = {}
        for gid in groups.keys():
            entry = groups.obj(gid)
            units = entry.arr("units")
            pairs = [units.arr(i, length=2) for i in units.keys()]
            per_group[gid] = [(p.int(0, low=0), p.int(1, low=0)) for p in pairs]
            if entry.int("unit_count", len(pairs)) != len(pairs):
                entry.fail("unit_count", f"does not match the {len(pairs)} units listed")
        target = doc.float("target_sparsity")
        if not 0.0 < target < 1.0:
            doc.fail("target_sparsity", f"must lie in (0, 1), got {target}")
        return cls(target, doc.str("metric"), per_group,
                   doc.int("predicted_removed_params", low=0))

    def save(self, path: str | Path) -> None:
        write_json(path, self.to_dict(), indent=2)

    @classmethod
    def load(cls, path: str | Path) -> "PrunePlan":
        return cls.from_dict(read_json(path, "prune plan"))


def importance_weights(states: Mapping[str, GroupImportanceState],
                       group_ids: Sequence[str], metric: str,
                       weights: Sequence[float] | None = None) -> dict[str, float]:
    """Pre-rescale allocation weights: 1 - minmax(smoothed importance).

    Monotone: raising a group's importance (others fixed) never raises its
    weight. Degenerate spreads (all equal) give every group weight 1.
    """
    scores = metric_scores(states, group_ids, metric, weights)
    normalized = _minmax([scores[gid] for gid in group_ids])
    return {gid: 1.0 - v for gid, v in zip(group_ids, normalized)}


class _RemovalLedger:
    """Exact incremental count of excised parameters, overlaps counted once."""

    def __init__(self, net: Network) -> None:
        self.net = net
        self.rows: dict[int, set[int]] = {}
        self.cols: dict[int, set[int]] = {}
        self.removed = 0

    def add_unit(self, layer: int, unit: int) -> int:
        """Account for removing one output unit; returns the marginal cost."""
        delta = 0
        rows = self.rows.setdefault(layer, set())
        if unit not in rows:
            cols = self.cols.get(layer, ())
            delta += self.net.layers[layer].in_dim - len(cols)  # weight row
            delta += 1  # bias entry
            rows.add(unit)
        for consumer in self.net.consumers(layer):
            ccols = self.cols.setdefault(consumer, set())
            if unit not in ccols:
                crows = self.rows.get(consumer, ())
                delta += self.net.layers[consumer].out_dim - len(crows)
                ccols.add(unit)
        self.removed += delta
        return delta


def allocate_budget(states: Mapping[str, GroupImportanceState],
                    graph: ComponentGraph, net: Network,
                    target_sparsity: float, metric: str,
                    protect: Iterable[str] = (),
                    weights: Sequence[float] | None = None) -> PrunePlan:
    """Build a plan whose exact removed-parameter total lands within one
    unit's closure of ``target_sparsity * total_params``.

    Raises :class:`InfeasiblePlanError` when caps and protections make the
    target unreachable, and a configuration error when ``net`` is not of
    the layout ``graph`` was built for.
    """
    graph.check_layout(net)
    if not 0.0 < target_sparsity < 1.0:
        raise ConfigurationError(
            f"target sparsity must lie in (0, 1), got {target_sparsity}")
    protect = set(protect)
    known = set(graph.group_ids())
    unknown = protect - known
    if unknown:
        raise ConfigurationError(f"protected ids not in graph: {sorted(unknown)}")

    candidates: list[PruningGroup] = []
    for group in graph.groups:
        if group.id in protect or not group.prunable:
            continue
        if group.id not in states:
            raise ConfigurationError(f"no importance state for group {group.id!r}")
        for layer, width, _, _ in group.units:
            scores = states[group.id].unit_ema.get(layer)
            if scores is None and (layer, 0) in group.prunable:
                raise ConfigurationError(
                    f"group {group.id!r}: no unit scores for layer {layer}")
            if scores is not None and len(scores) != width:
                raise ConfigurationError(
                    f"group {group.id!r}: {len(scores)} unit scores for layer "
                    f"{layer}, which has {width} units; the states were not "
                    "recorded on this network")
        candidates.append(group)
    if not candidates:
        raise InfeasiblePlanError("no unprotected group has prunable units")

    cand_ids = [g.id for g in candidates]
    alloc_weights = importance_weights(states, cand_ids, metric, weights)

    # Each group ranks its units by ascending score, ties by (layer, unit).
    # Its queue is that ranking without each layer's highest-ranked unit,
    # which the layer keeps, cut at the cap; the k-th unit is keyed by the
    # progress k / share the group has made when that unit goes, and a group
    # with no share gives nothing. The keys are distinct, so sorting the
    # queues' union merges them: the group furthest behind its share goes
    # next (least progress, then lowest id).
    queue = []
    for group in candidates:
        unit_ema = states[group.id].unit_ema
        ranking = sorted(group.prunable,
                         key=lambda unit: (float(unit_ema[unit[0]][unit[1]]), unit))
        share = alloc_weights[group.id] * len(ranking)
        if share > 0:
            cap = math.floor(UNIT_CAP_FRACTION * len(ranking))
            kept = dict(ranking)  # each layer's last, highest-ranked unit
            ranking = [(layer, unit) for layer, unit in ranking if kept[layer] != unit]
            queue += [((k / share, group.id), unit)
                      for k, unit in enumerate(ranking[:cap])]

    target = round(target_sparsity * net.param_count())
    # The cost of one fresh unit removal on the dearest candidate layer.
    layers = {layer for group in candidates for layer, _ in group.prunable}
    granularity = max(_RemovalLedger(net).add_unit(layer, 0) for layer in layers)

    ledger = _RemovalLedger(net)
    taken: dict[str, list[tuple[int, int]]] = {gid: [] for gid in cand_ids}
    last: tuple[str, int] | None = None
    for (_, gid), unit in sorted(queue):
        if ledger.removed >= target:
            break
        last = gid, ledger.add_unit(*unit)
        taken[gid].append(unit)
    if target - ledger.removed > granularity:
        raise InfeasiblePlanError(
            f"cannot reach {target} removed parameters: caps and "
            f"protections allow only {ledger.removed}")

    removed = ledger.removed
    # Drop the last unit when the total lands closer to the target without it.
    if last is not None and abs(removed - last[1] - target) < removed - target:
        taken[last[0]].pop()
        removed -= last[1]
    per_group = {gid: units for gid, units in taken.items() if units}
    return PrunePlan(target_sparsity, metric, per_group, removed)


def apply_prune(net: Network, graph: ComponentGraph,
                plan: PrunePlan) -> tuple[Network, ComponentGraph]:
    """Execute a plan, returning the smaller network and its rebuilt graph.

    One pass checks each unit against its group's prunable units and adds
    its closure to a removal ledger; the layers are then cut at the ledger's
    rows and columns. The input network is left untouched. The exhaustive
    parameter recount must match the ledger, and the ledger the plan's
    predicted removal. A network of another layout than the graph's is
    refused.
    """
    graph.check_layout(net)
    ledger = _RemovalLedger(net)
    for gid, units in plan.per_group.items():
        allowed = set(graph.get(gid).prunable)
        for layer, unit in units:
            if (layer, unit) not in allowed:
                raise ConfigurationError(
                    f"plan group {gid!r}: ({layer}, {unit}) is not a prunable "
                    "unit of this group, or is listed twice")
            allowed.remove((layer, unit))
            ledger.add_unit(layer, unit)

    new_layers = []
    for k, layer in enumerate(net.layers):
        # A layer's removed columns are its source's removed rows, so only
        # rows can empty a layer.
        rows = sorted(ledger.rows.get(k, ()))
        if len(rows) >= layer.out_dim:
            raise ConfigurationError(
                f"plan degenerates layer {k}: it would lose all its rows")
        w = np.delete(layer.weight.values, rows, axis=0)
        w = np.delete(w, sorted(ledger.cols.get(k, ())), axis=1)
        new_layers.append((w, np.delete(layer.bias.values, rows), layer.activation))

    pruned = Network(new_layers, net.components, net.layer_inputs)
    removed = net.param_count() - pruned.param_count()
    if removed != ledger.removed:
        raise ConfigurationError(
            f"recount mismatch: removed {removed} parameters, closure math "
            f"predicted {ledger.removed}")
    if plan.predicted_removed != ledger.removed:
        raise ConfigurationError(
            f"plan predicts {plan.predicted_removed} removed parameters but this "
            f"network loses {ledger.removed}; the plan was built for a different network")
    return pruned, build_groups(pruned, graph.layers_per_group)


@dataclass
class ConsistencyReport:
    ok: bool
    problems: list[str]
    param_count: int
    layer_shapes: list[tuple[int, int]]

    def summary(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        lines = [f"consistency: {status} "
                 f"({len(self.layer_shapes)} layers, {self.param_count} parameters)"]
        lines += [f"  problem: {p}" for p in self.problems]
        return "\n".join(lines)


def verify_consistency(net: Network) -> ConsistencyReport:
    """Check that every parameter value is finite.

    The network's constructor already checked its structure, which cannot
    change afterwards, so only the values in the arena are left to check.
    Damage is reported rather than raised.
    """
    problems = [f"layer {k}: non-finite parameter values"
                for k, layer in enumerate(net.layers)
                if not (np.isfinite(layer.weight.values).all()
                        and np.isfinite(layer.bias.values).all())]
    return ConsistencyReport(not problems, problems, net.param_count(),
                             [layer.weight.shape for layer in net.layers])
