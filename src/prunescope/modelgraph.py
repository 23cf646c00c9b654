"""Pruning-group decomposition of a multi-component network.

Every parameter tensor is owned by exactly one group. Within a component,
consecutive layers are bundled into component-specific groups; at each
component boundary the producing layer's weight and bias together with the
cross-component consumers' weight matrices form a coupling group whose unit
axis is the interface activation. A consuming layer's bias stays with its
own output units and is attached to the consumer component's first group.

:func:`build_groups` also fixes where each group's tensors lie in the
network's arenas, once; the importance update, the L1 subgradient and the
L1 norms all read that view.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import ConfigurationError
from .netcore import ADAM_BLOCK, Network, ROLE_BIAS, ROLE_WEIGHT

KIND_COMPONENT = "component_specific"
KIND_COUPLING = "coupling"

AXIS_OUT = "out"
AXIS_IN = "in"


@dataclass(frozen=True)
class MemberSlice:
    """One whole tensor owned by a group.

    ``unit_axis`` says which axis of the tensor is indexed by the group's
    prunable units ('out' for weight rows and biases, 'in' for the weight
    columns of a coupling consumer) and ``unit_layer`` is the layer whose
    output units provide that index.
    """

    layer: int
    role: str
    unit_axis: str
    unit_layer: int


@dataclass(frozen=True)
class PruningGroup:
    """One group and where its parameters lie in the network's arenas.

    ``slots`` holds each member tensor's arena range and shape, in slice
    order, and ``param_count`` their element count; ``runs`` holds the
    slots merged into ranges of adjacent elements. ``units`` holds, per
    unit layer in ascending order, its width, the parts its unit scores
    sum (an index into ``slots`` and the weight axis to reduce, or None for
    a bias) and the number of weights per unit they add up. ``prunable``
    holds the ``(layer, unit)`` pairs the group may remove: every unit of
    its unit layers in ascending order, except those of the network's sink
    layers, whose widths the task fixes.
    """

    id: str
    kind: str
    member_slices: tuple[MemberSlice, ...]
    owning_components: tuple[str, ...]
    param_count: int
    slots: tuple[tuple[int, int, tuple[int, ...]], ...]
    runs: tuple[tuple[int, int], ...]
    units: tuple[tuple[int, int, tuple[tuple[int, int | None], ...], int], ...]
    prunable: tuple[tuple[int, int], ...]


class ComponentGraph:
    """The full group decomposition for one network.

    ``layout`` is the network's :attr:`Network.layout` (tensor names and
    shapes) that the groups were built for; their arena positions serve
    only networks of that layout. ``parts`` splits the groups for the
    second lane: one ``(groups, runs)`` pair, or two of about equal element
    count when the network spans at least one ``ADAM_BLOCK``, each with
    its groups' slots merged into arena runs.
    """

    def __init__(self, components: dict[str, tuple[int, int]],
                 groups: Iterable[PruningGroup], layers_per_group: int,
                 layout: tuple) -> None:
        self.components = dict(components)
        self.groups: tuple[PruningGroup, ...] = tuple(groups)
        self.layers_per_group = int(layers_per_group)
        self.layout = layout
        self.parts = _split(self.groups)
        self._by_id: dict[str, PruningGroup] = {}
        for g in self.groups:
            if g.id in self._by_id:
                raise ConfigurationError(f"duplicate group id {g.id!r} in graph")
            self._by_id[g.id] = g

    def group_ids(self) -> tuple[str, ...]:
        return tuple(g.id for g in self.groups)

    def get(self, group_id: str) -> PruningGroup:
        try:
            return self._by_id[group_id]
        except KeyError:
            raise ConfigurationError(f"unknown group id {group_id!r}") from None

    def check_layout(self, net: Network) -> None:
        """Refuse a network of another parameter layout than the groups'."""
        if net.layout != self.layout:
            raise ConfigurationError(
                "the network's parameter layout differs from the one its groups "
                "were built for; rebuild the groups with build_groups(net)")

    def l1_norms(self, values: np.ndarray) -> list[float]:
        """Each group's :func:`slot_sum` of absolute values, in group order,
        from an arena laid out like the groups' (``net.flat_values``)."""
        magnitudes = np.abs(values)
        return [slot_sum(magnitudes, group.slots) for group in self.groups]


def slot_sum(values: np.ndarray, slots: Iterable[tuple[int, int, tuple]]) -> float:
    """The sum of an arena's elements over a group's slots.

    Each slot is reduced on its own and the slots are added in slice order,
    so the sum has the bits of a sum of per-tensor sums; a sum over merged
    runs would group the additions differently.
    """
    return sum([float(np.add.reduce(values[lo:hi], axis=None)) for lo, hi, _ in slots])


def _merged(ranges: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """Half-open ranges, sorted, with adjacent ones joined."""
    runs: list[tuple[int, int]] = []
    for lo, hi in sorted(ranges):
        if runs and runs[-1][1] == lo:
            runs[-1] = (runs[-1][0], hi)
        else:
            runs.append((lo, hi))
    return tuple(runs)


def _split(groups: tuple[PruningGroup, ...]) -> tuple:
    """One part, or two at the group boundary that best halves the elements."""
    total = sum(g.param_count for g in groups)
    cut, best, before = len(groups), total, 0
    if total >= ADAM_BLOCK:
        for i, g in enumerate(groups[:-1], start=1):
            before += g.param_count
            if abs(2 * before - total) < best:
                cut, best = i, abs(2 * before - total)
    return tuple((part, _merged([r for g in part for r in g.runs]))
                 for part in (groups[:cut], groups[cut:]) if part)


def _compile(net: Network, gid: str, kind: str, slices: list[MemberSlice],
             owners: tuple[str, ...]) -> PruningGroup:
    """A group with its arena view read off the network's tensors."""
    tensors = [net.layers[s.layer].weight if s.role == ROLE_WEIGHT
               else net.layers[s.layer].bias for s in slices]
    slots = tuple((t.offset, t.offset + t.size, t.shape) for t in tensors)
    units = []
    for unit_layer in sorted({s.unit_layer for s in slices
                              if s.role == ROLE_WEIGHT and s.unit_axis == AXIS_OUT}):
        parts, per_unit = [], 0
        for i, s in enumerate(slices):
            if s.unit_layer != unit_layer:
                continue
            if s.role != ROLE_WEIGHT:
                parts.append((i, None))
                per_unit += 1
            else:  # a row per unit on its own layer, a column on a consumer
                axis = 1 if s.unit_axis == AXIS_OUT else 0
                parts.append((i, axis))
                per_unit += tensors[i].shape[axis]
        units.append((unit_layer, net.layers[unit_layer].out_dim, tuple(parts), per_unit))
    prunable = tuple((layer, u) for layer, width, _, _ in units
                     if layer not in net.sinks() for u in range(width))
    return PruningGroup(gid, kind, tuple(slices), owners,
                        sum(t.size for t in tensors), slots,
                        _merged([(lo, hi) for lo, hi, _ in slots]), tuple(units), prunable)


def build_groups(net: Network, layers_per_group: int = 1) -> ComponentGraph:
    """Decompose a network into component-specific and coupling groups.

    Raises a configuration error when adjacent boundaries would claim the
    same tensor twice, or when a component owns nothing outside its boundary
    layers.
    """
    if layers_per_group < 1:
        raise ConfigurationError("layers_per_group must be at least 1")
    n = len(net.layers)
    comp_of = {k: net.component_of(k) for k in range(n)}

    claimed: dict[tuple[int, str], str] = {}

    def claim(layer: int, role: str, gid: str) -> None:
        key = (layer, role)
        if key in claimed:
            raise ConfigurationError(
                f"layer {layer} {role} claimed by both {claimed[key]!r} and {gid!r}; "
                "components are too thin to separate their boundaries")
        claimed[key] = gid

    groups: list[PruningGroup] = []

    # Coupling groups: one per producing layer with cross-component consumers.
    # An id names the owners, and the producing layer if they own another.
    couplings = {}
    for p in range(n):
        cross = [c for c in net.consumers(p) if comp_of[c] != comp_of[p]]
        if cross:
            couplings[p] = cross, (comp_of[p], *dict.fromkeys(comp_of[c] for c in cross))
    all_owners = [owners for _, owners in couplings.values()]
    for p, (cross, owners) in couplings.items():
        gid = "coupling_" + "_".join(owners)
        if all_owners.count(owners) > 1:
            gid += f"_l{p}"
        slices = [MemberSlice(p, ROLE_WEIGHT, AXIS_OUT, p),
                  MemberSlice(p, ROLE_BIAS, AXIS_OUT, p)]
        slices += [MemberSlice(c, ROLE_WEIGHT, AXIS_IN, p) for c in cross]
        for s in slices:
            claim(s.layer, s.role, gid)
        groups.append(_compile(net, gid, KIND_COUPLING, slices, owners))

    # Component-specific groups over the layers left unclaimed.
    for name, (lo, hi) in net.components.items():
        full = [k for k in range(lo, hi) if (k, ROLE_WEIGHT) not in claimed]
        residue = [k for k in range(lo, hi)
                   if (k, ROLE_WEIGHT) in claimed and (k, ROLE_BIAS) not in claimed]
        if not full:
            if residue:
                raise ConfigurationError(
                    f"component {name!r} owns only boundary-layer biases; it needs "
                    "at least one layer outside its coupling groups")
            continue
        chunks = [full[i:i + layers_per_group]
                  for i in range(0, len(full), layers_per_group)]
        for ordinal, chunk in enumerate(chunks, start=1):
            gid = f"{name}_{ordinal}"
            slices: list[MemberSlice] = []
            if ordinal == 1:
                slices += [MemberSlice(k, ROLE_BIAS, AXIS_OUT, k) for k in residue]
            for k in chunk:
                slices.append(MemberSlice(k, ROLE_WEIGHT, AXIS_OUT, k))
                slices.append(MemberSlice(k, ROLE_BIAS, AXIS_OUT, k))
            for s in slices:
                claim(s.layer, s.role, gid)
            groups.append(_compile(net, gid, KIND_COMPONENT, slices, (name,)))

    groups.sort(key=lambda g: (min(s.layer for s in g.member_slices), g.id))
    return ComponentGraph(net.components, groups, layers_per_group, net.layout)


def export_manifest(net: Network, graph: ComponentGraph) -> dict:
    """JSON-ready description of the group decomposition."""
    return {
        "format": "prunescope.manifest",
        "version": 1,
        "layers_per_group": graph.layers_per_group,
        "total_params": net.param_count(),
        "components": [[name, lo, hi] for name, (lo, hi) in graph.components.items()],
        "groups": [
            {
                "id": g.id,
                "kind": g.kind,
                "param_count": g.param_count,
                "owning_components": list(g.owning_components),
                "prunable_units": len(g.prunable),
                "member_slices": [
                    {
                        "layer": s.layer,
                        "role": s.role,
                        "unit_axis": s.unit_axis,
                        "unit_layer": s.unit_layer,
                        "param_count": hi - lo,
                    }
                    for s, (lo, hi, _) in zip(g.member_slices, g.slots)
                ],
            }
            for g in graph.groups
        ],
    }
