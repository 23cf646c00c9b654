"""Pruning-group decomposition of a multi-component network.

Every parameter tensor is owned by exactly one group. At each component
boundary the producing layer's weight and bias together with the weight
matrices of the cross-component consumers that feed no boundary of their
own form a coupling group whose unit axis is the interface activation.
Within a component, the other layers are bundled into component-specific
groups. A consuming layer's bias stays with its own output units in the
consumer component's first group, a group of biases alone when the
boundaries own every layer of the component. A group scores, and may
prune, the units of each non-output layer whose bias it owns, so each such
unit has one home; a consumed layer's units are scored by their bias entries.

:func:`build_groups` also fixes where each group's tensors lie in the
network's arenas, once, and :class:`ComponentGraph` lays every group's
slots out in one table, checks that they tile the arena and checks
importance states against the groups; the importance read, the L1 norms and
the optimizer's L1 penalty, whose block table it compiles once, read it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from .errors import ConfigurationError
from .netcore import ADAM_BLOCK, Network, Penalty, ROLE_BIAS, ROLE_WEIGHT

KIND_COMPONENT = "component_specific"
KIND_COUPLING = "coupling"


@dataclass(frozen=True)
class MemberSlice:
    """One whole tensor owned by a group.

    ``unit_layer`` is the layer whose output units index the tensor: its
    own layer for weight rows and biases, the producing layer for the
    weight columns of a coupling consumer.
    """

    layer: int
    role: str
    unit_layer: int


@dataclass(frozen=True)
class PruningGroup:
    """One group and where its parameters lie in the network's arenas.

    ``slots`` holds each member tensor's arena range and shape, in slice
    order, and ``param_count`` their element count. ``units`` holds, per
    unit layer in ascending order, its width, the parts its unit scores
    sum (an index into ``slots`` and the weight axis to reduce, or None for
    a bias) and the number of weights per unit they add up. Its unit layers
    are those whose bias the group owns, less the network's sinks, whose
    widths the task fixes. ``prunable`` holds every ``(layer, unit)`` pair
    of the unit layers, in ascending order: the units the group may remove.
    """

    id: str
    kind: str
    member_slices: tuple[MemberSlice, ...]
    owning_components: tuple[str, ...]
    param_count: int
    slots: tuple[tuple[int, int, tuple[int, ...]], ...]
    units: tuple[tuple[int, int, tuple[tuple[int, int | None], ...], int], ...]
    prunable: tuple[tuple[int, int], ...]


class ComponentGraph:
    """The full group decomposition for one network.

    ``layout`` is the network's :attr:`Network.layout` (tensor names and
    shapes) that the groups were built for, and ``size`` its arena's element
    count; their arena positions serve only networks of that layout.
    ``slots`` holds every group's slot ranges ``(lo, hi)``, groups in order
    and each group's slots in slice order, and ``slot_ranges`` each group's
    slice of ``slots``.
    The slots must tile ``[0, size)`` (no overlap, gap, overrun or short
    cover), or a :class:`ConfigurationError` refuses them. ``blocks`` is the
    penalty's table: each ``ADAM_BLOCK``'s parts ``(a, b, group index)``,
    the maximal runs of one group's slots clipped to the block.
    """

    def __init__(self, groups: Iterable[PruningGroup], layers_per_group: int,
                 layout: tuple) -> None:
        self.groups: tuple[PruningGroup, ...] = tuple(groups)
        self.layers_per_group = int(layers_per_group)
        self.layout = layout
        self.size = sum(math.prod(shape) for _, shape in layout)
        self.slots = [(lo, hi) for g in self.groups for lo, hi, _ in g.slots]
        ends = list(itertools.accumulate(len(g.slots) for g in self.groups))
        self.slot_ranges = [slice(a, b) for a, b in zip([0, *ends], ends)]
        end, runs = 0, []  # the maximal runs of one group's slots, in arena order
        for lo, hi, i in sorted((lo, hi, i) for i, group in enumerate(self.groups)
                                for lo, hi, _ in group.slots):
            if lo != end or not lo < hi <= self.size:
                raise ConfigurationError(
                    f"group slot [{lo}, {hi}) does not tile the arena's {self.size} "
                    f"elements: the slots before it end at {end}")
            end = hi
            if runs and runs[-1][2] == i:
                runs[-1] = (runs[-1][0], hi, i)
            else:
                runs.append((lo, hi, i))
        if end != self.size:
            raise ConfigurationError(
                f"the group slots end at {end}, short of the arena's {self.size} elements")
        self.blocks = tuple(
            tuple((max(lo, start) - start, min(hi, start + ADAM_BLOCK) - start, i)
                  for lo, hi, i in runs if lo < start + ADAM_BLOCK and hi > start)
            for start in range(0, self.size, ADAM_BLOCK))
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
        """Each group's sum of absolute values over its slots, in group
        order, from an arena laid out like the groups' (``net.flat_values``).
        Each slot's magnitudes are taken and reduced on their own, into one
        array of slot sums read back at once, and a group's slot sums are
        added in slice order: the bits of a sum of per-tensor sums, which a
        sum over merged runs would group differently. No temporary outgrows
        the largest tensor."""
        sums = np.empty((1, len(self.slots)))
        for j, (lo, hi) in enumerate(self.slots):
            np.add.reduce(np.abs(values[None, lo:hi]), 1, out=sums[:, j])
        (slot_sums,) = sums.tolist()
        return [sum(slot_sums[slots]) for slots in self.slot_ranges]

    def check_states(self, states: Mapping[str, Any],
                     groups: Iterable[PruningGroup]) -> None:
        """Refuse importance states, keyed by group id as
        :func:`importance.init_states` makes them, that lack one of
        ``groups`` or a unit score vector of its layer's width for one of a
        group's unit layers."""
        for group in groups:
            if group.id not in states:
                raise ConfigurationError(f"no importance state for group {group.id!r}")
            unit_ema = states[group.id].unit_ema
            for layer, width, _, _ in group.units:
                count = len(unit_ema.get(layer, ()))
                if count != width:
                    raise ConfigurationError(
                        f"group {group.id!r}: {count} unit scores for layer {layer}, "
                        f"which has {width} units; the states were not recorded on "
                        "this network")

    def penalty(self, coeffs: Sequence[float]) -> Penalty:
        """The L1 term an optimizer step takes: ``coeffs``, one per group in
        ``groups`` order (the schedule's value times the loss weight), bound
        to the graph's one block table. Each must be non-negative and
        finite. A group whose coefficient is zero adds nothing, so its
        ``-0.0`` gradients stay ``-0.0``."""
        if len(coeffs) != len(self.groups):
            raise ConfigurationError(f"need one L1 coefficient per group, got {len(coeffs)}")
        coeffs = tuple(float(c) for c in coeffs)
        for group, coeff in zip(self.groups, coeffs):
            if not 0.0 <= coeff < math.inf:  # written so that NaN fails
                raise ConfigurationError(
                    f"group {group.id!r}: the L1 coefficient must be non-negative "
                    f"and finite, got {coeff}")
        return Penalty(self.layout, self.blocks, coeffs)


def _compile(net: Network, gid: str, kind: str, slices: list[MemberSlice],
             owners: tuple[str, ...]) -> PruningGroup:
    """A group with its arena view read off the network's tensors."""
    tensors = [net.layers[s.layer].weight if s.role == ROLE_WEIGHT
               else net.layers[s.layer].bias for s in slices]
    slots = tuple((t.offset, t.offset + t.size, t.shape) for t in tensors)
    units = []
    for unit_layer in sorted({s.layer for s in slices if s.role == ROLE_BIAS}
                             - set(net.sinks())):
        parts, per_unit = [], 0
        for i, s in enumerate(slices):
            if s.unit_layer != unit_layer:
                continue
            if s.role != ROLE_WEIGHT:
                parts.append((i, None))
                per_unit += 1
            else:  # a row per unit on its own layer, a column on a consumer
                axis = 1 if s.layer == unit_layer else 0
                parts.append((i, axis))
                per_unit += tensors[i].shape[axis]
        units.append((unit_layer, net.layers[unit_layer].out_dim, tuple(parts), per_unit))
    prunable = tuple((layer, u) for layer, width, _, _ in units for u in range(width))
    return PruningGroup(gid, kind, tuple(slices), owners,
                        sum(t.size for t in tensors), slots, tuple(units), prunable)


def build_groups(net: Network, layers_per_group: int = 1) -> ComponentGraph:
    """Decompose a network into component-specific and coupling groups.

    A producing layer's coupling group takes the weight columns of each
    cross-component consumer that is not itself a producing layer, and a
    component whose layers the boundaries all own gets one group of its
    consumed layers' biases. A layer reads one source, so no tensor has two
    owners. Each group's units are those of the non-sink layers whose bias
    it owns.
    """
    if layers_per_group < 1:
        raise ConfigurationError("layers_per_group must be at least 1")
    n = len(net.layers)
    comp_of = {k: net.component_of(k) for k in range(n)}
    groups: list[PruningGroup] = []

    # Coupling groups: one per producing layer with cross-component consumers.
    # An id names the owners, and the producing layer if they own another.
    couplings = {}
    for p in range(n):
        cross = [c for c in net.consumers(p) if comp_of[c] != comp_of[p]]
        if cross:
            couplings[p] = cross, (comp_of[p], *dict.fromkeys(comp_of[c] for c in cross))
    consumed = {c for cross, _ in couplings.values() for c in cross if c not in couplings}
    all_owners = [owners for _, owners in couplings.values()]
    for p, (cross, owners) in couplings.items():
        gid = "coupling_" + "_".join(owners)
        if all_owners.count(owners) > 1:
            gid += f"_l{p}"
        slices = [MemberSlice(p, ROLE_WEIGHT, p), MemberSlice(p, ROLE_BIAS, p)]
        slices += [MemberSlice(c, ROLE_WEIGHT, p) for c in cross if c in consumed]
        groups.append(_compile(net, gid, KIND_COUPLING, slices, owners))

    # Component-specific groups over the layers no boundary owns.
    for name, (lo, hi) in net.components.items():
        free = [k for k in range(lo, hi) if k not in couplings and k not in consumed]
        chunks = [free[i:i + layers_per_group]
                  for i in range(0, len(free), layers_per_group)]
        # With no free layer, the consumed layers' biases, if any, form one group.
        for ordinal, chunk in enumerate(chunks or [[]], start=1):
            slices: list[MemberSlice] = []
            if ordinal == 1:
                slices += [MemberSlice(k, ROLE_BIAS, k)
                           for k in range(lo, hi) if k in consumed]
            for k in chunk:
                slices.append(MemberSlice(k, ROLE_WEIGHT, k))
                slices.append(MemberSlice(k, ROLE_BIAS, k))
            if slices:
                groups.append(_compile(net, f"{name}_{ordinal}", KIND_COMPONENT,
                                       slices, (name,)))

    groups.sort(key=lambda g: (min(s.layer for s in g.member_slices), g.id))
    return ComponentGraph(groups, layers_per_group, net.layout)


def export_manifest(net: Network, graph: ComponentGraph) -> dict:
    """JSON-ready description of the group decomposition."""
    return {
        "format": "prunescope.manifest",
        "version": 1,
        "layers_per_group": graph.layers_per_group,
        "total_params": net.param_count(),
        "components": [[name, lo, hi] for name, (lo, hi) in net.components.items()],
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
                        "unit_axis": "out" if s.unit_layer == s.layer else "in",
                        "unit_layer": s.unit_layer,
                        "param_count": hi - lo,
                    }
                    for s, (lo, hi, _) in zip(g.member_slices, g.slots)
                ],
            }
            for g in graph.groups
        ],
    }
