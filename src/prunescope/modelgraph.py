"""Pruning-group decomposition of a multi-component network.

Every parameter tensor is owned by exactly one group. Within a component,
consecutive layers are bundled into component-specific groups; at each
component boundary the producing layer's weight and bias together with the
cross-component consumers' weight matrices form a coupling group whose unit
axis is the interface activation. A consuming layer's bias stays with its
own output units and is attached to the consumer component's first group.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import ConfigurationError
from .netcore import Network, ParamTensor, ROLE_BIAS, ROLE_WEIGHT

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
    id: str
    kind: str
    member_slices: tuple[MemberSlice, ...]
    owning_components: tuple[str, ...]
    param_count: int

    def unit_layers(self) -> tuple[int, ...]:
        """Layers whose output units this group can prune (weight-row owners)."""
        layers = {s.unit_layer for s in self.member_slices
                  if s.role == ROLE_WEIGHT and s.unit_axis == AXIS_OUT}
        return tuple(sorted(layers))


class ComponentGraph:
    """The full group decomposition for one network.

    ``layout`` is the network's :attr:`Network.layout` (tensor names and
    shapes) that the groups were built for. ``importance_plan`` starts
    empty; :func:`prunescope.importance.importance_plan` fills it on first
    use.
    """

    def __init__(self, components: dict[str, tuple[int, int]],
                 groups: Iterable[PruningGroup], layers_per_group: int,
                 layout: tuple) -> None:
        self.components = dict(components)
        self.groups: tuple[PruningGroup, ...] = tuple(groups)
        self.layers_per_group = int(layers_per_group)
        self.layout = layout
        self.importance_plan = None  # an importance.ImportancePlan once built
        self._by_id = {g.id: g for g in self.groups}
        if len(self._by_id) != len(self.groups):
            raise ConfigurationError("duplicate group ids in graph")

    def group_ids(self) -> tuple[str, ...]:
        return tuple(g.id for g in self.groups)

    def get(self, group_id: str) -> PruningGroup:
        try:
            return self._by_id[group_id]
        except KeyError:
            raise ConfigurationError(f"unknown group id {group_id!r}") from None

    def coupling_groups(self) -> tuple[PruningGroup, ...]:
        return tuple(g for g in self.groups if g.kind == KIND_COUPLING)


def _tensor_for(net: Network, layer: int, role: str) -> ParamTensor:
    dense = net.layers[layer]
    return dense.weight if role == ROLE_WEIGHT else dense.bias


def slice_param_count(net: Network, member: MemberSlice) -> int:
    return _tensor_for(net, member.layer, member.role).size


def group_tensors(net: Network, group: PruningGroup) -> list[ParamTensor]:
    """The parameter tensors owned by a group, in slice order."""
    return [_tensor_for(net, s.layer, s.role) for s in group.member_slices]


def build_groups(net: Network, layers_per_group: int = 1) -> ComponentGraph:
    """Decompose a network into component-specific and coupling groups.

    Raises a configuration error when a component is empty, when adjacent
    boundaries would claim the same tensor twice, or when a component owns
    nothing outside its boundary layers.
    """
    if layers_per_group < 1:
        raise ConfigurationError("layers_per_group must be at least 1")
    n = len(net.layers)
    comp_of = {k: net.component_of(k) for k in range(n)}
    for name, (lo, hi) in net.components.items():
        if hi <= lo:
            raise ConfigurationError(f"component {name!r} is empty")

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
    for p in range(n):
        cross = [c for c in net.consumers(p) if comp_of[c] != comp_of[p]]
        if not cross:
            continue
        consumer_comps: list[str] = []
        for c in cross:
            if comp_of[c] not in consumer_comps:
                consumer_comps.append(comp_of[c])
        owners = (comp_of[p], *consumer_comps)
        gid = "coupling_" + "_".join(owners)
        slices = [MemberSlice(p, ROLE_WEIGHT, AXIS_OUT, p),
                  MemberSlice(p, ROLE_BIAS, AXIS_OUT, p)]
        slices += [MemberSlice(c, ROLE_WEIGHT, AXIS_IN, p) for c in sorted(cross)]
        for s in slices:
            claim(s.layer, s.role, gid)
        groups.append(PruningGroup(gid, KIND_COUPLING, tuple(slices), owners, 0))

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
            groups.append(PruningGroup(gid, KIND_COMPONENT, tuple(slices), (name,), 0))

    # Every tensor must be owned exactly once.
    expected = {(k, role) for k in range(n) for role in (ROLE_WEIGHT, ROLE_BIAS)}
    if set(claimed) != expected:
        missing = sorted(expected - set(claimed))
        raise ConfigurationError(f"unclaimed parameter tensors: {missing}")

    groups = [PruningGroup(g.id, g.kind, g.member_slices, g.owning_components,
                           sum(slice_param_count(net, s) for s in g.member_slices))
              for g in groups]
    groups.sort(key=lambda g: (min(s.layer for s in g.member_slices), g.id))

    total = sum(g.param_count for g in groups)
    if total != net.param_count():
        raise ConfigurationError(
            f"group decomposition covers {total} parameters, network has "
            f"{net.param_count()}")
    return ComponentGraph(net.components, groups, layers_per_group, net.layout)


def prunable_units(net: Network, group: PruningGroup) -> list[tuple[int, int]]:
    """(layer, unit) pairs this group may remove.

    Output units of sink layers are excluded: the network's input and output
    interfaces are fixed by the task.
    """
    sinks = set(net.sinks())
    units = []
    for layer in group.unit_layers():
        if layer in sinks:
            continue
        units.extend((layer, u) for u in range(net.layers[layer].out_dim))
    return units


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
                "prunable_units": len(prunable_units(net, g)),
                "member_slices": [
                    {
                        "layer": s.layer,
                        "role": s.role,
                        "unit_axis": s.unit_axis,
                        "unit_layer": s.unit_layer,
                        "param_count": slice_param_count(net, s),
                    }
                    for s in g.member_slices
                ],
            }
            for g in graph.groups
        ],
    }
