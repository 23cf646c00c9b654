"""Online gradient-based group importance.

Three per-group metrics are maintained from task-loss gradients only (the
sparsity subgradient is added to the parameter gradients after these
updates, so it never leaks into importance):

* gradient magnitude: mean absolute gradient over the group,
* Fisher: mean squared gradient (a diagonal, batch-level approximation),
* empirical Bayes: ``log(1 + mu) * (1 + fisher)`` where ``mu = alpha/beta``
  is the posterior mean rate of a Gamma prior over an exponential
  gradient-energy model, updated as ``alpha += kappa`` and
  ``beta += kappa * E / eta`` per observation.

Note the direction of ``mu``: a persistently large energy E grows beta
faster than alpha, so mu *decreases* for historically active groups and its
reciprocal is the activity-aligned reading. The recurrence is kept exactly
as stated; reports surface ``1/mu`` alongside.

Each metric is smoothed with an exponential moving average,
``s(t) = gamma * s(t-1) + (1 - gamma) * raw(t)``, initialized to the first
raw value. Per-unit mean-absolute-gradient scores are tracked the same way
for within-group unit ranking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .artifacts import Fields
from .errors import ConfigurationError
from .modelgraph import AXIS_OUT, ComponentGraph, PruningGroup, group_tensors
from .netcore import ADAM_BLOCK, Network, ROLE_WEIGHT, second_lane

METRICS = ("grad", "fisher", "bayes")
COMBINED = "combined"

STATES_FORMAT = "prunescope.states"
STATES_VERSION = 1


@dataclass(frozen=True)
class BayesConfig:
    """Gamma/exponential tracker constants; all must be positive."""

    kappa: float = 0.25
    eta: float = 1.0
    alpha0: float = 1.0
    beta0: float = 1.0

    def __post_init__(self) -> None:
        for name in ("kappa", "eta", "alpha0", "beta0"):
            if not getattr(self, name) > 0:
                raise ConfigurationError(f"BayesConfig.{name} must be positive")


@dataclass
class GroupImportanceState:
    """Raw and smoothed metric values plus posterior parameters for one group."""

    group_id: str
    alpha: float
    beta: float
    raw_grad: float = 0.0
    raw_fisher: float = 0.0
    raw_bayes: float = 0.0
    ema_grad: float = 0.0
    ema_fisher: float = 0.0
    ema_bayes: float = 0.0
    iteration: int = 0
    unit_ema: dict[int, np.ndarray] = field(default_factory=dict)

    @property
    def mu(self) -> float:
        return self.alpha / self.beta

    @property
    def inv_mu(self) -> float:
        """1/mu, the activity-aligned reading of mu; infinite when mu is 0."""
        return 1.0 / self.mu if self.mu > 0 else math.inf


def init_states(graph: ComponentGraph,
                cfg: BayesConfig) -> dict[str, GroupImportanceState]:
    return {g.id: GroupImportanceState(g.id, alpha=cfg.alpha0, beta=cfg.beta0)
            for g in graph.groups}


def _flatten(grads: Sequence[np.ndarray] | np.ndarray) -> tuple[list[np.ndarray], int]:
    """The gradients as float64 arrays, and their element count."""
    if isinstance(grads, np.ndarray):
        grads = [grads]
    arrays = [np.asarray(g, dtype=np.float64) for g in grads]
    count = sum(a.size for a in arrays)
    if count == 0:
        raise ConfigurationError("importance metrics need at least one parameter")
    return arrays, count


def _group_mean(parts: Sequence[np.ndarray], count: int) -> float:
    """(1/N) times the sum of per-tensor sums, N = ``count`` elements.

    Each tensor is summed on its own, in order, so the result is the same
    whether the parts are separate arrays or slots of one arena buffer.
    """
    return sum([float(np.add.reduce(p, axis=None)) for p in parts]) / count


def grad_magnitude(grads: Sequence[np.ndarray] | np.ndarray) -> float:
    """Mean absolute gradient over the group: (1/N) sum |g|. It is also
    the gradient energy the Bayes tracker observes."""
    arrays, count = _flatten(grads)
    return _group_mean([np.abs(a) for a in arrays], count)


def fisher_diag(grads: Sequence[np.ndarray] | np.ndarray) -> float:
    """Mean squared gradient over the group: (1/N) sum g^2."""
    arrays, count = _flatten(grads)
    return _group_mean([a * a for a in arrays], count)


def bayes_update(state: GroupImportanceState, energy: float,
                 cfg: BayesConfig) -> GroupImportanceState:
    """One conjugate update: alpha += kappa, beta += kappa * E / eta.

    E = 0 is legal (beta unchanged, mu strictly increases); negative E is a
    contract violation.
    """
    if not math.isfinite(energy) or energy < 0:
        raise ConfigurationError(f"group energy must be finite and >= 0, got {energy}")
    state.alpha += cfg.kappa
    state.beta += cfg.kappa * energy / cfg.eta
    return state


def bayes_importance(mu: float, fisher: float) -> float:
    """Combine posterior mean and Fisher: log(1 + mu) * (1 + fisher)."""
    if mu < 0 or fisher < 0:
        raise ConfigurationError("mu and fisher must be non-negative")
    return math.log1p(mu) * (1.0 + fisher)


def ema_update(previous: float, current: float, gamma: float) -> float:
    """Exponential moving average step; gamma in [0, 1)."""
    if not 0.0 <= gamma < 1.0:
        raise ConfigurationError(f"gamma must lie in [0, 1), got {gamma}")
    return gamma * previous + (1.0 - gamma) * current


@dataclass(frozen=True)
class _GroupPlan:
    """What :func:`update_all` reads of one group, fixed by the layout.

    ``slots`` holds each owned tensor's arena range and shape, in slice
    order, ``count`` their element count and ``runs`` the slots merged into
    ranges of adjacent elements. ``units`` holds, per unit layer, its
    width, the parts its unit scores sum (an index into ``slots`` and the
    weight axis to reduce, or None for a bias) and the number of weights
    per unit they add up.
    """

    group_id: str
    slots: tuple[tuple[int, int, tuple[int, ...]], ...]
    count: int
    runs: tuple[tuple[int, int], ...]
    units: tuple[tuple[int, int, tuple[tuple[int, int | None], ...], int], ...]


@dataclass(frozen=True)
class _PlanPart:
    """One lane's share of a plan: consecutive groups, the index of the
    first in the plan, and their slots merged into arena runs."""

    groups: tuple[_GroupPlan, ...]
    first: int
    runs: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class ImportancePlan:
    """The per-step view of a graph: one :class:`_GroupPlan` per group, in
    graph order, and the groups split into lanes.

    A network that spans at least one ``ADAM_BLOCK`` has two parts of about
    equal element count, the second for the second lane; a smaller one has
    a single part.
    """

    groups: tuple[_GroupPlan, ...]
    parts: tuple[_PlanPart, ...]

    def l1_parts(self, coeffs: Sequence[float]) -> list[list[tuple[int, int, float]]]:
        """The ``add_l1_subgradient`` runs for one coefficient per group."""
        return [[(lo, hi, float(coeffs[i]))
                 for i, group in enumerate(part.groups, part.first) for lo, hi in group.runs]
                for part in self.parts]


def _merged(ranges: Sequence[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """Half-open ranges, sorted, with adjacent ones joined."""
    runs: list[tuple[int, int]] = []
    for lo, hi in sorted(ranges):
        if runs and runs[-1][1] == lo:
            runs[-1] = (runs[-1][0], hi)
        else:
            runs.append((lo, hi))
    return tuple(runs)


def _plan_group(net: Network, group: PruningGroup) -> _GroupPlan:
    tensors = group_tensors(net, group)
    slots = tuple((t.offset, t.offset + t.size, t.shape) for t in tensors)
    units = []
    for unit_layer in group.unit_layers():
        parts, per_unit = [], 0
        for i, (s, t) in enumerate(zip(group.member_slices, tensors)):
            if s.unit_layer != unit_layer:
                continue
            if s.role != ROLE_WEIGHT:
                parts.append((i, None))
                per_unit += 1
            else:  # a row per unit on its own layer, a column on a consumer
                axis = 1 if s.unit_axis == AXIS_OUT else 0
                parts.append((i, axis))
                per_unit += t.shape[axis]
        units.append((unit_layer, net.layers[unit_layer].out_dim, tuple(parts), per_unit))
    return _GroupPlan(group.id, slots, sum(t.size for t in tensors),
                      _merged([(lo, hi) for lo, hi, _ in slots]), tuple(units))


def _split(groups: Sequence[_GroupPlan]) -> tuple[_PlanPart, ...]:
    """One part, or two at the group boundary that best halves the elements."""
    total = sum(g.count for g in groups)
    cut, best, before = len(groups), total, 0
    if total >= ADAM_BLOCK:
        for i, g in enumerate(groups[:-1], start=1):
            before += g.count
            if abs(2 * before - total) < best:
                cut, best = i, abs(2 * before - total)
    return tuple(_PlanPart(tuple(part), first, _merged([r for g in part for r in g.runs]))
                 for first, part in ((0, groups[:cut]), (cut, groups[cut:]))
                 if part)


def importance_plan(net: Network, graph: ComponentGraph) -> ImportancePlan:
    """The graph's importance plan, built on first use and kept on the graph.

    The plan holds arena positions, so it serves only networks of the
    layout the graph was built for; any other network is refused.
    """
    if net.layout != graph.layout:
        raise ConfigurationError(
            "the network's parameter layout differs from the one its groups "
            "were built for; rebuild the groups with build_groups(net)")
    if graph.importance_plan is None:
        groups = tuple(_plan_group(net, g) for g in graph.groups)
        graph.importance_plan = ImportancePlan(groups, _split(groups))
    return graph.importance_plan


def update_all(states: dict[str, GroupImportanceState], net: Network,
               graph: ComponentGraph, cfg: BayesConfig,
               gamma: float) -> dict[str, GroupImportanceState]:
    """Advance every group's metrics by one observation of the current task
    gradients. Call after ``backward`` and before the sparsity subgradient
    is added. Mutates and returns ``states``; deterministic for identical
    inputs.

    Each part of the graph's importance plan takes the squared and then the
    absolute gradients over its arena runs, into one buffer; each group's
    metric is then reduced over its tensors' slots in slice order, by the
    same reduction that :func:`fisher_diag` and :func:`grad_magnitude` use.
    The second part, if any, runs on the second lane. Where the slots lie
    and which of them feed each unit score comes from the plan, so a step
    does only the arithmetic, and a group's arithmetic does not depend on
    the part it is in.
    """
    if not 0.0 <= gamma < 1.0:
        raise ConfigurationError(f"gamma must lie in [0, 1), got {gamma}")
    plan = importance_plan(net, graph)
    for group in plan.groups:
        if group.group_id not in states:
            raise ConfigurationError(
                f"no importance state for group {group.group_id!r}")
    scratch = np.empty(net.flat_grad.size)
    with second_lane(scratch.size) as lane:
        for part in plan.parts[1:]:
            lane.submit(_update_part, part, states, net.flat_grad, scratch, cfg, gamma)
        _update_part(plan.parts[0], states, net.flat_grad, scratch, cfg, gamma)
    return states


def _update_part(part: _PlanPart, states: dict[str, GroupImportanceState],
                 grad: np.ndarray,
                 scratch: np.ndarray, cfg: BayesConfig, gamma: float) -> None:
    groups = part.groups
    for lo, hi in part.runs:
        np.multiply(grad[lo:hi], grad[lo:hi], out=scratch[lo:hi])
    fishers = [_group_mean([scratch[lo:hi] for lo, hi, _ in group.slots], group.count)
               for group in groups]
    for lo, hi in part.runs:
        np.abs(grad[lo:hi], out=scratch[lo:hi])
    for group, raw_fisher in zip(groups, fishers):
        state = states[group.group_id]
        abs_grads = [scratch[lo:hi].reshape(shape) for lo, hi, shape in group.slots]
        raw_grad = _group_mean(abs_grads, group.count)
        bayes_update(state, raw_grad, cfg)
        raw_bayes = bayes_importance(state.mu, raw_fisher)

        first = state.iteration == 0
        state.raw_grad = raw_grad
        state.raw_fisher = raw_fisher
        state.raw_bayes = raw_bayes
        if first:
            state.ema_grad = raw_grad
            state.ema_fisher = raw_fisher
            state.ema_bayes = raw_bayes
        else:
            state.ema_grad = ema_update(state.ema_grad, raw_grad, gamma)
            state.ema_fisher = ema_update(state.ema_fisher, raw_fisher, gamma)
            state.ema_bayes = ema_update(state.ema_bayes, raw_bayes, gamma)

        # Per-unit mean |grad| over the slices each unit layer indexes.
        for unit_layer, width, parts, per_unit in group.units:
            numerator = np.zeros(width)
            for i, axis in parts:
                a = abs_grads[i]
                numerator += a if axis is None else np.add.reduce(a, axis)
            scores = numerator / per_unit
            if first or unit_layer not in state.unit_ema:
                state.unit_ema[unit_layer] = scores
            else:
                state.unit_ema[unit_layer] = (
                    gamma * state.unit_ema[unit_layer] + (1.0 - gamma) * scores)
        state.iteration += 1


def _minmax(values: Sequence[float]) -> list[float]:
    lo = min(values)
    hi = max(values)
    if hi > lo:
        return [(v - lo) / (hi - lo) for v in values]
    return [0.0 for _ in values]


def metric_scores(states: Mapping[str, GroupImportanceState],
                  group_ids: Sequence[str], metric: str,
                  weights: Sequence[float] | None = None) -> dict[str, float]:
    """Smoothed score per group for one metric, or the weighted combination.

    The combination min-max normalizes each metric across the given groups
    first; weights must be non-negative and sum to one.
    """
    if not group_ids:
        raise ConfigurationError("need at least one group to score")
    if metric in METRICS:
        return {gid: getattr(states[gid], f"ema_{metric}") for gid in group_ids}
    if metric != COMBINED:
        raise ConfigurationError(
            f"unknown metric {metric!r}; expected one of {METRICS + (COMBINED,)}")
    if weights is None:
        weights = (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)
    weights = [float(w) for w in weights]
    # Written so that a NaN weight fails both checks.
    if len(weights) != len(METRICS) or not all(w >= 0 for w in weights):
        raise ConfigurationError("combined metric needs three non-negative weights")
    if not abs(sum(weights) - 1.0) <= 1e-9:
        raise ConfigurationError(f"metric weights must sum to 1, got {sum(weights)}")
    combined = {gid: 0.0 for gid in group_ids}
    for w, name in zip(weights, METRICS):
        values = [getattr(states[gid], f"ema_{name}") for gid in group_ids]
        for gid, v in zip(group_ids, _minmax(values)):
            combined[gid] += w * v
    return combined


def rank_groups(states: Mapping[str, GroupImportanceState], metric: str,
                weights: Sequence[float] | None = None,
                group_ids: Sequence[str] | None = None) -> list[str]:
    """Group ids ordered by descending smoothed importance; ties break by
    ascending group id."""
    ids = list(group_ids) if group_ids is not None else sorted(states)
    scores = metric_scores(states, ids, metric, weights)
    return sorted(ids, key=lambda gid: (-scores[gid], gid))


# -- serialization ---------------------------------------------------------


def states_to_doc(states: Mapping[str, GroupImportanceState], gamma: float,
                  cfg: BayesConfig) -> dict:
    return {
        "format": STATES_FORMAT,
        "version": STATES_VERSION,
        "gamma": gamma,
        "bayes": {"kappa": cfg.kappa, "eta": cfg.eta,
                  "alpha0": cfg.alpha0, "beta0": cfg.beta0},
        "groups": [
            {
                "id": st.group_id,
                "iteration": st.iteration,
                "raw_grad": st.raw_grad,
                "raw_fisher": st.raw_fisher,
                "raw_bayes": st.raw_bayes,
                "ema_grad": st.ema_grad,
                "ema_fisher": st.ema_fisher,
                "ema_bayes": st.ema_bayes,
                "alpha": st.alpha,
                "beta": st.beta,
                "mu": st.mu,
                "inv_mu": st.inv_mu,
                "unit_ema": {str(layer): scores.tolist()
                             for layer, scores in sorted(st.unit_ema.items())},
            }
            for _, st in sorted(states.items())
        ],
    }


def states_from_doc(doc: dict) -> dict[str, GroupImportanceState]:
    """Rebuild the states of :func:`states_to_doc`. Every metric must be
    finite, alpha and beta positive, and each unit score vector a flat list
    of finite numbers keyed by its layer index."""
    doc = Fields.document(doc, "importance states", STATES_FORMAT, STATES_VERSION)
    groups = doc.arr("groups")
    states = {}
    for k in groups.keys():
        entry = groups.obj(k)
        unit_ema = entry.obj("unit_ema", {})
        scores = {}
        for layer in unit_ema.keys():
            if not layer.isdecimal():
                unit_ema.fail(layer, "is not a layer index")
            vec = unit_ema.arr(layer)
            scores[int(layer)] = np.asarray(
                [vec.float(i, finite=True) for i in vec.keys()], dtype=np.float64)
        st = GroupImportanceState(
            entry.str("id"),
            alpha=entry.float("alpha", finite=True, positive=True),
            beta=entry.float("beta", finite=True, positive=True),
            iteration=entry.int("iteration", low=0), unit_ema=scores,
            **{f"{kind}_{m}": entry.float(f"{kind}_{m}", finite=True)
               for m in METRICS for kind in ("raw", "ema")})
        states[st.group_id] = st
    return states
