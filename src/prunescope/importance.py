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
from typing import Iterable, Mapping, Sequence

import numpy as np

from .artifacts import Fields
from .errors import ConfigurationError
from .modelgraph import (AXIS_IN, AXIS_OUT, ComponentGraph, PruningGroup,
                         group_tensors)
from .netcore import Network, ROLE_WEIGHT

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


def _flatten(grads: Sequence[np.ndarray] | np.ndarray) -> list[np.ndarray]:
    if isinstance(grads, np.ndarray):
        grads = [grads]
    arrays = [np.asarray(g, dtype=np.float64) for g in grads]
    if not arrays or sum(a.size for a in arrays) == 0:
        raise ConfigurationError("importance metrics need at least one parameter")
    return arrays


def _group_mean(parts: Sequence[np.ndarray]) -> float:
    """(1/N) times the sum of per-tensor sums, N counting every element.

    Each tensor is summed on its own, in order, so the result is the same
    whether the parts are separate arrays or slots of one arena buffer.
    """
    return sum(float(p.sum()) for p in parts) / sum(p.size for p in parts)


def grad_magnitude(grads: Sequence[np.ndarray] | np.ndarray) -> float:
    """Mean absolute gradient over the group: (1/N) sum |g|. It is also
    the gradient energy the Bayes tracker observes."""
    return _group_mean([np.abs(a) for a in _flatten(grads)])


def fisher_diag(grads: Sequence[np.ndarray] | np.ndarray) -> float:
    """Mean squared gradient over the group: (1/N) sum g^2."""
    return _group_mean([a * a for a in _flatten(grads)])


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


def _unit_scores(net: Network, group: PruningGroup, unit_layer: int,
                 abs_grads: Mapping[tuple[int, str], np.ndarray]) -> np.ndarray:
    """Per-unit mean |grad| over the group-owned slices indexed by this layer's
    output units."""
    out_dim = net.layers[unit_layer].out_dim
    numerator = np.zeros(out_dim)
    weight_count = 0
    for s in group.member_slices:
        if s.unit_layer != unit_layer:
            continue
        a = abs_grads[(s.layer, s.role)]
        if s.role == ROLE_WEIGHT:
            if s.unit_axis == AXIS_OUT:
                numerator += a.sum(axis=1)
                weight_count += a.shape[1]
            elif s.unit_axis == AXIS_IN:
                numerator += a.sum(axis=0)
                weight_count += a.shape[0]
        else:
            numerator += a
            weight_count += 1
    if weight_count == 0:
        raise ConfigurationError(
            f"group {group.id!r} has no slices indexed by layer {unit_layer}")
    return numerator / weight_count


def update_all(states: dict[str, GroupImportanceState], net: Network,
               graph: ComponentGraph, cfg: BayesConfig,
               gamma: float) -> dict[str, GroupImportanceState]:
    """Advance every group's metrics by one observation of the current task
    gradients. Call after ``backward`` and before the sparsity subgradient
    is added. Mutates and returns ``states``; deterministic for identical
    inputs.

    The squared and the absolute gradients are each taken in one call over
    the network's gradient arena, into one reused buffer; each group's
    metric is then reduced over its tensors' slots in slice order, by the
    same reduction that :func:`fisher_diag` and :func:`grad_magnitude` use.
    """
    if not 0.0 <= gamma < 1.0:
        raise ConfigurationError(f"gamma must lie in [0, 1), got {gamma}")
    for group in graph.groups:
        if group.id not in states:
            raise ConfigurationError(f"no importance state for group {group.id!r}")
    members = [group_tensors(net, group) for group in graph.groups]
    scratch = np.multiply(net.flat_grad, net.flat_grad)
    fishers = [_group_mean([t.slot(scratch) for t in tensors]) for tensors in members]
    np.abs(net.flat_grad, out=scratch)
    for group, tensors, raw_fisher in zip(graph.groups, members, fishers):
        state = states[group.id]
        abs_grads = {(s.layer, s.role): t.slot(scratch)
                     for s, t in zip(group.member_slices, tensors)}
        raw_grad = _group_mean(list(abs_grads.values()))
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

        for unit_layer in group.unit_layers():
            scores = _unit_scores(net, group, unit_layer, abs_grads)
            if first or unit_layer not in state.unit_ema:
                state.unit_ema[unit_layer] = scores
            else:
                state.unit_ema[unit_layer] = (
                    gamma * state.unit_ema[unit_layer] + (1.0 - gamma) * scores)
        state.iteration += 1
    return states


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
    if len(weights) != len(METRICS) or any(w < 0 for w in weights):
        raise ConfigurationError("combined metric needs three non-negative weights")
    if abs(sum(weights) - 1.0) > 1e-9:
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
