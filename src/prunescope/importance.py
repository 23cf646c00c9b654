"""Online gradient-based group importance.

Three per-group metrics are maintained from task-loss gradients only
(:func:`update_all` adds the step's L1 subgradient to a group's gradient
only after its last read of it, so the term never leaks into importance):

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
from .errors import ConfigurationError, NumericsError
from .modelgraph import ComponentGraph, PruningGroup, slot_sum
from .netcore import ADAM_BLOCK, Network, second_lane

METRICS = ("grad", "fisher", "bayes")
COMBINED = "combined"

STATES_FORMAT = "prunescope.states"
STATES_VERSION = 1


@dataclass(frozen=True)
class BayesConfig:
    """Gamma/exponential tracker constants; all must be positive and finite."""

    kappa: float = 0.25
    eta: float = 1.0
    alpha0: float = 1.0
    beta0: float = 1.0

    def __post_init__(self) -> None:
        for name in ("kappa", "eta", "alpha0", "beta0"):  # written so that NaN fails
            if not 0 < getattr(self, name) < math.inf:
                raise ConfigurationError(f"BayesConfig.{name} must be positive and finite")


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


def ema_update(previous: float | np.ndarray, current: float | np.ndarray,
               gamma: float) -> float | np.ndarray:
    """Exponential moving average step, of floats or elementwise of arrays;
    gamma in [0, 1)."""
    if not 0.0 <= gamma < 1.0:
        raise ConfigurationError(f"gamma must lie in [0, 1), got {gamma}")
    return gamma * previous + (1.0 - gamma) * current


def update_all(states: dict[str, GroupImportanceState], net: Network,
               graph: ComponentGraph, cfg: BayesConfig, gamma: float,
               l1: Sequence[float] | None = None) -> dict[str, GroupImportanceState]:
    """Advance every group's metrics by one observation of the current task
    gradients, then add the step's L1 subgradient to those gradients. Call
    after ``backward`` and before the optimizer step. Mutates and returns
    ``states``; deterministic for identical inputs.

    ``l1`` holds one coefficient per group in ``graph.groups`` order (the
    schedule's value times the loss weight). Each of the graph's parts takes
    the squared and then the absolute gradients over its arena runs, into one
    buffer: the last reads of the gradients. Each group's metric is reduced
    from the buffer over its tensors' slots in slice order by
    :func:`slot_sum`: the gradient magnitude (1/N) sum |g|, also the energy
    the Bayes tracker observes, and the Fisher diagonal (1/N) sum g^2; one that
    is not finite raises :class:`NumericsError`. Only then does the group add
    ``coeff * sign(theta)`` over its runs, one ``ADAM_BLOCK`` at a time through
    its own slots of the buffer, unless its coefficient is zero (which would
    turn a ``-0.0`` gradient into ``+0.0``). The second part, if any, runs on
    the second lane. Where the slots lie and which of them feed each unit score
    was fixed by :func:`build_groups`, so a step does only the arithmetic, and
    a group's arithmetic does not depend on the part it is in.
    """
    if not 0.0 <= gamma < 1.0:
        raise ConfigurationError(f"gamma must lie in [0, 1), got {gamma}")
    graph.check_layout(net)
    for group in graph.groups:
        if group.id not in states:
            raise ConfigurationError(f"no importance state for group {group.id!r}")
    if l1 is not None and len(l1) != len(graph.groups):
        raise ConfigurationError(f"need one L1 coefficient per group, got {len(l1)}")
    coeffs = {} if l1 is None else dict(zip(graph.group_ids(), l1))
    scratch = np.empty(net.flat_grad.size)
    args = (states, net.flat_grad, net.flat_values, coeffs, scratch, cfg, gamma)
    with second_lane(scratch.size) as lane:
        for part in graph.parts[1:]:
            lane.submit(_update_part, *part, *args)
        _update_part(*graph.parts[0], *args)
    return states


def _update_part(groups: tuple[PruningGroup, ...], runs: tuple[tuple[int, int], ...],
                 states: dict[str, GroupImportanceState], grad: np.ndarray,
                 values: np.ndarray, coeffs: Mapping[str, float],
                 scratch: np.ndarray, cfg: BayesConfig, gamma: float) -> None:
    for lo, hi in runs:
        np.multiply(grad[lo:hi], grad[lo:hi], out=scratch[lo:hi])
    fishers = [slot_sum(scratch, group.slots) / group.param_count for group in groups]
    for lo, hi in runs:
        np.abs(grad[lo:hi], out=scratch[lo:hi])
    for group, raw_fisher in zip(groups, fishers):
        state = states[group.id]
        raw_grad = slot_sum(scratch, group.slots) / group.param_count
        if math.isfinite(raw_grad):  # else bayes_update would refuse it
            bayes_update(state, raw_grad, cfg)
        raw_bayes = bayes_importance(state.mu, raw_fisher)
        if not (math.isfinite(raw_grad) and math.isfinite(raw_fisher)
                and math.isfinite(raw_bayes)):
            raise NumericsError(f"group {group.id!r}: importance is not finite, grad "
                                f"{raw_grad}, fisher {raw_fisher}, bayes {raw_bayes}")

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
                lo, hi, shape = group.slots[i]
                a = scratch[lo:hi].reshape(shape)
                numerator += a if axis is None else np.add.reduce(a, axis)
            scores = numerator / per_unit
            previous = state.unit_ema.get(unit_layer)
            state.unit_ema[unit_layer] = (scores if first or previous is None
                                          else ema_update(previous, scores, gamma))
        state.iteration += 1
        if coeffs.get(group.id, 0.0) != 0.0:  # the metrics have read its scratch
            for lo, hi in group.runs:
                for start in range(lo, hi, ADAM_BLOCK):
                    end = min(start + ADAM_BLOCK, hi)
                    step = np.sign(values[start:end], out=scratch[start:end])
                    g = grad[start:end]
                    g += np.multiply(step, coeffs[group.id], out=step)


def check_metric_weights(weights: Sequence[float]) -> tuple[float, ...]:
    """The combined metric's weights, one per metric in ``METRICS`` order,
    as floats; refused unless there are three, none negative, summing to 1."""
    weights = tuple(float(w) for w in weights)
    # Written so that a NaN weight fails.
    if (len(weights) != len(METRICS) or not all(w >= 0 for w in weights)
            or not abs(sum(weights) - 1.0) <= 1e-9):
        raise ConfigurationError(
            "metric weights must be three non-negative numbers that sum to 1, "
            f"got {list(weights)}")
    return weights


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
    weights = check_metric_weights((1 / 3, 1 / 3, 1 / 3) if weights is None else weights)
    combined = {gid: 0.0 for gid in group_ids}
    for w, name in zip(weights, METRICS):
        values = [getattr(states[gid], f"ema_{name}") for gid in group_ids]
        for gid, v in zip(group_ids, _minmax(values)):
            combined[gid] += w * v
    return combined


def rank_groups(states: Mapping[str, GroupImportanceState], metric: str,
                weights: Sequence[float] | None = None) -> list[str]:
    """Group ids ordered by descending smoothed importance; ties break by
    ascending group id."""
    ids = sorted(states)
    return ranked(metric_scores(states, ids, metric, weights), ids)


def ranked(scores: Mapping[str, float], ids: Iterable[str]) -> list[str]:
    """Group ids by descending score; ties break by ascending id."""
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
        if st.group_id in states:
            entry.fail("id", f"repeats group {st.group_id!r}")
        states[st.group_id] = st
    return states
