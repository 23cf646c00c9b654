"""Online gradient-based group importance.

Three per-group metrics are maintained from task-loss gradients only:

* gradient magnitude: mean absolute gradient over the group,
* Fisher: mean squared gradient (a diagonal, batch-level approximation),
* empirical Bayes: ``log(1 + mu) * (1 + fisher)`` where ``mu = alpha/beta``
  is the posterior mean rate of a Gamma prior over an exponential
  gradient-energy model, updated as ``alpha += kappa`` and
  ``beta += kappa * E / eta`` per observation. :meth:`Reader.read` is the
  library's one implementation of that conjugate update.

The reads write nothing into the network. The step's L1 subgradient exists
only inside the optimizer step (``Adam.step(net, penalty)``), which leaves
``flat_grad`` holding the task gradients, so the term never reaches
importance, and a step's gradients can be read while the next step's
forward pass runs (:meth:`Reader.beside`). A :class:`Reader` owns the
states it reads into: it checks its inputs, makes the states, allocates its
arenas and binds its views once, so each read runs only its ufuncs: g^2 and
|g| once over the whole arena, side by side in a ``(2, n)`` scratch, one
reduction per slot for both sums into one sums array read back at once,
and the unit scores over one arena of every group's units. A read that
meets a non-finite metric changes nothing.

Note the direction of ``mu``: a persistently large energy E grows beta
faster than alpha, so mu *decreases* for historically active groups and its
reciprocal is the activity-aligned reading. The recurrence is kept exactly
as stated; reports surface ``1/mu`` alongside.

Each metric is smoothed with an exponential moving average,
``s(t) = gamma * s(t-1) + (1 - gamma) * raw(t)``, initialized to the first
raw value: the same update at gamma 0, which every group takes on the
first read and none after. Per-unit mean-absolute-gradient scores are
tracked the same way for within-group unit ranking.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .artifacts import Fields
from .errors import ConfigurationError, NumericsError
from .modelgraph import ComponentGraph
from .netcore import Network, second_lane

METRICS = ("grad", "fisher", "bayes")
# The state fields of each metric's raw and smoothed values, as states.json
# and the trace rows write them.
METRIC_FIELDS = tuple(f"{kind}_{m}" for kind in ("raw", "ema") for m in METRICS)
COMBINED = "combined"

STATES_FORMAT = "prunescope.states"
STATES_VERSION = 2


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


def bayes_importance(mu: float, fisher: float) -> float:
    """Combine posterior mean and Fisher: log(1 + mu) * (1 + fisher)."""
    if mu < 0 or fisher < 0:
        raise ConfigurationError("mu and fisher must be non-negative")
    return math.log1p(mu) * (1.0 + fisher)


def check_gamma(gamma: float) -> None:
    """Refuse an EMA gamma outside [0, 1), NaN included."""
    if not 0.0 <= gamma < 1.0:
        raise ConfigurationError(f"gamma must lie in [0, 1), got {gamma}")


def ema_update(previous: float | np.ndarray, current: float | np.ndarray,
               gamma: float) -> float | np.ndarray:
    """Exponential moving average step, of floats or elementwise of arrays;
    gamma in [0, 1)."""
    check_gamma(gamma)
    return gamma * previous + (1.0 - gamma) * current


class Reader:
    """Reads the gradients in ``net.flat_grad`` into the importance states it
    owns, :attr:`states` (fresh from :func:`init_states`), one observation
    per :meth:`read` or :meth:`beside` stage.

    Construction checks ``gamma`` and the network's layout against the
    graph. It allocates a ``(2, n)`` scratch over the arena's n elements and
    one unit arena, every group's unit layers side by side, binds each
    state's unit score vectors to their slices of it, and binds every view a
    read runs its ufuncs on, so a stage pays only for its arithmetic. A
    stage is one :func:`second_lane` call. It squares the gradients into row
    0 of the scratch and takes their magnitudes into row 1, each once over
    the whole arena, and reduces each slot's two rows in one call into its
    column of one ``(2, slots)`` sums array, which one ``tolist()`` reads
    back, then each unit layer's numerators from row 1, divided by each
    unit's weight count. A group's slot sums are added in slice order into
    the Fisher diagonal (1/N) sum g^2 and the gradient magnitude (1/N) sum
    |g|, also the energy E of the library's one conjugate update, ``alpha +
    kappa`` and ``beta + kappa * E / eta``. A read is all or nothing: if any
    group's gradient magnitude, Fisher value, Bayes score or posterior beta
    is not finite, the first such group's :class:`NumericsError` is raised
    and no state or unit score changes; otherwise every group advances. So
    all groups share one gamma per read: 0 on the first, as a first
    observation replaces its zeros, and ``gamma`` after, at which the unit
    arena is smoothed in one pass. Where the slots lie and which of them
    feed each unit score was fixed by :func:`build_groups`; the sums array
    follows the graph's slot table. The stages of one reader share its
    arenas, so they run one at a time.
    """

    def __init__(self, net: Network, graph: ComponentGraph, cfg: BayesConfig,
                 gamma: float) -> None:
        check_gamma(gamma)
        graph.check_layout(net)
        self.states = init_states(graph, cfg)
        self._grad, self._cfg, self._gamma = net.flat_grad, cfg, gamma
        self._g = 0.0  # the next read's gamma
        self._scratch = np.empty((2, net.flat_grad.size))  # g^2 in row 0, |g| in row 1
        magnitudes = self._scratch[1]
        # Both sums of every slot of the graph's slot table: one column per slot.
        self._sums = np.empty((2, len(graph.slots)))
        self._slot_sums = [(self._scratch[:, a:b], self._sums[:, j])
                           for j, (a, b) in enumerate(graph.slots)]
        # The unit arena's numerators and scores, per-unit divisors and
        # smoothed scores, which the states hold.
        units = [(width, per_unit) for group in graph.groups
                 for _, width, _, per_unit in group.units]
        size = sum(width for width, _ in units)
        self._scores, self._ema = np.zeros(size), np.zeros(size)
        self._per_unit = np.repeat([float(p) for _, p in units],
                                   [width for width, _ in units])
        # Each unit layer's parts: tensor views of row 1, the axis to reduce
        # and the layer's slice of the unit arena, the first apart.
        self._first_parts: list[tuple] = []
        self._other_parts: list[tuple] = []
        self._groups = []
        lo = 0
        for group, slots in zip(graph.groups, graph.slot_ranges):
            state = self.states[group.id]
            for layer, width, parts, _ in group.units:
                out = self._scores[lo:lo + width]
                for j, (i, axis) in enumerate(parts):
                    slot_lo, slot_hi, shape = group.slots[i]
                    tensor = magnitudes[slot_lo:slot_hi].reshape(shape)
                    if j:
                        self._other_parts.append((tensor, axis, out))
                    else:  # a reduction over no axis, (), copies a bias
                        self._first_parts.append((tensor, () if axis is None else axis, out))
                state.unit_ema[layer] = self._ema[lo:lo + width]
                lo += width
            self._groups.append((group, state, slots))

    def beside(self) -> contextlib.AbstractContextManager[Callable[..., None]]:
        """A :func:`second_lane` stage that reads the gradients while the
        ``with`` block runs; the block gets the stage's ``submit``.

        The read reads ``flat_grad`` and writes only the states and the
        reader's arenas, so the block may run, and submit, anything that
        neither writes ``flat_grad`` nor reads the states: ``run_training``
        runs the next step's forward pass and loss there. Without the lane,
        the read runs here, before the block.
        """
        stage = second_lane(self._grad.size)
        stage.submit(self.read)
        return stage

    def read(self) -> None:
        """One observation now, on this thread."""
        squares, magnitudes = self._scratch
        np.square(self._grad, out=squares)
        np.abs(self._grad, out=magnitudes)
        for view, out in self._slot_sums:
            np.add.reduce(view, 1, out=out)
        square_sums, magnitude_sums = self._sums.tolist()
        scores, ema, cfg = self._scores, self._ema, self._cfg
        for a, axis, out in self._first_parts:
            np.add.reduce(a, axis, out=out)
        for a, axis, out in self._other_parts:
            out += a if axis is None else np.add.reduce(a, axis)
        np.divide(scores, self._per_unit, out=scores)
        observed = []
        for group, state, slots in self._groups:
            # Each group's slot sums added in slice order: the bits of a sum
            # of per-tensor sums, which a sum over merged runs would group
            # differently.
            raw_fisher = sum(square_sums[slots]) / group.param_count
            raw_grad = sum(magnitude_sums[slots]) / group.param_count
            alpha, beta = state.alpha + cfg.kappa, state.beta + cfg.kappa * raw_grad / cfg.eta
            raw_bayes = bayes_importance(alpha / beta, raw_fisher)
            if not (math.isfinite(raw_grad) and math.isfinite(raw_fisher)
                    and math.isfinite(raw_bayes) and math.isfinite(beta)):
                raise NumericsError(
                    f"group {group.id!r}: importance is not finite, grad {raw_grad}, "
                    f"fisher {raw_fisher}, bayes {raw_bayes}, beta {beta}")
            observed.append((state, alpha, beta, raw_grad, raw_fisher, raw_bayes))
        # A first observation is the EMA at gamma 0: 0 * previous + 1 * raw is
        # raw bit for bit, since raw >= +0 and previous is finite.
        g = self._g
        for state, alpha, beta, raw_grad, raw_fisher, raw_bayes in observed:
            state.alpha, state.beta = alpha, beta
            state.raw_grad, state.raw_fisher, state.raw_bayes = raw_grad, raw_fisher, raw_bayes
            state.ema_grad = ema_update(state.ema_grad, raw_grad, g)
            state.ema_fisher = ema_update(state.ema_fisher, raw_fisher, g)
            state.ema_bayes = ema_update(state.ema_bayes, raw_bayes, g)
            state.iteration += 1
        # ema_update's gamma * previous + (1 - gamma) * raw over the unit
        # arena, in place.
        ema *= g
        scores *= 1.0 - g
        ema += scores
        self._g = self._gamma


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
                **{name: getattr(st, name) for name in METRIC_FIELDS},
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
    """Rebuild the states of :func:`states_to_doc`. ``gamma`` must lie in
    [0, 1) and each ``bayes`` constant be positive and finite, as
    :class:`BayesConfig` requires; every metric must be finite, alpha and
    beta positive, and each unit score vector a flat list of finite numbers
    keyed by its layer index, written as :func:`states_to_doc` writes it."""
    doc = Fields.document(doc, "importance states", STATES_FORMAT, STATES_VERSION)
    gamma = doc.float("gamma")
    if not 0.0 <= gamma < 1.0:  # named by its field path, not by check_gamma
        doc.fail("gamma", f"must lie in [0, 1), got {gamma}")
    bayes = doc.obj("bayes")
    for name in ("kappa", "eta", "alpha0", "beta0"):
        bayes.float(name, finite=True, positive=True)
    groups = doc.arr("groups")
    states = {}
    for k in groups.keys():
        entry = groups.obj(k)
        unit_ema = entry.obj("unit_ema", {})
        scores = {}
        for layer in unit_ema.keys():
            # Only the digits states_to_doc writes: "01" or "١" would alias
            # layer 1, and int() refuses a key of thousands of digits.
            digits = layer.isascii() and layer.isdecimal() and len(layer) < 19
            if not digits or layer != str(int(layer)):
                unit_ema.fail(layer, "is not a layer index")
            vec = unit_ema.arr(layer)
            scores[int(layer)] = np.asarray(
                [vec.float(i, finite=True) for i in vec.keys()], dtype=np.float64)
        st = GroupImportanceState(
            entry.str("id"),
            alpha=entry.float("alpha", finite=True, positive=True),
            beta=entry.float("beta", finite=True, positive=True),
            iteration=entry.int("iteration", low=0), unit_ema=scores,
            **{name: entry.float(name, finite=True) for name in METRIC_FIELDS})
        if st.group_id in states:
            entry.fail("id", f"repeats group {st.group_id!r}")
        states[st.group_id] = st
    return states
