"""Budget allocation against a reference: the greedy loop that picks, one unit
at a time, the group furthest behind its share."""

import math

import numpy as np
import pytest

from prunescope.errors import InfeasiblePlanError
from prunescope.harness.config import ModelConfig, build_model
from prunescope.importance import COMBINED, METRICS, BayesConfig, init_states
from prunescope.modelgraph import build_groups
from prunescope.pruner import (UNIT_CAP_FRACTION, PrunePlan, _RemovalLedger,
                               allocate_budget, importance_weights)

from conftest import (make_toy_multihead, make_two_component_chain,
                      predicted_removed_params)

SPARSITIES = (0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.85, 0.9, 0.95, 0.99)


def reference_allocate_budget(states, graph, net, target_sparsity, metric,
                              protect=(), weights=None):
    """Each step rescans every group for the least progress len(taken) /
    share, ties to the lowest id, and recounts the plan from scratch."""
    protect = set(protect)
    candidates, units_of = [], {}
    for group in graph.groups:
        if group.id in protect:
            continue
        units = group.prunable
        if units:
            candidates.append(group)
            units_of[group.id] = units
    if not candidates:
        raise InfeasiblePlanError("no unprotected group has prunable units")
    cand_ids = [g.id for g in candidates]
    alloc_weights = importance_weights(states, cand_ids, metric, weights)

    # Units rank by ascending score, ties by (layer, unit). Each layer keeps
    # its best unit: the highest score, ties to the highest index.
    ordered, caps = {}, {}
    for group in candidates:
        scored = sorted((float(states[group.id].unit_ema[layer][unit]), layer, unit)
                        for layer, unit in units_of[group.id])
        best = {}
        for score, layer, unit in scored:
            if layer not in best or (score, unit) >= best[layer]:
                best[layer] = (score, unit)
        ranking = [(layer, unit) for score, layer, unit in scored
                   if best[layer] != (score, unit)]
        cap = math.floor(UNIT_CAP_FRACTION * len(scored))
        ordered[group.id] = ranking[:cap]
        caps[group.id] = len(ordered[group.id])

    target = round(target_sparsity * net.param_count())
    unit_layers = {layer for gid in cand_ids for layer, _ in units_of[gid]}
    granularity = max(_RemovalLedger(net).add_unit(layer, 0) for layer in unit_layers)

    ledger = _RemovalLedger(net)
    taken = {gid: [] for gid in cand_ids}
    full_units = {gid: len(units_of[gid]) for gid in cand_ids}
    last = None
    while ledger.removed < target:
        best = None
        for gid in cand_ids:
            share = alloc_weights[gid] * full_units[gid]
            if share <= 0 or len(taken[gid]) >= caps[gid]:
                continue
            progress = len(taken[gid]) / share
            if best is None or (progress, gid) < best[:2]:
                best = (progress, gid)
        if best is None:
            if target - ledger.removed > granularity:
                raise InfeasiblePlanError(
                    f"cannot reach {target} removed parameters: caps and "
                    f"protections allow only {ledger.removed}")
            break
        gid = best[1]
        unit = ordered[gid][len(taken[gid])]
        delta = ledger.add_unit(*unit)
        taken[gid].append(unit)
        last = (gid, unit, delta)

    removed = ledger.removed
    if last is not None and removed > target:
        without = removed - last[2]
        if abs(without - target) < abs(removed - target):
            taken[last[0]].pop()

    per_group = {gid: units for gid, units in taken.items() if units}
    predicted = predicted_removed_params(net, [u for units in per_group.values()
                                               for u in units])
    return PrunePlan(target_sparsity, metric, per_group, predicted)


def seeded_states(graph, net, rng, tied):
    """Group metrics and unit scores drawn from ``rng``; ``tied`` draws them
    from a few levels so that groups and units share scores."""
    states = init_states(graph, BayesConfig())
    for group in graph.groups:
        st = states[group.id]
        if tied:
            st.ema_grad, st.ema_fisher, st.ema_bayes = (0.5, 0.5, 0.5) if rng.random() < 0.5 \
                else rng.integers(0, 3, size=3).astype(float)
        else:
            st.ema_grad, st.ema_fisher, st.ema_bayes = rng.uniform(size=3)
        st.iteration = 1
        for layer, width, _, _ in group.units:
            st.unit_ema[layer] = (rng.integers(0, 3, size=width).astype(float) if tied
                                  else rng.uniform(size=width))
    return states


def outcome(allocate, *args, **kwargs):
    try:
        plan = allocate(*args, **kwargs)
    except InfeasiblePlanError as exc:
        return "infeasible", str(exc)
    return (list(plan.per_group.items()), plan.predicted_removed,
            plan.target_sparsity, plan.ranking_used)


NETS = {
    "toy_multihead": lambda: make_toy_multihead(seed=3),
    "chain_4": lambda: make_two_component_chain(seed=4),
    "chain_6": lambda: make_two_component_chain(seed=5, widths=(12, 10, 9, 7, 6, 4, 3)),
    "autoencoder_8": lambda: build_model(ModelConfig(preset="autoencoder", latent_dim=8), 6),
}


@pytest.mark.parametrize("layers_per_group", [1, 2])
@pytest.mark.parametrize("name", list(NETS))
def test_allocation_equals_the_reference(name, layers_per_group):
    net = NETS[name]()
    graph = build_groups(net, layers_per_group)
    rng = np.random.default_rng([list(NETS).index(name), layers_per_group])
    infeasible = runs = 0
    for tied in (False, True):
        for protect in ([], [str(rng.choice(graph.group_ids()))]):
            states = seeded_states(graph, net, rng, tied)
            for metric in METRICS + (COMBINED,):
                weights = tuple(rng.dirichlet([1.0, 1.0, 1.0])) if metric == COMBINED \
                    and rng.random() < 0.5 else None
                for sparsity in SPARSITIES:
                    args = (states, graph, net, sparsity, metric)
                    kwargs = dict(protect=protect, weights=weights)
                    got = outcome(allocate_budget, *args, **kwargs)
                    assert got == outcome(reference_allocate_budget, *args, **kwargs), \
                        (tied, protect, metric, sparsity)
                    infeasible += got[0] == "infeasible"
                    runs += 1
    assert 0 < infeasible < runs  # both outcomes are compared
