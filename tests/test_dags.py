"""Every network the grouping accepts groups and prunes consistently.

The networks are :func:`conftest.random_dag`'s seeded DAGs. The grouping
may refuse one only as too thin: a layer between two boundaries, or a
component that its coupling groups leave only biases.
"""

import re
from collections import Counter, defaultdict

import numpy as np
import pytest

from prunescope.errors import ConfigurationError, InfeasiblePlanError
from prunescope.importance import COMBINED, METRICS, BayesConfig, init_states, update_all
from prunescope.modelgraph import build_groups
from prunescope.netcore import ROLE_BIAS, ROLE_WEIGHT, backward, forward, mse_loss
from prunescope.pruner import allocate_budget, apply_prune, verify_consistency

from conftest import dyadic, masked_clone, random_dag, set_dyadic

SEEDS = range(64)


def grouped(seed):
    """The seed's network, its ``layers_per_group`` and its graph, or None
    for a graph that ``build_groups`` refused as too thin."""
    net, layers_per_group = random_dag(seed)
    try:
        return net, layers_per_group, build_groups(net, layers_per_group)
    except ConfigurationError as exc:
        assert re.search("too thin|owns only boundary-layer biases", str(exc)), exc
        return net, layers_per_group, None


def test_the_accepted_networks_take_every_shape():
    shapes = Counter()
    for seed in SEEDS:
        net, layers_per_group, graph = grouped(seed)
        if graph is None:
            continue
        n = len(net.layers)
        shapes.update([f"layers_per_group {layers_per_group}",
                       f"{len(net.components)} components",
                       *{f"activation {layer.activation}" for layer in net.layers}])
        shapes.update(name for name, present in {
            "chain": net.layer_inputs == tuple(range(-1, n - 1)),
            "shared trunk": any(len(net.consumers(k)) > 1 for k in range(n)),
            "multi-sink": len(net.sinks()) > 1,
            "two producers": any(re.search(r"_l\d+$", gid) for gid in graph.group_ids()),
        }.items() if present)
    assert set(shapes) == {
        "layers_per_group 1", "layers_per_group 2", "layers_per_group 3",
        "2 components", "3 components",
        "activation relu", "activation sigmoid", "activation identity",
        "chain", "shared trunk", "multi-sink", "two producers"}, shapes


@pytest.mark.parametrize("seed", SEEDS)
def test_an_accepted_network_prunes_like_its_masked_copy(seed):
    """Every tensor is owned once. A plan from one observed step, applied,
    equals zeroing its closure: bitwise on dyadic values where the network
    has no sigmoid (every operation is then exact), else within 1e-12. Its
    predicted removal is the recount, and the pruned network verifies."""
    net, _, graph = grouped(seed)
    if graph is None:
        return
    claims = sorted((s.layer, s.role) for g in graph.groups for s in g.member_slices)
    assert claims == sorted((k, role) for k in range(len(net.layers))
                            for role in (ROLE_WEIGHT, ROLE_BIAS))
    assert sum(g.param_count for g in graph.groups) == net.param_count()

    rng = np.random.default_rng([seed, 1])
    exact = all(layer.activation != "sigmoid" for layer in net.layers)
    if exact:
        set_dyadic(net, rng)
    x = dyadic(rng, (8, net.input_dim))
    acts = forward(net, x)
    backward(net, acts, mse_loss(acts[-1], dyadic(rng, acts[-1].shape))[1])
    cfg = BayesConfig()
    states = update_all(init_states(graph, cfg), net, graph, cfg, 0.9)
    sparsity, metric = float(rng.uniform(0.05, 0.4)), str(rng.choice(METRICS + (COMBINED,)))
    while True:  # the caps and a group of weight 0 can leave too few units
        try:
            plan = allocate_budget(states, graph, net, sparsity, metric)
            break
        except InfeasiblePlanError:
            sparsity /= 2

    pruned, _ = apply_prune(net, graph, plan)
    assert net.param_count() - pruned.param_count() == plan.predicted_removed
    assert verify_consistency(pruned).ok
    by_layer = defaultdict(list)
    for units in plan.per_group.values():
        for layer, unit in units:
            by_layer[layer].append(unit)
    got, want = forward(pruned, x)[-1], forward(masked_clone(net, by_layer), x)[-1]
    if exact:
        np.testing.assert_array_equal(got, want)
    else:
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
