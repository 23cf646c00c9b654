"""Every valid network groups, prunes, differentiates and round-trips.

The networks are :func:`conftest.random_dag`'s seeded DAGs, and the grouping
accepts each of them.
"""

import math
import re
from collections import Counter, defaultdict

import numpy as np
import pytest

from prunescope.errors import InfeasiblePlanError
from prunescope.harness.config import ModelConfig, build_model
from prunescope.harness.train import run_training
from prunescope.importance import COMBINED, METRICS, BayesConfig, Reader
from prunescope.modelgraph import KIND_COMPONENT, KIND_COUPLING, build_groups, export_manifest
from prunescope.netcore import (ROLE_BIAS, ROLE_WEIGHT, backward, forward, load_checkpoint,
                                mse_loss, save_checkpoint)
from prunescope.pruner import allocate_budget, apply_prune, verify_consistency

from conftest import (assert_reads_like_the_oracle, dyadic, fd_gradient, masked_clone,
                      random_dag, set_dyadic, toy_config)

SEEDS = range(64)


def grouped(seed):
    """The seed's network, its ``layers_per_group`` and its graph."""
    net, layers_per_group = random_dag(seed)
    return net, layers_per_group, build_groups(net, layers_per_group)


def test_the_accepted_networks_take_every_shape():
    shapes = Counter()
    for seed in SEEDS:
        net, layers_per_group, graph = grouped(seed)
        n = len(net.layers)
        producers = [g.member_slices[0].layer for g in graph.groups if g.kind == KIND_COUPLING]
        shapes.update([f"layers_per_group {layers_per_group}",
                       f"{len(net.components)} components",
                       *{f"activation {layer.activation}" for layer in net.layers}])
        shapes.update(name for name, present in {
            "chain": net.layer_inputs == tuple(range(-1, n - 1)),
            "shared trunk": any(len(net.consumers(k)) > 1 for k in range(n)),
            "multi-sink": len(net.sinks()) > 1,
            "two producers": any(re.search(r"_l\d+$", gid) for gid in graph.group_ids()),
            "a layer between two boundaries": any(
                net.source(p) >= 0 and net.component_of(net.source(p)) != net.component_of(p)
                for p in producers),
            "a component-specific group of biases only": any(
                g.kind == KIND_COMPONENT
                and all(s.role == ROLE_BIAS for s in g.member_slices) for g in graph.groups),
            "a consumed layer ranked by its component's group": any(
                g.kind == KIND_COMPONENT and any(
                    (layer, ROLE_WEIGHT) not in {(s.layer, s.role) for s in g.member_slices}
                    for layer, _, _, _ in g.units) for g in graph.groups),
        }.items() if present)
    assert set(shapes) == {
        "layers_per_group 1", "layers_per_group 2", "layers_per_group 3",
        "2 components", "3 components",
        "activation relu", "activation sigmoid", "activation identity",
        "chain", "shared trunk", "multi-sink", "two producers",
        "a layer between two boundaries", "a component-specific group of biases only",
        "a consumed layer ranked by its component's group"}, shapes


def test_each_non_output_unit_has_one_group():
    """In every seed's network and both presets, at one to three layers per
    group, the groups' prunable units partition the units of the layers that
    are not network outputs, and each unit layer is one whose bias the group
    holds."""
    nets = [random_dag(seed)[0] for seed in SEEDS] + [
        build_model(ModelConfig(preset="autoencoder", latent_dim=8), 0),
        build_model(ModelConfig(preset="toy_multihead"), 0)]
    for net in nets:
        expected = sorted((k, u) for k, layer in enumerate(net.layers)
                          if k not in net.sinks() for u in range(layer.out_dim))
        for layers_per_group in (1, 2, 3):
            graph = build_groups(net, layers_per_group)
            assert sorted(unit for g in graph.groups for unit in g.prunable) == expected
            for g in graph.groups:
                biases = {s.layer for s in g.member_slices if s.role == ROLE_BIAS}
                assert {layer for layer, _, _, _ in g.units} <= biases, g.id


def test_every_accepted_network_reads_like_the_per_slot_oracle():
    for seed in SEEDS:
        net, _, graph = grouped(seed)
        assert_reads_like_the_oracle(net, graph, seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_an_accepted_network_prunes_like_its_masked_copy(seed):
    """Every tensor is owned once. A plan from one observed step, applied,
    equals zeroing its closure: bitwise on dyadic values where the network
    has no sigmoid (every operation is then exact), else within 1e-12. Its
    predicted removal is the recount, and the pruned network verifies."""
    net, _, graph = grouped(seed)
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
    reader = Reader(net, graph, BayesConfig(), 0.9)
    reader.read()
    states = reader.states
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


@pytest.mark.parametrize("seed", SEEDS)
def test_a_network_differentiates_round_trips_and_trains(seed, tmp_path):
    """Every parameter's ``backward`` gradient matches central differences
    within criterion 1's bound. A checkpoint round trip is bitwise and gives
    the same manifest, and one training epoch of the reloaded network ends
    with a finite loss."""
    net, layers_per_group, graph = grouped(seed)
    rng = np.random.default_rng([seed, 2])
    x = rng.uniform(-1.0, 1.0, size=(4, net.input_dim))
    y = rng.uniform(-1.0, 1.0, size=(4, net.output_dim))
    acts = forward(net, x)
    backward(net, acts, mse_loss(acts[-1], y)[1])
    for index, analytic in enumerate(net.flat_grad.tolist()):
        fd = fd_gradient(net, x, y, index)
        assert abs(fd - analytic) < 1e-4 * max(abs(analytic), 1e-6), (index, fd, analytic)

    path = tmp_path / "checkpoint.json"
    save_checkpoint(net, path)
    loaded, _ = load_checkpoint(path)
    assert loaded.flat_values.tobytes() == net.flat_values.tobytes()
    assert ([layer.activation for layer in loaded.layers], loaded.layer_inputs,
            dict(loaded.components)) == ([layer.activation for layer in net.layers],
                                         net.layer_inputs, dict(net.components))
    reloaded_graph = build_groups(loaded, layers_per_group)
    assert export_manifest(loaded, reloaded_graph) == export_manifest(net, graph)

    result = run_training(toy_config(epochs=1, batch_size=2), net=loaded,
                          graph=reloaded_graph, data=(x, y, x, y))
    assert math.isfinite(result.final_task_loss) and math.isfinite(result.test_mse)
