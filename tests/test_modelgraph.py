"""Group decomposition: ownership partition, coupling groups, closures."""

import numpy as np
import pytest

from prunescope.errors import ConfigurationError
from prunescope.importance import BayesConfig, init_states
from prunescope.modelgraph import (KIND_COMPONENT, KIND_COUPLING,
                                   build_groups, export_manifest)
from prunescope.netcore import (ADAM_BLOCK, ROLE_BIAS, ROLE_WEIGHT, Network, build_sequential,
                                seeded_layer)
from prunescope.pruner import PrunePlan, allocate_budget, apply_prune, verify_consistency

from conftest import (group_l1_norm, group_tensors, make_net, make_toy_multihead,
                      make_two_component_chain, predicted_removed_params)


def autoencoder(latent=8, seed=0):
    widths = [784, 256, 128, latent, 128, 256, 784]
    acts = ["relu", "relu", "identity", "relu", "relu", "sigmoid"]
    return build_sequential(widths, acts, {"encoder": (0, 3), "decoder": (3, 6)},
                            np.random.default_rng([seed, 0]))


# -- the two reference decompositions --------------------------------------


def test_autoencoder_decomposes_into_five_groups():
    net = autoencoder(latent=8)
    graph = build_groups(net, layers_per_group=1)
    table = {g.id: (g.kind, g.param_count) for g in graph.groups}
    assert table == {
        "encoder_1": (KIND_COMPONENT, 784 * 256 + 256),
        "encoder_2": (KIND_COMPONENT, 256 * 128 + 128),
        "coupling_encoder_decoder": (KIND_COUPLING, 8 * 128 + 8 + 128 * 8),
        "decoder_1": (KIND_COMPONENT, 128 + 128 * 128 * 2 + 256),
        "decoder_2": (KIND_COMPONENT, 784 * 256 + 784),
    }
    assert sum(c for _, c in table.values()) == net.param_count() == 470552
    assert [g.id for g in graph.groups] == [
        "encoder_1", "encoder_2", "coupling_encoder_decoder",
        "decoder_1", "decoder_2"]


def test_autoencoder_coupling_group_members():
    """The interface group holds the latent producer's weight and bias plus
    the first decoder layer's weight, indexed by the latent units."""
    net = autoencoder(latent=8)
    graph = build_groups(net, 1)
    coupling = graph.get("coupling_encoder_decoder")
    members = {(s.layer, s.role): s for s in coupling.member_slices}
    assert set(members) == {(2, ROLE_WEIGHT), (2, ROLE_BIAS), (3, ROLE_WEIGHT)}
    assert members[(2, ROLE_WEIGHT)].unit_axis == "out"
    assert members[(3, ROLE_WEIGHT)].unit_axis == "in"
    assert all(s.unit_layer == 2 for s in coupling.member_slices)
    assert [layer for layer, _, _, _ in coupling.units] == [2]
    assert coupling.owning_components == ("encoder", "decoder")


def test_autoencoder_residue_bias_lands_in_first_decoder_group():
    net = autoencoder(latent=8)
    graph = build_groups(net, 1)
    decoder_1 = graph.get("decoder_1")
    slices = [(s.layer, s.role) for s in decoder_1.member_slices]
    assert (3, ROLE_BIAS) in slices
    assert (4, ROLE_WEIGHT) in slices and (4, ROLE_BIAS) in slices
    assert (3, ROLE_WEIGHT) not in slices


@pytest.mark.parametrize("latent", [8, 64, 256, 512])
def test_autoencoder_totals_for_every_latent_width(latent):
    net = autoencoder(latent=latent)
    graph = build_groups(net, 1)
    assert len(graph.groups) == 5
    assert sum(g.param_count for g in graph.groups) == net.param_count()
    coupling = graph.get("coupling_encoder_decoder")
    assert coupling.param_count == latent * 128 + latent + 128 * latent


def test_toy_multihead_coupling_spans_both_heads():
    net = make_toy_multihead()
    graph = build_groups(net, 1)
    assert [g.id for g in graph.groups] == [
        "encoder_1", "coupling_encoder_head_a_head_b", "head_a_1", "head_b_1"]
    coupling = graph.get("coupling_encoder_head_a_head_b")
    assert coupling.kind == KIND_COUPLING
    assert coupling.owning_components == ("encoder", "head_a", "head_b")
    assert coupling.param_count == 8 * 32 + 8 + 16 * 8 + 16 * 8 == 520
    assert {s.layer for s in coupling.member_slices} == {1, 2, 4}
    assert graph.get("head_a_1").param_count == 16 + (1 * 16 + 1) == 33
    assert sum(g.param_count for g in graph.groups) == net.param_count() == 1130


def test_toy_multihead_head_groups_carry_their_interface_bias():
    graph = build_groups(make_toy_multihead(), 1)
    head_b = graph.get("head_b_1")
    assert (4, ROLE_BIAS) in [(s.layer, s.role) for s in head_b.member_slices]
    assert head_b.kind == KIND_COMPONENT


# -- partition invariants ---------------------------------------------------


def claimed_tensors(graph):
    seen = []
    for g in graph.groups:
        seen.extend((s.layer, s.role) for s in g.member_slices)
    return seen


@pytest.mark.parametrize("seed", range(8))
def test_every_tensor_is_owned_exactly_once(seed):
    rng = np.random.default_rng(seed)
    n_layers = int(rng.integers(3, 7))
    widths = [int(w) for w in rng.integers(2, 9, size=n_layers + 1)]
    # The consumer component needs a layer beyond the boundary it shares.
    cut = int(rng.integers(1, n_layers - 1))
    net = build_sequential(widths, ["relu"] * (n_layers - 1) + ["identity"],
                           {"front": (0, cut), "back": (cut, n_layers)},
                           rng)
    # Multi-head DAGs too, where each head's interface bias is a residue.
    for net in (net, make_toy_multihead(seed=seed), shared_trunk(rng)):
        graph = build_groups(net, layers_per_group=int(rng.integers(1, 3)))
        claims = claimed_tensors(graph)
        assert sorted(claims) == sorted(
            (k, role) for k in range(len(net.layers)) for role in (ROLE_WEIGHT, ROLE_BIAS))
        assert sum(g.param_count for g in graph.groups) == net.param_count()


def shared_trunk(rng):
    """A seeded trunk of 1-3 layers whose last layer feeds 2-3 heads of 2-3
    layers each; every head reads the trunk's output."""
    n_trunk = int(rng.integers(1, 4))
    heads = [int(rng.integers(2, 4)) for _ in range(int(rng.integers(2, 4)))]
    widths = [int(w) for w in rng.integers(2, 9, size=n_trunk + 1)]
    layers = [seeded_layer(k, widths[k], widths[k + 1], "relu", rng) for k in range(n_trunk)]
    inputs, components = list(range(-1, n_trunk - 1)), {"trunk": (0, n_trunk)}
    for h, depth in enumerate(heads):
        start, source, in_dim = len(layers), n_trunk - 1, widths[-1]
        for _ in range(depth):
            out_dim = int(rng.integers(2, 9))
            layers.append(seeded_layer(len(layers), in_dim, out_dim, "relu", rng))
            inputs.append(source)
            source, in_dim = len(layers) - 1, out_dim
        components[f"head{h}"] = (start, len(layers))
    return Network(layers, components, inputs)


def test_single_component_net_has_no_coupling_groups():
    net = make_net([5, 4, 3, 2], ["relu", "relu", "identity"], seed=1)
    graph = build_groups(net, 1)
    assert [g for g in graph.groups if g.kind == KIND_COUPLING] == []
    assert [g.id for g in graph.groups] == ["body_1", "body_2", "body_3"]


def test_layers_per_group_bundles_consecutive_layers():
    net = make_net([6, 5, 4, 3, 2], ["relu"] * 3 + ["identity"], seed=2)
    graph = build_groups(net, layers_per_group=2)
    assert [g.id for g in graph.groups] == ["body_1", "body_2"]
    assert {s.layer for s in graph.get("body_1").member_slices} == {0, 1}
    assert {s.layer for s in graph.get("body_2").member_slices} == {2, 3}


def test_autoencoder_with_wider_chunks_still_partitions():
    net = autoencoder(latent=8)
    graph = build_groups(net, layers_per_group=2)
    assert sum(g.param_count for g in graph.groups) == net.param_count()
    assert [g.id for g in graph.groups] == [
        "encoder_1", "coupling_encoder_decoder", "decoder_1"]


def test_adjacent_boundaries_that_collide_are_rejected():
    net = make_net([4, 4, 4, 4], ["relu", "relu", "identity"],
                   components={"a": (0, 1), "b": (1, 2), "c": (2, 3)}, seed=3)
    with pytest.raises(ConfigurationError, match="too thin"):
        build_groups(net, 1)


def test_component_reduced_to_boundary_biases_is_rejected():
    net = make_net([4, 3, 2], ["relu", "identity"],
                   components={"a": (0, 1), "b": (1, 2)}, seed=4)
    with pytest.raises(ConfigurationError, match="boundary-layer biases"):
        build_groups(net, 1)


def test_two_coupling_groups_with_the_same_owners_gain_producer_suffixes():
    """Layers 0 and 1 of component ``a`` each feed a layer of ``b``: both
    coupling groups are owned by ``a`` and ``b``, so each id also names its
    producing layer, and the network prunes and verifies."""
    rng = np.random.default_rng(0)
    net = Network([seeded_layer(0, 3, 4, "relu", rng), seeded_layer(1, 4, 4, "relu", rng),
                   seeded_layer(2, 4, 2, "relu", rng), seeded_layer(3, 4, 2, "relu", rng),
                   seeded_layer(4, 2, 2, "identity", rng)],
                  {"a": (0, 2), "b": (2, 5)}, [-1, 0, 0, 1, 2])
    graph = build_groups(net)
    assert graph.group_ids() == ("coupling_a_b_l0", "coupling_a_b_l1", "b_1")
    assert [s.layer for s in graph.get("coupling_a_b_l0").member_slices] == [0, 0, 2]
    assert [s.layer for s in graph.get("coupling_a_b_l1").member_slices] == [1, 1, 3]
    cfg = BayesConfig()
    states = init_states(graph, cfg)
    for group in graph.groups:
        for layer, width, _, _ in group.units:
            states[group.id].unit_ema[layer] = rng.uniform(size=width)
    plan = allocate_budget(states, graph, net, 0.3, "grad")
    pruned, _ = apply_prune(net, graph, plan)
    assert net.param_count() - pruned.param_count() == plan.predicted_removed > 0
    assert verify_consistency(pruned).ok


def test_group_lookup_and_tensor_access():
    net = make_two_component_chain(seed=5)
    graph = build_groups(net, 1)
    with pytest.raises(ConfigurationError):
        graph.get("nope")
    group = graph.groups[0]
    tensors = group_tensors(net, group)
    assert sum(t.size for t in tensors) == group.param_count
    assert group.slots == tuple((t.offset, t.offset + t.size, t.shape) for t in tensors)


def test_group_runs_are_merged_arena_ranges():
    net = make_toy_multihead()
    graph = build_groups(net)
    for group in graph.groups:
        assert sum(hi - lo for lo, hi in group.runs) == group.param_count
        for t in group_tensors(net, group):
            assert any(lo <= t.offset and t.offset + t.size <= hi
                       for lo, hi in group.runs)
        # Only the coupling group spans the fan-out to both heads.
        assert len(group.runs) == (2 if group.kind == KIND_COUPLING else 1)
    # 1,130 parameters: one lane, one run over the whole arena.
    assert graph.parts == ((graph.groups, ((0, net.flat_grad.size),)),)


def test_graph_splits_a_large_arena_into_two_parts_of_about_equal_size():
    net = autoencoder(latent=8)
    assert net.flat_grad.size >= ADAM_BLOCK
    graph = build_groups(net)
    (low, low_runs), (high, high_runs) = graph.parts
    assert low + high == graph.groups
    assert graph.groups[len(low)] is high[0]
    sizes = [sum(hi - lo for lo, hi in runs) for _, runs in graph.parts]
    assert sum(sizes) == net.flat_grad.size
    assert abs(sizes[0] - sizes[1]) <= max(g.param_count for g in graph.groups)
    assert low_runs[-1][1] <= high_runs[0][0]


@pytest.mark.parametrize("make", [lambda: autoencoder(latent=8),
                                  lambda: autoencoder(latent=512),
                                  make_toy_multihead],
                         ids=["latent8", "latent512", "toy_multihead"])
def test_l1_norms_equal_the_per_tensor_sums_bit_for_bit(make):
    """Each slot is reduced on its own, as a per-tensor sum is: summing a
    merged run of several tensors at once gives other bits."""
    net = make()
    net.flat_values[...] = np.random.default_rng(7).normal(0.0, 3.0, net.flat_values.size)
    graph = build_groups(net)
    assert graph.l1_norms(net.flat_values) == [group_l1_norm(net, g) for g in graph.groups]


# -- prunable units and closures --------------------------------------------


def test_prunable_units_exclude_network_outputs():
    net = make_toy_multihead()
    graph = build_groups(net, 1)
    assert graph.get("encoder_1").prunable == tuple((0, u) for u in range(32))
    assert graph.get("coupling_encoder_head_a_head_b").prunable == tuple(
        (1, u) for u in range(8))
    # Both head groups only own sink-layer units, which stay fixed.
    assert graph.get("head_a_1").prunable == ()
    assert graph.get("head_b_1").prunable == ()


@pytest.mark.parametrize("seed", range(5))
def test_closure_parameter_count_matches_brute_force(seed):
    """Oracle: pruning k units of one layer takes k weight rows and bias
    entries there and k weight columns from every consumer, and the pruned
    network is smaller by exactly that many parameters."""
    rng = np.random.default_rng(seed)
    net = make_two_component_chain(seed=seed, widths=(7, 6, 5, 4, 3))
    graph = build_groups(net, 1)
    owners = {layer: g.id for g in graph.groups for layer, _ in g.prunable}
    layer = sorted(owners)[int(rng.integers(0, len(owners)))]
    out_dim = net.layers[layer].out_dim
    k = int(rng.integers(1, out_dim))
    units = sorted(rng.choice(out_dim, size=k, replace=False).tolist())
    removals = [(layer, u) for u in units]
    expected = (k * net.layers[layer].in_dim + k
                + sum(k * net.layers[c].out_dim for c in net.consumers(layer)))
    assert predicted_removed_params(net, removals) == expected
    pruned, _ = apply_prune(
        net, graph, PrunePlan(0.1, "grad", {owners[layer]: removals}, expected))
    assert net.param_count() - pruned.param_count() == expected


def test_closure_edge_cases():
    net = make_net([4, 3, 2], ["identity", "identity"], seed=7)
    graph = build_groups(net, 1)
    assert predicted_removed_params(net, []) == 0
    pruned, _ = apply_prune(net, graph, PrunePlan(0.1, "grad", {}, 0))
    assert pruned.param_count() == net.param_count()
    everything = [(0, 0), (0, 1), (0, 2)]  # would empty the layer
    with pytest.raises(ConfigurationError):
        apply_prune(net, graph, PrunePlan(
            0.1, "grad", {"body_1": everything},
            predicted_removed_params(net, everything)))
    for units in ([(0, 3)], [(9, 0)]):  # one past the end, no such layer
        with pytest.raises(ConfigurationError):
            apply_prune(net, graph, PrunePlan(0.1, "grad", {"body_1": units}, 0))


# -- manifest ----------------------------------------------------------------


def test_manifest_is_json_ready_and_complete():
    import json
    net = make_toy_multihead()
    graph = build_groups(net, 1)
    doc = export_manifest(net, graph)
    json.dumps(doc)  # must not raise
    assert doc["format"] == "prunescope.manifest"
    assert doc["total_params"] == 1130
    assert [g["id"] for g in doc["groups"]] == list(graph.group_ids())
    for entry, group in zip(doc["groups"], graph.groups):
        assert entry["param_count"] == group.param_count
        assert entry["prunable_units"] == len(group.prunable)
        assert sum(s["param_count"] for s in entry["member_slices"]) \
            == group.param_count
