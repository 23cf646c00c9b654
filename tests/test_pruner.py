"""Pruning: budget allocation, exact closure accounting, masked-forward oracle."""

import numpy as np
import pytest

from prunescope.errors import ConfigurationError, InfeasiblePlanError
from prunescope.importance import GroupImportanceState, init_states, BayesConfig
from prunescope.modelgraph import build_groups
from prunescope.netcore import Network, forward
from prunescope.pruner import (PrunePlan, allocate_budget, apply_prune,
                               importance_weights, verify_consistency)

from conftest import (dyadic, make_net, make_toy_multihead, masked_clone,
                      predicted_removed_params, set_dyadic)


def states_with_unit_scores(graph, net, seed=0, ema=None):
    """States whose unit rankings come from a seeded score vector."""
    rng = np.random.default_rng(seed)
    states = init_states(graph, BayesConfig())
    for group in graph.groups:
        st = states[group.id]
        if ema is not None:
            st.ema_grad = st.ema_fisher = st.ema_bayes = ema[group.id]
        st.iteration = 1
        for layer, width, _, _ in group.units:
            st.unit_ema[layer] = rng.uniform(size=width)
    return states


# -- unit ranking ------------------------------------------------------------


def plan_for_unit_scores(unit_ema, sparsity):
    """The plan for a 4 -> 3 -> 2 chain whose one prunable group, ``body_1``,
    has ``unit_ema`` as its unit scores. One of its units costs 7 of the 23
    parameters and the cap allows two, so 0.3 takes the lowest-ranked unit
    and 0.6 the two lowest."""
    net = make_net([4, 3, 2], ["relu", "identity"], seed=0)
    graph = build_groups(net, 1)
    states = init_states(graph, BayesConfig())
    states["body_1"].unit_ema = unit_ema
    return allocate_budget(states, graph, net, sparsity, "grad")


def test_rank_units_ascending_by_score():
    scores = {0: np.array([3.0, 1.0, 2.0])}
    assert plan_for_unit_scores(scores, 0.3).per_group == {"body_1": [(0, 1)]}
    assert plan_for_unit_scores(scores, 0.6).per_group == {"body_1": [(0, 1), (0, 2)]}


def test_rank_units_breaks_ties_by_position():
    scores = {0: np.array([1.0, 1.0, 1.0])}
    assert plan_for_unit_scores(scores, 0.6).per_group == {"body_1": [(0, 0), (0, 1)]}


# -- allocation weights --------------------------------------------------------


def test_importance_weights_invert_normalized_importance():
    states = {
        "lo": GroupImportanceState("lo", 1, 1, ema_grad=0.0),
        "mid": GroupImportanceState("mid", 1, 1, ema_grad=1.0),
        "hi": GroupImportanceState("hi", 1, 1, ema_grad=4.0),
    }
    w = importance_weights(states, ["lo", "mid", "hi"], "grad")
    assert w == {"lo": 1.0, "mid": 0.75, "hi": 0.0}


def test_importance_weights_monotone_in_importance():
    rng = np.random.default_rng(3)
    for _ in range(50):
        emas = rng.uniform(size=4)
        states = {f"g{i}": GroupImportanceState(f"g{i}", 1, 1, ema_grad=float(e))
                  for i, e in enumerate(emas)}
        ids = sorted(states)
        w = importance_weights(states, ids, "grad")
        order = sorted(ids, key=lambda g: states[g].ema_grad)
        weights = [w[g] for g in order]
        assert all(a >= b - 1e-12 for a, b in zip(weights, weights[1:]))


def test_importance_weights_degenerate_spread_gives_everyone_one():
    states = {g: GroupImportanceState(g, 1, 1, ema_grad=2.5) for g in "ab"}
    assert importance_weights(states, ["a", "b"], "grad") == {"a": 1.0, "b": 1.0}


# -- exact removal accounting ----------------------------------------------------


def brute_force_removed(net, removals):
    rows = {k: set() for k in range(len(net.layers))}
    cols = {k: set() for k in range(len(net.layers))}
    for layer, unit in removals:
        rows[layer].add(unit)
        for c in net.consumers(layer):
            cols[c].add(unit)
    total = 0
    for k, layer in enumerate(net.layers):
        r, c = len(rows[k]), len(cols[k])
        total += r * layer.in_dim + c * layer.out_dim - r * c + r
    return total


@pytest.mark.parametrize("seed", range(10))
def test_predicted_removal_matches_brute_force_mask_counting(seed):
    """The incremental ledger must agree with counting union masks, for any
    removal set and in any order."""
    rng = np.random.default_rng(seed)
    net = make_toy_multihead(seed=seed)
    pool = [(0, u) for u in range(31)] + [(1, u) for u in range(7)]
    k = int(rng.integers(1, len(pool)))
    picks = [pool[i] for i in rng.choice(len(pool), size=k, replace=False)]
    expected = brute_force_removed(net, picks)
    assert predicted_removed_params(net, picks) == expected
    rng.shuffle(picks)
    assert predicted_removed_params(net, picks) == expected


# -- budget allocation -------------------------------------------------------------


def chain_for_allocation(seed=0):
    net = make_net([10, 8, 8, 6], ["relu", "relu", "identity"], seed=seed)
    graph = build_groups(net, 1)
    return net, graph


def test_allocation_lands_within_one_closure_of_the_target():
    net, graph = chain_for_allocation()
    states = states_with_unit_scores(graph, net)
    for sparsity in (0.1, 0.2, 0.35, 0.5):
        plan = allocate_budget(states, graph, net, sparsity, "grad")
        target = round(sparsity * net.param_count())
        granularity = max(net.layers[0].in_dim + 1 + 8, 8 + 1 + 6)
        assert abs(plan.predicted_removed - target) <= granularity
        assert plan.predicted_removed == predicted_removed_params(
            net, [u for units in plan.per_group.values() for u in units])


def test_allocation_prunes_low_scoring_units_first():
    net, graph = chain_for_allocation()
    states = states_with_unit_scores(graph, net)
    states["body_1"].unit_ema[0] = np.arange(8.0)  # unit 0 least important
    plan = allocate_budget(states, graph, net, 0.15, "grad")
    removed = plan.per_group.get("body_1", [])
    k = len(removed)
    assert removed == [(0, u) for u in range(k)]


def test_allocation_respects_protection():
    net, graph = chain_for_allocation()
    states = states_with_unit_scores(graph, net)
    plan = allocate_budget(states, graph, net, 0.2, "grad",
                           protect=["body_1"])
    assert "body_1" not in plan.per_group
    with pytest.raises(ConfigurationError):
        allocate_budget(states, graph, net, 0.2, "grad", protect=["nope"])


def test_allocation_sends_more_removal_to_less_important_groups():
    net, graph = chain_for_allocation()
    states = states_with_unit_scores(
        graph, net, ema={"body_1": 10.0, "body_2": 0.1, "body_3": 5.0})
    plan = allocate_budget(states, graph, net, 0.25, "grad")
    taken_1 = len(plan.per_group.get("body_1", []))
    taken_2 = len(plan.per_group.get("body_2", []))
    assert taken_2 > taken_1


def test_unit_cap_limits_each_group():
    net, graph = chain_for_allocation()
    states = states_with_unit_scores(graph, net)
    plan = allocate_budget(states, graph, net, 0.5, "grad")
    for gid, units in plan.per_group.items():
        group = graph.get(gid)
        assert len(units) <= int(0.9 * len(group.prunable))


def test_unreachable_target_raises():
    net = make_net([4, 8, 4], ["relu", "identity"], seed=1)
    graph = build_groups(net, 1)
    states = states_with_unit_scores(graph, net)
    with pytest.raises(InfeasiblePlanError):
        allocate_budget(states, graph, net, 0.97, "grad")
    with pytest.raises(InfeasiblePlanError):
        allocate_budget(states, graph, net, 0.2, "grad", protect=["body_1"])


def test_allocation_validates_sparsity():
    net, graph = chain_for_allocation()
    states = states_with_unit_scores(graph, net)
    for bad in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ConfigurationError):
            allocate_budget(states, graph, net, bad, "grad")


def test_allocation_and_pruning_refuse_a_network_of_another_layout():
    """A graph's prunable units and widths belong to the layout it was built
    for. A narrower network, with states and a plan that fit it, is refused
    with the graph of the wider one."""
    net, graph = chain_for_allocation()
    narrower = make_net([10, 8, 5, 6], ["relu", "relu", "identity"], seed=0)
    own_graph = build_groups(narrower, 1)
    states = states_with_unit_scores(own_graph, narrower)
    plan = allocate_budget(states, own_graph, narrower, 0.2, "grad")
    apply_prune(narrower, own_graph, plan)
    with pytest.raises(ConfigurationError, match="layout"):
        allocate_budget(states, graph, narrower, 0.2, "grad")
    with pytest.raises(ConfigurationError, match="layout"):
        apply_prune(narrower, graph, plan)


# -- applying plans -------------------------------------------------------------


def test_apply_prune_matches_masked_network_bitwise_on_dyadic_values(rng):
    """With parameters and inputs on a dyadic grid every float operation is
    exact, so excising units and zeroing their closure give literally the
    same outputs regardless of summation order."""
    net = make_toy_multihead(seed=2)
    set_dyadic(net, rng)
    graph = build_groups(net, 1)
    plan = PrunePlan(0.3, "grad",
                     {"encoder_1": [(0, 3), (0, 17), (0, 30)],
                      "coupling_encoder_head_a_head_b": [(1, 0), (1, 5)]},
                     0)
    plan.predicted_removed = predicted_removed_params(
        net, [u for units in plan.per_group.values() for u in units])
    pruned, new_graph = apply_prune(net, graph, plan)
    assert pruned.param_count() == net.param_count() - plan.predicted_removed
    assert sum(g.param_count for g in new_graph.groups) == pruned.param_count()
    x = dyadic(rng, (9, 16))
    masked = masked_clone(net, {0: [3, 17, 30], 1: [0, 5]})
    np.testing.assert_array_equal(forward(pruned, x)[-1],
                                  forward(masked, x)[-1])


def test_a_consumed_head_unit_prunes_like_its_masked_network(rng):
    """Toy layer 2 reads the coupling layer from another component, so only
    its bias lies in ``head_a_1``, which ranks its units. Removing one of
    them equals zeroing it, bitwise on dyadic values."""
    net = make_toy_multihead(seed=3)
    set_dyadic(net, rng)
    graph = build_groups(net, 1)
    removed = predicted_removed_params(net, [(2, 6)])
    assert removed == 8 + 1 + 1
    pruned, _ = apply_prune(net, graph, PrunePlan(0.1, "grad", {"head_a_1": [(2, 6)]}, removed))
    assert pruned.layers[2].out_dim == 15
    x = dyadic(rng, (9, 16))
    np.testing.assert_array_equal(forward(pruned, x)[-1],
                                  forward(masked_clone(net, {2: [6]}), x)[-1])


@pytest.mark.parametrize("seed", range(8))
def test_apply_prune_matches_masked_network_on_continuous_values(seed):
    """Same oracle on ordinary float values; summation order may differ after
    the excision, so outputs agree to tight tolerance instead of bitwise."""
    rng = np.random.default_rng(seed)
    net = make_toy_multihead(seed=seed)
    graph = build_groups(net, 1)
    by_layer = {}
    for layer, width in ((0, 32), (1, 8)):
        k = int(rng.integers(1, width // 2))
        by_layer[layer] = sorted(
            int(u) for u in rng.choice(width, size=k, replace=False))
    plan = PrunePlan(0.1, "grad",
                     {"encoder_1": [(0, u) for u in by_layer[0]],
                      "coupling_encoder_head_a_head_b":
                          [(1, u) for u in by_layer[1]]},
                     predicted_removed_params(
                         net, [(0, u) for u in by_layer[0]]
                         + [(1, u) for u in by_layer[1]]))
    pruned, _ = apply_prune(net, graph, plan)
    report = verify_consistency(pruned)
    assert report.ok, report.summary()
    x = rng.uniform(-1.0, 1.0, size=(6, 16))
    expected = forward(masked_clone(net, by_layer), x)[-1]
    np.testing.assert_allclose(forward(pruned, x)[-1], expected,
                               rtol=0, atol=1e-12)


def test_prune_excises_row_bias_entry_and_consumer_column():
    """By hand: unit 1 of layer 0 takes row 1 of its weight, entry 1 of its
    bias and column 1 of the consumer's weight, and nothing else."""
    net = make_net([4, 3, 2], ["relu", "identity"], seed=6)
    graph = build_groups(net, 1)
    plan = PrunePlan(0.1, "grad", {"body_1": [(0, 1)]}, 4 + 1 + 2)
    pruned, _ = apply_prune(net, graph, plan)
    w0, b0, w1, b1 = (t.values for _, _, t in net.param_tensors())
    assert [(l.weight.shape, l.bias.shape) for l in pruned.layers] == [
        ((2, 4), (2,)), ((2, 2), (2,))]
    np.testing.assert_array_equal(pruned.layers[0].weight.values, w0[[0, 2]])
    np.testing.assert_array_equal(pruned.layers[0].bias.values, b0[[0, 2]])
    np.testing.assert_array_equal(pruned.layers[1].weight.values, w1[:, [0, 2]])
    np.testing.assert_array_equal(pruned.layers[1].bias.values, b1)


def test_prune_removes_fan_out_columns_from_both_heads():
    """Interface units of a fan-out leave the weight columns of every
    consumer: both heads lose columns 0 and 3."""
    net = make_toy_multihead(seed=1)
    graph = build_groups(net, 1)
    units = [(1, 0), (1, 3)]
    removed = 2 * (32 + 1) + 2 * (16 + 16)
    assert predicted_removed_params(net, units) == removed
    plan = PrunePlan(0.1, "grad", {"coupling_encoder_head_a_head_b": units}, removed)
    pruned, _ = apply_prune(net, graph, plan)
    before = [(l.weight.values, l.bias.values) for l in net.layers]
    after = [(l.weight.values, l.bias.values) for l in pruned.layers]
    np.testing.assert_array_equal(after[1][0], np.delete(before[1][0], [0, 3], axis=0))
    np.testing.assert_array_equal(after[1][1], np.delete(before[1][1], [0, 3]))
    for k in (2, 4):
        np.testing.assert_array_equal(after[k][0],
                                      np.delete(before[k][0], [0, 3], axis=1))
    for k in (0, 2, 3, 4, 5):
        np.testing.assert_array_equal(after[k][1], before[k][1])
    for k in (0, 3, 5):
        np.testing.assert_array_equal(after[k][0], before[k][0])


def test_apply_prune_leaves_the_original_untouched():
    net = make_toy_multihead(seed=4)
    graph = build_groups(net, 1)
    before = [t.values.copy() for _, _, t in net.param_tensors()]
    plan = PrunePlan(0.1, "grad", {"encoder_1": [(0, 1)]},
                     predicted_removed_params(net, [(0, 1)]))
    apply_prune(net, graph, plan)
    for (_, _, t), old in zip(net.param_tensors(), before):
        np.testing.assert_array_equal(t.values, old)


def test_empty_plan_is_an_exact_identity():
    net = make_toy_multihead(seed=5)
    graph = build_groups(net, 1)
    pruned, _ = apply_prune(net, graph, PrunePlan(0.1, "grad", {}, 0))
    for (_, _, a), (_, _, b) in zip(net.param_tensors(), pruned.param_tensors()):
        np.testing.assert_array_equal(a.values, b.values)


def test_apply_prune_rejects_mismatched_prediction():
    net = make_toy_multihead(seed=6)
    graph = build_groups(net, 1)
    plan = PrunePlan(0.1, "grad", {"encoder_1": [(0, 1)]}, predicted_removed=999)
    with pytest.raises(ConfigurationError, match="different network"):
        apply_prune(net, graph, plan)


def test_apply_prune_validates_plans():
    net = make_toy_multihead(seed=7)
    graph = build_groups(net, 1)
    cases = [
        {"encoder_1": [(3, 0)]},            # not this group's unit layer
        {"head_a_1": [(3, 0)]},             # sink layer
        {"encoder_1": [(0, 99)]},           # out of range
        {"encoder_1": [(0, 32)]},           # one past the last unit
        {"encoder_1": [(9, 0)]},            # no such layer
        {"encoder_1": [(0, 1), (0, 1)]},    # duplicate
    ]
    for per_group in cases:
        with pytest.raises(ConfigurationError):
            apply_prune(net, graph, PrunePlan(0.1, "grad", per_group, 0))


def test_apply_prune_refuses_to_empty_a_layer():
    net = make_net([4, 3, 2], ["relu", "identity"], seed=8)
    graph = build_groups(net, 1)
    units = [(0, 0), (0, 1), (0, 2)]
    plan = PrunePlan(0.5, "grad", {"body_1": units},
                     predicted_removed_params(net, units))
    with pytest.raises(ConfigurationError):
        apply_prune(net, graph, plan)


def test_allocate_then_apply_round_trip_recount():
    net, graph = chain_for_allocation(seed=9)
    states = states_with_unit_scores(graph, net)
    plan = allocate_budget(states, graph, net, 0.3, "fisher")
    pruned, _ = apply_prune(net, graph, plan)
    assert net.param_count() - pruned.param_count() == plan.predicted_removed


# -- plan serialization -----------------------------------------------------------


def test_plan_round_trip(tmp_path):
    plan = PrunePlan(0.25, "combined",
                     {"a": [(0, 1), (0, 4)], "b": [(2, 0)]}, 123)
    path = tmp_path / "plan.json"
    plan.save(path)
    back = PrunePlan.load(path)
    assert back.target_sparsity == 0.25
    assert back.ranking_used == "combined"
    assert back.per_group == plan.per_group
    assert back.predicted_removed == 123


def test_plan_rejects_bad_documents(tmp_path):
    with pytest.raises(ConfigurationError):
        PrunePlan.from_dict({"format": "other"})
    with pytest.raises(ConfigurationError):
        PrunePlan.from_dict({
            "format": "prunescope.plan", "target_sparsity": 0.1,
            "metric": "grad", "predicted_removed_params": 0,
            "groups": {"a": {"unit_count": 5, "units": [[0, 1]]}}})
    path = tmp_path / "plan.json"
    path.write_text("{broken")
    with pytest.raises(ConfigurationError):
        PrunePlan.load(path)


# -- consistency verifier -----------------------------------------------------------


def test_verifier_passes_healthy_networks():
    report = verify_consistency(make_toy_multihead(seed=10))
    assert report.ok
    assert report.param_count == 1130
    assert "PASS" in report.summary()


def test_verifier_reports_damage_without_raising():
    net = make_toy_multihead(seed=11)
    net.layers[0].weight.values[0, 0] = np.inf
    report = verify_consistency(net)
    assert not report.ok
    assert report.problems == ["layer 0: non-finite parameter values"]
    assert "FAIL" in report.summary()
    # A bias of the wrong length never makes it into a network.
    layers = [(layer.weight.values, layer.bias.values, layer.activation)
              for layer in net.layers]
    layers[2] = (layers[2][0], np.zeros(3), layers[2][2])
    with pytest.raises(ConfigurationError, match="bias length"):
        Network(layers, net.components, net.layer_inputs)
