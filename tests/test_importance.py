"""Importance metrics: closed forms, EMA algebra, and online updates."""

import json
import math

import numpy as np
import pytest

from prunescope.errors import ConfigurationError
from prunescope.importance import (BayesConfig, GroupImportanceState,
                                   bayes_importance, bayes_update, ema_update,
                                   fisher_diag, grad_magnitude, importance_plan,
                                   init_states, metric_scores, rank_groups,
                                   states_from_doc, states_to_doc, update_all)
from prunescope.modelgraph import KIND_COUPLING, build_groups, group_tensors
from prunescope.netcore import ADAM_BLOCK, backward, build_sequential, forward, mse_loss

from conftest import dyadic, make_toy_multihead, make_two_component_chain


# -- raw metrics -------------------------------------------------------------


def test_grad_magnitude_by_hand():
    assert grad_magnitude(np.array([3.0, -4.0])) == 3.5
    assert grad_magnitude([np.array([1.0, -1.0]), np.array([[2.0]])]) == 4.0 / 3.0


def test_fisher_diag_by_hand():
    assert fisher_diag(np.array([3.0, -4.0])) == 12.5
    assert fisher_diag([np.array([1.0, -1.0]), np.array([[2.0]])]) == 2.0


def test_metrics_reject_empty_groups():
    with pytest.raises(ConfigurationError):
        grad_magnitude([])
    with pytest.raises(ConfigurationError):
        fisher_diag(np.zeros((0,)))


# -- conjugate updates --------------------------------------------------------


def test_bayes_update_closed_form_single_step():
    """kappa and the dyadic energy are exact in float64, so one update gives
    alpha = 1.25 and beta = 1.5 exactly, hence mu = 5/6."""
    cfg = BayesConfig()  # kappa 0.25, eta 1.0, alpha0 = beta0 = 1
    state = GroupImportanceState("g", alpha=cfg.alpha0, beta=cfg.beta0)
    bayes_update(state, 2.0, cfg)
    assert state.alpha == 1.25
    assert state.beta == 1.5
    assert state.mu == 1.25 / 1.5


def test_bayes_update_closed_form_many_steps():
    cfg = BayesConfig()
    state = GroupImportanceState("g", alpha=1.0, beta=1.0)
    for _ in range(8):
        bayes_update(state, 0.5, cfg)
    assert state.alpha == 1.0 + 8 * 0.25
    assert state.beta == 1.0 + 8 * 0.25 * 0.5


def test_posterior_mean_converges_to_eta_over_energy():
    """Constant energy E drives mu toward eta / E; after 2000 observations
    of E = 2 the posterior mean is 501/1001, within 1% of 0.5."""
    cfg = BayesConfig()
    state = GroupImportanceState("g", alpha=1.0, beta=1.0)
    for _ in range(2000):
        bayes_update(state, 2.0, cfg)
    assert state.alpha == 501.0
    assert state.beta == 1001.0
    assert abs(state.mu - 0.5) / 0.5 < 0.01


def test_persistently_energetic_groups_get_smaller_mu():
    """The update direction: energy inflates beta, so mu falls for active
    groups and rises for quiet ones."""
    cfg = BayesConfig()
    busy = GroupImportanceState("busy", alpha=1.0, beta=1.0)
    quiet = GroupImportanceState("quiet", alpha=1.0, beta=1.0)
    for _ in range(50):
        bayes_update(busy, 4.0, cfg)
        bayes_update(quiet, 0.01, cfg)
    assert busy.mu < quiet.mu
    assert quiet.mu > 1.0  # E < eta makes mu grow past its prior mean


def test_zero_energy_is_legal_and_raises_mu():
    cfg = BayesConfig()
    state = GroupImportanceState("g", alpha=1.0, beta=1.0)
    bayes_update(state, 0.0, cfg)
    assert state.beta == 1.0
    assert state.mu == 1.25


def test_bad_energy_is_rejected():
    cfg = BayesConfig()
    state = GroupImportanceState("g", alpha=1.0, beta=1.0)
    with pytest.raises(ConfigurationError):
        bayes_update(state, -1.0, cfg)
    with pytest.raises(ConfigurationError):
        bayes_update(state, math.nan, cfg)


def test_bayes_importance_by_hand():
    value = bayes_importance(5.0 / 6.0, 0.0)
    np.testing.assert_allclose(value, math.log(11.0 / 6.0), rtol=1e-15)
    assert bayes_importance(0.0, 3.0) == 0.0
    np.testing.assert_allclose(bayes_importance(1.0, 1.0),
                               2.0 * math.log(2.0), rtol=1e-15)
    with pytest.raises(ConfigurationError):
        bayes_importance(-0.1, 0.0)


def test_bayes_config_requires_positive_constants():
    with pytest.raises(ConfigurationError):
        BayesConfig(kappa=0.0)
    with pytest.raises(ConfigurationError):
        BayesConfig(eta=-1.0)


# -- smoothing ----------------------------------------------------------------


def test_ema_update_by_hand():
    assert ema_update(1.0, 2.0, 0.5) == 1.5
    assert ema_update(4.0, 0.0, 0.75) == 3.0


@pytest.mark.parametrize("gamma", [0.0, 0.5, 0.9, 0.99])
@pytest.mark.parametrize("steps", [1, 10, 100])
def test_ema_matches_closed_form_unroll(gamma, steps):
    """s(T) = gamma^(T-1) r1 + (1-gamma) sum_t gamma^(T-t) r_t for t >= 2,
    with the series initialized to the first raw value."""
    rng = np.random.default_rng(steps * 101 + int(gamma * 100))
    raws = rng.uniform(-3.0, 3.0, size=steps)
    s = raws[0]
    for r in raws[1:]:
        s = ema_update(s, r, gamma)
    closed = gamma ** (steps - 1) * raws[0] + (1.0 - gamma) * sum(
        gamma ** (steps - 1 - t) * raws[t] for t in range(1, steps))
    np.testing.assert_allclose(s, closed, rtol=1e-12, atol=1e-14)


def test_ema_gamma_must_lie_in_unit_interval():
    with pytest.raises(ConfigurationError):
        ema_update(0.0, 1.0, 1.0)
    with pytest.raises(ConfigurationError):
        ema_update(0.0, 1.0, -0.1)


# -- online update over a network ---------------------------------------------


def grads_for(net):
    rng = np.random.default_rng(77)
    x = rng.uniform(size=(4, net.input_dim))
    y = rng.uniform(size=(4, net.output_dim))
    acts = forward(net, x)
    _, d_out = mse_loss(acts[-1], y)
    backward(net, acts, d_out)


def test_update_all_matches_per_group_brute_force():
    net = make_two_component_chain(seed=1)
    graph = build_groups(net, 1)
    cfg = BayesConfig()
    states = init_states(graph, cfg)
    grads_for(net)
    update_all(states, net, graph, cfg, gamma=0.9)
    for group in graph.groups:
        grads = [t.grad for t in group_tensors(net, group)]
        st = states[group.id]
        # Training runs the same reduction as the public kernels, bit for bit.
        assert st.raw_grad == grad_magnitude(grads)
        assert st.raw_fisher == fisher_diag(grads)
        assert st.alpha == cfg.alpha0 + cfg.kappa
        np.testing.assert_allclose(
            st.beta, cfg.beta0 + cfg.kappa * st.raw_grad / cfg.eta, rtol=1e-15)
        np.testing.assert_allclose(
            st.raw_bayes, math.log1p(st.mu) * (1.0 + st.raw_fisher), rtol=1e-15)
        # First observation seeds the smoothed series.
        assert st.ema_grad == st.raw_grad
        assert st.ema_fisher == st.raw_fisher
        assert st.ema_bayes == st.raw_bayes
        assert st.iteration == 1


def test_update_all_second_step_smooths_with_gamma():
    net = make_two_component_chain(seed=2)
    graph = build_groups(net, 1)
    cfg = BayesConfig()
    states = init_states(graph, cfg)
    rng = np.random.default_rng(5)
    for _, _, t in net.param_tensors():
        t.grad = dyadic(rng, t.shape)
    update_all(states, net, graph, cfg, gamma=0.5)
    first = {g.id: states[g.id].raw_grad for g in graph.groups}
    for _, _, t in net.param_tensors():
        t.grad = dyadic(rng, t.shape)
    update_all(states, net, graph, cfg, gamma=0.5)
    for group in graph.groups:
        st = states[group.id]
        assert st.iteration == 2
        assert st.ema_grad == 0.5 * first[group.id] + 0.5 * st.raw_grad


def test_unit_scores_for_coupling_group_by_hand():
    """Each interface unit's score averages its weight row on the producer,
    its bias entry, and its weight column in every consumer."""
    net = make_toy_multihead(seed=3)
    graph = build_groups(net, 1)
    cfg = BayesConfig()
    states = init_states(graph, cfg)
    grads_for(net)
    update_all(states, net, graph, cfg, gamma=0.9)
    st = states["coupling_encoder_head_a_head_b"]
    assert list(st.unit_ema) == [1]
    w1 = np.abs(net.layers[1].weight.grad)
    b1 = np.abs(net.layers[1].bias.grad)
    w2 = np.abs(net.layers[2].weight.grad)
    w4 = np.abs(net.layers[4].weight.grad)
    expected = (w1.sum(axis=1) + b1 + w2.sum(axis=0) + w4.sum(axis=0)) / (
        w1.shape[1] + 1 + w2.shape[0] + w4.shape[0])
    np.testing.assert_allclose(st.unit_ema[1], expected, rtol=1e-15)


def test_update_all_refuses_a_network_of_another_layout():
    """The graph's importance plan is built once and serves every network of
    its layout; a network of another layout (here one layer narrower, as
    after a prune) is refused, even on the first call."""
    net = make_two_component_chain(seed=4)
    graph = build_groups(net, 1)
    cfg = BayesConfig()
    states = init_states(graph, cfg)
    grads_for(net)
    update_all(states, net, graph, cfg, gamma=0.9)
    plan = graph.importance_plan
    update_all(states, net.copy(), graph, cfg, gamma=0.9)
    assert graph.importance_plan is plan
    narrower = make_two_component_chain(seed=4, widths=(6, 5, 3, 3, 2))
    grads_for(narrower)
    for g in (graph, build_groups(net, 1)):
        with pytest.raises(ConfigurationError, match="layout"):
            update_all(init_states(g, cfg), narrower, g, cfg, gamma=0.9)


def test_plan_runs_are_merged_arena_ranges():
    net = make_toy_multihead()
    graph = build_groups(net)
    plan = importance_plan(net, graph)
    for group, gplan in zip(graph.groups, plan.groups):
        assert sum(hi - lo for lo, hi in gplan.runs) == group.param_count
        for t in group_tensors(net, group):
            assert any(lo <= t.offset and t.offset + t.size <= hi
                       for lo, hi in gplan.runs)
        # Only the coupling group spans the fan-out to both heads.
        assert len(gplan.runs) == (2 if group.kind == KIND_COUPLING else 1)
    # 1,130 parameters: one lane, one run over the whole arena.
    assert [(p.groups, p.first, p.runs) for p in plan.parts] == [
        (plan.groups, 0, ((0, net.flat_grad.size),))]


def test_plan_splits_a_large_arena_into_two_lanes_of_about_equal_size():
    widths = [784, 256, 128, 8, 128, 256, 784]
    acts = ["relu", "relu", "identity", "relu", "relu", "sigmoid"]
    net = build_sequential(widths, acts, {"encoder": (0, 3), "decoder": (3, 6)})
    assert net.flat_grad.size >= ADAM_BLOCK
    plan = importance_plan(net, build_groups(net))
    low, high = plan.parts
    assert low.groups + high.groups == plan.groups
    assert (low.first, high.first) == (0, len(low.groups))
    sizes = [sum(hi - lo for lo, hi in part.runs) for part in plan.parts]
    assert sum(sizes) == net.flat_grad.size
    assert abs(sizes[0] - sizes[1]) <= max(g.count for g in plan.groups)
    assert low.runs[-1][1] <= high.runs[0][0]


def test_update_all_requires_states_for_every_group():
    net = make_two_component_chain(seed=3)
    graph = build_groups(net, 1)
    cfg = BayesConfig()
    states = init_states(graph, cfg)
    del states[graph.groups[0].id]
    grads_for(net)
    with pytest.raises(ConfigurationError):
        update_all(states, net, graph, cfg, gamma=0.9)


# -- scoring and ranking --------------------------------------------------------


def three_states():
    a = GroupImportanceState("a", 1.0, 1.0, ema_grad=1.0, ema_fisher=5.0,
                             ema_bayes=0.0)
    b = GroupImportanceState("b", 1.0, 1.0, ema_grad=3.0, ema_fisher=2.0,
                             ema_bayes=7.0)
    c = GroupImportanceState("c", 1.0, 1.0, ema_grad=2.0, ema_fisher=2.0,
                             ema_bayes=3.5)
    return {"a": a, "b": b, "c": c}


def test_metric_scores_single_metric_reads_the_ema():
    states = three_states()
    assert metric_scores(states, ["a", "b"], "grad") == {"a": 1.0, "b": 3.0}
    assert metric_scores(states, ["a", "b"], "fisher") == {"a": 5.0, "b": 2.0}


def test_combined_scores_minmax_then_weight():
    states = three_states()
    scores = metric_scores(states, ["a", "b"], "combined",
                           weights=(0.5, 0.25, 0.25))
    # Normalized over {a, b}: grad a=0 b=1; fisher a=1 b=0; bayes a=0 b=1.
    assert scores == {"a": 0.25, "b": 0.75}


def test_combined_scores_degenerate_spread_contributes_zero():
    states = three_states()
    scores = metric_scores(states, ["b", "c"], "combined",
                           weights=(0.0, 1.0, 0.0))
    assert scores == {"b": 0.0, "c": 0.0}


def test_combined_weights_are_validated():
    states = three_states()
    with pytest.raises(ConfigurationError):
        metric_scores(states, ["a", "b"], "combined", weights=(0.5, 0.5, 0.5))
    with pytest.raises(ConfigurationError):
        metric_scores(states, ["a", "b"], "combined", weights=(-0.5, 1.0, 0.5))
    with pytest.raises(ConfigurationError):
        metric_scores(states, ["a", "b"], "combined", weights=(1.0,))
    with pytest.raises(ConfigurationError):
        metric_scores(states, ["a", "b"], "nonsense")


def test_rank_groups_descending_with_id_tiebreak():
    states = three_states()
    assert rank_groups(states, "grad") == ["b", "c", "a"]
    assert rank_groups(states, "fisher") == ["a", "b", "c"]  # b == c tie
    assert rank_groups(states, "bayes", group_ids=["c", "a"]) == ["c", "a"]


# -- round trip ------------------------------------------------------------------


def test_states_document_round_trip_is_lossless():
    net = make_toy_multihead(seed=9)
    graph = build_groups(net, 1)
    cfg = BayesConfig()
    states = init_states(graph, cfg)
    grads_for(net)
    update_all(states, net, graph, cfg, gamma=0.9)
    doc = json.loads(json.dumps(states_to_doc(states, 0.9, cfg)))
    back = states_from_doc(doc)
    assert set(back) == set(states)
    for gid, st in states.items():
        other = back[gid]
        for name in ("alpha", "beta", "raw_grad", "raw_fisher", "raw_bayes",
                     "ema_grad", "ema_fisher", "ema_bayes"):
            assert getattr(other, name) == getattr(st, name)
        assert other.iteration == st.iteration
        assert set(other.unit_ema) == set(st.unit_ema)
        for layer, scores in st.unit_ema.items():
            np.testing.assert_array_equal(other.unit_ema[layer], scores)


def test_states_from_doc_rejects_foreign_documents():
    with pytest.raises(ConfigurationError):
        states_from_doc({"format": "other"})
