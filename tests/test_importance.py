"""Importance metrics: closed forms, EMA algebra, and online updates."""

import json
import math
import re

import numpy as np
import pytest

from prunescope.errors import ConfigurationError, DataFormatError, NumericsError
from prunescope.importance import (BayesConfig, GroupImportanceState, Reader,
                                   bayes_importance, ema_update, init_states,
                                   metric_scores, rank_groups, ranked, states_from_doc,
                                   states_to_doc)
from prunescope.modelgraph import build_groups
from prunescope.netcore import Adam, backward, forward, mse_loss

from prunescope.harness.config import ModelConfig, build_model

from conftest import (assert_reads_like_the_oracle, dyadic, group_tensors, make_net,
                      make_toy_multihead, make_two_component_chain, per_tensor_mean,
                      view_sum)


# -- raw metrics -------------------------------------------------------------


def read_once(net, cfg=None):
    """The states of one :class:`Reader` after one read of ``net``'s
    gradients, its groups built one layer each."""
    reader = Reader(net, build_groups(net, 1), cfg or BayesConfig(), 0.9)
    reader.read()
    return reader.states


def one_layer_metrics(grad):
    """(raw_grad, raw_fisher) after one read on a one-layer network, one
    group, whose gradient (weight row, then bias) is ``grad``."""
    net = make_net([len(grad) - 1, 1], ["identity"])
    net.flat_grad[...] = grad
    (st,) = read_once(net).values()
    return st.raw_grad, st.raw_fisher


def test_the_fisher_pass_has_the_bits_of_the_products(rng):
    """A read squares the gradient with ``np.square``: the bits of
    ``g * g`` on heavy-tailed draws, signed zeros, infinities, NaN and
    subnormals, so each group's Fisher metric is the slot sum of ``g * g``."""
    specials = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
                2.2250738585072009e-308, 1e-160, -1e-170, 1.3e154, -1.4e154]
    g = np.concatenate([rng.standard_t(1, size=4096), specials])
    with np.errstate(over="ignore"):
        assert np.square(g).tobytes() == np.multiply(g, g).tobytes()
    net = make_toy_multihead(seed=0)
    finite = g[np.isfinite(g) & (np.abs(g) < 1e150)]
    net.flat_grad[...] = rng.choice(finite, size=net.flat_grad.size)
    squares = (net.flat_grad * net.flat_grad)[None]
    states = read_once(net)
    for group in build_groups(net, 1).groups:
        views = [squares[:, lo:hi] for lo, hi, _ in group.slots]
        assert states[group.id].raw_fisher == (view_sum(views)[0]
                                               / group.param_count), group.id


@pytest.mark.parametrize("model", [ModelConfig(preset="toy_multihead"),
                                   ModelConfig(preset="autoencoder", latent_dim=8)],
                         ids=["toy_multihead", "autoencoder"])
def test_a_read_has_the_bits_of_the_per_slot_oracle(model):
    """The reader's arena-wide kernel gives, read after read, the bits of
    summing each group slot by slot and each unit layer part by part."""
    net = build_model(model, 0)
    assert_reads_like_the_oracle(net, build_groups(net, 1), seed=0)


def test_grad_magnitude_by_hand():
    assert one_layer_metrics([3.0, -4.0])[0] == 3.5
    assert one_layer_metrics([1.0, -1.0, 2.0])[0] == 4.0 / 3.0


def test_fisher_diag_by_hand():
    assert one_layer_metrics([3.0, -4.0])[1] == 12.5
    assert one_layer_metrics([1.0, -1.0, 2.0])[1] == 2.0


# -- conjugate updates --------------------------------------------------------


def read_energies(energies):
    """Each group's state after one :class:`Reader` read per row of
    ``energies``, on a ``[2, 3, 2]`` network of two groups: every gradient
    of a group is its energy in magnitude, signs alternating. A dyadic
    magnitude is then the group's mean |g|, its energy E, exactly."""
    net = make_net([2, 3, 2], ["relu", "identity"])
    graph = build_groups(net, 1)
    reader = Reader(net, graph, BayesConfig(), 0.9)
    for row in energies:
        for group, energy in zip(graph.groups, row):
            for lo, hi, _ in group.slots:
                net.flat_grad[lo:hi] = energy
        net.flat_grad[::2] *= -1.0
        reader.read()
    return [reader.states[group.id] for group in graph.groups]


def test_bayes_update_closed_form_single_step():
    """kappa and the dyadic energy are exact in float64, so one update gives
    alpha = 1.25 and beta = 1.5 exactly, hence mu = 5/6."""
    state, _ = read_energies([(2.0, 1.0)])  # kappa 0.25, eta 1.0, alpha0 = beta0 = 1
    assert state.alpha == 1.25
    assert state.beta == 1.5
    assert state.mu == 1.25 / 1.5


def test_bayes_update_closed_form_many_steps():
    state, _ = read_energies([(0.5, 1.0)] * 8)
    assert state.alpha == 1.0 + 8 * 0.25
    assert state.beta == 1.0 + 8 * 0.25 * 0.5


def test_posterior_mean_converges_to_eta_over_energy():
    """Constant energy E drives mu toward eta / E; after 2000 observations
    of E = 2 the posterior mean is 501/1001, within 1% of 0.5."""
    state, _ = read_energies([(2.0, 1.0)] * 2000)
    assert state.alpha == 501.0
    assert state.beta == 1001.0
    assert abs(state.mu - 0.5) / 0.5 < 0.01


def test_persistently_energetic_groups_get_smaller_mu():
    """The update direction: energy inflates beta, so mu falls for active
    groups and rises for quiet ones."""
    busy, quiet = read_energies([(4.0, 1 / 128)] * 50)
    assert busy.mu < quiet.mu
    assert quiet.mu > 1.0  # E < eta makes mu grow past its prior mean


def test_zero_energy_is_legal_and_raises_mu():
    state, _ = read_energies([(0.0, 1.0)])
    assert state.beta == 1.0
    assert state.mu == 1.25


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


@pytest.mark.parametrize("field", ["kappa", "eta", "alpha0", "beta0"])
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_bayes_config_refuses_non_finite_constants(field, value):
    with pytest.raises(ConfigurationError, match=field):
        BayesConfig(**{field: value})


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


def test_a_first_read_matches_per_group_brute_force():
    net = make_two_component_chain(seed=1)
    cfg = BayesConfig()
    grads_for(net)
    states = read_once(net, cfg)
    for group in build_groups(net, 1).groups:
        grads = [t.grad for t in group_tensors(net, group)]
        st = states[group.id]
        # Training sums each tensor on its own, then the sums: bit for bit.
        assert st.raw_grad == per_tensor_mean([np.abs(g) for g in grads])
        assert st.raw_fisher == per_tensor_mean([g * g for g in grads])
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


def test_a_second_read_smooths_with_gamma():
    net = make_two_component_chain(seed=2)
    graph = build_groups(net, 1)
    reader = Reader(net, graph, BayesConfig(), 0.5)
    states = reader.states
    rng = np.random.default_rng(5)
    for _, _, t in net.param_tensors():
        t.grad[...] = dyadic(rng, t.shape)
    reader.read()
    first = {g.id: states[g.id].raw_grad for g in graph.groups}
    for _, _, t in net.param_tensors():
        t.grad[...] = dyadic(rng, t.shape)
    reader.read()
    for group in graph.groups:
        st = states[group.id]
        assert st.iteration == 2
        assert st.ema_grad == 0.5 * first[group.id] + 0.5 * st.raw_grad


def test_unit_scores_for_coupling_group_by_hand():
    """Each interface unit's score averages its weight row on the producer,
    its bias entry, and its weight column in every consumer."""
    net = make_toy_multihead(seed=3)
    grads_for(net)
    st = read_once(net)["coupling_encoder_head_a_head_b"]
    assert list(st.unit_ema) == [1]
    w1 = np.abs(net.layers[1].weight.grad)
    b1 = np.abs(net.layers[1].bias.grad)
    w2 = np.abs(net.layers[2].weight.grad)
    w4 = np.abs(net.layers[4].weight.grad)
    expected = (w1.sum(axis=1) + b1 + w2.sum(axis=0) + w4.sum(axis=0)) / (
        w1.shape[1] + 1 + w2.shape[0] + w4.shape[0])
    np.testing.assert_allclose(st.unit_ema[1], expected, rtol=1e-15)


def test_a_reader_refuses_a_network_of_another_layout():
    """The graph's arena view is built once and serves every network of its
    layout; a network of another layout (here one layer narrower, as after
    a prune) is refused when the reader is built."""
    net = make_two_component_chain(seed=4)
    graph = build_groups(net, 1)
    cfg = BayesConfig()
    grads_for(net)
    groups = graph.groups
    Reader(net.copy(), graph, cfg, 0.9).read()
    assert graph.groups is groups
    narrower = make_two_component_chain(seed=4, widths=(6, 5, 3, 3, 2))
    for g in (graph, build_groups(net, 1)):
        with pytest.raises(ConfigurationError, match="layout"):
            Reader(narrower, g, cfg, 0.9)


def test_a_read_names_the_group_whose_metric_overflows():
    """Every gradient entry is finite, but its square is not: the Fisher
    value is refused with the group's name instead of being stored."""
    net = make_two_component_chain(seed=3)
    net.flat_grad[...] = 1e200
    first = build_groups(net, 1).groups[0]
    with (np.errstate(over="ignore"),
          pytest.raises(NumericsError, match=re.escape(repr(first.id)))):
        read_once(net)


@pytest.mark.parametrize("reads_before", [0, 2], ids=["first_read", "later_read"])
@pytest.mark.parametrize("cause", ["fisher", "beta"])
def test_a_read_that_raises_changes_no_state(cause, reads_before):
    """A read is all or nothing. Only the last group's gradients are poisoned:
    its Fisher sum overflows, or at eta 1e-300 its posterior beta does while
    its Fisher value and Bayes score stay finite. The read raises that
    group's error and leaves every state byte-identical, alpha, beta,
    metrics, iteration and unit scores, on the first read and on a later
    one; the reader then reads on as one that never met the poisoned read."""
    net = make_two_component_chain(seed=3)
    graph = build_groups(net, 1)
    cfg = BayesConfig(eta=1e-300) if cause == "beta" else BayesConfig()
    reader, twin = Reader(net, graph, cfg, 0.9), Reader(net, graph, cfg, 0.9)

    def snapshot(states):
        return json.dumps(states_to_doc(states, 0.9, cfg))

    for _ in range(reads_before):
        grads_for(net)
        reader.read()
        twin.read()
    before = snapshot(reader.states)
    grads_for(net)
    task = net.flat_grad.copy()
    last = graph.groups[-1]
    for lo, hi, _ in last.slots:
        net.flat_grad[lo:hi] = 1e20 if cause == "beta" else 1e200
    with (np.errstate(over="ignore"),
          pytest.raises(NumericsError, match=f"{re.escape(repr(last.id))}: .*{cause} inf")):
        reader.read()
    assert snapshot(reader.states) == before
    net.flat_grad[...] = task
    reader.read()
    twin.read()
    assert snapshot(reader.states) == snapshot(twin.states)


# -- the L1 term stays out of importance ------------------------------------------


@pytest.mark.parametrize("widths", [(6, 5, 4, 3, 2), (120, 160, 120, 80, 10)])
def test_the_l1_term_never_reaches_importance(widths, force_lane):
    """Reads leave ``flat_grad`` and ``flat_values`` bitwise
    unchanged, and an optimizer step with a large L1 coefficient per group
    leaves ``flat_grad`` holding the task gradient, so reading it after the
    step gives every metric, unit score and Bayes parameter of reading it
    before. The wider net spans an ``ADAM_BLOCK``, so its groups are queued
    for the second lane."""
    force_lane(True)
    net = make_two_component_chain(seed=5, widths=widths)
    graph = build_groups(net, 1)
    cfg = BayesConfig()
    grads_for(net)
    values, task = net.flat_values.tobytes(), net.flat_grad.tobytes()
    before = Reader(net, graph, cfg, 0.9)
    for _ in range(2):
        before.read()
    assert (net.flat_values.tobytes(), net.flat_grad.tobytes()) == (values, task)
    Adam(lr=0.1).step(net, graph.penalty([1e3 * (i + 1) for i in range(len(graph.groups))]))
    assert net.flat_grad.tobytes() == task and net.flat_values.tobytes() != values
    after = Reader(net, graph, cfg, 0.9)
    for _ in range(2):
        after.read()
    assert (json.dumps(states_to_doc(after.states, 0.9, cfg))
            == json.dumps(states_to_doc(before.states, 0.9, cfg)))


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
    assert ranked(metric_scores(states, ["c", "a"], "bayes"), ["c", "a"]) == ["c", "a"]


# -- round trip ------------------------------------------------------------------


def test_states_document_round_trip_is_lossless():
    net = make_toy_multihead(seed=9)
    cfg = BayesConfig()
    grads_for(net)
    states = read_once(net, cfg)
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


def test_states_from_doc_refuses_a_repeated_group_id():
    cfg = BayesConfig()
    states = init_states(build_groups(make_toy_multihead(seed=9), 1), cfg)
    doc = json.loads(json.dumps(states_to_doc(states, 0.9, cfg)))
    doc["groups"].append(dict(doc["groups"][0], ema_grad=123.0))
    with pytest.raises(DataFormatError, match=r"'groups\[4\]\.id' repeats group"):
        states_from_doc(doc)


def test_states_from_doc_rejects_foreign_documents():
    with pytest.raises(ConfigurationError):
        states_from_doc({"format": "other"})
