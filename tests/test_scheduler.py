"""Schedule exactness: endpoints, periodicity, phase rotation, L1 terms."""

import math

import numpy as np
import pytest

from prunescope.errors import ConfigurationError, NumericsError
from prunescope.modelgraph import build_groups
from prunescope.netcore import SGD, backward, forward, mse_loss
from prunescope.scheduler import (ScheduleConfig, lambda_coefficient,
                                  lambda_weight_at, phase_offset, schedule_row,
                                  total_loss)

from conftest import (fd_gradient, group_l1_norm, make_net, make_two_component_chain,
                      with_activations)


def test_defaults_derive_from_the_base_coefficient():
    cfg = ScheduleConfig(lambda_base=1e-5)
    assert cfg.lambda_min == 0.1 * 1e-5
    assert cfg.lambda_max == 2.0 * 1e-5
    assert cfg.cycle_T == 20
    assert cfg.lambda_weight == 1.0


def test_config_validation():
    with pytest.raises(ConfigurationError):
        ScheduleConfig(lambda_base=0.0)
    with pytest.raises(ConfigurationError):
        ScheduleConfig(lambda_min=2.0, lambda_max=1.0)
    with pytest.raises(ConfigurationError):
        ScheduleConfig(cycle_T=0)
    with pytest.raises(ConfigurationError):
        ScheduleConfig(lambda_weight=-0.5)


@pytest.mark.parametrize("field", ["lambda_base", "lambda_min", "lambda_max",
                                   "lambda_weight", "cycle_T", "warmup_epochs"])
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_config_refuses_non_finite_constants(field, value):
    with pytest.raises(ConfigurationError, match=field):
        ScheduleConfig(**{field: value})


def test_phase_offsets_spread_evenly_over_the_cycle():
    assert [phase_offset(i, 4, 20) for i in range(4)] == [0.0, 5.0, 10.0, 15.0]
    with pytest.raises(ConfigurationError):
        phase_offset(4, 4, 20)
    with pytest.raises(ConfigurationError):
        phase_offset(-1, 4, 20)


def test_zero_phase_group_starts_exactly_at_lambda_max():
    cfg = ScheduleConfig()
    lam = lambda_coefficient(0, 0, 3, 16, cfg)
    assert lam == cfg.lambda_max / 4.0  # sqrt(16) is exact


def test_half_cycle_hits_exactly_lambda_min():
    cfg = ScheduleConfig(cycle_T=20)
    lam = lambda_coefficient(10, 0, 1, 25, cfg)
    assert lam == cfg.lambda_min / 5.0


@pytest.mark.parametrize("seed", range(4))
def test_schedule_is_bitwise_periodic(seed):
    """Reducing the epoch counter modulo T before the cosine makes
    lambda(t + T) literally equal to lambda(t)."""
    rng = np.random.default_rng(seed)
    n_groups = int(rng.integers(1, 7))
    cfg = ScheduleConfig(cycle_T=int(rng.integers(2, 40)))
    for _ in range(200):
        t = int(rng.integers(0, 10_000))
        i = int(rng.integers(0, n_groups))
        n = int(rng.integers(1, 1000))
        assert lambda_coefficient(t + cfg.cycle_T, i, n_groups, n, cfg) \
            == lambda_coefficient(t, i, n_groups, n, cfg)


def test_phase_offset_is_a_pure_time_shift():
    """With integer offsets, group i at epoch 0 sees exactly what group 0
    sees at epoch phi_i."""
    cfg = ScheduleConfig(cycle_T=20)
    for i in range(4):
        shift = int(phase_offset(i, 4, 20))
        assert lambda_coefficient(0, i, 4, 49, cfg) \
            == lambda_coefficient(shift, 0, 4, 49, cfg)


def test_cycle_mean_is_the_midpoint():
    """cos averages to zero over any full integer-grid cycle, so the mean
    coefficient is (lambda_max + lambda_min) / 2 / sqrt(N)."""
    cfg = ScheduleConfig(cycle_T=20)
    for i in range(5):
        mean = np.mean([lambda_coefficient(t, i, 5, 1, cfg)
                        for t in range(cfg.cycle_T)])
        np.testing.assert_allclose(
            mean, 0.5 * (cfg.lambda_max + cfg.lambda_min), rtol=1e-12)


def test_size_normalization_scales_inverse_square_root():
    cfg = ScheduleConfig()
    big = lambda_coefficient(7, 1, 2, 400, cfg)
    small = lambda_coefficient(7, 1, 2, 100, cfg)
    assert big == small / 2.0


def test_coefficient_stays_within_the_band():
    cfg = ScheduleConfig(cycle_T=17)
    for t in range(40):
        for i in range(3):
            lam = lambda_coefficient(t, i, 3, 1, cfg)
            assert cfg.lambda_min - 1e-18 <= lam <= cfg.lambda_max + 1e-18


def test_schedule_row_and_argument_validation():
    cfg = ScheduleConfig()
    row = schedule_row(3, [100, 400], cfg)
    assert row == [lambda_coefficient(3, 0, 2, 100, cfg),
                   lambda_coefficient(3, 1, 2, 400, cfg)]
    with pytest.raises(ConfigurationError):
        lambda_coefficient(-1, 0, 2, 10, cfg)
    with pytest.raises(ConfigurationError):
        lambda_coefficient(0, 0, 2, 0, cfg)


def test_lambda_weight_warmup_ramp():
    cfg = ScheduleConfig(lambda_weight=2.0, warmup_epochs=5)
    assert lambda_weight_at(1, cfg) == 0.0
    assert lambda_weight_at(3, cfg) == 2.0 * (2 / 5)
    assert lambda_weight_at(6, cfg) == 2.0
    assert lambda_weight_at(60, cfg) == 2.0
    flat = ScheduleConfig(lambda_weight=2.0)
    assert lambda_weight_at(1, flat) == 2.0
    with pytest.raises(ConfigurationError):
        lambda_weight_at(0, cfg)


# -- L1 bookkeeping -----------------------------------------------------------


def hand_valued_net():
    net = make_net([2, 2, 2, 2], ["identity"] * 3,
                   components={"front": (0, 1), "back": (1, 3)}, seed=0)
    # Coupling group {W0, b0, W1}: L1 norm 3.0.
    net.layers[0].weight.values[...] = [[1.0, -1.0], [0.5, 0.0]]
    net.layers[0].bias.values[...] = [0.25, -0.25]
    net.layers[1].weight.values[...] = 0.0
    # back_1 group {b1, W2, b2}: L1 norm 4.0.
    net.layers[1].bias.values[...] = [0.25, 0.0]
    net.layers[2].weight.values[...] = [[-2.0, 1.0], [0.5, 0.25]]
    net.layers[2].bias.values[...] = 0.0
    return net


def test_group_l1_norm_and_l1_term_by_hand():
    net = hand_valued_net()
    graph = build_groups(net, 1)
    assert [g.id for g in graph.groups] == ["coupling_front_back", "back_1"]
    norms = graph.l1_norms(net.flat_values)
    assert norms == [group_l1_norm(net, g) for g in graph.groups] == [3.0, 4.0]
    # The term training adds: sum_i lambda_i * |theta_i|_1.
    np.testing.assert_allclose(sum(lam * n for lam, n in zip([0.1, 0.1], norms)), 0.7,
                               rtol=1e-15)


def test_total_loss_by_hand_and_finiteness():
    assert total_loss(0.2, 1.0, 0.5) == 0.7
    with pytest.raises(NumericsError):
        total_loss(math.inf, 1.0, 1.0)


@pytest.mark.parametrize("seed", range(3))
def test_composite_objective_gradient_matches_finite_differences(seed):
    """The gradient an optimizer step reads under ``graph.penalty`` of the
    scheduled coefficients is the analytic gradient of task + weight * sum
    lambda_i |theta_i|; the FD oracle probes the composite loss directly.
    Parameters are pushed away from zero so the probe never crosses the L1
    kink."""
    rng = np.random.default_rng(seed)
    net = make_two_component_chain(seed=seed)
    net = with_activations(net, ["sigmoid" if layer.activation == "relu" else "identity"
                                 for layer in net.layers])
    for _, _, tensor in net.param_tensors():
        tensor.values[...] = (rng.choice([-1.0, 1.0], size=tensor.shape)
                              * rng.uniform(0.5, 1.5, size=tensor.shape))
    graph = build_groups(net, 1)
    cfg = ScheduleConfig(lambda_base=1e-2)
    lambdas = schedule_row(seed, [g.param_count for g in graph.groups], cfg)
    weight = 0.7
    x = rng.uniform(size=(4, net.input_dim))
    y = rng.uniform(size=(4, net.output_dim))

    acts = forward(net, x)
    _, d_out = mse_loss(acts[-1], y)
    backward(net, acts, d_out)
    # An SGD step at lr 1 moves theta by the gradient it reads: the task
    # gradient plus the penalty's subgradient.
    stepped = net.copy()
    SGD(lr=1.0).step(stepped, graph.penalty([weight * lam for lam in lambdas]))
    flat = net.flat_values - stepped.flat_values

    def penalty(net):
        return weight * sum(lam * group_l1_norm(net, g)
                            for g, lam in zip(graph.groups, lambdas))
    picks = rng.choice(net.param_count(), size=15, replace=False)
    for index in picks:
        fd = fd_gradient(net, x, y, int(index), penalty=penalty)
        np.testing.assert_allclose(flat[index], fd, rtol=1e-5, atol=1e-9)
