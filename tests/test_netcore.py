"""Forward/backward correctness, optimizers, and checkpoint round trips."""

import ctypes
import json
import math
import os
import re
import subprocess
import sys
import textwrap
import threading
import time
import weakref
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from prunescope import netcore
from prunescope.errors import ConfigurationError, DataFormatError, NumericsError
from prunescope.harness.config import AUTOENCODER_LATENTS, ModelConfig, build_model
from prunescope.modelgraph import build_groups
from prunescope.netcore import (Adam, Network, SGD, apply_activation, backward,
                                build_sequential, forward, load_checkpoint,
                                mse_loss, save_checkpoint, seeded_layer)
from prunescope.pruner import PrunePlan, apply_prune

from conftest import (backward_oracle, checkpoint_parts, copied_checkpoint, dyadic,
                      fd_gradient, forward_oracle, make_net, make_toy_multihead,
                      make_two_component_chain, on_the_lane, predicted_removed_params,
                      random_dag, set_dyadic, slot_graph, strided_sink_weights,
                      with_activations, zero_penalty)


# -- activations -----------------------------------------------------------
# apply_activation is the kernel forward runs on each layer's output, in place.


def test_relu_clamps_negatives():
    z = np.array([-3.0, -0.0, 0.0, 2.5])
    assert apply_activation("relu", z) is z
    np.testing.assert_array_equal(z, [0.0, 0.0, 0.0, 2.5])


def sigmoid(z: np.ndarray) -> np.ndarray:
    """The sigmoid as forward runs it, on a copy of ``z``."""
    z = np.array(z, dtype=np.float64)
    assert apply_activation("sigmoid", z) is z
    return z


def test_sigmoid_matches_reference_and_stays_finite():
    out = sigmoid([-1000.0, -5.0, 0.0, 5.0, 1000.0])
    assert np.isfinite(out).all()
    assert out[2] == 0.5
    np.testing.assert_allclose(out[1], 1.0 / (1.0 + math.exp(5.0)), rtol=1e-15)
    np.testing.assert_allclose(out[3], 1.0 / (1.0 + math.exp(-5.0)), rtol=1e-15)
    assert (np.diff(out) >= 0).all()
    ends = sigmoid([-np.inf, -0.0, np.inf, np.nan])
    assert ends[0] == 0.0 and ends[1] == 0.5 and ends[2] == 1.0
    assert np.isnan(ends[3])
    # The same bits as the sign-split form: 1/(1+exp(-z)) for z >= 0,
    # exp(z)/(1+exp(z)) below.
    rng = np.random.default_rng(0)
    z = np.concatenate([rng.normal(0.0, scale, 2000)
                        for scale in (1e-300, 1e-8, 1.0, 30.0, 800.0)])
    pos = z >= 0
    split = np.empty_like(z)
    split[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    split[~pos] = np.exp(z[~pos]) / (1.0 + np.exp(z[~pos]))
    assert sigmoid(z).tobytes() == split.tobytes()


def test_unknown_activation_rejected():
    with pytest.raises(ConfigurationError):
        apply_activation("tanh", np.zeros(1))


# -- forward ---------------------------------------------------------------


def test_forward_single_unit_by_hand():
    net = Network([([[3.0]], [1.0], "identity")], {"body": (0, 1)})
    acts = forward(net, np.array([[2.0]]))
    assert len(acts) == 3
    np.testing.assert_array_equal(acts[0], [[2.0]])
    np.testing.assert_array_equal(acts[1], [[7.0]])
    np.testing.assert_array_equal(acts[2], [[7.0]])


def test_forward_output_aliases_last_layer_for_chains():
    net = make_net([4, 3, 2], ["relu", "identity"], seed=5)
    acts = forward(net, np.random.default_rng(1).uniform(size=(6, 4)))
    assert acts[-1] is acts[-2]
    assert len(acts) == len(net.layers) + 2


def test_forward_is_pure():
    net = make_net([5, 4, 3], ["sigmoid", "identity"], seed=2)
    x = np.random.default_rng(3).uniform(size=(7, 5))
    first = forward(net, x)[-1]
    second = forward(net, x)[-1]
    np.testing.assert_array_equal(first, second)


def test_forward_multihead_concatenates_sinks_in_layer_order():
    net = make_toy_multihead(seed=1)
    x = np.random.default_rng(4).uniform(size=(3, 16))
    acts = forward(net, x)
    assert acts[-1].shape == (3, 2)
    np.testing.assert_array_equal(acts[-1][:, 0:1], acts[3 + 1])
    np.testing.assert_array_equal(acts[-1][:, 1:2], acts[5 + 1])


def test_forward_rejects_bad_batches():
    net = make_net([3, 2], ["identity"])
    with pytest.raises(ConfigurationError):
        forward(net, np.zeros(3))
    with pytest.raises(ConfigurationError):
        forward(net, np.zeros((0, 3)))
    with pytest.raises(ConfigurationError):
        forward(net, np.zeros((2, 4)))


def lane_test_net(name: str) -> Network:
    """A preset network by name, or ``pruned``: the latent-8 autoencoder
    with units taken from four layers, a shape no preset has."""
    if name == "toy_multihead":
        return make_toy_multihead(seed=3)
    latent = 8 if name == "pruned" else int(name[len("latent"):])
    net = build_model(ModelConfig(preset="autoencoder", latent_dim=latent), 0)
    if name != "pruned":
        return net
    units = {"encoder_1": [(0, u) for u in range(0, 256, 11)],
             "encoder_2": [(1, u) for u in range(0, 128, 5)],
             "coupling_encoder_decoder": [(2, 1), (2, 6)],
             "decoder_1": [(4, u) for u in range(0, 256, 7)]}
    removed = predicted_removed_params(net, [u for us in units.values() for u in us])
    return apply_prune(net, build_groups(net), PrunePlan(0.1, "grad", units, removed))[0]


@pytest.mark.parametrize("name", [f"latent{d}" for d in AUTOENCODER_LATENTS]
                         + ["pruned", "toy_multihead"])
def test_the_lane_changes_no_activation_or_gradient_bit(force_lane, name):
    """With the lane forced on, every activation equals the layer-by-layer
    oracle bit for bit, and every gradient equals backward's without the
    lane, at batch sizes from one row up."""
    net = lane_test_net(name)
    rng = np.random.default_rng(9)
    for rows in (1, 3, 40, 64, 127, 128, 256):
        x = rng.standard_normal((rows, net.input_dim))
        force_lane(True)
        acts = forward(net, x)
        assert ([a.tobytes() for a in acts[:-1]]
                == [a.tobytes() for a in forward_oracle(net, x)]), f"batch {rows}"
        d_out = rng.standard_normal(acts[-1].shape)
        grads = []
        for on in (True, False):
            force_lane(on)
            backward(net, acts, d_out)
            grads.append(net.flat_grad.tobytes())
        assert grads[0] == grads[1], f"batch {rows}"


def test_backward_keeps_the_input_layer_whole_on_this_thread(force_lane, monkeypatch):
    """The input layer's gradients are one whole call on the calling thread;
    each other layer's are one whole call on the lane's worker or, taken
    back when the stage closes, on the calling thread."""
    force_lane(True)
    net = lane_test_net("latent8")
    calls, param_grads = [], netcore._param_grads

    def recording(dz, x, weight_grad, bias_grad):
        k = next(k for k, layer in enumerate(net.layers)
                 if np.shares_memory(weight_grad, layer.weight.grad))
        calls.append((k, threading.get_ident(), on_the_lane(), weight_grad.shape))
        param_grads(dz, x, weight_grad, bias_grad)

    monkeypatch.setattr(netcore, "_param_grads", recording)
    acts = forward(net, np.random.default_rng(2).standard_normal((128, net.input_dim)))
    backward(net, acts, np.ones_like(acts[-1]))
    here = threading.get_ident()
    assert sorted(k for k, _, _, _ in calls) == list(range(6))
    for k, thread, lane, shape in sorted(calls):
        assert shape == net.layers[k].weight.grad.shape
        assert thread == here or (lane and k > 0), f"layer {k}"


# The random DAGs with an identity sink wider than one unit among several
# sinks: the only networks whose gradient bits backward_oracle may not share.
STRIDED_SINK_DAGS = (1, 2, 3, 5, 6, 7, 9, 10, 11, 14, 18, 19, 20, 21, 22, 23, 24, 26, 29,
                     30, 31, 32, 34, 35, 36, 39, 40, 41, 43, 44, 45, 48, 49, 52, 56, 57,
                     59, 60, 61, 62, 63)


@pytest.mark.parametrize("name, rows", [
    *((name, rows) for name in ("toy_multihead", "latent8", "latent512")
      for rows in (1, 37, 128)),
    ("dags", 4), ("dags", 128)])
def test_backward_has_the_bits_of_the_per_layer_matmul_oracle(name, rows):
    """Every forward activation equals the layer-by-layer oracle and every
    gradient element equals backward_oracle's (per-layer lookups, products
    through np.matmul), bit for bit, except in the weight gradient of an
    identity sink wider than one unit in a network of several sinks. No
    preset has such a sink; of the 64 random DAGs, those named above do."""
    nets = ([lane_test_net(name)] if name != "dags"
            else [random_dag(seed)[0] for seed in range(64)])
    assert [seed for seed, net in enumerate(nets) if strided_sink_weights(net)] == (
        list(STRIDED_SINK_DAGS) if name == "dags" else [])
    rng = np.random.default_rng([rows, 40])
    for seed, net in enumerate(nets):
        x = rng.standard_normal((rows, net.input_dim))
        acts = forward(net, x)
        assert ([a.tobytes() for a in acts[:-1]]
                == [a.tobytes() for a in forward_oracle(net, x)]), seed
        d_out = rng.standard_normal(acts[-1].shape)
        backward(net, acts, d_out)
        same = net.flat_grad.view(np.int64) == backward_oracle(net, acts, d_out).view(np.int64)
        for lo, hi in strided_sink_weights(net):
            same[lo:hi] = True
        assert same.all(), (seed, np.flatnonzero(~same)[:8])


# -- loss ------------------------------------------------------------------


def test_mse_by_hand():
    loss, grad = mse_loss(np.array([[2.0]]), np.array([[0.0]]))
    assert loss == 4.0
    np.testing.assert_array_equal(grad, [[4.0]])


def test_mse_means_over_every_element():
    pred = np.array([[1.0, 3.0], [5.0, 7.0]])
    target = np.zeros((2, 2))
    loss, grad = mse_loss(pred, target)
    assert loss == (1.0 + 9.0 + 25.0 + 49.0) / 4.0
    np.testing.assert_array_equal(grad, pred / 2.0)


def test_mse_refuses_an_empty_prediction_before_dividing():
    with pytest.raises(ConfigurationError, match=r"empty prediction \(0, 3\)"):
        mse_loss(np.empty((0, 3)), np.empty((0, 3)))


def test_mse_loss_has_the_bits_of_the_mean_of_squares():
    """The loss sums with ``np.add.reduce`` and divides once: the pairwise sum
    and the division of ``np.mean``, so the same bits on every shape."""
    rng = np.random.default_rng(20)
    for _ in range(200):
        shape = tuple(int(n) for n in rng.integers(1, 300, size=int(rng.integers(1, 3))))
        pred = rng.standard_t(1, size=shape) * 10.0 ** int(rng.integers(-5, 6))
        target = rng.standard_normal(shape)
        loss, _ = mse_loss(pred, target)
        assert loss == float(np.mean((pred - target) * (pred - target))), shape


def test_mse_shape_mismatch():
    with pytest.raises(ConfigurationError):
        mse_loss(np.zeros((2, 3)), np.zeros((3, 2)))


# -- backward --------------------------------------------------------------


def test_backward_single_layer_by_hand():
    net = Network([([[2.0]], [0.0], "identity")], {"body": (0, 1)})
    acts = forward(net, np.array([[3.0]]))
    backward(net, acts, np.array([[1.0]]))
    np.testing.assert_array_equal(net.layers[0].weight.grad, [[3.0]])
    np.testing.assert_array_equal(net.layers[0].bias.grad, [1.0])


def test_backward_overwrites_rather_than_accumulates():
    net = make_net([3, 2], ["identity"], seed=7)
    x = np.random.default_rng(8).uniform(size=(4, 3))
    acts = forward(net, x)
    _, d_out = mse_loss(acts[-1], np.zeros((4, 2)))
    backward(net, acts, d_out)
    once = net.layers[0].weight.grad.copy()
    backward(net, acts, d_out)
    np.testing.assert_array_equal(net.layers[0].weight.grad, once)


@pytest.mark.parametrize("seed", range(6))
def test_backward_matches_finite_differences_on_smooth_nets(seed):
    """Exact reverse-mode gradients against the central-difference oracle;
    sigmoid/identity only so the objective is smooth at every probe."""
    rng = np.random.default_rng(seed)
    net = make_net([4, 6, 5, 3], ["sigmoid", "sigmoid", "identity"], seed=seed)
    x = rng.uniform(-1.0, 1.0, size=(5, 4))
    y = rng.uniform(-1.0, 1.0, size=(5, 3))
    acts = forward(net, x)
    _, d_out = mse_loss(acts[-1], y)
    backward(net, acts, d_out)
    flat_grads = np.concatenate([t.grad.reshape(-1)
                                 for _, _, t in net.param_tensors()])
    picks = rng.choice(net.param_count(), size=25, replace=False)
    for index in picks:
        fd = fd_gradient(net, x, y, int(index))
        np.testing.assert_allclose(flat_grads[index], fd, rtol=1e-6, atol=1e-9)


def test_backward_matches_finite_differences_with_relu_away_from_kinks():
    """relu is piecewise linear, so the oracle applies whenever no
    pre-activation sits within the probe radius of zero."""
    seed = 11
    rng = np.random.default_rng(seed)
    net = make_net([3, 8, 2], ["relu", "identity"], seed=seed)
    x = rng.uniform(0.5, 1.5, size=(4, 3))
    y = rng.uniform(-1.0, 1.0, size=(4, 2))
    acts = forward(net, x)
    pre = x @ net.layers[0].weight.values.T + net.layers[0].bias.values
    assert np.abs(pre).min() > 1e-3, "seed must keep pre-activations off the kink"
    _, d_out = mse_loss(acts[-1], y)
    backward(net, acts, d_out)
    flat_grads = np.concatenate([t.grad.reshape(-1)
                                 for _, _, t in net.param_tensors()])
    for index in range(0, net.param_count(), 7):
        fd = fd_gradient(net, x, y, index)
        np.testing.assert_allclose(flat_grads[index], fd, rtol=1e-6, atol=1e-9)


@pytest.mark.parametrize("seed", range(4))
def test_backward_accumulates_fanout_through_shared_encoder(seed):
    """The shared encoder output feeds both heads, so its gradient is the
    sum of both heads' contributions; the oracle sees the same sum."""
    net = make_toy_multihead(seed=seed)
    net = with_activations(net, ["sigmoid" if layer.activation == "relu" else "identity"
                                 for layer in net.layers])
    rng = np.random.default_rng(seed + 100)
    x = rng.uniform(size=(4, 16))
    y = rng.uniform(size=(4, 2))
    acts = forward(net, x)
    _, d_out = mse_loss(acts[-1], y)
    backward(net, acts, d_out)
    flat_grads = np.concatenate([t.grad.reshape(-1)
                                 for _, _, t in net.param_tensors()])
    picks = rng.choice(net.param_count(), size=20, replace=False)
    for index in picks:
        fd = fd_gradient(net, x, y, int(index))
        np.testing.assert_allclose(flat_grads[index], fd, rtol=1e-6, atol=1e-9)


def test_backward_rejects_width_mismatch():
    net = make_net([3, 2], ["identity"])
    acts = forward(net, np.zeros((2, 3)))
    with pytest.raises(ConfigurationError):
        backward(net, acts, np.zeros((2, 5)))
    with pytest.raises(ConfigurationError):
        backward(net, acts[:-1], np.zeros((2, 2)))


def test_fd_gradient_restores_the_probed_parameter():
    net = make_net([2, 2], ["identity"], seed=3)
    before = net.flat_values.copy()
    fd_gradient(net, np.ones((1, 2)), np.zeros((1, 2)), 1)
    assert net.flat_values.tobytes() == before.tobytes()


# -- optimizers ------------------------------------------------------------


def test_sgd_by_hand():
    net = Network([([[1.0]], [0.0], "identity")], {"body": (0, 1)})
    net.layers[0].weight.grad[...] = 2.0
    SGD(lr=0.1).step(net, zero_penalty(net))
    np.testing.assert_array_equal(net.layers[0].weight.values, [[0.8]])


def test_adam_first_step_matches_hand_computation():
    net = Network([([[1.0]], [0.0], "identity")], {"body": (0, 1)})
    g = 0.5
    net.layers[0].weight.grad[...] = g
    opt = Adam(lr=0.1, beta1=0.9, beta2=0.999, eps=1e-8)
    opt.step(net, zero_penalty(net))
    m_hat = (1 - 0.9) * g / (1 - 0.9)
    v_hat = (1 - 0.999) * g * g / (1 - 0.999)
    expected = 1.0 - 0.1 * m_hat / (math.sqrt(v_hat) + 1e-8)
    np.testing.assert_allclose(net.layers[0].weight.values, [[expected]],
                               rtol=0, atol=1e-15)


def test_adam_second_step_matches_hand_computation():
    net = Network([([[1.0]], [0.0], "identity")], {"body": (0, 1)})
    opt = Adam(lr=0.1)
    m = v = 0.0
    theta = 1.0
    for t, g in enumerate([0.5, -0.25], start=1):
        net.layers[0].weight.grad[...] = g
        opt.step(net, zero_penalty(net))
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        theta -= 0.1 * (m / (1 - 0.9 ** t)) / (
            math.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
    np.testing.assert_allclose(net.layers[0].weight.values, [[theta]],
                               rtol=0, atol=1e-15)


# Each gradient of the accuracy test is G / 2**GRAD_BITS for an integer G.
GRAD_BITS = 128


def fixed_point(x: float, bits: int) -> int:
    """The integer ``x * 2**bits``, which must be exact."""
    n, d = x.as_integer_ratio()
    assert d.bit_length() - 1 <= bits
    return n * ((1 << bits) // d)


def floor_scaled(x: int, k: int, bits: int) -> int:
    """``floor(x * 2**(bits - k))``."""
    return x >> (k - bits) if k >= bits else x << (bits - k)


class ExactMoments:
    """Adam's moments of every element, kept exactly: after ``t`` steps the
    first moment is ``M / 2**(64t + GRAD_BITS)``, the first moment of |g|
    ``A`` over the same power of two, and the second moment
    ``V / 2**(64t + 2 GRAD_BITS)``. Every beta and ``1 - beta`` is a
    multiple of ``2**-64``, so a step is integer arithmetic."""

    def __init__(self, n: int, b1: float, b2: float) -> None:
        self.b1, self.c1 = fixed_point(b1, 64), fixed_point(1.0 - b1, 64)
        self.b2, self.c2 = fixed_point(b2, 64), fixed_point(1.0 - b2, 64)
        self.m, self.a, self.v = [0] * n, [0] * n, [0] * n
        self.t, self.b1_t, self.b2_t = 0, 1, 1

    def step(self, g: np.ndarray) -> None:
        shift = 64 * self.t
        for i, x in enumerate(g.tolist()):
            q = fixed_point(x, GRAD_BITS)
            self.m[i] = self.b1 * self.m[i] + (self.c1 * q << shift)
            self.a[i] = self.b1 * self.a[i] + (self.c1 * abs(q) << shift)
            self.v[i] = self.b2 * self.v[i] + (self.c2 * q * q << shift)
        self.t, self.b1_t, self.b2_t = self.t + 1, self.b1_t * self.b1, self.b2_t * self.b2

    def moments(self, i: int) -> tuple[Fraction, Fraction]:
        k = 64 * self.t + GRAD_BITS
        return Fraction(self.m[i], 1 << k), Fraction(self.v[i], 1 << (k + GRAD_BITS))

    def updates(self, lr: float, eps: float) -> list[tuple[float, float]]:
        """Per element, the textbook update ``lr*(m/c1)/(sqrt(v/c2)+eps)``
        and the same with the first moment of |g|, each rounded once to a
        float. The moments, ``c1``, ``c2`` and the square root are cut to at
        least 64 bits past ``2**-GRAD_BITS``: far below an ulp of either."""
        k, extra = 64 * self.t, GRAD_BITS + 64
        c1, c2 = (Fraction((1 << 256) - floor_scaled(p, k, 256), 1 << 256)
                  for p in (self.b1_t, self.b2_t))
        unit = Fraction(1, 1 << extra)
        out = []
        for m, a, v in zip(self.m, self.a, self.v):
            root = math.isqrt(floor_scaled(v, k, 128) * c2.denominator // c2.numerator)
            denominator = (root * unit + Fraction(eps)) * c1
            out.append(tuple(float(Fraction(lr) * floor_scaled(x, k, 64) * unit / denominator)
                             for x in (m, a)))
        return out


def adam_before_folding(m, v, g, t, lr=1e-3, b1=0.9, b2=0.999, eps=1e-8):
    """The element-wise order ``Adam`` had before it folded its scalars."""
    m = b1 * m + (1.0 - b1) * g
    v = b2 * v + ((1.0 - b2) * g) * g
    return m, v, (lr * (m / (1.0 - b1 ** t))) / (np.sqrt(v / (1.0 - b2 ** t)) + eps)


def test_adam_updates_are_within_128_ulps_of_exact_moments_in_either_order():
    """Random gradients with |g| from 1e-10 to 1, for 2,000 steps. Each
    update is compared with the textbook update on moments kept exactly,
    in ulps of that update taken with the first moment of |g|: the scale at
    which the first moment's sum cancels. ``Adam``'s order (moments divided
    by ``1 - beta``, one step size) and the order before it both hold the
    bound, so the folding costs no accuracy."""
    rng = np.random.default_rng(7)
    n, lr, eps = 6, 1e-3, 1e-8
    net = Network([([[0.0] * n], [0.0], "identity")], {"body": (0, 1)})
    opt, penalty = Adam(lr=lr, eps=eps), zero_penalty(net)
    exact = ExactMoments(n, opt.beta1, opt.beta2)
    m_f, v_f = Fraction(0), Fraction(0)
    m_old = v_old = np.zeros(n)
    worst = {"Adam": 0.0, "before": 0.0}
    for t in range(1, 2001):
        g = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-10.0, 0.0, n)
        net.layers[0].weight.grad[0] = g
        net.flat_values[:] = 0.0  # so the new value is minus the update, unrounded
        opt.step(net, penalty)
        m_old, v_old, u_old = adam_before_folding(m_old, v_old, g, t, lr, eps=eps)
        exact.step(g)
        if t <= 20:  # the integer bookkeeping is the Fraction recurrence
            b1, b2 = Fraction(opt.beta1), Fraction(opt.beta2)
            m_f = b1 * m_f + (1 - b1) * Fraction(g[0])
            v_f = b2 * v_f + (1 - b2) * Fraction(g[0]) ** 2
            assert exact.moments(0) == (m_f, v_f)
        got = -net.layers[0].weight.values[0]
        for i, (want, scale) in enumerate(exact.updates(lr, eps)):
            for name, u in (("Adam", got[i]), ("before", u_old[i])):
                worst[name] = max(worst[name], abs(u - want) / math.ulp(scale))
    assert max(worst.values()) <= 128, worst


def test_adam_stays_finite_past_the_step_where_beta2_to_the_t_underflows():
    """0.999**t is 0.0 for t above about 745,000: the step size and
    ``eps_hat`` then take their limits, and the values stay finite."""
    net = Network([([[1.0, -2.0]], [0.5], "identity")], {"body": (0, 1)})
    net.layers[0].weight.grad[...] = [[0.5, -1e-10]]
    net.layers[0].bias.grad[...] = 1e-3
    opt = Adam(lr=0.1)
    opt.step(net, zero_penalty(net))
    opt._t = 800_000
    assert opt.beta2 ** (opt._t + 1) == 0.0
    opt.step(net, zero_penalty(net))
    for moment in (net.flat_values, opt._m, opt._v):
        assert np.isfinite(moment).all()


def test_adam_state_resets_when_a_tensor_changes_shape(rng):
    net = make_toy_multihead(seed=2)
    units = [(0, 0), (0, 5)]
    plan = PrunePlan(0.1, "grad", {"encoder_1": units},
                     predicted_removed_params(net, units))
    pruned, _ = apply_prune(net, build_groups(net), plan)
    for model in (net, pruned):
        for _, _, t in model.param_tensors():
            t.grad[...] = dyadic(rng, t.shape)
    fresh = pruned.copy()
    opt = Adam(lr=0.01)
    opt.step(net, zero_penalty(net))
    opt.step(pruned, zero_penalty(pruned))
    Adam(lr=0.01).step(fresh, zero_penalty(fresh))
    assert pruned.flat_values.tobytes() == fresh.flat_values.tobytes()


# -- the L1 penalty an optimizer step takes ----------------------------------


def l1_gradient(values, grad, coeff) -> np.ndarray:
    """The gradient an optimizer step reads for a one-layer net, one group,
    whose arena is ``values`` then a zero bias and whose gradient is
    ``grad`` then a zero, under the penalty of L1 coefficient ``coeff``.
    The network's own gradient stays the task gradient."""
    net = Network([([values], [0.0], "identity")], {"body": (0, 1)})
    net.layers[0].weight.grad[...] = [grad]
    task = net.flat_grad.tobytes()
    penalty = build_groups(net, 1).penalty([coeff])
    read = penalty.gradient(net.flat_grad, net.flat_values, 0, net.flat_grad.size)
    assert net.flat_grad.tobytes() == task
    return read


def test_l1_subgradient_by_hand():
    np.testing.assert_array_equal(l1_gradient([-2.0, 0.0, 5.0], [0.0, 0.0, 0.0], 0.1),
                                  [-0.1, 0.0, 0.1, 0.0])


def test_l1_subgradient_adds_on_top_of_task_gradient():
    np.testing.assert_array_equal(l1_gradient([1.0, -1.0], [0.5, 0.5], 0.25),
                                  [0.75, 0.25, 0.0])


def test_l1_subgradient_zero_coefficient_is_a_noop():
    read = l1_gradient([1.0, -1.0], [-0.0, 0.0], 0.0)
    np.testing.assert_array_equal(read, [0.0, 0.0, 0.0])
    assert np.signbit(read[0])  # -0.0 + 0 * sign(1.0) would be +0.0


@pytest.mark.parametrize("make_opt", [lambda: SGD(lr=0.1), lambda: Adam(lr=0.01)],
                         ids=["SGD", "Adam"])
def test_a_step_refuses_a_penalty_bound_for_another_layout(make_opt):
    """Widths (2, 3, 2) and (3, 2, 3) both give 17 parameters, but their
    slots end at other places: a penalty bound for one must not step the
    other, whose arena it would cut at the wrong boundaries."""
    net = make_net([2, 3, 2], ["relu", "identity"], seed=0)
    other = make_net([3, 2, 3], ["relu", "identity"], seed=0)
    assert other.param_count() == net.param_count() and other.layout != net.layout
    net.flat_grad[...] = 1.0
    before = net.flat_values.tobytes()
    opt = make_opt()
    with pytest.raises(ConfigurationError, match="another parameter layout"):
        opt.step(net, build_groups(other, 1).penalty([0.5, 0.5]))
    assert net.flat_values.tobytes() == before
    opt.step(net, build_groups(net, 1).penalty([0.5, 0.5]))
    assert net.flat_values.tobytes() != before


@pytest.mark.parametrize("make_opt", [lambda: SGD(lr=0.1), lambda: Adam(lr=0.01)],
                         ids=["SGD", "Adam"])
def test_a_step_refuses_anything_but_a_bound_penalty_before_its_state_moves(make_opt):
    """``None``, bare coefficients and a penalty bound for another layout
    are refused before the values move, or Adam's step count and moments."""
    net = make_net([2, 3, 2], ["relu", "identity"], seed=0)
    other = make_net([3, 2, 3], ["relu", "identity"], seed=0)
    net.flat_grad[...] = 1.0
    opt = make_opt()
    opt.step(net, zero_penalty(net))

    def state():
        return (net.flat_values.tobytes(), getattr(opt, "_t", None),
                *(getattr(opt, moment, np.empty(0)).tobytes() for moment in ("_m", "_v")))

    before = state()
    for penalty, message in ((None, "takes a Penalty, got NoneType"),
                             ([0.5, 0.5], "takes a Penalty, got list"),
                             (zero_penalty(other), "another parameter layout")):
        with pytest.raises(ConfigurationError, match=message):
            opt.step(net, penalty)
        assert state() == before


def test_a_penalty_holds_parts_side_by_side_with_the_bits_of_adding_each_in_place(rng):
    """Parts of distinct coefficients side by side in one block, a group
    of two adjacent slots, and zero-coefficient parts at both ends and in
    between: each element is read with at most one addition, as in place,
    and a zero part keeps its ``-0.0`` gradients."""
    theta = dyadic(rng, (10,))
    theta[[1, 6]] = 0.0
    g = dyadic(rng, (10,))
    g[[0, 4, 9]] = -0.0
    graph = slot_graph(10, [(0, 1), (4, 5), (9, 10)], [(1, 3)], [(3, 4)],
                       [(5, 7), (7, 8)], [(8, 9)])
    assert graph.blocks == (((0, 1, 0), (1, 3, 1), (3, 4, 2), (4, 5, 0), (5, 8, 3),
                             (8, 9, 4), (9, 10, 0)),)
    coeffs = [0.0, 0.5, 0.25, 2.0, 0.0]
    want = g.copy()
    for group, coeff in zip(graph.groups, coeffs):
        for lo, hi, _ in group.slots:
            if coeff:
                want[lo:hi] += coeff * np.sign(theta[lo:hi])
    task = g.tobytes()
    read = graph.penalty(coeffs).gradient(g, theta, 0, 10)
    assert read.tobytes() == want.tobytes() and g.tobytes() == task
    assert np.signbit(read[[0, 4, 9]]).all()


def test_a_block_of_zero_coefficients_is_read_as_a_private_copy(rng):
    """A step may overwrite the gradient it reads: over a block whose
    coefficients are all zero, that is a copy of ``flat_grad``'s block with
    its bits, ``-0.0`` included, that shares no memory with it."""
    theta, g = dyadic(rng, (10,)), dyadic(rng, (10,))
    g[[2, 7]] = -0.0
    graph = slot_graph(10, [(0, 4)], [(4, 10)])
    read = graph.penalty([0.0, 0.0]).gradient(g, theta, 0, 10)
    assert read.tobytes() == g.tobytes() and not np.shares_memory(read, g)


@pytest.mark.parametrize("make_opt", [lambda: SGD(lr=0.1), lambda: Adam(lr=0.01)],
                         ids=["SGD", "Adam"])
def test_a_penalized_step_has_the_bits_of_adding_the_term_in_place(force_lane, make_opt):
    """Two steps with the L1 term as the step's penalty give the values (and
    Adam's moments) of adding ``coeff * sign(theta)`` to the gradient in
    place, group by group and one ``ADAM_BLOCK`` at a time from each slot's
    start, and then stepping without one. The arena spans four blocks, slots
    cross block edges, and it holds -0.0 gradients, theta = 0 entries and a
    group of coefficient zero, whose end shares a block with a penalized
    run. The penalized network's gradient stays the task gradient."""
    force_lane(True)
    net = make_two_component_chain(seed=4, widths=(200, 300, 120, 40, 200))
    graph = build_groups(net, 1)
    assert net.param_count() > 3 * netcore.ADAM_BLOCK
    assert any(lo // netcore.ADAM_BLOCK != (hi - 1) // netcore.ADAM_BLOCK
               for lo, hi in graph.slots)
    rng = np.random.default_rng(12)
    net.flat_values[::97] = 0.0
    task = rng.normal(0.0, 1e-3, net.flat_grad.size)
    task[::89] = -0.0
    coeffs = [1e-3 * i for i in range(len(graph.groups))]
    assert coeffs[0] == 0.0
    # The zero-coefficient group ends inside a block that a penalized part
    # fills: a zero part whose -0.0 gradients, at -0.0 values, the step must keep
    # (SGD's -0.0 - lr * -0.0 is +0.0, and -0.0 - lr * +0.0 is -0.0).
    edge = max(hi for _, hi, _ in graph.groups[0].slots)
    assert edge % netcore.ADAM_BLOCK and coeffs[1] != 0.0
    gap = np.arange(edge - edge % netcore.ADAM_BLOCK, edge)
    gap = gap[task[gap] == 0.0]
    assert gap.size and np.signbit(task[gap]).all()
    net.flat_values[gap] = -0.0
    reference, penalized = net.copy(), net.copy()
    ref_opt, opt = make_opt(), make_opt()
    for _ in range(2):
        g = reference.flat_grad
        g[...] = task
        for group, coeff in zip(graph.groups, coeffs):
            if coeff != 0.0:
                for lo, hi, _ in group.slots:
                    for start in range(lo, hi, netcore.ADAM_BLOCK):
                        end = min(start + netcore.ADAM_BLOCK, hi)
                        term = np.sign(reference.flat_values[start:end])
                        g[start:end] += np.multiply(term, coeff, out=term)
        ref_opt.step(reference, zero_penalty(reference))
        penalized.flat_grad[...] = task
        opt.step(penalized, graph.penalty(coeffs))
        assert penalized.flat_grad.tobytes() == task.tobytes()
        assert penalized.flat_values.tobytes() == reference.flat_values.tobytes()
    for moment in ("_m", "_v"):
        assert (getattr(opt, moment, np.empty(0)).tobytes()
                == getattr(ref_opt, moment, np.empty(0)).tobytes())


@pytest.mark.parametrize("make_opt, context", [
    (lambda: SGD(lr=0.1), "after SGD step"),
    (lambda: Adam(lr=0.1), "after Adam step"),
])
def test_optimizer_names_the_non_finite_tensor(make_opt, context):
    # 200 * 200 weights put layer1 past the first Adam block.
    net = make_net([200, 200, 2], ["relu", "identity"], seed=0)
    net.layers[1].weight.grad[1, 7] = math.inf
    with np.errstate(invalid="ignore"), pytest.raises(
            NumericsError, match=rf"values in layer1\.weight {context}"):
        make_opt().step(net, zero_penalty(net))


def test_adam_refuses_a_second_moment_that_overflows():
    """A finite task gradient of 1e156 squares past the float range, so v
    is infinite and the update m / (sqrt(v) + eps) is 0: the step raises an
    error that names the tensor, where it once left the weight at 1.0 with
    only a warning, step after step."""
    net = Network([([[1.0]], [0.0], "identity")], {"body": (0, 1)})
    opt = Adam(lr=0.1)
    net.flat_grad[...] = [1e156, 0.0]
    with np.errstate(over="ignore"), pytest.raises(
            NumericsError, match=r"^the second moment of layer0\.weight overflowed after Adam step$"):
        opt.step(net, zero_penalty(net))
    assert net.flat_grad.tolist() == [1e156, 0.0]


@pytest.mark.parametrize("stage", ["backward", "SGD", "Adam"])
def test_a_non_finite_value_on_the_second_lane_is_named_as_without_it(
        force_lane, stage):
    """40,602 parameters span two ADAM_BLOCKs, so layer1 is stepped by the
    upper half, which runs on the lane; backward hands every weight gradient
    to it. The error names the same tensor with the lane forced on and off."""
    messages = []
    for on in (True, False):
        force_lane(on)
        net = make_net([200, 200, 2], ["relu", "identity"], seed=0)
        acts = forward(net, np.ones((3, 200)))
        with np.errstate(invalid="ignore"), pytest.raises(NumericsError) as err:
            if stage == "backward":
                acts[1][0, 5] = math.inf
                backward(net, acts, np.ones((3, 2)))
            else:
                net.layers[1].weight.grad[1, 7] = math.inf
                (SGD(lr=0.1) if stage == "SGD" else Adam(lr=0.1)).step(net, zero_penalty(net))
        messages.append(str(err.value))
        assert ("pool" in netcore._LANE) == on
    assert messages[0] == messages[1]
    assert "layer1.weight" in messages[0]


@pytest.mark.parametrize("on", [True, False], ids=["lane", "inline"])
def test_second_lane_reraises_after_both_halves_finish(force_lane, on):
    """With the lane and inline alike, every call runs, the earliest
    submitted call's error is raised after the block, and an error of the
    block itself wins. A nested stage queues like any other: its call has
    run once when it closes."""
    force_lane(on)
    done = []

    def fail(message="from the call"):
        done.append("call")
        raise ValueError(message)

    with pytest.raises(ValueError, match="^from the call$"):
        with netcore.second_lane(netcore.ADAM_BLOCK) as submit:
            submit(fail)
            submit(fail, "from a later call")
            done.append("here")
    assert sorted(done) == ["call", "call", "here"]
    # An exception of the stage itself wins; the lane is free afterwards.
    with pytest.raises(KeyError):
        with netcore.second_lane(netcore.ADAM_BLOCK) as submit:
            submit(fail)
            raise KeyError("here")
    here, ran = threading.get_ident(), []  # (stage, thread)
    threads = {"here", "lane"} if on else {"here"}

    def record(stage):
        ran.append((stage, "here" if threading.get_ident() == here
                    else "lane" if on_the_lane() else "another"))

    with netcore.second_lane(netcore.ADAM_BLOCK) as submit:
        submit(record, "outer")
        with netcore.second_lane(netcore.ADAM_BLOCK) as nested:
            nested(record, "nested")
        nested_ran = [thread for stage, thread in ran if stage == "nested"]
        assert len(nested_ran) == 1 and nested_ran[0] in threads
    assert sorted(stage for stage, _ in ran) == ["nested", "outer"]
    assert {thread for _, thread in ran} <= threads


def test_a_stage_runs_the_calls_a_held_up_lane_has_not_taken(gated_lane):
    """Leaving the block, this thread runs every call the worker has not
    taken, from the back; once free, the worker skips the stage's cancelled
    task and then serves the next stage as before."""
    ran = []
    with netcore.second_lane(netcore.ADAM_BLOCK) as submit:
        for i in range(4):
            submit(lambda i=i: ran.append((i, threading.get_ident())))
    assert ran == [(i, threading.get_ident()) for i in (3, 2, 1, 0)]
    gated_lane.set()
    taken = threading.Event()

    def record():
        ran.append(on_the_lane())
        taken.set()

    with netcore.second_lane(netcore.ADAM_BLOCK) as submit:
        submit(record)
        assert taken.wait(timeout=60)  # the worker took it; leaving waits for it
    assert ran[4:] == [True]


def test_the_earliest_submitted_error_wins_whichever_call_ran_first(gated_lane):
    """The held-up lane leaves both calls to this thread, which runs the
    later one first; the earlier one's error is still the one raised."""
    def fail(message):
        raise ValueError(message)

    with pytest.raises(ValueError, match="^first$"):
        with netcore.second_lane(netcore.ADAM_BLOCK) as submit:
            submit(fail, "first")
            submit(fail, "second")


def test_stages_from_four_threads_close_after_each_call_ran_once(force_lane):
    """Four threads open 200 stages of eight calls each under a short
    switch interval: every stage shares its calls with the one worker and
    closes only after each of its calls has run exactly once."""
    force_lane(True)
    wrong = []

    def call(ran, i):
        time.sleep(1e-5)  # gives the worker time to take calls
        ran.append(i)

    def stages():
        for _ in range(200):
            ran = []
            with netcore.second_lane(netcore.ADAM_BLOCK) as submit:
                for i in range(8):
                    submit(call, ran, i)
            if sorted(ran) != list(range(8)):
                wrong.append(ran)

    threads = [threading.Thread(target=stages, daemon=True) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


@pytest.mark.parametrize("threads", [1, 2])
def test_blas_runtime_reads_the_thread_count_set_before_numpy_loads(threads):
    config = np.__config__.CONFIG["Build Dependencies"]["blas"]
    if config["name"] != "scipy-openblas":
        pytest.skip(f"numpy is built with {config['name']}, not scipy-openblas")
    code = ("import dataclasses, json; from prunescope import netcore; "
            "print(json.dumps([dataclasses.asdict(netcore.blas_runtime()), "
            "netcore._usable_cores()]))")
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env=env)
    assert done.returncode == 0, done.stderr
    blas, cores = json.loads(done.stdout)
    assert blas["name"] == "scipy-openblas"
    assert blas["version"] == config["version"]
    assert blas["core"] not in ("", "unknown")
    assert blas["threads"] == min(threads, cores)


def test_blas_runtime_is_unknown_without_the_entry_points(monkeypatch):
    """A handle that lacks scipy-openblas's symbols (here the process's own
    symbol table), and no handle where the library cannot be opened, read as
    unknown."""
    unknown = netcore.BlasRuntime()
    assert unknown.threads is None and unknown.core == "unknown"
    for handle in (ctypes.CDLL(None), None):
        monkeypatch.setattr(netcore, "_openblas", lambda: handle)
        assert netcore.blas_runtime() == unknown


def test_the_lane_runs_calls_under_the_callers_errstate(force_lane):
    force_lane(True)
    with np.errstate(divide="raise"), pytest.raises(FloatingPointError):
        with netcore.second_lane(netcore.ADAM_BLOCK) as submit:
            submit(np.divide, np.ones(2), np.zeros(2))


def test_an_idle_lane_keeps_no_reference_to_its_last_call(force_lane):
    force_lane(True)
    arena = np.zeros(4)
    alive = weakref.ref(arena)
    with netcore.second_lane(netcore.ADAM_BLOCK) as submit:
        submit(np.add, arena, 1.0, arena)
    del arena
    assert alive() is None


def test_a_held_up_lane_keeps_no_reference_to_the_calls_taken_back(gated_lane):
    """The stage's task waits on the pool until the worker is free, but
    the calls the stage took back are no longer in it."""
    arena = np.zeros(4)
    alive = weakref.ref(arena)
    with netcore.second_lane(netcore.ADAM_BLOCK) as submit:
        submit(np.add, arena, 1.0, arena)
    del arena
    assert alive() is None and not gated_lane.is_set()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_starts_its_own_lane(force_lane):
    force_lane(True)
    with netcore.second_lane(netcore.ADAM_BLOCK) as submit:
        submit(lambda: None)
    parent_pool = netcore._LANE.get("pool")
    assert parent_pool is not None
    pid = os.fork()
    if pid == 0:  # the child: a stage must make a pool of its own and finish
        here, done = threading.get_ident(), []
        with netcore.second_lane(netcore.ADAM_BLOCK) as submit:
            submit(lambda: done.append(threading.get_ident() == here or on_the_lane()))
        workers = [t for t in threading.enumerate() if t.name.startswith("prunescope-lane")]
        ok = (netcore._LANE.get("pool") not in (None, parent_pool) and done == [True]
              and len(workers) == 1 and workers[0].is_alive())
        os._exit(0 if ok else 1)
    for _ in range(600):
        waited, status = os.waitpid(pid, os.WNOHANG)
        if waited:
            break
        time.sleep(0.05)
    else:
        os.kill(pid, 9)
        os.waitpid(pid, 0)
        pytest.fail("the forked child's stage did not finish")
    assert os.waitstatus_to_exitcode(status) == 0


def test_a_stage_opened_while_the_interpreter_exits_runs_its_calls_itself():
    """Once the main thread has returned, the interpreter's exit stops every
    thread pool taking calls. A stage that a non-daemon thread opens then
    runs all its calls on that thread and closes."""
    code = textwrap.dedent("""
        import threading
        from prunescope import netcore
        netcore._lane_rule = lambda: True

        def stage():
            ran = []
            with netcore.second_lane(netcore.ADAM_BLOCK) as submit:
                for i in range(4):
                    submit(ran.append, i)
            return sorted(ran) == list(range(4))

        def late():
            threading.main_thread().join()  # returns after the pools' exit hook ran
            print(stage(), "prunescope-lane" not in str(threading.enumerate()))

        assert stage()  # makes the pool
        threading.Thread(target=late).start()
    """)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    assert done.returncode == 0, done.stderr
    assert (done.stdout, done.stderr) == ("True True\n", "")


def test_backward_names_the_non_finite_gradient():
    net = make_net([2, 3, 2], ["identity", "identity"], seed=0)
    acts = forward(net, np.ones((1, 2)))
    with pytest.raises(NumericsError,
                       match=r"gradient in layer0\.weight after backward"):
        backward(net, acts, np.array([[math.inf, 0.0]]))


def test_optimizer_rejects_non_finite_result():
    net = Network([([[1.0]], [0.0], "identity")], {"body": (0, 1)})
    net.layers[0].weight.grad[...] = math.inf
    with pytest.raises(NumericsError):
        SGD(lr=0.1).step(net, zero_penalty(net))


# -- network structure -----------------------------------------------------


def test_components_must_partition_layers():
    layers = [seeded_layer(k, 3, 3, "identity", np.random.default_rng(k))
              for k in range(2)]
    with pytest.raises(ConfigurationError):
        Network(layers, {"a": (0, 1)})
    with pytest.raises(ConfigurationError):
        Network(layers, {"a": (0, 2), "b": (1, 2)})


def test_layer_inputs_must_point_backwards():
    layers = [seeded_layer(k, 3, 3, "identity", np.random.default_rng(k))
              for k in range(2)]
    with pytest.raises(ConfigurationError):
        Network(layers, {"a": (0, 2)}, layer_inputs=[-1, 1])


def test_chained_widths_must_agree():
    l0 = seeded_layer(0, 3, 4, "identity", np.random.default_rng(0))
    l1 = seeded_layer(1, 5, 2, "identity", np.random.default_rng(1))
    with pytest.raises(ConfigurationError):
        Network([l0, l1], {"a": (0, 2)})


def test_build_sequential_checks_activation_count():
    with pytest.raises(ConfigurationError):
        build_sequential([3, 2, 1], ["identity"], {"a": (0, 2)})


def test_tensors_are_views_of_the_network_arena():
    net = make_toy_multihead(seed=3)
    layer = net.layers[2]
    layer.weight.values[...] = 0.5
    layer.bias.grad[...] = np.arange(layer.bias.size)
    w, b = layer.weight.offset, layer.bias.offset
    assert np.all(net.flat_values[w:w + layer.weight.size] == 0.5)
    np.testing.assert_array_equal(net.flat_grad[b:b + layer.bias.size],
                                  np.arange(layer.bias.size))
    net.flat_values[w] = 2.0
    assert layer.weight.values[0, 0] == 2.0
    # The views cannot be rebound, so a tensor never leaves its slot.
    with pytest.raises(AttributeError):
        layer.weight.values = np.zeros(layer.weight.shape)
    with pytest.raises(AttributeError):
        layer.bias.grad = np.zeros(layer.bias.shape)
    # Nor can a layer take another tensor, which the arenas would not hold.
    with pytest.raises(AttributeError):
        layer.bias = net.layers[3].bias
    assert layer.bias.offset == b


def test_a_built_network_refuses_structural_edits():
    net = make_toy_multihead(seed=3)
    layer = net.layers[2]
    for field, value in (("weight", net.layers[4].weight), ("bias", net.layers[4].bias),
                         ("activation", "sigmoid")):
        with pytest.raises(AttributeError):
            setattr(layer, field, value)
    with pytest.raises(TypeError):
        net.layers[2] = net.layers[4]
    with pytest.raises(TypeError):
        net.layer_inputs[4] = 3
    with pytest.raises(TypeError):
        net.components["head_b"] = (4, 5)
    assert layer.activation == "relu"
    assert net.layer_inputs == (-1, 0, 1, 2, 1, 4)
    assert net.components == {"encoder": (0, 2), "head_a": (2, 4), "head_b": (4, 6)}


LAYER = (np.ones((2, 3)), np.ones(2), "relu")
STRUCTURE_PROBLEMS = [
    ([], {"a": (0, 1)}, None, "at least one layer"),
    ([(np.ones(3), np.ones(3), "relu")], {"a": (0, 1)}, None, "weight is 1-D"),
    ([(np.ones((2, 0)), np.ones(2), "relu")], {"a": (0, 1)}, None, "degenerate weight"),
    ([(np.ones((2, 3)), np.ones((2, 1)), "relu")], {"a": (0, 1)}, None, "bias is 2-D"),
    ([(np.ones((2, 3)), np.ones(3), "relu")], {"a": (0, 1)}, None,
     "layer 0: bias length 3 does not match weight rows 2"),
    ([LAYER], {"a": (0, 1)}, [-1, 0], "2 entries for 1"),
    ([LAYER, (np.ones((2, 4)), np.ones(2), "relu")], {"a": (0, 2)}, [-1, -1],
     "disagree on width"),
    ([LAYER], {}, None, "at least one named component"),
    ([LAYER], {"a": (0, 2)}, None, "invalid for 1 layers"),
    # Of several problems, the first in this order is named.
    ([(np.ones((2, 3)), np.ones(3), "tanh")], {}, [-1, 0], "unknown activation 'tanh'"),
]


@pytest.mark.parametrize("layers, components, inputs, message", STRUCTURE_PROBLEMS,
                         ids=[case[-1] for case in STRUCTURE_PROBLEMS])
def test_constructor_names_the_first_structural_problem(layers, components, inputs,
                                                       message):
    with pytest.raises(ConfigurationError, match=message):
        Network(layers, components, inputs)


def _built_by(way: str, tmp_path) -> Network:
    """A network made by one of the ways a network gets built."""
    if way == "autoencoder":
        return build_model(ModelConfig(preset="autoencoder", latent_dim=8), 0)
    if way == "toy_multihead":
        return make_toy_multihead(seed=1)
    if way == "build_sequential":
        return make_net([5, 4, 3, 2], ["relu", "sigmoid", "identity"], seed=2)
    net = make_toy_multihead(seed=3)
    if way == "copy":
        return net.copy()
    if way == "load_checkpoint":
        save_checkpoint(net, tmp_path / "ckpt.json")
        return load_checkpoint(tmp_path / "ckpt.json")[0]
    per_group = {"encoder_1": [(0, 1), (0, 5)], "coupling_encoder_head_a_head_b": [(1, 2)]}
    removed = predicted_removed_params(net, [u for units in per_group.values() for u in units])
    return apply_prune(net, build_groups(net), PrunePlan(0.1, "grad", per_group, removed))[0]


@pytest.mark.parametrize("way", ["autoencoder", "toy_multihead", "build_sequential",
                                 "copy", "load_checkpoint", "apply_prune"])
def test_every_way_of_building_lays_tensors_out_in_the_arena(way, tmp_path):
    net = _built_by(way, tmp_path)
    offset = 0
    for k, role, tensor in net.param_tensors():
        assert tensor.name == f"layer{k}.{role}"
        assert tensor.offset == offset
        for view, arena in ((tensor.values, net.flat_values), (tensor.grad, net.flat_grad)):
            assert view.base is arena and view.shape == tensor.shape
            assert view.ctypes.data == arena.ctypes.data + 8 * offset
        offset += tensor.size
    assert offset == net.flat_values.size == net.flat_grad.size
    assert net.layout == tuple((t.name, t.shape) for _, _, t in net.param_tensors())


def test_network_copy_is_deep():
    net = make_net([3, 2], ["identity"], seed=4)
    net.flat_grad[...] = np.arange(net.flat_grad.size)
    clone = net.copy()
    clone.layers[0].weight.values[0, 0] += 1.0
    assert net.layers[0].weight.values[0, 0] != clone.layers[0].weight.values[0, 0]
    np.testing.assert_array_equal(clone.flat_grad, net.flat_grad)
    clone.layers[0].bias.grad[0] += 1.0
    assert net.layers[0].bias.grad[0] != clone.layers[0].bias.grad[0]


def test_multihead_topology_queries():
    net = make_toy_multihead()
    assert net.sinks() == (3, 5)
    assert net.consumers(1) == (2, 4)
    assert net.source(4) == 1
    assert net.input_dim == 16
    assert net.output_dim == 2
    assert net.component_of(0) == "encoder"
    assert net.component_of(5) == "head_b"


# -- checkpoints -----------------------------------------------------------


def test_checkpoint_round_trip_is_bitwise(tmp_path, rng):
    net = make_toy_multihead(seed=6)
    set_dyadic(net, rng)
    net.layers[0].weight.values[0, 0] = 1.0 / 3.0  # not dyadic on purpose
    path = tmp_path / "ckpt.json"
    save_checkpoint(net, path, meta={"layers_per_group": 2, "seed": 6})
    # The header line holds no parameter; the bytes after it are the arena,
    # little-endian.
    doc, params = checkpoint_parts(path)
    assert all(set(entry) == {"activation", "out", "in", "input"} for entry in doc["layers"])
    assert params == net.flat_values.astype("<f8").tobytes()
    assert os.listdir(tmp_path) == ["ckpt.json"]
    loaded, meta = load_checkpoint(path)
    assert meta == {"layers_per_group": 2, "seed": 6}
    assert loaded.layer_inputs == net.layer_inputs
    assert loaded.components == net.components
    for (_, _, a), (_, _, b) in zip(net.param_tensors(), loaded.param_tensors()):
        np.testing.assert_array_equal(a.values, b.values)
        assert a.values.dtype == b.values.dtype == np.float64


def test_checkpoint_rejects_foreign_documents(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format": "something.else"}')
    with pytest.raises(ConfigurationError):
        load_checkpoint(path)
    path.write_text("not json at all")
    with pytest.raises(ConfigurationError):
        load_checkpoint(path)


def test_checkpoint_rejects_corrupt_payload(tmp_path):
    net = make_net([2, 2], ["identity"], seed=0)
    path = tmp_path / "ckpt.json"
    save_checkpoint(net, path)
    copied_checkpoint(path, path, params=checkpoint_parts(path)[1][:8])
    with pytest.raises(ConfigurationError):
        load_checkpoint(path)


@pytest.mark.parametrize("damage", [
    lambda doc: doc.pop("layers"),
    lambda doc: doc.pop("components"),
    lambda doc: doc["layers"][0].update(out="2"),
    lambda doc: doc["layers"][0].update({"in": 2.5}),
    lambda doc: doc["layers"][0].update(out=-1),
    lambda doc: doc.pop("params_sha256"),
    lambda doc: doc["components"][0].__setitem__(1, "zero"),
    lambda doc: doc.update(params_sha256=7),
    lambda doc: doc["layers"][0].update(out=10 ** 30),  # checked before any allocation
])
def test_checkpoint_rejects_malformed_fields(tmp_path, damage):
    path = tmp_path / "ckpt.json"
    save_checkpoint(make_net([2, 2], ["identity"], seed=0), path)
    copied_checkpoint(path, path, damage)
    with pytest.raises(ConfigurationError):
        load_checkpoint(path)


def test_checkpoint_shapes_are_checked_against_payloads_before_allocation(
        tmp_path, monkeypatch):
    path = tmp_path / "ckpt.json"
    save_checkpoint(make_net([2, 2], ["identity"], seed=0), path)
    # The file still holds a 2 x 2 layer.
    copied_checkpoint(path, path, lambda doc: doc["layers"][0].update(out=3))

    def too_soon(*args, **kwargs):
        raise AssertionError("the network was built before the file's size was checked")

    monkeypatch.setattr(netcore, "Network", too_soon)
    with pytest.raises(DataFormatError,
                       match=r"ckpt\.json holds 48 bytes after its header line; its "
                             r"layer shapes need 72"):
        load_checkpoint(path)


def test_the_readme_turns_a_version_2_pair_into_one_file(tmp_path, monkeypatch, rng):
    """README's conversion, run as written on a hand-made version-2 pair,
    gives the bytes ``save_checkpoint`` writes, with the same digest."""
    net = make_toy_multihead(seed=3)
    net.flat_values[...] = rng.standard_normal(net.flat_values.size)
    meta = {"layers_per_group": 1, "seed": 3, "pruned_from": "run/checkpoint.json"}
    reference = tmp_path / "reference.json"
    save_checkpoint(net, reference, meta)
    doc, params = checkpoint_parts(reference)
    run = tmp_path / "run"
    run.mkdir()
    (run / "checkpoint.json").write_text(json.dumps({**doc, "version": 2}))
    (run / "checkpoint.f64").write_bytes(params)
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    [block] = [b for b in re.findall(r"```python\n(.*?)```", readme, re.S) if ".f64" in b]
    monkeypatch.chdir(tmp_path)
    exec(block, {})
    assert os.listdir(run) == ["checkpoint.json"]
    assert (run / "checkpoint.json").read_bytes() == reference.read_bytes()
    loaded, loaded_meta = load_checkpoint(run / "checkpoint.json")
    assert loaded.flat_values.tobytes() == net.flat_values.tobytes()
    assert loaded_meta == meta
