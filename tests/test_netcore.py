"""Forward/backward correctness, optimizers, and checkpoint round trips."""

import ctypes
import json
import math
import os
import subprocess
import sys
import threading
import time
import weakref

import numpy as np
import pytest

from prunescope import netcore
from prunescope.errors import ConfigurationError, DataFormatError, NumericsError
from prunescope.modelgraph import build_groups
from prunescope.netcore import (Adam, DenseLayer, Network, ParamTensor, SGD,
                                add_l1_subgradient, apply_activation,
                                backward, build_sequential, fd_gradient,
                                forward, load_checkpoint, mse_loss,
                                save_checkpoint)
from prunescope.pruner import PrunePlan, apply_prune, predicted_removed_params

from conftest import dyadic, make_layer, make_net, make_toy_multihead, set_dyadic


# -- activations -----------------------------------------------------------


def test_relu_clamps_negatives():
    z = np.array([-3.0, -0.0, 0.0, 2.5])
    np.testing.assert_array_equal(apply_activation("relu", z),
                                  [0.0, 0.0, 0.0, 2.5])


def test_sigmoid_matches_reference_and_stays_finite():
    z = np.array([-1000.0, -5.0, 0.0, 5.0, 1000.0])
    out = apply_activation("sigmoid", z)
    assert np.isfinite(out).all()
    assert out[2] == 0.5
    np.testing.assert_allclose(out[1], 1.0 / (1.0 + math.exp(5.0)), rtol=1e-15)
    np.testing.assert_allclose(out[3], 1.0 / (1.0 + math.exp(-5.0)), rtol=1e-15)
    assert (np.diff(out) >= 0).all()
    ends = apply_activation("sigmoid", np.array([-np.inf, -0.0, np.inf, np.nan]))
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
    assert apply_activation("sigmoid", z).tobytes() == split.tobytes()


def test_unknown_activation_rejected():
    with pytest.raises(ConfigurationError):
        apply_activation("tanh", np.zeros(1))


# -- forward ---------------------------------------------------------------


def test_forward_single_unit_by_hand():
    net = Network([make_layer([[3.0]], [1.0])], {"body": (0, 1)})
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


def test_mse_shape_mismatch():
    with pytest.raises(ConfigurationError):
        mse_loss(np.zeros((2, 3)), np.zeros((3, 2)))


# -- backward --------------------------------------------------------------


def test_backward_single_layer_by_hand():
    net = Network([make_layer([[2.0]], [0.0])], {"body": (0, 1)})
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
    for layer in net.layers:
        layer.activation = "sigmoid" if layer.activation == "relu" else "identity"
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
    before = net.get_flat(1)
    fd_gradient(net, np.ones((1, 2)), np.zeros((1, 2)), 1)
    assert net.get_flat(1) == before


# -- L1 subgradient --------------------------------------------------------


def l1_net(values, grad=(0.0, 0.0)) -> Network:
    """A one-layer net whose arena is ``values`` then a zero bias."""
    net = Network([make_layer([values], [0.0])], {"body": (0, 1)})
    net.layers[0].weight.grad = np.array([grad])
    return net


def test_l1_subgradient_by_hand():
    net = l1_net([-2.0, 0.0, 5.0], [0.0, 0.0, 0.0])
    add_l1_subgradient(net, [[(0, 3, 0.1)]])
    np.testing.assert_array_equal(net.layers[0].weight.grad, [[-0.1, 0.0, 0.1]])


def test_l1_subgradient_adds_on_top_of_task_gradient():
    net = l1_net([1.0, -1.0], [0.5, 0.5])
    add_l1_subgradient(net, [[(0, 1, 0.25)], [(1, 2, 0.25)]])
    np.testing.assert_array_equal(net.layers[0].weight.grad, [[0.75, 0.25]])


def test_l1_subgradient_zero_coefficient_is_a_noop():
    net = l1_net([1.0, -1.0], [-0.0, 0.0])
    add_l1_subgradient(net, [[(0, 3, 0.0)]])
    np.testing.assert_array_equal(net.flat_grad, [0.0, 0.0, 0.0])
    assert np.signbit(net.flat_grad[0])  # -0.0 + 0 * sign(1.0) would be +0.0


# -- optimizers ------------------------------------------------------------


def test_sgd_by_hand():
    net = Network([make_layer([[1.0]], [0.0])], {"body": (0, 1)})
    net.layers[0].weight.grad = np.array([[2.0]])
    SGD(lr=0.1).step(net)
    np.testing.assert_array_equal(net.layers[0].weight.values, [[0.8]])


def test_adam_first_step_matches_hand_computation():
    net = Network([make_layer([[1.0]], [0.0])], {"body": (0, 1)})
    g = 0.5
    net.layers[0].weight.grad = np.array([[g]])
    opt = Adam(lr=0.1, beta1=0.9, beta2=0.999, eps=1e-8)
    opt.step(net)
    m_hat = (1 - 0.9) * g / (1 - 0.9)
    v_hat = (1 - 0.999) * g * g / (1 - 0.999)
    expected = 1.0 - 0.1 * m_hat / (math.sqrt(v_hat) + 1e-8)
    np.testing.assert_allclose(net.layers[0].weight.values, [[expected]],
                               rtol=0, atol=1e-15)


def test_adam_second_step_matches_hand_computation():
    net = Network([make_layer([[1.0]], [0.0])], {"body": (0, 1)})
    opt = Adam(lr=0.1)
    m = v = 0.0
    theta = 1.0
    for t, g in enumerate([0.5, -0.25], start=1):
        net.layers[0].weight.grad = np.array([[g]])
        opt.step(net)
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        theta -= 0.1 * (m / (1 - 0.9 ** t)) / (
            math.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
    np.testing.assert_allclose(net.layers[0].weight.values, [[theta]],
                               rtol=0, atol=1e-15)


def test_adam_state_resets_when_a_tensor_changes_shape(rng):
    net = make_toy_multihead(seed=2)
    units = [(0, 0), (0, 5)]
    plan = PrunePlan(0.1, "grad", {"encoder_1": units},
                     predicted_removed_params(net, units))
    pruned, _ = apply_prune(net, build_groups(net), plan)
    for model in (net, pruned):
        for _, _, t in model.param_tensors():
            t.grad = dyadic(rng, t.shape)
    fresh = pruned.copy()
    opt = Adam(lr=0.01)
    opt.step(net)
    opt.step(pruned)
    Adam(lr=0.01).step(fresh)
    assert pruned.flat_values.tobytes() == fresh.flat_values.tobytes()


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
        make_opt().step(net)


@pytest.mark.parametrize("stage", ["backward", "SGD", "Adam"])
def test_a_non_finite_value_on_the_second_lane_is_named_as_without_it(
        force_lane, stage):
    """40,602 parameters span two ADAM_BLOCKs, so layer1 is stepped by the
    upper half, which runs on the lane; backward hands every weight gradient
    to it. The error names the same tensor with the lane forced on and off."""
    messages = []
    for on in (True, False):
        lane = force_lane(on)
        net = make_net([200, 200, 2], ["relu", "identity"], seed=0)
        acts = forward(net, np.ones((3, 200)))
        with np.errstate(invalid="ignore"), pytest.raises(NumericsError) as err:
            if stage == "backward":
                acts[1][0, 5] = math.inf
                backward(net, acts, np.ones((3, 2)))
            else:
                net.layers[1].weight.grad[1, 7] = math.inf
                (SGD(lr=0.1) if stage == "SGD" else Adam(lr=0.1)).step(net)
        messages.append(str(err.value))
        assert (lane.worker is not None) == on
    assert messages[0] == messages[1]
    assert "layer1.weight" in messages[0]


def test_second_lane_reraises_after_both_halves_finish(force_lane):
    force_lane(True)
    done = []

    def fail():
        done.append("lane")
        raise ValueError("from the lane")

    with pytest.raises(ValueError, match="from the lane"):
        with netcore.second_lane(netcore.ADAM_BLOCK) as lane:
            lane.submit(fail)
            done.append("here")
    assert sorted(done) == ["here", "lane"]
    # An exception of the stage itself wins; the lane is free afterwards.
    with pytest.raises(KeyError):
        with netcore.second_lane(netcore.ADAM_BLOCK) as lane:
            lane.submit(fail)
            raise KeyError("here")
    with netcore.second_lane(netcore.ADAM_BLOCK) as lane:
        assert lane.lane is not None
        with netcore.second_lane(netcore.ADAM_BLOCK) as nested:
            assert nested.lane is None  # the lane is taken: inline


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


def test_blas_runtime_is_unknown_without_the_entry_points():
    """A library that lacks scipy-openblas's symbols (here the process's own
    symbol table) or cannot be opened reads as unknown, and gives no lane."""
    unknown = netcore.BlasRuntime()
    assert unknown.threads is None and unknown.core == "unknown"
    assert netcore.blas_runtime(lambda path: ctypes.CDLL(None)) == unknown

    def missing(path):
        raise OSError(f"cannot open {path}")

    assert netcore.blas_runtime(missing) == unknown


def test_the_lane_runs_calls_under_the_callers_errstate(force_lane):
    force_lane(True)
    with np.errstate(divide="raise"), pytest.raises(FloatingPointError):
        with netcore.second_lane(netcore.ADAM_BLOCK) as lane:
            lane.submit(np.divide, np.ones(2), np.zeros(2))


def test_an_idle_lane_keeps_no_reference_to_its_last_call(force_lane):
    force_lane(True)
    arena = np.zeros(4)
    alive = weakref.ref(arena)
    with netcore.second_lane(netcore.ADAM_BLOCK) as lane:
        lane.submit(np.add, arena, 1.0, arena)
    del arena
    assert alive() is None


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_starts_its_own_lane(force_lane):
    parent_lane = force_lane(True)
    with netcore.second_lane(netcore.ADAM_BLOCK) as lane:
        lane.submit(lambda: None)
    assert parent_lane.worker is not None
    pid = os.fork()
    if pid == 0:  # the child: a stage must get a lane of its own and finish
        done = []
        with netcore.second_lane(netcore.ADAM_BLOCK) as lane:
            lane.submit(lambda: done.append(threading.get_ident()))
        ok = (netcore._LANE is not parent_lane and done
              and done[0] == netcore._LANE.worker.ident)
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


def test_backward_names_the_non_finite_gradient():
    net = make_net([2, 3, 2], ["identity", "identity"], seed=0)
    acts = forward(net, np.ones((1, 2)))
    with pytest.raises(NumericsError,
                       match=r"gradient in layer0\.weight after backward"):
        backward(net, acts, np.array([[math.inf, 0.0]]))


def test_optimizer_rejects_non_finite_result():
    net = Network([make_layer([[1.0]], [0.0])], {"body": (0, 1)})
    net.layers[0].weight.grad = np.array([[math.inf]])
    with pytest.raises(NumericsError):
        SGD(lr=0.1).step(net)


# -- network structure -----------------------------------------------------


def test_components_must_partition_layers():
    layers = [DenseLayer.seeded(k, 3, 3, "identity", np.random.default_rng(k))
              for k in range(2)]
    with pytest.raises(ConfigurationError):
        Network(layers, {"a": (0, 1)})
    with pytest.raises(ConfigurationError):
        Network(layers, {"a": (0, 2), "b": (1, 2)})


def test_layer_inputs_must_point_backwards():
    layers = [DenseLayer.seeded(k, 3, 3, "identity", np.random.default_rng(k))
              for k in range(2)]
    with pytest.raises(ConfigurationError):
        Network(layers, {"a": (0, 2)}, layer_inputs=[-1, 1])


def test_chained_widths_must_agree():
    l0 = DenseLayer.seeded(0, 3, 4, "identity", np.random.default_rng(0))
    l1 = DenseLayer.seeded(1, 5, 2, "identity", np.random.default_rng(1))
    with pytest.raises(ConfigurationError):
        Network([l0, l1], {"a": (0, 2)})


def test_build_sequential_checks_activation_count():
    with pytest.raises(ConfigurationError):
        build_sequential([3, 2, 1], ["identity"], {"a": (0, 2)})


def test_tensors_are_views_of_the_network_arena():
    net = make_toy_multihead(seed=3)
    layer = net.layers[2]
    layer.weight.values = np.full(layer.weight.shape, 0.5)
    layer.bias.grad = np.arange(layer.bias.size, dtype=np.float64)
    w, b = layer.weight.offset, layer.bias.offset
    assert np.all(net.flat_values[w:w + layer.weight.size] == 0.5)
    np.testing.assert_array_equal(net.flat_grad[b:b + layer.bias.size],
                                  np.arange(layer.bias.size))
    net.flat_values[w] = 2.0
    assert layer.weight.values[0, 0] == 2.0
    with pytest.raises(ConfigurationError, match="cannot assign values"):
        layer.weight.values = np.zeros(layer.weight.size)
    with pytest.raises(ConfigurationError, match="cannot assign grad"):
        layer.bias.grad = np.zeros(layer.bias.size + 1)
    with pytest.raises(ConfigurationError, match="already belongs"):
        Network(net.layers, dict(net.components), list(net.layer_inputs))


def test_get_set_flat_round_trip(rng):
    net = make_net([3, 4, 2], ["relu", "identity"], seed=9)
    total = net.param_count()
    assert total == 3 * 4 + 4 + 4 * 2 + 2
    values = [net.get_flat(i) for i in range(total)]
    for i in reversed(range(total)):
        net.set_flat(i, values[i] + 1.0)
    for i in range(total):
        assert net.get_flat(i) == values[i] + 1.0


def test_network_copy_is_deep():
    net = make_net([3, 2], ["identity"], seed=4)
    clone = net.copy()
    clone.layers[0].weight.values[0, 0] += 1.0
    assert net.layers[0].weight.values[0, 0] != clone.layers[0].weight.values[0, 0]


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
    import json
    doc = json.loads(path.read_text())
    doc["layers"][0]["weight"] = doc["layers"][0]["weight"][:8]
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigurationError):
        load_checkpoint(path)


@pytest.mark.parametrize("damage", [
    lambda doc: doc.pop("layers"),
    lambda doc: doc.pop("components"),
    lambda doc: doc["layers"][0].update(out="2"),
    lambda doc: doc["layers"][0].update({"in": 2.5}),
    lambda doc: doc["layers"][0].update(out=-1),
    lambda doc: doc["layers"][0].pop("bias"),
    lambda doc: doc["components"][0].__setitem__(1, "zero"),
])
def test_checkpoint_rejects_malformed_fields(tmp_path, damage):
    path = tmp_path / "ckpt.json"
    save_checkpoint(make_net([2, 2], ["identity"], seed=0), path)
    doc = json.loads(path.read_text())
    damage(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigurationError):
        load_checkpoint(path)


def test_checkpoint_shapes_are_checked_against_payloads_before_allocation(
        tmp_path, monkeypatch):
    path = tmp_path / "ckpt.json"
    save_checkpoint(make_net([2, 2], ["identity"], seed=0), path)
    doc = json.loads(path.read_text())
    doc["layers"][0]["out"] = 3  # the payloads still hold a 2 x 2 layer
    path.write_text(json.dumps(doc))

    def no_network(*args, **kwargs):
        raise AssertionError("the network was built before the payloads were checked")

    monkeypatch.setattr(netcore, "Network", no_network)
    with pytest.raises(DataFormatError, match=r"'layers\[0\]\.weight' must be the base64"):
        load_checkpoint(path)


def test_param_tensor_validates_and_checks_finiteness():
    with pytest.raises(ConfigurationError):
        ParamTensor("t", np.zeros((2, 2)), grad=np.zeros(3))
    tensor = ParamTensor("t", np.array([1.0, math.nan]))
    with pytest.raises(NumericsError):
        tensor.check_finite()
