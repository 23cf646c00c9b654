"""Shared builders and reference oracles for the test suite."""

from __future__ import annotations

import json

import numpy as np
import pytest

from prunescope import netcore
from prunescope.harness.cli import main
from prunescope.harness.config import (DatasetConfig, ExperimentConfig, ModelConfig,
                                       build_model)
from prunescope.modelgraph import PruningGroup
from prunescope.netcore import (Network, ParamTensor, ROLE_WEIGHT, apply_activation,
                                build_sequential, forward, mse_loss)
from prunescope.pruner import _RemovalLedger


def dyadic(rng: np.random.Generator, shape) -> np.ndarray:
    """Exactly representable values (multiples of 1/8) in [-1, 1].

    Sums and differences of these are exact in float64, so tests built on
    them can assert bitwise equality instead of tolerances.
    """
    return rng.integers(-8, 9, size=shape).astype(np.float64) * 0.125


def make_net(widths, activations, components=None, seed=0) -> Network:
    if components is None:
        components = {"body": (0, len(widths) - 1)}
    return build_sequential(widths, activations, components, seed)


def set_dyadic(net: Network, rng: np.random.Generator) -> None:
    """Overwrite every parameter with dyadic values (nonzero-biased)."""
    for _, _, tensor in net.param_tensors():
        tensor.values[...] = dyadic(rng, tensor.shape)


def group_tensors(net: Network, group: PruningGroup) -> list[ParamTensor]:
    """The parameter tensors a group owns, in slice order, looked up by
    layer and role: a reference that does not read the group's slots."""
    return [net.layers[s.layer].weight if s.role == ROLE_WEIGHT
            else net.layers[s.layer].bias for s in group.member_slices]


def group_l1_norm(net: Network, group: PruningGroup) -> float:
    """Reference L1 norm of a group: the sum of its per-tensor sums."""
    return sum(float(np.abs(t.values).sum()) for t in group_tensors(net, group))


def predicted_removed_params(net: Network, removals) -> int:
    """Exact parameter count a set of (layer, unit) removals would excise,
    counted by the pruner's own removal ledger."""
    ledger = _RemovalLedger(net)
    for layer, unit in removals:
        ledger.add_unit(layer, unit)
    return ledger.removed


def masked_clone(net, by_layer):
    """Zero the closure of the removed units instead of excising it.

    A masked unit contributes exactly nothing downstream (its outgoing
    columns are zero), so the masked network's outputs must equal the pruned
    network's outputs; sink layers are never pruned, so output width agrees.
    """
    clone = net.copy()
    for layer, units in by_layer.items():
        u = sorted(units)
        clone.layers[layer].weight.values[u, :] = 0.0
        clone.layers[layer].bias.values[u] = 0.0
        for c in net.consumers(layer):
            clone.layers[c].weight.values[:, u] = 0.0
    return clone


def per_tensor_mean(arrays) -> float:
    """Reference group metric: (1/N) times the sum of per-tensor sums over
    the N elements of ``arrays``; training reduces its slots the same way."""
    return sum(float(a.sum()) for a in arrays) / sum(a.size for a in arrays)


def fd_gradient(net: Network, batch: np.ndarray, target: np.ndarray,
                index: int, h: float = 1e-5, penalty=None) -> float:
    """Central finite-difference derivative of the MSE loss with respect to
    parameter ``index`` of ``net.flat_values``.

    ``penalty(net)``, when given, is added to the task loss at both probe
    points (to check composite objectives such as task + L1). The parameter
    is restored exactly afterwards.
    """
    def total() -> float:
        loss, _ = mse_loss(forward(net, batch)[-1], target)
        if penalty is not None:
            loss += float(penalty(net))
        return loss

    original = float(net.flat_values[index])
    try:
        net.flat_values[index] = original + h
        upper = total()
        net.flat_values[index] = original - h
        lower = total()
    finally:
        net.flat_values[index] = original
    return (upper - lower) / (2.0 * h)


def forward_oracle(net: Network, batch: np.ndarray) -> list[np.ndarray]:
    """Every layer's activation computed on the whole batch at once,
    ``act(x @ W.T + b)`` layer by layer, in :func:`forward`'s list layout
    without its final output entry: the reference that forward's row halves
    must equal bit for bit."""
    acts = [np.asarray(batch, dtype=np.float64)]
    for k, layer in enumerate(net.layers):
        z = acts[net.source(k) + 1] @ layer.weight.values.T + layer.bias.values
        acts.append(apply_activation(layer.activation, z))
    return acts


def with_activations(net: Network, activations) -> Network:
    """A new network with ``net``'s parameters, wiring and components but
    other activations, one per layer: a built network's cannot change."""
    return Network([(layer.weight.values, layer.bias.values, activation)
                    for layer, activation in zip(net.layers, activations)],
                   net.components, net.layer_inputs)


def make_toy_multihead(seed=0) -> Network:
    """16 -> 32 -> 8 encoder feeding two 8 -> 16 -> 1 heads (the preset)."""
    return build_model(ModelConfig(preset="toy_multihead"), seed)


def make_two_component_chain(seed=0, widths=(6, 5, 4, 3, 2)) -> Network:
    """A small sequential net split into two components mid-chain."""
    n = len(widths) - 1
    cut = n // 2
    return build_sequential(
        widths, ["relu"] * (n - 1) + ["identity"],
        {"front": (0, cut), "back": (cut, n)}, seed)


def random_dag(seed: int) -> tuple[Network, int]:
    """A seeded valid network and a ``layers_per_group`` of 1-3.

    The network has 4-8 layers in 2-3 components and widths of 2-6. Each
    layer reads the previous layer, or half the time the input or any
    earlier layer, so chains, shared trunks, multi-sink heads and components
    with several layers feeding one other component all occur. Half the
    networks use only relu and identity, which keep dyadic values exact;
    the others draw from every activation.
    """
    rng = np.random.default_rng([seed, 16])
    n = int(rng.integers(4, 9))
    cuts = sorted(int(c) for c in rng.choice(np.arange(1, n), replace=False,
                                             size=int(rng.integers(1, 3))))
    bounds = [0, *cuts, n]
    activations = netcore.ACTIVATIONS if rng.random() < 0.5 else ("relu", "identity")
    widths = [int(w) for w in rng.integers(2, 7, size=n + 1)]  # widths[0]: the input's
    inputs, layers = [], []
    for k in range(n):
        source = k - 1 if rng.random() < 0.5 else int(rng.integers(-1, k))
        inputs.append(source)
        layers.append(netcore.seeded_layer(k, widths[source + 1], widths[k + 1],
                                           str(rng.choice(activations)), rng))
    components = {name: (lo, hi) for name, lo, hi in zip("abc", bounds, bounds[1:])}
    return Network(layers, components, inputs), int(rng.integers(1, 4))


def toy_config(**overrides):
    base = dict(
        model=ModelConfig(preset="toy_multihead"),
        dataset=DatasetConfig(kind="synthetic", n_train=128, n_test=32,
                              rank=6, target="affine"),
        epochs=3, batch_size=32, seed=0)
    base.update(overrides)
    return ExperimentConfig(**base)


@pytest.fixture(scope="module")
def toy_run(tmp_path_factory):
    """A trained toy run and a plan for it; tests write damaged copies elsewhere."""
    root = tmp_path_factory.mktemp("toy_run")
    cfg_path = root / "cfg.json"
    toy_config(epochs=2).save(cfg_path)
    run_dir = root / "run"
    assert main(["train", "--config", str(cfg_path), "--out", str(run_dir)]) == 0
    plan_path = root / "plan.json"
    assert main(["prune", "--checkpoint", str(run_dir / "checkpoint.json"),
                 "--sparsity", "0.4", "--plan", str(plan_path)]) == 0
    return cfg_path, run_dir, plan_path


def damaged(src, dst, damage):
    """Copy a JSON artifact to ``dst`` with ``damage`` applied to its document."""
    doc = json.loads(src.read_text())
    damage(doc)
    dst.write_text(json.dumps(doc))
    return str(dst)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def force_lane(monkeypatch):
    """Force the second lane's BLAS rule on or off, on a fresh lane whose
    ``worker`` shows whether a stage handed it anything; returns the lane."""
    def force(on: bool) -> netcore._Lane:
        lane = netcore._Lane()
        monkeypatch.setattr(netcore, "_LANE", lane)
        monkeypatch.setattr(netcore, "_lane_rule", lambda: on)
        return lane
    return force
