"""Shared builders and reference oracles for the test suite."""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

from prunescope import netcore
from prunescope.harness.cli import main
from prunescope.harness.config import (DatasetConfig, ExperimentConfig, ModelConfig,
                                       build_model)
from prunescope.importance import (BayesConfig, Reader, bayes_importance,
                                   ema_update, init_states, states_to_doc)
from prunescope.modelgraph import ComponentGraph, PruningGroup, build_groups
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


def zero_penalty(net: Network) -> netcore.Penalty:
    """The penalty of an optimizer step with no L1 term: coefficient zero
    for every group of ``build_groups(net)``."""
    graph = build_groups(net)
    return graph.penalty([0.0] * len(graph.groups))


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


def view_sum(views) -> list[float]:
    """Reference sums, one per row of views of shape ``(rows, k)``: each
    view's rows reduced by one call, one view at a time, and a row's sums
    added in view order. Over a group's slot views in slice order, each
    row's sum is a sum of per-tensor sums, as training takes it."""
    return [sum(row) for row in zip(*[np.add.reduce(v, 1).tolist() for v in views])]


def read_oracle(states, net: Network, graph: ComponentGraph, cfg: BayesConfig,
                gamma: float) -> None:
    """One observation of ``net.flat_grad`` into ``states``, group by group
    and unit layer by unit layer: each slot's sum of g^2 and of |g| taken
    on its own and added in slice order, each unit layer's numerator added
    part by part onto zeros, and the update of :func:`observe`. The reference
    :meth:`Reader.read` must equal bit for bit on finite gradients."""
    grad = net.flat_grad
    for group in graph.groups:
        slots = [grad[lo:hi] for lo, hi, _ in group.slots]
        raw_fisher = sum([float(np.add.reduce(np.square(v), axis=None))
                          for v in slots]) / group.param_count
        raw_grad = sum([float(np.add.reduce(np.abs(v), axis=None))
                        for v in slots]) / group.param_count
        numerators = {}
        for layer, width, parts, per_unit in group.units:
            numerator = np.zeros(width)
            for i, axis in parts:
                a = np.abs(slots[i]).reshape(group.slots[i][2])
                numerator += a if axis is None else np.add.reduce(a, axis)
            numerators[layer] = numerator / per_unit
        observe(states[group.id], cfg, gamma, raw_grad, raw_fisher, numerators)


def whole_arena_read(states, net: Network, graph: ComponentGraph, cfg: BayesConfig,
                     gamma: float) -> None:
    """One observation of ``net.flat_grad`` into ``states`` by the calls a
    read made over the whole arena, before it took it chunk by chunk: g^2
    and |g| of the whole arena into the two rows of one ``(2, n)`` scratch,
    each slot's two rows reduced by one call, and each unit layer's first
    part reduced from row 1 before its other parts are added. The
    reference :meth:`Reader.read` must equal bit for bit."""
    scratch = np.empty((2, net.flat_grad.size))
    np.square(net.flat_grad, out=scratch[0])
    np.abs(net.flat_grad, out=scratch[1])
    sums = np.empty((2, len(graph.slots)))
    for j, (a, b) in enumerate(graph.slots):
        np.add.reduce(scratch[:, a:b], 1, out=sums[:, j])
    square_sums, magnitude_sums = sums.tolist()
    for group, slots in zip(graph.groups, graph.slot_ranges):
        numerators = {}
        for layer, width, parts, per_unit in group.units:
            numerator = np.empty(width)
            for j, (i, axis) in enumerate(parts):
                lo, hi, shape = group.slots[i]
                a = scratch[1, lo:hi].reshape(shape)
                if j:
                    numerator += a if axis is None else np.add.reduce(a, axis)
                else:
                    np.add.reduce(a, () if axis is None else axis, out=numerator)
            numerators[layer] = numerator / per_unit
        observe(states[group.id], cfg, gamma, sum(magnitude_sums[slots]) / group.param_count,
                sum(square_sums[slots]) / group.param_count, numerators)


def observe(st, cfg: BayesConfig, gamma: float, raw_grad: float, raw_fisher: float,
            unit_scores) -> None:
    """Advance one group's state by one observation, the conjugate update
    ``alpha += kappa``, ``beta += kappa * E / eta`` written out, and each
    metric and unit score smoothed at gamma, 0 on the first."""
    st.alpha, st.beta = st.alpha + cfg.kappa, st.beta + cfg.kappa * raw_grad / cfg.eta
    g = gamma if st.iteration else 0.0
    st.raw_grad, st.raw_fisher = raw_grad, raw_fisher
    st.raw_bayes = bayes_importance(st.mu, raw_fisher)
    st.ema_grad = ema_update(st.ema_grad, raw_grad, g)
    st.ema_fisher = ema_update(st.ema_fisher, raw_fisher, g)
    st.ema_bayes = ema_update(st.ema_bayes, st.raw_bayes, g)
    for layer, scores in unit_scores.items():
        previous = st.unit_ema.get(layer)
        st.unit_ema[layer] = scores if previous is None else ema_update(previous, scores, g)
    st.iteration += 1


def assert_reads_like_the_oracle(net: Network, graph: ComponentGraph, seed: int,
                                 reads: int = 3) -> None:
    """Several reads of heavy-tailed gradients with exact zeros by one
    :class:`Reader` give, read after read, every state field and unit score
    of :func:`whole_arena_read` and of :func:`read_oracle` bit for bit, each
    from fresh states."""
    rng = np.random.default_rng([seed, 29])
    cfg, gamma = BayesConfig(), 0.9
    oracle, whole = init_states(graph, cfg), init_states(graph, cfg)
    reader = Reader(net, graph, cfg, gamma)
    for _ in range(reads):
        g = rng.standard_t(2, size=net.flat_grad.size)
        g[rng.random(g.size) < 0.1] = 0.0
        net.flat_grad[...] = g
        read_oracle(oracle, net, graph, cfg, gamma)
        whole_arena_read(whole, net, graph, cfg, gamma)
        reader.read()
        doc = json.dumps(states_to_doc(reader.states, gamma, cfg))
        assert doc == json.dumps(states_to_doc(whole, gamma, cfg))
        assert doc == json.dumps(states_to_doc(oracle, gamma, cfg))


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
    """Every layer's activation as the plain expression ``act(x @ W.T + b)``,
    layer by layer, in :func:`forward`'s list layout without its final
    output entry: the reference that forward's in-place arithmetic must
    equal bit for bit."""
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


def slot_graph(size: int, *groups: list[tuple[int, int]]) -> ComponentGraph:
    """A graph of hand-built groups, each a list of ``(lo, hi)`` slots, over
    an arena of ``size`` elements laid out as one vector; the groups hold no
    members and no units."""
    return ComponentGraph(
        [PruningGroup(f"g{i}", "component_specific", (), ("body",),
                      sum(hi - lo for lo, hi in slots),
                      tuple((lo, hi, (hi - lo,)) for lo, hi in slots), (), ())
         for i, slots in enumerate(groups)], 1, (("arena", (size,)),))


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


def checkpoint_parts(path) -> tuple[dict, bytes]:
    """A checkpoint file's header document and the parameter bytes after
    its header line."""
    header, _, params = path.read_bytes().partition(b"\n")
    return json.loads(header), params


def copied_checkpoint(src, dst, damage=lambda doc: None, params=None):
    """Copy a checkpoint file to ``dst`` with ``damage`` applied to its
    header document and its parameter bytes kept (or ``params`` instead)."""
    doc, kept = checkpoint_parts(src)
    damage(doc)
    dst.write_bytes(json.dumps(doc).encode() + b"\n" + (kept if params is None else params))
    return str(dst)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def on_the_lane() -> bool:
    """Whether the calling thread is the second lane's worker."""
    return threading.current_thread().name.startswith("prunescope-lane")


@pytest.fixture
def force_lane(monkeypatch):
    """Force the second lane's rule on or off and drop its pool, so the next
    stage that queues a call makes a fresh one and ``"pool" in
    netcore._LANE`` shows whether any stage did."""
    def force(on: bool) -> None:
        monkeypatch.setattr(netcore, "_LANE", {})
        monkeypatch.setattr(netcore, "_lane_rule", lambda: on)
    return force


@pytest.fixture
def gated_lane(force_lane):
    """The second lane forced on, its worker held by a first call that waits
    for the returned event: a lane held up as by a busy core, which leaves
    every later call for its stage to take back. Sets the event on
    teardown."""
    force_lane(True)
    with netcore.second_lane(netcore.ADAM_BLOCK) as submit:
        submit(lambda: None)  # makes the pool
    gate = threading.Event()
    netcore._LANE["pool"].submit(gate.wait)
    yield gate
    gate.set()


def backward_oracle(net: Network, activations: list[np.ndarray],
                    d_output: np.ndarray) -> np.ndarray:
    """The gradient arena as :func:`backward` filled it before it read a
    per-layer table: each layer looked up on every call, every product
    through ``np.matmul`` (``@``), all on this thread. The reference that
    backward's ``flat_grad`` must equal bit for bit, except in the weight
    gradients :func:`strided_sink_weights` names."""
    grad = np.empty_like(net.flat_grad)
    n = len(net.layers)
    d_h: list[np.ndarray | None] = [None] * n
    col = 0
    for s in net.sinks():
        width = net.layers[s].out_dim
        d_h[s] = d_output[:, col:col + width]
        col += width
    for k in reversed(range(n)):
        layer, dz, src = net.layers[k], d_h[k], net.source(k)
        if layer.activation != "identity":
            dz = dz * netcore.activation_grad(layer.activation, activations[k + 1])
        w, b = layer.weight, layer.bias
        np.matmul(dz.T, activations[src + 1],
                  out=grad[w.offset:w.offset + w.size].reshape(w.shape))
        np.add.reduce(dz, 0, out=grad[b.offset:b.offset + b.size])
        if src >= 0:
            d_in = dz @ w.values
            d_h[src] = d_in if d_h[src] is None else d_h[src] + d_in
    return grad


def strided_sink_weights(net: Network) -> list[tuple[int, int]]:
    """The arena ranges of the weights whose gradient bits :func:`backward`
    and :func:`backward_oracle` may disagree on: those of identity sinks
    wider than one unit in a network of several sinks. Such a sink's ``dz``
    is a strided column slice of ``d_output``; ``np.dot`` copies it and
    calls BLAS where ``np.matmul`` sums it in a loop of its own, in another
    order."""
    sinks = net.sinks()
    if len(sinks) == 1:
        return []
    return [(layer.weight.offset, layer.weight.offset + layer.weight.size)
            for layer in (net.layers[s] for s in sinks)
            if layer.activation == "identity" and layer.out_dim > 1]
