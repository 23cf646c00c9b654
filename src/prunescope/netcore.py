"""Minimal dense feed-forward networks with exact reverse-mode gradients.

Layers form a directed acyclic graph: each layer reads either the network
input or the output of one earlier layer, so plain encoder/decoder stacks
and shared-encoder multi-head graphs are both expressible. All arithmetic
is float64; the test suite checks the analytic gradients against central
finite differences.
"""

from __future__ import annotations

import contextlib
import contextvars
import ctypes
import functools
import itertools
import math
import os
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, NoReturn

import numpy as np

from .artifacts import Fields, read_json, write_atomic, write_json
from .errors import ConfigurationError, DataFormatError, NumericsError

ACTIVATIONS = ("relu", "sigmoid", "identity")

ROLE_WEIGHT = "weight"
ROLE_BIAS = "bias"

MAX_FLOAT64S = 1 << 54  # 2**57 bytes: more than any 64-bit CPU can address


@dataclass(frozen=True, eq=False, slots=True)
class ParamTensor:
    """A named parameter array together with its gradient.

    Made only by :class:`Network`: ``values`` and ``grad`` are views into the
    network's two arenas and ``offset`` is the tensor's first position in
    them. Write into the views (``t.values[...] = x``); no field can be
    rebound.
    """

    name: str
    offset: int
    values: np.ndarray
    grad: np.ndarray

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def size(self) -> int:
        return self.values.size


def apply_activation(kind: str, z: np.ndarray) -> np.ndarray:
    """Apply the activation to ``z`` in place and return ``z``.

    Sigmoid is ``exp(min(z, 0)) / (1 + exp(-|z|))``: that is
    ``1 / (1 + exp(-z))`` for z >= 0 and ``exp(z) / (1 + exp(z))`` below, so
    exp never overflows and no element needs a branch of its own.
    """
    if kind == "relu":
        return np.maximum(z, 0.0, out=z)
    if kind == "sigmoid":
        den = np.abs(z)
        np.negative(den, out=den)
        np.exp(den, out=den)
        np.add(den, 1.0, out=den)
        np.minimum(z, 0.0, out=z)
        np.exp(z, out=z)
        return np.divide(z, den, out=z)
    if kind == "identity":
        return z
    raise ConfigurationError(f"unknown activation {kind!r}")


def activation_grad(kind: str, post: np.ndarray) -> np.ndarray:
    """Derivative w.r.t. the pre-activation, written in terms of the output;
    relu's is the boolean mask ``post > 0``, which a product with the
    upstream gradient casts, and its subgradient at exactly zero is taken as
    zero. :func:`backward` passes an identity layer's gradient through
    without calling this."""
    if kind == "relu":
        return post > 0.0
    if kind == "sigmoid":
        return post * (1.0 - post)
    raise ConfigurationError(f"unknown activation {kind!r}")


@dataclass(frozen=True, slots=True)
class DenseLayer:
    """A fully connected layer: ``h = act(x @ W.T + b)`` with W of shape (out, in).

    Made only by :class:`Network`; no field can be rebound.
    """

    weight: ParamTensor
    bias: ParamTensor
    activation: str

    @property
    def out_dim(self) -> int:
        return self.weight.shape[0]

    @property
    def in_dim(self) -> int:
        return self.weight.shape[1]


def seeded_layer(index: int, in_dim: int, out_dim: int, activation: str,
                 rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, str]:
    """Layer ``index`` as :class:`Network` takes it, ``(weight, bias,
    activation)``, with weight then bias drawn uniformly in +-1/sqrt(in_dim)."""
    if in_dim < 1 or out_dim < 1:
        raise ConfigurationError(f"layer {index}: widths must be positive")
    if in_dim * out_dim > MAX_FLOAT64S:
        raise ConfigurationError(f"layer {index}: {out_dim}x{in_dim} weights exceed any address space")
    bound = 1.0 / math.sqrt(in_dim)
    try:
        return (rng.uniform(-bound, bound, size=(out_dim, in_dim)),
                rng.uniform(-bound, bound, size=out_dim), activation)
    except MemoryError:
        raise ConfigurationError(f"layer {index}: {out_dim}x{in_dim} weights exceed memory") from None


class Network:
    """A tuple of dense layers plus named component ranges.

    Each layer is given as ``(weight, bias, activation)``: an (out, in)
    weight array, an (out,) bias array and an activation name.
    ``layer_inputs[k]`` is the index of the layer whose output feeds layer k,
    or -1 for the network input; omitted, it defaults to the sequential chain
    ``(-1, 0, 1, ...)``. ``components`` maps a component name to a half-open
    ``[start, end)`` layer range; the ranges must partition the layer list.
    Layers with no consumer are sinks; the network output is the
    concatenation of sink outputs in layer order.

    The constructor checks this structure once and raises a
    :class:`ConfigurationError` naming the first problem. It then copies the
    arrays into two contiguous float64 arenas, ``flat_values`` for the
    parameters and ``flat_grad`` for their gradients, in
    :meth:`param_tensors` order, and makes each layer's tensors
    (``layer{k}.weight``, ``layer{k}.bias``) as views of them, so
    whole-network work (optimizer steps, finiteness scans) runs as a few
    array calls, and binds the views :func:`forward` reads of each layer.
    ``layers`` and ``layer_inputs`` are tuples and ``components`` is
    read-only: a built network's structure cannot change, only the values in
    its arenas.
    """

    def __init__(self, layers: Iterable[tuple[np.ndarray, np.ndarray, str]],
                 components: Mapping[str, tuple[int, int]],
                 layer_inputs: Iterable[int] | None = None) -> None:
        arrays = [(np.asarray(w, dtype=np.float64), np.asarray(b, dtype=np.float64), act)
                  for w, b, act in layers]
        n = len(arrays)
        self.layer_inputs: tuple[int, ...] = (
            tuple(range(-1, n - 1)) if layer_inputs is None
            else tuple(int(s) for s in layer_inputs))
        named = {str(name): (int(lo), int(hi)) for name, (lo, hi) in dict(components).items()}
        _check_structure(arrays, self.layer_inputs, named)
        self.components: Mapping[str, tuple[int, int]] = MappingProxyType(named)
        self._consumers = tuple(tuple(c for c, src in enumerate(self.layer_inputs) if src == k)
                                for k in range(n))
        self._sinks = tuple(k for k in range(n) if not self._consumers[k])
        total = sum(w.size + b.size for w, b, _ in arrays)
        self.flat_values = np.empty(total)
        self.flat_grad = np.zeros(total)
        built, offset = [], 0
        for k, (w, b, activation) in enumerate(arrays):
            weight = self._slot(f"layer{k}.{ROLE_WEIGHT}", offset, w)
            bias = self._slot(f"layer{k}.{ROLE_BIAS}", offset + w.size, b)
            offset += w.size + b.size
            built.append(DenseLayer(weight, bias, activation))
        self.layers: tuple[DenseLayer, ...] = tuple(built)
        # What forward reads of each layer: its source, W.T, b and activation
        # (None for identity, which forward does not call).
        self._bound = tuple((src, layer.weight.values.T, layer.bias.values,
                             None if layer.activation == "identity" else layer.activation)
                            for src, layer in zip(self.layer_inputs, built))
        self.layout = tuple((t.name, t.shape) for _, _, t in self.param_tensors())
        self.input_dim: int = self.layers[self.layer_inputs.index(-1)].in_dim
        self.output_dim: int = sum(self.layers[s].out_dim for s in self._sinks)

    def _slot(self, name: str, offset: int, array: np.ndarray) -> ParamTensor:
        """A tensor over the arena slots from ``offset``, holding ``array``."""
        end = offset + array.size
        values = self.flat_values[offset:end].reshape(array.shape)
        values[...] = array
        return ParamTensor(name, offset, values,
                           self.flat_grad[offset:end].reshape(array.shape))

    # -- topology ---------------------------------------------------------

    def source(self, k: int) -> int:
        return self.layer_inputs[k]

    def consumers(self, k: int) -> tuple[int, ...]:
        return self._consumers[k]

    def sinks(self) -> tuple[int, ...]:
        return self._sinks

    def component_of(self, k: int) -> str:
        for name, (lo, hi) in self.components.items():
            if lo <= k < hi:
                return name
        raise ConfigurationError(f"layer {k} belongs to no component")

    # -- parameters -------------------------------------------------------

    def param_tensors(self) -> Iterator[tuple[int, str, ParamTensor]]:
        for k, layer in enumerate(self.layers):
            yield k, ROLE_WEIGHT, layer.weight
            yield k, ROLE_BIAS, layer.bias

    def param_count(self) -> int:
        return self.flat_values.size

    def _raise_non_finite(self, context: str) -> NoReturn:
        """Raise a NumericsError naming the first tensor that holds a
        non-finite value or gradient; called once a scan of an arena has
        found one."""
        for _, _, tensor in self.param_tensors():
            if not np.isfinite(tensor.values).all():
                raise NumericsError(f"non-finite values in {tensor.name} {context}")
            if not np.isfinite(tensor.grad).all():
                raise NumericsError(f"non-finite gradient in {tensor.name} {context}")
        raise NumericsError(f"non-finite parameters {context}")

    def copy(self) -> "Network":
        net = Network([(layer.weight.values, layer.bias.values, layer.activation)
                       for layer in self.layers], self.components, self.layer_inputs)
        net.flat_grad[...] = self.flat_grad
        return net


def _check_structure(layers: list[tuple[np.ndarray, np.ndarray, str]],
                     inputs: tuple[int, ...],
                     components: dict[str, tuple[int, int]]) -> None:
    """Raise a ConfigurationError naming the first broken structural invariant.

    Checks each layer's activation and weight and bias shapes, that each
    layer reads the network input or an earlier layer of matching width,
    that the layers reading the input agree on its width, and that the
    components partition the layers. Finiteness is not checked.
    """
    n = len(layers)
    if n == 0:
        raise ConfigurationError("network needs at least one layer")
    for k, (w, b, activation) in enumerate(layers):
        if activation not in ACTIVATIONS:
            raise ConfigurationError(f"layer {k}: unknown activation {activation!r}")
        if w.ndim != 2:
            raise ConfigurationError(f"layer {k}: weight is {w.ndim}-D, expected 2-D")
        if min(w.shape) < 1:
            raise ConfigurationError(f"layer {k}: degenerate weight shape {w.shape}")
        if b.ndim != 1:
            raise ConfigurationError(f"layer {k}: bias is {b.ndim}-D, expected 1-D")
        if b.size != w.shape[0]:
            raise ConfigurationError(f"layer {k}: bias length {b.size} does not match "
                                     f"weight rows {w.shape[0]}")
    if len(inputs) != n:
        raise ConfigurationError(f"layer_inputs has {len(inputs)} entries for {n} layers")
    for k, src in enumerate(inputs):
        if not -1 <= src < k:
            raise ConfigurationError(
                f"layer {k} reads from {src}; sources must be -1 or an earlier layer")
        if src >= 0 and layers[k][0].shape[1] != layers[src][0].shape[0]:
            raise ConfigurationError(
                f"layer {k} input width {layers[k][0].shape[1]} does not match layer "
                f"{src} output width {layers[src][0].shape[0]}")
    input_widths = sorted({w.shape[1] for (w, _, _), src in zip(layers, inputs) if src == -1})
    if len(input_widths) > 1:
        raise ConfigurationError(
            f"layers reading the network input disagree on width: {input_widths}")
    if not components:
        raise ConfigurationError("network needs at least one named component")
    covered: list[int] = []
    for name, (lo, hi) in components.items():
        if not 0 <= lo < hi <= n:
            raise ConfigurationError(
                f"component {name!r} range [{lo}, {hi}) is invalid for {n} layers")
        covered.extend(range(lo, hi))
    if sorted(covered) != list(range(n)):
        raise ConfigurationError("component ranges do not partition the layer list")


def build_sequential(widths: Iterable[int], activations: Iterable[str],
                     components: Mapping[str, tuple[int, int]],
                     seed: int | np.random.Generator = 0) -> Network:
    """Build a seeded sequential network from a width chain.

    ``widths = [d0, d1, ..., dL]`` yields L layers ``d(k) -> d(k+1)``.
    """
    widths = [int(w) for w in widths]
    activations = list(activations)
    if len(widths) < 2:
        raise ConfigurationError("need at least two widths for one layer")
    if len(activations) != len(widths) - 1:
        raise ConfigurationError(
            f"{len(widths) - 1} layers need {len(widths) - 1} activations, "
            f"got {len(activations)}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return Network([seeded_layer(k, widths[k], widths[k + 1], activations[k], rng)
                    for k in range(len(widths) - 1)], components)


# -- forward / loss / backward -------------------------------------------


def forward(net: Network, batch: np.ndarray) -> list[np.ndarray]:
    """Run the network on a batch and return all activations.

    The returned list is ``[input, h_0, ..., h_(L-1), output]``: entry
    ``k + 1`` is the post-activation output of layer k and the final entry
    is the network output (the concatenation of sink outputs; for a plain
    chain it aliases the last layer's output). Pure: each call allocates a
    fresh ``(rows, out_dim)`` array per layer, and repeated calls on the same
    inputs return identical values.

    Each layer runs whole on the calling thread: the product ``x @ W.T``,
    then the bias and the activation in place, at the caller's BLAS threads.
    The views each layer reads are bound when the network is built; an
    identity layer skips :func:`apply_activation`.
    """
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 2:
        raise ConfigurationError(f"batch must be 2-D, got shape {batch.shape}")
    if batch.shape[0] < 1:
        raise ConfigurationError("batch must contain at least one row")
    if batch.shape[1] != net.input_dim:
        raise ConfigurationError(
            f"batch width {batch.shape[1]} does not match network input width "
            f"{net.input_dim}")
    acts = [batch]
    for src, weight_t, bias, activation in net._bound:
        z = np.matmul(acts[src + 1], weight_t)
        np.add(z, bias, out=z)
        if activation is not None:
            apply_activation(activation, z)
        acts.append(z)
    sinks = net.sinks()
    if len(sinks) == 1:
        acts.append(acts[sinks[0] + 1])
    else:
        acts.append(np.concatenate([acts[s + 1] for s in sinks], axis=1))
    return acts


def mse_loss(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Batch-mean squared error and its gradient w.r.t. the prediction.

    The mean runs over every element, so magnitudes do not scale with batch
    size: ``loss = mean((pred - target)^2)``, ``grad = 2 (pred - target) / numel``.
    """
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ConfigurationError(
            f"prediction shape {pred.shape} does not match target shape {target.shape}")
    if pred.size == 0:
        raise ConfigurationError(f"cannot take the mean over an empty prediction {pred.shape}")
    diff = pred - target
    loss = float(np.add.reduce(diff * diff, axis=None)) / diff.size  # np.mean's bits, less overhead
    grad = (2.0 / diff.size) * diff
    return loss, grad


def backward(net: Network, activations: list[np.ndarray],
             d_output: np.ndarray) -> None:
    """Fill every ParamTensor.grad via reverse-mode accumulation.

    ``activations`` must come from :func:`forward` on this network and
    ``d_output`` is the loss gradient w.r.t. the network output. Fan-out
    points (one layer feeding several consumers) accumulate the sum of the
    consumers' input gradients. Gradients are overwritten in place, not
    accumulated, across calls; one scan of the gradient arena then checks
    them all. Each layer's weight and bias gradients are one
    :func:`second_lane` call, queued while this thread computes the gradient
    of the layer's input; a layer that reads the network input has none, so
    this thread computes its gradients itself. No product is split, so no
    bit depends on the lane. Products run at the caller's BLAS thread count.
    """
    n = len(net.layers)
    if len(activations) != n + 2:
        raise ConfigurationError(
            f"expected {n + 2} cached activations, got {len(activations)}")
    d_output = np.asarray(d_output, dtype=np.float64)
    sinks = net.sinks()
    d_h: list[np.ndarray | None] = [None] * n
    col = 0
    for s in sinks:
        width = net.layers[s].out_dim
        d_h[s] = d_output[:, col:col + width]
        col += width
    if col != d_output.shape[1]:
        raise ConfigurationError(
            f"d_output width {d_output.shape[1]} does not match network output "
            f"width {col}")
    with second_lane(net.flat_grad.size) as submit:
        for k in reversed(range(n)):
            dh = d_h[k]
            assert dh is not None  # every non-sink layer feeds a later layer
            layer = net.layers[k]
            h = activations[k + 1]
            if layer.activation == "identity":
                dz = dh
            else:
                dz = dh * activation_grad(layer.activation, h)
            src = net.source(k)
            x, wg, bg = activations[src + 1], layer.weight.grad, layer.bias.grad
            if src >= 0:
                submit(_param_grads, dz, x, wg, bg)
                d_in = dz @ layer.weight.values
                d_h[src] = d_in if d_h[src] is None else d_h[src] + d_in
            else:
                _param_grads(dz, x, wg, bg)
    if not np.isfinite(net.flat_grad).all():
        net._raise_non_finite("after backward")


def _param_grads(dz: np.ndarray, x: np.ndarray, weight_grad: np.ndarray,
                 bias_grad: np.ndarray) -> None:
    np.matmul(dz.T, x, out=weight_grad)
    np.add.reduce(dz, 0, out=bias_grad)  # what np.sum calls, without its wrapper


# -- optimizers ----------------------------------------------------------


# Elements per Adam block: the block's moments, values and one temporary, its
# private gradient (5 x 256 KiB = 1.25 MiB), stay in one core's 2 MiB L2
# cache through the ten passes of the update.
ADAM_BLOCK = 32768


def _blockwise(net: Network, update: Callable[[int, int], np.ndarray],
               context: str) -> None:
    """Run ``update(lo, hi)`` over the arena as one :func:`second_lane` call
    per ``ADAM_BLOCK``, and check the new values it returns for each block
    while they are still in cache. Once every block is done, a non-finite
    value raises an error that names the first tensor that holds one.
    """
    size = net.flat_values.size

    def run(lo: int) -> None:
        if not np.isfinite(update(lo, min(lo + ADAM_BLOCK, size))).all():
            raise NumericsError(context)

    try:
        with second_lane(size) as submit:
            for lo in range(0, size, ADAM_BLOCK):
                submit(run, lo)
    except NumericsError:
        net._raise_non_finite(context)


@dataclass(frozen=True, eq=False, slots=True)
class Penalty:
    """An optimizer step's L1 term: ``coeffs``, one L1 coefficient per
    group, bound to the block table of :class:`ComponentGraph` for networks
    of ``layout``. ``blocks`` holds, for each ``ADAM_BLOCK``, its parts
    ``(a, b, group index)``: the block's maximal runs of one group's slots,
    clipped to the block, which tile it. Over each part the step reads the
    task gradient plus ``coeffs[group] * sign(theta)`` in a private array
    (:meth:`gradient`); every optimizer step takes one. One per epoch,
    :meth:`ComponentGraph.penalty` binds it to the graph's one table.
    """

    layout: tuple
    blocks: tuple[tuple[tuple[int, int, int], ...], ...]
    coeffs: tuple[float, ...]

    def gradient(self, g: np.ndarray, theta: np.ndarray, lo: int,
                 hi: int) -> np.ndarray:
        """The gradient a step reads over the block ``[lo, hi)``, in a new
        array the step may overwrite: a copy of ``g``'s block where every
        part has coefficient zero. Otherwise it takes the block's signs,
        scales each part of non-zero coefficient by it in place, adds ``g``
        once over the block and copies ``g`` over each part of coefficient
        zero, so ``g`` keeps the task gradient. That has the bits of adding
        the term to ``g`` in place: IEEE addition commutes, and the copy
        keeps a zero part's ``-0.0``.
        """
        parts, coeffs = self.blocks[lo // ADAM_BLOCK], self.coeffs
        if not any(coeffs[i] for _, _, i in parts):
            return g[lo:hi].copy()
        gb = np.sign(theta[lo:hi])
        for a, b, i in parts:
            if coeffs[i]:
                term = gb[a:b]
                np.multiply(term, coeffs[i], out=term)
        np.add(gb, g[lo:hi], out=gb)
        for a, b, i in parts:
            if not coeffs[i]:
                gb[a:b] = g[lo + a:lo + b]
        return gb


def _check_penalty(net: Network, penalty: Penalty) -> None:
    """Refuse anything but a :class:`Penalty` bound for ``net``'s layout."""
    if not isinstance(penalty, Penalty):
        raise ConfigurationError(f"a step takes a Penalty, got {type(penalty).__name__}")
    if penalty.layout != net.layout:
        raise ConfigurationError(
            "the penalty was bound for another parameter layout than the "
            "network's; bind it from build_groups(net).penalty")


class SGD:
    """Plain gradient descent: ``theta -= lr * g``, where ``g`` is the task
    gradient plus the step's L1 subgradient, read as :class:`Adam` reads it.
    A block allocates one array, its private gradient, which then holds
    ``lr * g``."""

    def __init__(self, lr: float = 1e-3) -> None:
        if not 0 < lr < math.inf:
            raise ConfigurationError("learning rate must be positive and finite")
        self.lr = float(lr)

    def step(self, net: Network, penalty: Penalty) -> None:
        """Step ``net`` by its task gradients plus ``penalty``'s L1
        subgradient; ``net.flat_grad`` is left as it was."""
        _check_penalty(net, penalty)
        g, theta, lr = net.flat_grad, net.flat_values, self.lr

        def update(lo: int, hi: int) -> np.ndarray:
            gb = penalty.gradient(g, theta, lo, hi)
            tb = theta[lo:hi]
            tb -= np.multiply(gb, lr, out=gb)
            return tb

        _blockwise(net, update, "after SGD step")


class Adam:
    """Adam with bias correction over the network's whole arena.

    The moments are flat arrays laid out like the arena. A network of
    another layout (tensor names and shapes) than the last one stepped
    starts the optimizer afresh: zero moments, step count 0. Kingma and
    Ba's ``m = b1*m + (1-b1)*g``, ``v = b2*v + (1-b2)*g*g``,
    ``theta -= lr*(m/c1) / (sqrt(v/c2)+eps)`` with ``c = 1 - b**t`` runs
    here with ``_m`` and ``_v`` holding the moments divided by ``1-b``:
    ``m = b1*m + g``, ``v = b2*v + g*g``, ``theta -= alpha*(m/(sqrt(v)+eps_hat))``
    with ``r = sqrt(c2/(1-b2))``, ``alpha = lr*(1-b1)/c1*r`` and
    ``eps_hat = eps*r``, both taken once per step: equal in exact
    arithmetic, the forms differ in rounding only. :meth:`step` refuses a
    penalty not bound for the network's layout before anything moves. Each
    block reads ``g``, the task gradient plus ``coeff * sign(theta)`` over
    each group's slots, into a private array (:meth:`Penalty.gradient`),
    its one allocation, which then holds ``g*g`` and the update; ten passes
    follow, in place, and the new values are checked while in cache. A
    step keeps ``net.flat_grad`` and the caller's BLAS thread count."""

    def __init__(self, lr: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8) -> None:
        if not 0 < lr < math.inf:
            raise ConfigurationError("learning rate must be positive and finite")
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ConfigurationError("betas must lie in [0, 1)")
        if not 0 < eps < math.inf:
            raise ConfigurationError("eps must be positive and finite")
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self._layout: tuple = ()
        self._m = self._v = np.empty(0)
        self._t = 0

    def step(self, net: Network, penalty: Penalty) -> None:
        """Step ``net`` by its task gradients plus ``penalty``'s L1
        subgradient; ``net.flat_grad`` is left as it was."""
        _check_penalty(net, penalty)
        if net.layout != self._layout:
            n = net.flat_values.size
            self._layout = net.layout
            self._m = np.zeros(n)
            self._v = np.zeros(n)
            self._t = 0
        self._t += 1
        b1, b2, t = self.beta1, self.beta2, self._t
        r = math.sqrt((1.0 - b2 ** t) / (1.0 - b2))
        alpha, eps_hat = self.lr * (1.0 - b1) / (1.0 - b1 ** t) * r, self.eps * r
        g, theta, m, v = net.flat_grad, net.flat_values, self._m, self._v

        def update(lo: int, hi: int) -> np.ndarray:
            gb = penalty.gradient(g, theta, lo, hi)
            mb, vb, tb = m[lo:hi], v[lo:hi], theta[lo:hi]
            np.multiply(mb, b1, out=mb)
            np.add(mb, gb, out=mb)
            np.multiply(vb, b2, out=vb)
            np.multiply(gb, gb, out=gb)
            np.add(vb, gb, out=vb)
            u = np.sqrt(vb, out=gb)  # gb is read no more
            np.add(u, eps_hat, out=u)
            np.divide(mb, u, out=u)
            np.multiply(u, alpha, out=u)
            return np.subtract(tb, u, out=tb)

        _blockwise(net, update, "after Adam step")


# -- the second lane -------------------------------------------------------


@dataclass(frozen=True)
class BlasRuntime:
    """numpy's BLAS library as it runs in this process; see :func:`blas_runtime`."""

    name: str = "unknown"
    version: str = "unknown"
    core: str = "unknown"
    threads: int | None = None


def blas_runtime() -> BlasRuntime:
    """Read numpy's BLAS name, version, CPU core kernel and thread count.

    Only numpy's bundled scipy-openblas (64-bit integer build) is read, asked
    through ``ctypes`` on the handle :func:`one_blas_thread` also uses. Any
    other build (no handle: ``_ask`` raises ``AttributeError``), a library
    without those entry points or a failed call gives the all-unknown
    record; this function never raises.
    """
    lib = _openblas()
    try:
        config = _ask(lib, "get_config", ctypes.c_char_p).decode().split()
        return BlasRuntime("scipy-openblas", config[1],
                           _ask(lib, "get_corename", ctypes.c_char_p).decode(),
                           int(_ask(lib, "get_num_threads", ctypes.c_int)))
    except (AttributeError, IndexError, TypeError, ValueError):
        return BlasRuntime()


def _openblas_file() -> str:
    """The path of numpy's bundled scipy-openblas library."""
    root = os.path.dirname(np.__file__)
    for folder in (os.path.join(os.path.dirname(root), "numpy.libs"),
                   os.path.join(root, ".dylibs")):
        if os.path.isdir(folder):
            for name in sorted(os.listdir(folder)):
                if name.startswith("libscipy_openblas64_"):
                    return os.path.join(folder, name)
    raise FileNotFoundError("numpy bundles no scipy-openblas library")


def _ask(lib: object, what: str, restype: type | None, *args: int) -> object:
    func = getattr(lib, f"scipy_openblas_{what}64_")
    func.argtypes, func.restype = [ctypes.c_int] * len(args), restype
    return func(*args)


@functools.cache
def _openblas() -> ctypes.CDLL | None:
    """numpy's loaded scipy-openblas, opened once; None where it cannot be."""
    try:
        return ctypes.CDLL(_openblas_file())
    except OSError:
        return None


@contextlib.contextmanager
def one_blas_thread() -> Iterator[None]:
    """Run the body, or each call of a function this decorates, with numpy's
    scipy-openblas at one thread, and restore the caller's count on exit,
    also on a raise. Where the library cannot be opened, do nothing."""
    lib = _openblas()
    if lib is None:
        yield
        return
    before = _ask(lib, "get_num_threads", ctypes.c_int)
    _ask(lib, "set_num_threads", None, 1)
    try:
        yield
    finally:
        _ask(lib, "set_num_threads", None, before)


@functools.cache
def _lane_rule() -> bool:
    """Whether stages may use the second lane at all: only where the
    process's affinity mask holds at least two cores. Read once; a CPU quota
    set by a cgroup is not seen."""
    return _usable_cores() >= 2


def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_LANE: dict = {}  # "pool": the one-worker ThreadPoolExecutor, made by the first stage that queues


def _fresh_lane() -> None:
    _LANE.clear()  # a forked child has no worker; its first stage that queues makes one


os.register_at_fork(after_in_child=_fresh_lane)


def _call(errors: dict[int, BaseException], index: int, func: Callable, args: tuple) -> None:
    try:
        func(*args)
    except BaseException as exc:  # re-raised when the stage closes
        errors[index] = exc


def _run_all(take: Callable[[], Callable[[], None]]) -> None:
    """Run the calls ``take`` removes from a stage's queue until none is left."""
    with contextlib.suppress(IndexError):
        while True:
            take()()  # no call outlives its turn, so a drained queue keeps no arrays


def second_lane(size: int) -> _Inline | _Lane:
    """A stage over ``size`` arena elements: the ``with`` block gets
    ``submit(func, *args)``, which queues a whole call for the second lane.

    The lane is a one-worker ``ThreadPoolExecutor``. A stage keeps its own
    queue and at most one unfinished task on the pool, which runs calls from
    the front until the queue is empty. Leaving the block, this thread runs
    the calls left from the back and then cancels its task, or waits for it if
    the worker has started it (work stealing: Blumofe and Leiserson, JACM
    1999): a busy core only leaves more calls to this thread. Then the error
    of the earliest-submitted call that raised one is re-raised, unless the
    block raised its own. A stage waits for no call but its own, so stages may
    nest or run on several threads. Calls are queued only when the stage spans
    an ``ADAM_BLOCK`` and the process may use two cores (:func:`_lane_rule`);
    otherwise the stage is an inline one, whose ``submit`` runs each call at
    once, under the same error rule. A call runs in a copy of the context it
    was submitted in, so ``np.errstate`` holds on either thread. Each call is
    whole and writes its own arrays: no bit depends on which thread ran it.
    A stage's ``submit`` may be called from its making on: :meth:`Reader.beside`
    submits its read before the ``with`` statement enters the stage.
    """
    if not (size >= ADAM_BLOCK and _lane_rule()):
        return _Inline()
    pool = _LANE.get("pool")
    if pool is None:
        # Imported here: it loads logging, which importing the CLI need not. setdefault
        # keeps one pool where first stages race; one not kept never starts a worker.
        from concurrent.futures import ThreadPoolExecutor
        pool = _LANE.setdefault("pool", ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="prunescope-lane"))
    return _Lane(pool)


class _Inline:
    """A :func:`second_lane` stage that runs each call when it is submitted."""

    __slots__ = ("error",)

    def __init__(self) -> None:
        self.error: BaseException | None = None

    def submit(self, func: Callable, *args: object) -> None:
        try:
            func(*args)
        except BaseException as exc:  # re-raised when the stage closes
            if self.error is None:  # calls run in submit order: the earliest wins
                self.error = exc

    def __enter__(self) -> Callable[..., None]:
        return self.submit

    def __exit__(self, kind: type | None, *_: object) -> None:
        if kind is None and self.error is not None:
            raise self.error


class _Lane:
    """A :func:`second_lane` stage that queues its calls for the worker."""

    __slots__ = ("pool", "errors", "todo", "task", "order")

    def __init__(self, pool: object) -> None:
        self.pool, self.errors, self.todo = pool, {}, deque()
        self.task, self.order = None, itertools.count()

    def submit(self, func: Callable, *args: object) -> None:
        self.todo.append(functools.partial(contextvars.copy_context().run,
                                           _call, self.errors, next(self.order), func, args))
        if self.task is None or self.task.done():
            with contextlib.suppress(RuntimeError):  # an exiting interpreter's
                self.task = self.pool.submit(_run_all, self.todo.popleft)  # pools take none

    def __enter__(self) -> Callable[..., None]:
        return self.submit

    def __exit__(self, kind: type | None, *_: object) -> None:
        _run_all(self.todo.pop)
        if self.task is not None and not self.task.cancel():
            self.task.result()  # the worker finishes the call it is on
        if kind is None and self.errors:
            raise self.errors[min(self.errors)]


# -- checkpoints ---------------------------------------------------------

CHECKPOINT_FORMAT = "prunescope.checkpoint"
CHECKPOINT_VERSION = 2


def sidecar_path(header: str | Path) -> Path:
    """The parameter sidecar that pairs with a checkpoint header: the
    header's path with its suffix replaced by ``.f64``."""
    return Path(header).with_suffix(".f64")


def save_checkpoint(net: Network, path: str | Path,
                    meta: dict | None = None) -> None:
    """Write the network as a checkpoint pair, bitwise round trip.

    The sidecar, ``path`` with its suffix replaced by ``.f64``, holds
    ``net.flat_values`` as raw little-endian float64 in arena order. The
    header at ``path`` is strict JSON: each layer's activation, shape and
    input, the components, ``meta``, and ``params_sha256``, the SHA-256 of
    the sidecar's bytes. The sidecar is written first, so a crash between
    the two writes leaves a pair whose digests disagree, which
    :func:`load_checkpoint` refuses. A ``path`` that ends in ``.f64`` is
    refused: it would be its own sidecar.
    """
    import hashlib  # imported here: it costs milliseconds that a CLI start would pay

    path, sidecar = Path(path), sidecar_path(path)
    if sidecar == path:
        raise ConfigurationError(f"checkpoint header {path} cannot end in .f64, "
                                 "the suffix of its sidecar")
    raw = np.asarray(net.flat_values, dtype="<f8")  # the arena itself on a little-endian host
    write_atomic(sidecar, raw.data)
    write_json(path, {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "layers": [
            {
                "activation": layer.activation,
                "out": layer.out_dim,
                "in": layer.in_dim,
                "input": net.source(k),
            }
            for k, layer in enumerate(net.layers)
        ],
        "components": [[name, lo, hi] for name, (lo, hi) in net.components.items()],
        "meta": dict(meta or {}),
        "params_sha256": hashlib.sha256(raw).hexdigest(),
    })


def load_checkpoint(path: str | Path) -> tuple[Network, dict]:
    """Load a checkpoint pair written by :func:`save_checkpoint`.

    Returns the reconstructed network and the stored metadata dict. Every
    field of the header is checked first. The sidecar's size must then be
    8 bytes per parameter the recorded shapes hold, checked before the
    network allocates its arena, so a header cannot claim more memory than
    its sidecar holds. The sidecar is read straight into the arena, and its
    SHA-256 must equal the header's ``params_sha256``. A malformed header and
    a missing, wrong-size or foreign sidecar raise :class:`DataFormatError`.
    """
    import hashlib  # imported here: it costs milliseconds that a CLI start would pay

    doc = Fields.document(read_json(path, "checkpoint"), f"checkpoint {path}",
                          CHECKPOINT_FORMAT, CHECKPOINT_VERSION)
    layers = doc.arr("layers")
    entries = [layers.obj(k) for k in layers.keys()]
    shapes = [(entry.int("out", low=1), entry.int("in", low=1), entry.str("activation"))
              for entry in entries]
    components = doc.arr("components")
    bounds = {}
    for c in components.keys():
        name_lo_hi = components.arr(c, length=3)
        name = name_lo_hi.str(0)
        if name in bounds:
            components.fail(c, f"repeats the component name {name!r}")
        bounds[name] = (name_lo_hi.int(1, low=0), name_lo_hi.int(2, low=0))
    inputs = [e.int("input", k - 1, low=-1) for k, e in enumerate(entries)]
    meta = dict(doc.obj("meta", {}).value)
    digest = doc.str("params_sha256")
    sidecar = sidecar_path(path)
    expected = 8 * sum(out_dim * (in_dim + 1) for out_dim, in_dim, _ in shapes)
    try:
        with open(sidecar, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            if size != expected:
                raise DataFormatError(
                    f"checkpoint sidecar {sidecar} holds {size} bytes; the layer "
                    f"shapes of {path} need {expected}")
            # Zeros that take no memory of their own: the sidecar is read
            # straight into the arena.
            net = Network([(np.broadcast_to(0.0, (out_dim, in_dim)),
                            np.broadcast_to(0.0, out_dim), activation)
                           for out_dim, in_dim, activation in shapes], bounds, inputs)
            fh.readinto(memoryview(net.flat_values).cast("B"))
    except OSError as exc:
        raise DataFormatError(f"cannot read checkpoint sidecar {sidecar}: {exc}") from None
    if hashlib.sha256(net.flat_values).hexdigest() != digest:
        raise DataFormatError(f"checkpoint sidecar {sidecar} does not hold the parameters "
                              f"of {path}: their SHA-256 differs from 'params_sha256'")
    net.flat_values[...] = net.flat_values.view("<f8")  # a no-op on a little-endian host
    return net, meta
