"""Minimal dense feed-forward networks with exact reverse-mode gradients.

Layers form a directed acyclic graph: each layer reads either the network
input or the output of one earlier layer, so plain encoder/decoder stacks
and shared-encoder multi-head graphs are both expressible. All arithmetic
is float64; the test suite checks the analytic gradients against central
finite differences.
"""

from __future__ import annotations

import base64
import contextvars
import ctypes
import functools
import math
import os
import threading
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, NoReturn

import numpy as np

from .artifacts import Fields, read_json, write_json
from .errors import ConfigurationError, DataFormatError, NumericsError

ACTIVATIONS = ("relu", "sigmoid", "identity")

ROLE_WEIGHT = "weight"
ROLE_BIAS = "bias"


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


def apply_activation(kind: str, z: np.ndarray,
                     scratch: np.ndarray | None = None) -> np.ndarray:
    """Apply the activation to ``z`` in place and return ``z``.

    Sigmoid overwrites ``scratch``, an array of ``z``'s shape, or allocates
    one when it is omitted; relu and identity never touch it. Sigmoid is
    ``exp(min(z, 0)) / (1 + exp(-|z|))``: that is ``1 / (1 + exp(-z))`` for
    z >= 0 and ``exp(z) / (1 + exp(z))`` below, so exp never overflows and
    no element needs a branch of its own.
    """
    if kind == "relu":
        return np.maximum(z, 0.0, out=z)
    if kind == "sigmoid":
        den = np.abs(z, out=scratch)
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
    relu's subgradient at exactly zero is taken as zero. :func:`backward`
    passes an identity layer's gradient through without calling this."""
    if kind == "relu":
        return (post > 0.0).astype(np.float64)
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
    bound = 1.0 / math.sqrt(in_dim)
    return (rng.uniform(-bound, bound, size=(out_dim, in_dim)),
            rng.uniform(-bound, bound, size=out_dim), activation)


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
    array calls. ``layers`` and ``layer_inputs`` are tuples and
    ``components`` is read-only: a built network's structure cannot change,
    only the values in its arenas.
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

    :func:`_forward_rows` computes every layer for a range of batch rows
    straight into those arrays: the product, then the bias and the
    activation in place. When the stage has the second lane (see
    :func:`second_lane`), the lane runs the second half of the rows while
    this thread runs the first, but only for a C-contiguous batch whose
    every layer passes :func:`_row_split_is_exact` at this row count, so
    the split never changes a bit. Otherwise this thread runs every row.
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
    m = batch.shape[0]
    # Every array and view either half touches is made here, sigmoid's
    # scratch included, so the lane's half allocates nothing.
    acts, work = [batch], []
    for src, layer in zip(net.layer_inputs, net.layers):
        out = np.empty((m, len(layer.bias.values)))
        work.append((acts[src + 1], layer.weight.values.T, layer.bias.values, out,
                     layer.activation,
                     np.empty_like(out) if layer.activation == "sigmoid" else None))
        acts.append(out)

    def rows(lo: int, hi: int) -> list[tuple]:
        return [(x[lo:hi], w_t, b, out[lo:hi], kind, None if tmp is None else tmp[lo:hi])
                for x, w_t, b, out, kind, tmp in work]

    with second_lane(net.flat_values.size) as stage:
        if (stage.lane is not None and batch.flags.c_contiguous
                and all(_row_split_is_exact(m, layer.in_dim, layer.out_dim, False)
                        for layer in net.layers)):
            stage.submit(_forward_rows, rows(m // 2, m))
            _forward_rows(rows(0, m // 2))
        else:
            _forward_rows(work)
    sinks = net.sinks()
    if len(sinks) == 1:
        acts.append(acts[sinks[0] + 1])
    else:
        acts.append(np.concatenate([acts[s + 1] for s in sinks], axis=1))
    return acts


def _forward_rows(work: list[tuple]) -> None:
    """Compute each layer's rows in place, in layer order: ``work`` holds,
    per layer, its input rows, ``W.T``, bias, output rows, activation and
    sigmoid's scratch rows."""
    for x, w_t, b, out, kind, scratch in work:
        np.matmul(x, w_t, out=out)
        np.add(out, b, out=out)
        apply_activation(kind, out, scratch)


@functools.cache
def _row_split_is_exact(rows: int, inner: int, cols: int, a_transposed: bool,
                        matmul: Callable = np.matmul) -> bool:
    """Whether ``A @ B``, for a (rows, inner) ``A`` and an (inner, cols)
    ``B``, gives the same bits whole as in the row halves ``[0, rows // 2)``
    and ``[rows // 2, rows)``; false when a half would be empty.

    ``a_transposed`` picks the layout of the two split products: false is
    :func:`forward`'s ``x @ W.T`` (``A`` C-ordered, ``B`` a transposed C
    array) cut by batch rows, true is :func:`backward`'s ``dz.T @ x`` (``A``
    a transposed C array, ``B`` C-ordered) cut by output unit. BLAS may
    order a product's sums by its shape (at one OpenBLAS thread, 128->8 at
    256 rows fails), so this is checked once per shape, through the same
    slicing and ``out=`` path, on seeded heavy-tailed values whose sums
    change bits under any other order. ``matmul`` is the product checked.
    """
    half = rows // 2
    if not half:
        return False
    rng = np.random.default_rng([rows, inner, cols, a_transposed])
    a = rng.standard_t(2, (inner, rows)).T if a_transposed else rng.standard_t(2, (rows, inner))
    b = rng.standard_t(2, (inner, cols)) if a_transposed else rng.standard_t(2, (cols, inner)).T
    whole, split = np.empty((rows, cols)), np.empty((rows, cols))
    matmul(a, b, out=whole)
    matmul(a[:half], b, out=split[:half])
    matmul(a[half:], b, out=split[half:])
    return bool(np.array_equal(whole, split))


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
    diff = pred - target
    loss = float(np.mean(diff * diff))
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
    them all. Each layer's weight and bias gradients go to the second lane
    (see :func:`second_lane`) while this thread computes the gradient of
    the layer's input. A layer that reads the network input has none, so
    this thread takes the first half of its output units instead, where
    :func:`_row_split_is_exact` shows that this split of ``dz.T @ x`` is
    exact.
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
    with second_lane(net.flat_grad.size) as lane:
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
                lane.submit(_param_grads, dz, x, wg, bg)
                d_in = dz @ layer.weight.values
                d_h[src] = d_in if d_h[src] is None else d_h[src] + d_in
            elif (lane.lane is not None and dz.flags.c_contiguous and x.flags.c_contiguous
                  and _row_split_is_exact(layer.out_dim, len(x), layer.in_dim, True)):
                half = layer.out_dim // 2
                lane.submit(_param_grads, dz[:, half:], x, wg[half:], bg[half:])
                _param_grads(dz[:, :half], x, wg[:half], bg[:half])
            else:
                lane.submit(_param_grads, dz, x, wg, bg)
    if not np.isfinite(net.flat_grad).all():
        net._raise_non_finite("after backward")


def _param_grads(dz: np.ndarray, x: np.ndarray, weight_grad: np.ndarray,
                 bias_grad: np.ndarray) -> None:
    np.matmul(dz.T, x, out=weight_grad)
    np.add.reduce(dz, 0, out=bias_grad)  # what np.sum calls, without its wrapper


# -- optimizers ----------------------------------------------------------


# Elements per Adam block: the block's gradient, moments, values and two
# scratch buffers (6 x 256 KiB = 1.5 MiB) stay in one core's 2 MiB L2 cache
# through all the passes of the update.
ADAM_BLOCK = 32768


def _blockwise(net: Network, update: Callable[[int, int, int], np.ndarray],
               context: str) -> None:
    """Run ``update(lo, hi, lane)`` over the arena in ``ADAM_BLOCK`` blocks and
    check the new values it returns for each block while they are still in
    cache.

    The upper half of the blocks runs on the second lane (``lane`` is 1
    there, 0 here), so each lane can keep scratch of its own. A block that
    holds a non-finite value stops its half; once both halves are done,
    the error names the first tensor that holds one.
    """
    size = net.flat_values.size
    starts = range(0, size, ADAM_BLOCK)
    half = (size + ADAM_BLOCK) // (2 * ADAM_BLOCK)

    def run(starts: range, lane: int) -> None:
        for lo in starts:
            if not np.isfinite(update(lo, lo + ADAM_BLOCK, lane)).all():
                raise NumericsError(context)

    try:
        with second_lane(size) as lane:
            lane.submit(run, starts[half:], 1)
            run(starts[:half], 0)
    except NumericsError:
        net._raise_non_finite(context)


class SGD:
    """Plain gradient descent: ``theta -= lr * grad``."""

    def __init__(self, lr: float = 1e-3) -> None:
        if not lr > 0:
            raise ConfigurationError("learning rate must be positive")
        self.lr = float(lr)

    def step(self, net: Network) -> None:
        theta, g, lr = net.flat_values, net.flat_grad, self.lr

        def update(lo: int, hi: int, lane: int) -> np.ndarray:
            tb = theta[lo:hi]
            tb -= lr * g[lo:hi]
            return tb

        _blockwise(net, update, "after SGD step")


class Adam:
    """Adam with bias correction over the network's whole arena.

    The first and second moments are flat arrays laid out like the arena.
    A network with another layout (tensor names and shapes) than the last
    one stepped starts the optimizer afresh: zero moments, step count 0.
    The update runs in place, block by block, in the element-wise order
    ``m = b1*m + (1-b1)*g``, ``v = b2*v + ((1-b2)*g)*g``,
    ``theta -= (lr*(m/c1)) / (sqrt(v/c2)+eps)``; each block's new values
    are checked for finiteness while still in cache. Each lane has its own
    pair of scratch blocks.
    """

    def __init__(self, lr: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8) -> None:
        if not lr > 0:
            raise ConfigurationError("learning rate must be positive")
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ConfigurationError("betas must lie in [0, 1)")
        if not eps > 0:
            raise ConfigurationError("eps must be positive")
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self._layout: tuple = ()
        self._m = self._v = np.empty(0)
        self._scratch: tuple[tuple[np.ndarray, np.ndarray], ...] = ()
        self._t = 0

    def step(self, net: Network) -> None:
        if net.layout != self._layout:
            n = net.flat_values.size
            self._layout = net.layout
            self._m = np.zeros(n)
            self._v = np.zeros(n)
            block = min(n, ADAM_BLOCK)
            self._scratch = tuple((np.empty(block), np.empty(block)) for _ in range(2))
            self._t = 0
        self._t += 1
        b1, b2, lr, eps = self.beta1, self.beta2, self.lr, self.eps
        c1 = 1.0 - b1 ** self._t
        c2 = 1.0 - b2 ** self._t
        theta, g, m, v = net.flat_values, net.flat_grad, self._m, self._v
        scratch = self._scratch

        def update(lo: int, hi: int, lane: int) -> np.ndarray:
            gb, mb, vb, tb = g[lo:hi], m[lo:hi], v[lo:hi], theta[lo:hi]
            s, u = scratch[lane]
            s, u = s[:gb.size], u[:gb.size]
            np.multiply(mb, b1, out=mb)
            np.multiply(gb, 1.0 - b1, out=s)
            np.add(mb, s, out=mb)
            np.multiply(vb, b2, out=vb)
            np.multiply(gb, 1.0 - b2, out=s)
            np.multiply(s, gb, out=s)
            np.add(vb, s, out=vb)
            np.divide(vb, c2, out=s)
            np.sqrt(s, out=s)
            np.add(s, eps, out=s)
            np.divide(mb, c1, out=u)
            np.multiply(u, lr, out=u)
            np.divide(u, s, out=u)
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


def blas_runtime(load: Callable[[str], object] = ctypes.CDLL) -> BlasRuntime:
    """Read numpy's BLAS name, version, CPU core kernel and thread count.

    Only numpy's bundled scipy-openblas (64-bit integer build) is read: its
    library file is opened again with ``load``, which gives back the copy
    numpy already loaded, and asked through ``ctypes``. Any other build, a
    library without those entry points or a failed call gives the
    all-unknown record; this function never raises.
    """
    try:
        lib = load(_openblas_file())
        config = _ask(lib, "get_config", ctypes.c_char_p).decode().split()
        return BlasRuntime("scipy-openblas", config[1],
                           _ask(lib, "get_corename", ctypes.c_char_p).decode(),
                           int(_ask(lib, "get_num_threads", ctypes.c_int)))
    except (OSError, AttributeError, IndexError, TypeError, ValueError):
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


def _ask(lib: object, what: str, restype: type) -> object:
    func = getattr(lib, f"scipy_openblas_{what}64_")
    func.argtypes, func.restype = [], restype
    return func()


@functools.cache
def _lane_rule() -> bool:
    """Whether stages may use the second lane at all: only while BLAS runs
    fewer threads than this process may use cores, so that the lane's core
    would otherwise sit idle. Read once; an unknown BLAS gives no lane.
    A CPU quota set by a cgroup is not seen, only the affinity mask."""
    threads = blas_runtime().threads
    return threads is not None and threads < _usable_cores()


def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _Lane:
    """One persistent worker thread that runs whole calls handed to it.

    The worker starts on first use and then waits for calls, one stage's
    at a time: a stage holds ``taken`` from when it opens until every call
    it handed over has finished.
    """

    def __init__(self) -> None:
        self.taken = threading.Lock()
        self.todo: deque = deque()
        self.queued = threading.Semaphore(0)
        self.finished = threading.Semaphore(0)
        self.worker: threading.Thread | None = None

    def serve(self) -> None:
        while True:
            self.queued.acquire()
            stage, func, args = self.todo.popleft()
            stage.context.run(stage.call, func, args)
            # An idle worker must not keep the last call's arrays alive.
            del stage, func, args
            self.finished.release()


_LANE = _Lane()


def _fresh_lane() -> None:
    global _LANE
    _LANE = _Lane()  # a forked child has no worker; it starts its own


os.register_at_fork(after_in_child=_fresh_lane)


class _Stage:
    """The calls one stage hands to the second lane; see :func:`second_lane`.

    The lane runs them in a copy of the context the stage was opened in, so
    settings such as ``np.errstate`` hold on both threads.
    """

    __slots__ = ("lane", "context", "sent", "error")

    def __init__(self, lane: _Lane | None) -> None:
        self.lane = lane
        self.context = None if lane is None else contextvars.copy_context()
        self.sent = 0
        self.error: BaseException | None = None

    def call(self, func: Callable, args: tuple) -> None:
        try:
            func(*args)
        except BaseException as exc:  # re-raised by __exit__ after the join
            if self.error is None:
                self.error = exc

    def submit(self, func: Callable, *args: object) -> None:
        """Run ``func(*args)`` on the lane, or here and now without one."""
        lane = self.lane
        if lane is None:
            self.call(func, args)
            return
        lane.todo.append((self, func, args))
        lane.queued.release()
        self.sent += 1

    def __enter__(self) -> "_Stage":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> bool:
        lane = self.lane
        if lane is not None:
            for _ in range(self.sent):
                lane.finished.acquire()
            lane.taken.release()
        if self.error is not None and exc is None:
            raise self.error
        return False


def second_lane(size: int) -> _Stage:
    """Open a stage over ``size`` arena elements, for use as ``with``.

    The stage hands whole calls to the second lane with ``submit`` and does
    the rest itself; leaving the ``with`` block waits for every handed call
    to finish, then re-raises the first exception one of them raised (an
    exception of the block itself takes precedence). Calls go to the lane
    only when the stage spans at least one ``ADAM_BLOCK`` and BLAS leaves a
    core idle (:func:`_lane_rule`), and only from one stage at a time: a
    stage opened meanwhile, such as one inside a call the lane runs, runs
    its calls inline. Inline, ``submit`` runs the call at once, so the two
    cases are one code path. No numpy call is split, so no bit depends on
    which thread made it.
    """
    lane = _LANE
    if size >= ADAM_BLOCK and _lane_rule() and lane.taken.acquire(blocking=False):
        if lane.worker is None:
            lane.worker = threading.Thread(target=lane.serve, name="prunescope-lane",
                                           daemon=True)
            lane.worker.start()
        return _Stage(lane)
    return _Stage(None)


# -- checkpoints ---------------------------------------------------------

CHECKPOINT_FORMAT = "prunescope.checkpoint"
CHECKPOINT_VERSION = 1


def _encode_array(arr: np.ndarray) -> str:
    return base64.b64encode(
        np.ascontiguousarray(arr, dtype="<f8").tobytes()).decode("ascii")


def _decode_array(text: str, shape: tuple[int, ...]) -> np.ndarray:
    """A read-only little-endian view of one payload; no copy is made."""
    try:
        raw = base64.b64decode(text.encode("ascii"), validate=True)
    except ValueError as exc:
        raise DataFormatError(f"checkpoint array payload is not base64: {exc}") from exc
    expected = 8 * int(np.prod(shape)) if shape else 8
    if len(raw) != expected:
        raise DataFormatError(
            f"checkpoint array payload has {len(raw)} bytes, expected {expected}")
    return np.frombuffer(raw, dtype="<f8").reshape(shape)


def save_checkpoint(net: Network, path: str | Path,
                    meta: dict | None = None) -> None:
    """Write the network to a JSON checkpoint (bitwise round trip via base64)."""
    write_json(path, {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "layers": [
            {
                "activation": layer.activation,
                "out": layer.out_dim,
                "in": layer.in_dim,
                "input": net.source(k),
                "weight": _encode_array(layer.weight.values),
                "bias": _encode_array(layer.bias.values),
            }
            for k, layer in enumerate(net.layers)
        ],
        "components": [[name, lo, hi] for name, (lo, hi) in net.components.items()],
        "meta": dict(meta or {}),
    })


def load_checkpoint(path: str | Path) -> tuple[Network, dict]:
    """Load a checkpoint written by :func:`save_checkpoint`.

    Returns the reconstructed network and the stored metadata dict. The
    network is built from the recorded shapes first, and each payload is
    then decoded straight into its slot of the network's arena. A document
    of the wrong shape raises :class:`DataFormatError`.
    """
    doc = Fields.document(read_json(path, "checkpoint"), f"checkpoint {path}",
                          CHECKPOINT_FORMAT, CHECKPOINT_VERSION)
    layers = doc.arr("layers")
    entries = [layers.obj(k) for k in layers.keys()]
    dense = []
    for entry in entries:
        out_dim, in_dim = entry.int("out", low=1), entry.int("in", low=1)
        # Checked before the arena is allocated, so recorded shapes cannot
        # claim more memory than the file's payloads hold.
        for role, size in (("weight", out_dim * in_dim), ("bias", out_dim)):
            if len(entry.str(role)) != 4 * -(-8 * size // 3):
                entry.fail(role, f"must be the base64 of {size} float64 values")
        # Zeros that take no memory of their own: each payload is decoded
        # straight into its arena slot below, so one is held at a time.
        dense.append((np.broadcast_to(0.0, (out_dim, in_dim)),
                      np.broadcast_to(0.0, out_dim), entry.str("activation")))
    components = doc.arr("components")
    bounds = {}
    for c in components.keys():
        name_lo_hi = components.arr(c, length=3)
        name = name_lo_hi.str(0)
        if name in bounds:
            components.fail(c, f"repeats the component name {name!r}")
        bounds[name] = (name_lo_hi.int(1, low=0), name_lo_hi.int(2, low=0))
    net = Network(dense, bounds,
                  [e.int("input", k - 1, low=-1) for k, e in enumerate(entries)])
    for layer, entry in zip(net.layers, entries):
        layer.weight.values[...] = _decode_array(entry.str("weight"), layer.weight.shape)
        layer.bias.values[...] = _decode_array(entry.str("bias"), layer.bias.shape)
    return net, dict(doc.obj("meta", {}).value)
