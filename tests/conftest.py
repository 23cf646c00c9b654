"""Shared builders for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from prunescope import netcore
from prunescope.harness.config import ModelConfig, build_model
from prunescope.netcore import DenseLayer, Network, ParamTensor, build_sequential


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
        tensor.values = dyadic(rng, tensor.shape)


def make_layer(weight, bias, activation="identity", index=0) -> DenseLayer:
    return DenseLayer(ParamTensor(f"layer{index}.weight", np.asarray(weight)),
                      ParamTensor(f"layer{index}.bias", np.asarray(bias)),
                      activation)


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
