"""Bitwise golden digests: a seeded run must reproduce its parameters exactly.

The digests were recorded before parameters moved into one flat arena per
network, so they also pin that the arena, the in-place blocked Adam and the
view-based importance and L1 code change no bit. A change that alters the
arithmetic on purpose must say so and record new digests.
"""

import hashlib
import json

import numpy as np

from prunescope.harness.config import DatasetConfig, ExperimentConfig, ModelConfig
from prunescope.harness.train import finetune, run_training
from prunescope.importance import states_to_doc
from prunescope.netcore import save_checkpoint
from prunescope.pruner import allocate_budget, apply_prune

TRAINED = "323cd4536642b3bdd29e74c7ae3a1ba9803c51354f0e8b424e8f9587ff181344"
FINETUNED = "469509a124c0ab3fd0a676ad37bf5211ecc4e5b562ce8b4fd37753b16baf985c"
AUTOENCODER_PARAMS = "0f864209f597deaf8287dc700342a8245cf62df699a59a556375fb9e7ef6e8de"
AUTOENCODER_STATES = "0d5d7f7b340b60739d3200cebe388d70f8f62a4868e652d0e903494e2ffd0401"


def digest(net) -> str:
    """SHA-256 of every parameter's little-endian float64 bytes, layer order."""
    h = hashlib.sha256()
    for layer in net.layers:
        h.update(np.ascontiguousarray(layer.weight.values, "<f8").tobytes())
        h.update(np.ascontiguousarray(layer.bias.values, "<f8").tobytes())
    return h.hexdigest()


def test_toy_multihead_train_prune_finetune_is_bitwise_stable(tmp_path):
    cfg = ExperimentConfig(
        model=ModelConfig(preset="toy_multihead"),
        dataset=DatasetConfig(kind="synthetic", rank=None, target="affine"),
        epochs=5, seed=0)
    trained = run_training(cfg)
    assert digest(trained.net) == TRAINED

    plan = allocate_budget(trained.states, trained.graph, trained.net, 0.5,
                           "combined")
    pruned, _ = apply_prune(trained.net, trained.graph, plan)
    path = tmp_path / "pruned.json"
    save_checkpoint(pruned, path, meta={"layers_per_group": 1})
    assert digest(finetune(path, cfg, 2).net) == FINETUNED


def test_autoencoder_train_and_importance_are_bitwise_stable():
    """The autoencoder path: relu and sigmoid layers, 784-wide tensors and
    their importance states. Both digests were recorded before the sigmoid
    lost its sign-split form and before the importance update was planned
    once per graph, so they pin that neither change moved a bit."""
    cfg = ExperimentConfig(
        model=ModelConfig(preset="autoencoder", latent_dim=8),
        dataset=DatasetConfig(kind="synthetic", n_train=256, n_test=64),
        epochs=2, batch_size=64, seed=0)
    trained = run_training(cfg)
    assert digest(trained.net) == AUTOENCODER_PARAMS
    doc = states_to_doc(trained.states, cfg.gamma, cfg.bayes)
    assert hashlib.sha256(json.dumps(doc).encode()).hexdigest() == AUTOENCODER_STATES
