"""Experiment configuration: JSON-backed dataclasses and the model presets."""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from ..errors import ConfigurationError
from ..importance import BayesConfig
from ..netcore import DenseLayer, Network, build_sequential
from ..scheduler import ScheduleConfig

SEED_ENV_VAR = "PRUNESCOPE_SEED"

AUTOENCODER_LATENTS = (8, 64, 256, 512)


@dataclass(frozen=True)
class ModelConfig:
    """Which network to build.

    Presets: ``autoencoder`` (784-256-128-latent-128-256-784, encoder and
    decoder components) and ``toy_multihead`` (a 16-32-8 encoder shared by
    two 8-16-1 heads). ``custom`` builds a sequential chain from explicit
    widths, activations, and component ranges.
    """

    preset: str = "autoencoder"
    latent_dim: int = 8
    widths: tuple[int, ...] | None = None
    activations: tuple[str, ...] | None = None
    components: dict[str, tuple[int, int]] | None = None

    def __post_init__(self) -> None:
        if self.preset not in ("autoencoder", "toy_multihead", "custom"):
            raise ConfigurationError(f"unknown model preset {self.preset!r}")
        if self.preset == "autoencoder" and self.latent_dim not in AUTOENCODER_LATENTS:
            raise ConfigurationError(
                f"autoencoder latent_dim must be one of {AUTOENCODER_LATENTS}, "
                f"got {self.latent_dim}")
        if self.preset == "custom":
            if not (self.widths and self.activations and self.components):
                raise ConfigurationError(
                    "custom models need widths, activations, and components")


@dataclass(frozen=True)
class DatasetConfig:
    """Data source: ``synthetic`` (seeded, offline) or ``mnist`` (IDX files)."""

    kind: str = "synthetic"
    train_images: str | None = None
    test_images: str | None = None
    n_train: int = 1024
    n_test: int = 256
    rank: int = 32
    target: str = "identity"

    def __post_init__(self) -> None:
        if self.kind not in ("synthetic", "mnist"):
            raise ConfigurationError(f"unknown dataset kind {self.kind!r}")
        if self.kind == "mnist" and not self.train_images:
            raise ConfigurationError("mnist dataset needs a train_images path")


@dataclass(frozen=True)
class OptimizerConfig:
    kind: str = "adam"
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self) -> None:
        if self.kind not in ("adam", "sgd"):
            raise ConfigurationError(f"unknown optimizer {self.kind!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    bayes: BayesConfig = field(default_factory=BayesConfig)
    schedule: ScheduleConfig = field(default_factory=ScheduleConfig)
    epochs: int = 110
    batch_size: int = 128
    seed: int = 0
    layers_per_group: int = 1
    gamma: float = 0.9
    metric_weights: tuple[float, float, float] = (1 / 3, 1 / 3, 1 / 3)

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ConfigurationError("epochs must be at least 1")
        if self.batch_size < 1:
            raise ConfigurationError("batch_size must be at least 1")
        if self.layers_per_group < 1:
            raise ConfigurationError("layers_per_group must be at least 1")
        if not 0.0 <= self.gamma < 1.0:
            raise ConfigurationError(f"gamma must lie in [0, 1), got {self.gamma}")
        if (len(self.metric_weights) != 3 or any(w < 0 for w in self.metric_weights)
                or abs(sum(self.metric_weights) - 1.0) > 1e-9):
            raise ConfigurationError(
                "metric_weights must be three non-negative values summing to 1")

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        doc = asdict(self)
        doc["model"]["widths"] = (list(self.model.widths)
                                  if self.model.widths else None)
        doc["model"]["activations"] = (list(self.model.activations)
                                       if self.model.activations else None)
        if self.model.components:
            doc["model"]["components"] = {
                name: [lo, hi] for name, (lo, hi) in self.model.components.items()}
        doc["metric_weights"] = list(self.metric_weights)
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        if not isinstance(doc, dict):
            raise ConfigurationError("config document must be a JSON object")
        known = {"model", "dataset", "optimizer", "bayes", "schedule", "epochs",
                 "batch_size", "seed", "layers_per_group", "gamma",
                 "metric_weights"}
        unknown = set(doc) - known
        if unknown:
            raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
        kwargs: dict = {}
        try:
            if "model" in doc:
                m = dict(doc["model"])
                if m.get("widths"):
                    m["widths"] = tuple(int(w) for w in m["widths"])
                if m.get("activations"):
                    m["activations"] = tuple(m["activations"])
                if m.get("components"):
                    m["components"] = {name: (int(lo), int(hi))
                                       for name, (lo, hi) in m["components"].items()}
                kwargs["model"] = ModelConfig(**m)
            if "dataset" in doc:
                kwargs["dataset"] = DatasetConfig(**doc["dataset"])
            if "optimizer" in doc:
                kwargs["optimizer"] = OptimizerConfig(**doc["optimizer"])
            if "bayes" in doc:
                kwargs["bayes"] = BayesConfig(**doc["bayes"])
            if "schedule" in doc:
                kwargs["schedule"] = ScheduleConfig(**doc["schedule"])
            for key in ("epochs", "batch_size", "seed", "layers_per_group"):
                if key in doc:
                    kwargs[key] = int(doc[key])
            if "gamma" in doc:
                kwargs["gamma"] = float(doc["gamma"])
            if "metric_weights" in doc:
                kwargs["metric_weights"] = tuple(float(w) for w in doc["metric_weights"])
        except (AttributeError, TypeError, ValueError) as exc:
            raise ConfigurationError(f"bad config value: {exc}") from exc
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        path = Path(path)
        if not path.exists():
            raise ConfigurationError(f"config file {path} does not exist")
        try:
            doc = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"config {path} is not valid JSON: {exc}") from exc
        return cls.from_dict(doc)

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2))

    def resolve_seed(self) -> int:
        """The run seed; the PRUNESCOPE_SEED environment variable wins."""
        raw = os.environ.get(SEED_ENV_VAR)
        if raw is None:
            return self.seed
        try:
            return int(raw)
        except ValueError:
            raise ConfigurationError(
                f"{SEED_ENV_VAR}={raw!r} is not an integer") from None


def build_model(model: ModelConfig, seed: int) -> Network:
    """Instantiate the configured architecture with seeded initialization."""
    rng = np.random.default_rng([int(seed), 0])
    if model.preset == "autoencoder":
        d = model.latent_dim
        widths = [784, 256, 128, d, 128, 256, 784]
        activations = ["relu", "relu", "identity", "relu", "relu", "sigmoid"]
        components = {"encoder": (0, 3), "decoder": (3, 6)}
        return build_sequential(widths, activations, components, rng)
    if model.preset == "toy_multihead":
        dims = [(16, 32, "relu"), (32, 8, "identity"),
                (8, 16, "relu"), (16, 1, "identity"),
                (8, 16, "relu"), (16, 1, "identity")]
        layers = [DenseLayer.seeded(k, i, o, act, rng)
                  for k, (i, o, act) in enumerate(dims)]
        components = {"encoder": (0, 2), "head_a": (2, 4), "head_b": (4, 6)}
        return Network(layers, components, layer_inputs=[-1, 0, 1, 2, 1, 4])
    assert model.preset == "custom"
    assert model.widths and model.activations and model.components
    return build_sequential(model.widths, model.activations,
                            dict(model.components), rng)
