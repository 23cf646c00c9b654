"""Experiment configuration: JSON-backed dataclasses and the model presets."""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from ..artifacts import Fields, read_json, write_json
from ..errors import ConfigurationError
from ..importance import BayesConfig, check_gamma, check_metric_weights
from ..netcore import Adam, Network, SGD, build_sequential, seeded_layer
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
    rank: int | None = 32
    target: str = "identity"

    def __post_init__(self) -> None:
        if self.kind not in ("synthetic", "mnist"):
            raise ConfigurationError(f"unknown dataset kind {self.kind!r}")
        if self.kind == "mnist" and not self.train_images:
            raise ConfigurationError("mnist dataset needs a train_images path")
        if self.n_train < 1 or self.n_test < 0:
            raise ConfigurationError("need n_train >= 1 and n_test >= 0")


@dataclass(frozen=True)
class OptimizerConfig:
    """A run's optimizer. Making the config builds one, so the optimizer's
    own checks refuse bad settings here. ``sgd`` takes ``lr`` only: it
    refuses an Adam setting other than the default, and saves none."""

    kind: str = "adam"
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    _ADAM_ONLY = ("beta1", "beta2", "eps")

    def __post_init__(self) -> None:
        self.build()

    def build(self) -> Adam | SGD:
        """A fresh optimizer of these settings."""
        if self.kind == "sgd":
            given = [f"{name}={getattr(self, name)!r}" for name in self._ADAM_ONLY
                     if getattr(self, name) != getattr(OptimizerConfig, name)]
            if given:
                raise ConfigurationError(f"sgd takes lr only, got {', '.join(given)}")
            return SGD(lr=self.lr)
        if self.kind != "adam":
            raise ConfigurationError(f"unknown optimizer {self.kind!r}")
        return Adam(lr=self.lr, beta1=self.beta1, beta2=self.beta2, eps=self.eps)

    def to_dict(self) -> dict:
        skip = self._ADAM_ONLY if self.kind == "sgd" else ()
        return {k: v for k, v in asdict(self).items() if k not in skip}


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
        if self.seed < 0:
            raise ConfigurationError(f"seed must be non-negative, got {self.seed}")
        if self.batch_size < 1:
            raise ConfigurationError("batch_size must be at least 1")
        if self.layers_per_group < 1:
            raise ConfigurationError("layers_per_group must be at least 1")
        check_gamma(self.gamma)
        check_metric_weights(self.metric_weights)

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        """The JSON-ready document (tuples are written as arrays)."""
        return asdict(self) | {"optimizer": self.optimizer.to_dict()}

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        return _section(cls, Fields(doc, "config"))

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        return _section(cls, Fields(read_json(path, "config"), f"config {path}"))

    def save(self, path: str | Path) -> None:
        write_json(path, self.to_dict(), indent=2)

    def resolve_seed(self) -> int:
        """The run seed; the PRUNESCOPE_SEED environment variable wins."""
        env = Fields(dict(os.environ), "environment", text=True)
        return env.int(SEED_ENV_VAR, self.seed)


_SECTIONS = {cls.__name__: cls for cls in (ModelConfig, DatasetConfig, OptimizerConfig,
                                           BayesConfig, ScheduleConfig)}


def _section(cls: type, doc: Fields):
    """``cls`` built from one config object, each field read as the type its
    annotation names; a field the object leaves out keeps its default."""
    types = {f.name: f.type for f in fields(cls)}
    unknown = sorted(set(doc.keys()) - set(types))
    if unknown:
        where = f" in {doc.at!r}" if doc.at else ""
        raise ConfigurationError(f"unknown config keys{where}: {unknown}")
    return cls(**{name: _typed(doc, name, types[name]) for name in doc.keys()})


def _typed(doc: Fields, key: object, annotation: str) -> object:
    kind = annotation.removesuffix(" | None")
    if kind != annotation and doc.value[key] is None:
        return None
    if kind in _SECTIONS:
        return _section(_SECTIONS[kind], doc.obj(key))
    if kind.startswith("tuple["):
        parts = kind[len("tuple["):-1].split(", ")
        items = doc.arr(key, length=None if parts[-1] == "..." else len(parts))
        return tuple(_typed(items, i, parts[0]) for i in items.keys())
    if kind.startswith("dict[str, "):
        items = doc.obj(key)
        return {name: _typed(items, name, kind[len("dict[str, "):-1])
                for name in items.keys()}
    if kind == "float":
        return doc.float(key, finite=True)
    return getattr(doc, kind)(key)  # "int" or "str"


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
        layers = [seeded_layer(k, i, o, act, rng) for k, (i, o, act) in enumerate(dims)]
        components = {"encoder": (0, 2), "head_a": (2, 4), "head_b": (4, 6)}
        return Network(layers, components, layer_inputs=[-1, 0, 1, 2, 1, 4])
    assert model.preset == "custom"
    assert model.widths and model.activations and model.components
    return build_sequential(model.widths, model.activations,
                            dict(model.components), rng)
