"""The three benchmark workloads: set-up, one timed unit of work, and gates.

A workload is set up from the seed (config, data, model and groups), then
runs a fixed number of units of fixed work. Every unit of a run repeats the same work on the same inputs, so its outputs must agree
bit for bit. Each unit returns its wall time, the checks it passed or
failed, the test MSE and a SHA-256 fingerprint of the final parameters.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from prunescope.harness import cli, config, data, train
from prunescope import modelgraph, netcore, pruner

BATCH = 128


@dataclass
class UnitResult:
    start: float  # perf_counter readings around the timed work
    end: float
    test_mse: float
    fingerprint: str
    checks: list[tuple[str, bool]] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return self.end - self.start


class Laps:
    """Seconds taken by consecutive parts of a piece of work, by part name."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}
        self._last = time.perf_counter()

    def __call__(self, part: str) -> None:
        now = time.perf_counter()
        self.seconds[part] = now - self._last
        self._last = now


def fingerprint(net) -> str:
    """SHA-256 of every parameter's float64 bytes, in layer order."""
    digest = hashlib.sha256()
    for layer in net.layers:
        digest.update(np.ascontiguousarray(layer.weight.values, "<f8").tobytes())
        digest.update(np.ascontiguousarray(layer.bias.values, "<f8").tobytes())
    return digest.hexdigest()


def unit_closure_size(net, layer: int) -> int:
    """Parameters one unit of ``layer`` takes with it when removed."""
    return (net.layers[layer].in_dim + 1
            + sum(net.layers[c].out_dim for c in net.consumers(layer)))


class Workload:
    """Shared set-up: config, data, model and groups from the seed. Why each
    workload was chosen is recorded in BENCHMARK.json and README.md.

    ``units_per_s`` fixes how many units a run of ``--seconds`` does, so that
    the number of samples does not depend on the speed of the code under
    test. It is set so that a run lasts about ``--seconds`` on the machine
    described in README.md, at the commit that defined the benchmark."""

    name: str
    units_per_s: float
    model: config.ModelConfig
    dataset: config.DatasetConfig
    epochs: int

    def setup(self, seed: int) -> dict[str, float]:
        """Build the config, model, groups and data from the seed. Returns
        the seconds each part took. Repeating it rebuilds the same state."""
        # Drop the previous state first, so that a repeat does not hold two
        # copies at once and raise the peak memory.
        self.net = self.graph = self.data = None
        laps = Laps()
        self.cfg = config.ExperimentConfig(
            model=self.model, dataset=self.dataset, epochs=self.epochs,
            batch_size=BATCH, seed=seed)
        laps("config")
        self.net = config.build_model(self.model, seed)
        laps("build_model")
        self.graph = modelgraph.build_groups(self.net, self.cfg.layers_per_group)
        laps("build_groups")
        ds = self.dataset
        self.data = data.synthetic_dataset(
            seed, ds.n_train, ds.n_test, self.net.input_dim,
            self.net.output_dim, rank=ds.rank, target=ds.target)
        laps("synthetic_dataset")
        return laps.seconds

    def prepare(self) -> None:
        """Untimed work after set-up: the untrained baseline and a warm-up."""
        self.untrained_mse = train.evaluate_mse(self.net, self.data[2], self.data[3])
        self.first: tuple[str, float] | None = None

    def same_as_first(self, fp: str, test_mse: float) -> bool:
        if self.first is None:
            self.first = (fp, test_mse)
        return self.first == (fp, test_mse)

    def close(self) -> None:
        pass


class TrainWorkload(Workload):
    """One unit is one ``run_training`` call on a fresh copy of the model."""

    def prepare(self) -> None:
        super().prepare()
        train.run_training(self.cfg, net=self.net.copy(), graph=self.graph,
                           epochs=1, data=self.data)

    def run_unit(self, enter=contextlib.nullcontext) -> UnitResult:
        net = self.net.copy()
        with enter():
            start = time.perf_counter()
            result = train.run_training(self.cfg, net=net, graph=self.graph,
                                        data=self.data)
            end = time.perf_counter()
        fp = fingerprint(result.net)
        losses = [result.final_task_loss] + [
            v for r in result.records for v in (r.task_loss, r.total_loss)]
        return UnitResult(start, end, result.test_mse, fp, [
            ("losses finite", all(math.isfinite(v) for v in losses)),
            ("test_mse below untrained", result.test_mse < self.untrained_mse),
            ("same outputs every unit", self.same_as_first(fp, result.test_mse)),
        ])


class Ae8Train(TrainWorkload):
    name = "ae8-train"
    units_per_s = 0.9
    model = config.ModelConfig(preset="autoencoder", latent_dim=8)
    dataset = config.DatasetConfig(n_train=1024, n_test=256, rank=32,
                                   target="identity")
    epochs = 4


class ToyTrain(TrainWorkload):
    name = "toy-train"
    units_per_s = 3.2
    model = config.ModelConfig(preset="toy_multihead")
    dataset = config.DatasetConfig(n_train=1024, n_test=256, rank=8,
                                   target="affine")
    epochs = 40


class Ae512Pipeline(Workload):
    """One unit is one pass of the CLI over train, prune, finetune, verify
    and report, each stage a call of ``harness.cli.main``."""

    name = "ae512-pipeline"
    units_per_s = 0.7
    model = config.ModelConfig(preset="autoencoder", latent_dim=512)
    dataset = config.DatasetConfig(n_train=1024, n_test=256, rank=32,
                                   target="identity")
    epochs = 2
    finetune_epochs = 1
    sparsity = 0.5

    def __init__(self, work_root: Path) -> None:
        work_root.mkdir(parents=True, exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix="pipeline-", dir=work_root))
        self.passes = 0

    def setup(self, seed: int) -> dict[str, float]:
        seconds = super().setup(seed)
        laps = Laps()
        self.cfg_path = self.work / "config.json"
        self.cfg.save(self.cfg_path)
        laps("save_config")
        return seconds | laps.seconds

    def prepare(self) -> None:
        super().prepare()
        self.run_unit()  # warm-up pass; its checks are not counted
        self.first = None

    def stages(self, out: Path) -> list[list[str]]:
        return [
            ["train", "--config", str(self.cfg_path), "--out", str(out / "train")],
            ["prune", "--checkpoint", str(out / "train" / "checkpoint.json"),
             "--sparsity", str(self.sparsity), "--metric", "combined",
             "--out", str(out / "pruned")],
            ["finetune", "--checkpoint", str(out / "pruned" / "checkpoint.json"),
             "--config", str(self.cfg_path),
             "--epochs", str(self.finetune_epochs), "--out", str(out / "finetuned")],
            ["verify", "--checkpoint", str(out / "finetuned" / "checkpoint.json")],
            ["report", "--trace", str(out / "train" / "trace.csv"), "--hypotheses"],
        ]

    def run_unit(self, enter=contextlib.nullcontext) -> UnitResult:
        self.passes += 1
        out = self.work / f"pass-{self.passes}"
        argvs = self.stages(out)
        with enter(), contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            codes = [cli.main(argv) for argv in argvs]
            end = time.perf_counter()
        try:
            return self._check(out, argvs, codes, start, end)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def _check(self, out: Path, argvs: list[list[str]], codes: list[int],
               start: float, end: float) -> UnitResult:
        checks = [(f"{argv[0]} returns 0", code == 0)
                  for argv, code in zip(argvs, codes)]
        if any(code != 0 for code in codes):
            return UnitResult(start, end, math.nan, "", checks)
        trained = json.loads((out / "train" / "summary.json").read_text())
        tuned = json.loads((out / "finetuned" / "summary.json").read_text())
        pruned_net, _ = netcore.load_checkpoint(out / "pruned" / "checkpoint.json")
        tuned_net, _ = netcore.load_checkpoint(out / "finetuned" / "checkpoint.json")
        before = trained["param_count"]
        removed = before - pruned_net.param_count()
        sinks = set(self.net.sinks())
        closure = max(unit_closure_size(self.net, k)
                      for k in range(len(self.net.layers)) if k not in sinks)
        losses = (trained["final_task_loss"], tuned["final_task_loss"],
                  tuned["test_mse"])
        fp = fingerprint(tuned_net)
        test_mse = tuned["test_mse"]
        checks += [
            ("pruned checkpoint verifies",
             pruner.verify_consistency(pruned_net).ok),
            ("finetuned checkpoint verifies",
             pruner.verify_consistency(tuned_net).ok),
            ("sparsity within one unit closure",
             abs(removed - round(self.sparsity * before)) <= closure),
            ("losses finite", all(math.isfinite(v) for v in losses)),
            ("test_mse below untrained", test_mse < self.untrained_mse),
            ("same outputs every unit", self.same_as_first(fp, test_mse)),
        ]
        return UnitResult(start, end, test_mse, fp, checks)

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while not empty
            self.work.parent.rmdir()


def make(name: str, work_root: Path) -> Workload:
    if name == Ae512Pipeline.name:
        return Ae512Pipeline(work_root)
    return {cls.name: cls for cls in (Ae8Train, ToyTrain)}[name]()


NAMES = (Ae8Train.name, ToyTrain.name, Ae512Pipeline.name)
