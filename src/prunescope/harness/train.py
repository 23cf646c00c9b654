"""The training loop: seeded batches, scheduled group L1, online importance.

Each iteration runs forward, task loss, and backward; ``update_all`` reads
the pure task gradients into the importance states before it adds the
scheduled L1 subgradient, and the optimizer steps. One trace row per (epoch,
group) captures the final iteration's metrics with epoch-end norms and losses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from ..artifacts import Fields, write_json
from ..errors import ConfigurationError, NumericsError
from ..importance import (GroupImportanceState, METRICS, init_states, rank_groups,
                          states_to_doc, update_all)
from ..modelgraph import ComponentGraph, build_groups, export_manifest
from ..netcore import (Adam, Network, SGD, backward, forward, load_checkpoint,
                       mse_loss, save_checkpoint)
from ..scheduler import lambda_weight_at, schedule_row, total_loss
from .config import ExperimentConfig, build_model
from .data import load_image_matrix, synthetic_dataset
from .trace import TraceRecord, emit_trace

BAYES_NOTE = ("note: the gamma posterior mean mu decreases as accumulated "
              "gradient energy grows, so larger mu reflects historically "
              "quieter groups; inv_mu is logged alongside for inspection.")


@dataclass
class TrainResult:
    net: Network
    graph: ComponentGraph
    states: dict[str, GroupImportanceState]
    records: list[TraceRecord]
    config: ExperimentConfig
    final_task_loss: float
    test_mse: float


def make_optimizer(cfg: ExperimentConfig):
    opt = cfg.optimizer
    if opt.kind == "sgd":
        return SGD(lr=opt.lr)
    return Adam(lr=opt.lr, beta1=opt.beta1, beta2=opt.beta2, eps=opt.eps)


def load_dataset(cfg: ExperimentConfig,
                 net: Network) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Resolve the configured dataset to (X_train, Y_train, X_test, Y_test);
    a synthetic one is drawn from ``cfg.seed``.

    Reconstruction targets are the inputs themselves: for mnist,
    ``Y_train is X_train`` and ``Y_test is X_test``. Training batches are
    fancy-indexed copies and evaluation only reads, so nothing writes into
    them.
    """
    ds = cfg.dataset
    if ds.kind == "synthetic":
        return synthetic_dataset(cfg.seed, ds.n_train, ds.n_test, net.input_dim,
                                 net.output_dim, rank=ds.rank, target=ds.target)
    assert ds.kind == "mnist"
    assert ds.train_images is not None

    def images(path: str) -> np.ndarray:
        x = load_image_matrix(path)
        if x.shape[1] != net.input_dim:
            raise ConfigurationError(
                f"images in {path} are {x.shape[1]}-wide but the network "
                f"expects {net.input_dim} inputs")
        return x

    x = images(ds.train_images)
    if net.output_dim != net.input_dim:
        raise ConfigurationError(
            "image reconstruction needs output width equal to input width")
    # Without a test file the test rows are held out after the training rows.
    x_test = images(ds.test_images) if ds.test_images else x[ds.n_train:]
    if len(x) < ds.n_train or len(x_test) < ds.n_test:
        have = (f"{len(x)} training and {len(x_test)} test images"
                if ds.test_images else f"{len(x)} images")
        raise ConfigurationError(
            f"{have} cannot cover n_train={ds.n_train} plus a "
            f"held-out n_test={ds.n_test}")
    x_train, x_test = x[:ds.n_train], x_test[:ds.n_test]
    return x_train, x_train, x_test, x_test


def evaluate_mse(net: Network, x: np.ndarray, y: np.ndarray,
                 batch_size: int = 256) -> float:
    """Mean squared error over a full dataset, batched."""
    if len(x) == 0:
        raise ConfigurationError("cannot evaluate on an empty dataset")
    total = 0.0
    for lo in range(0, len(x), batch_size):
        batch = x[lo:lo + batch_size]
        pred = forward(net, batch)[-1]
        total += float(np.sum((pred - y[lo:lo + batch_size]) ** 2))
    return total / (len(x) * y.shape[1])


def run_training(cfg: ExperimentConfig, *, net: Network | None = None,
                 graph: ComponentGraph | None = None,
                 epochs: int | None = None,
                 seed: int | None = None,
                 data: tuple[np.ndarray, ...] | None = None) -> TrainResult:
    """Train for the configured number of epochs and return the full record.

    ``net``/``graph``/``data`` override the config when given, which is how
    fine-tuning reuses this loop on a pruned checkpoint. ``seed`` (else the
    PRUNESCOPE_SEED environment variable) and ``epochs`` are folded into the
    config, so the result's ``config`` is the one that ran.
    """
    cfg = replace(cfg, seed=cfg.resolve_seed() if seed is None else seed,
                  epochs=cfg.epochs if epochs is None else epochs)
    if net is None:
        net = build_model(cfg.model, cfg.seed)
    if graph is None:
        graph = build_groups(net, cfg.layers_per_group)
    x_train, y_train, x_test, y_test = (
        load_dataset(cfg, net) if data is None else data)
    if len(x_train) < 1:
        raise ConfigurationError("training set is empty")

    groups = graph.groups
    param_counts = [g.param_count for g in groups]
    states = init_states(graph, cfg.bayes)
    optimizer = make_optimizer(cfg)
    shuffle_rng = np.random.default_rng([cfg.seed, 2])

    records: list[TraceRecord] = []
    task_loss = math.nan
    for epoch in range(1, cfg.epochs + 1):
        lambdas = schedule_row(epoch - 1, param_counts, cfg.schedule)
        weight = lambda_weight_at(epoch, cfg.schedule)
        coeffs = [weight * lam for lam in lambdas]
        order = shuffle_rng.permutation(len(x_train))
        starts = range(0, len(x_train), cfg.batch_size)
        for it, lo in enumerate(starts):
            idx = order[lo:lo + cfg.batch_size]
            acts = forward(net, x_train[idx])
            task_loss, d_out = mse_loss(acts[-1], y_train[idx])
            if not math.isfinite(task_loss):
                raise NumericsError(
                    f"task loss became {task_loss} at epoch {epoch}, "
                    f"iteration {it + 1}")
            backward(net, acts, d_out)
            update_all(states, net, graph, cfg.bayes, cfg.gamma, coeffs)
            if lo == starts[-1]:  # the epoch's loss is taken before its last step
                l1 = sum(lam * norm for lam, norm
                         in zip(lambdas, graph.l1_norms(net.flat_values)))
            optimizer.step(net)
        epoch_loss = total_loss(task_loss, l1, weight)
        norms = graph.l1_norms(net.flat_values)
        for i, group in enumerate(groups):
            st = states[group.id]
            records.append(TraceRecord(
                epoch=epoch, group_id=group.id, kind=group.kind,
                lambda_=lambdas[i],
                raw_grad=st.raw_grad, ema_grad=st.ema_grad,
                raw_fisher=st.raw_fisher, ema_fisher=st.ema_fisher,
                raw_bayes=st.raw_bayes, ema_bayes=st.ema_bayes,
                l1_norm=norms[i],
                task_loss=task_loss, total_loss=epoch_loss))

    test_mse = evaluate_mse(net, x_test, y_test) if len(x_test) else math.nan
    return TrainResult(net=net, graph=graph, states=states, records=records,
                       config=cfg, final_task_loss=task_loss,
                       test_mse=test_mse)


def finetune(checkpoint_path: str | Path, cfg: ExperimentConfig,
             epochs: int) -> TrainResult:
    """Continue training a saved (typically pruned) network.

    The group decomposition is rebuilt from the checkpoint's own shapes using
    the ``layers_per_group`` recorded in its metadata; importance states start
    fresh so the smoothed metrics describe the fine-tuning phase only.
    """
    net, graph, _ = load_grouped(checkpoint_path, cfg.layers_per_group)
    cfg = replace(cfg, layers_per_group=graph.layers_per_group)
    return run_training(cfg, net=net, graph=graph, epochs=epochs)


def load_grouped(checkpoint_path: str | Path,
                 layers_per_group: int) -> tuple[Network, ComponentGraph, dict]:
    """Load a checkpoint and rebuild its groups with the ``layers_per_group``
    its metadata records (``layers_per_group`` when it records none).

    Returns the network, its groups and the metadata.
    """
    net, meta = load_checkpoint(checkpoint_path)
    lpg = Fields(meta, f"checkpoint {checkpoint_path} meta").int(
        "layers_per_group", layers_per_group, low=1)
    return net, build_groups(net, lpg), meta


def save_outputs(result: TrainResult, out_dir: str | Path,
                 meta: dict | None = None) -> dict[str, Path]:
    """Write the standard artifact set for one run; returns name -> path.

    ``meta`` adds entries to the checkpoint's metadata.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cfg = result.config
    paths = {
        "config": out / "config.json",
        "checkpoint": out / "checkpoint.json",
        "trace_csv": out / "trace.csv",
        "states": out / "states.json",
        "manifest": out / "manifest.json",
        "summary": out / "summary.json",
    }
    cfg.save(paths["config"])
    save_checkpoint(result.net, paths["checkpoint"],
                    meta={"layers_per_group": cfg.layers_per_group,
                          "seed": cfg.seed, "epochs": cfg.epochs, **(meta or {})})
    emit_trace(result.records, paths["trace_csv"])
    write_json(paths["states"], states_to_doc(result.states, cfg.gamma, cfg.bayes),
               indent=2)
    write_json(paths["manifest"], export_manifest(result.net, result.graph), indent=2)
    write_json(paths["summary"], _summary_doc(result), indent=2)
    return paths


def _summary_doc(result: TrainResult) -> dict:
    rankings = {m: rank_groups(result.states, m) for m in METRICS}
    rankings["combined"] = rank_groups(result.states, "combined",
                                       result.config.metric_weights)
    table = []
    for group in result.graph.groups:
        st = result.states[group.id]
        table.append({
            "id": group.id, "kind": group.kind,
            "param_count": group.param_count,
            "alpha": st.alpha, "beta": st.beta, "mu": st.mu,
            "inv_mu": st.inv_mu,
            "ema_grad": st.ema_grad, "ema_fisher": st.ema_fisher,
            "ema_bayes": st.ema_bayes,
        })
    return {
        "format": "prunescope.summary",
        "seed": result.config.seed,
        "epochs": result.config.epochs,
        "final_task_loss": result.final_task_loss,
        "test_mse": None if math.isnan(result.test_mse) else result.test_mse,
        "param_count": result.net.param_count(),
        "rankings": rankings,
        "groups": table,
        "bayes_note": BAYES_NOTE,
    }

