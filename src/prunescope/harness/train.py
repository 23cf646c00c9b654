"""The training loop: seeded batches, scheduled group L1, online importance.

Each iteration runs forward, task loss, and backward; the importance states
consume the pure task gradients before the scheduled L1 subgradient is mixed
in and the optimizer steps. One trace row per (epoch, group) captures the
final iteration's metrics together with epoch-end norms and losses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from ..artifacts import Fields, write_json
from ..errors import ConfigurationError, NumericsError
from ..importance import (GroupImportanceState, METRICS, importance_plan,
                          init_states, rank_groups, states_to_doc, update_all)
from ..modelgraph import ComponentGraph, build_groups, export_manifest
from ..netcore import (Adam, Network, SGD, add_l1_subgradient, backward,
                       forward, load_checkpoint, mse_loss, save_checkpoint)
from ..scheduler import (group_l1_norm, l1_term, lambda_weight_at, schedule_row,
                         total_loss)
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
    seed: int
    final_task_loss: float
    test_mse: float


def make_optimizer(cfg: ExperimentConfig):
    opt = cfg.optimizer
    if opt.kind == "sgd":
        return SGD(lr=opt.lr)
    return Adam(lr=opt.lr, beta1=opt.beta1, beta2=opt.beta2, eps=opt.eps)


def load_dataset(cfg: ExperimentConfig, seed: int,
                 net: Network) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Resolve the configured dataset to (X_train, Y_train, X_test, Y_test)."""
    ds = cfg.dataset
    if ds.kind == "synthetic":
        return synthetic_dataset(seed, ds.n_train, ds.n_test, net.input_dim,
                                 net.output_dim, rank=ds.rank, target=ds.target)
    assert ds.kind == "mnist"
    assert ds.train_images is not None
    x = load_image_matrix(ds.train_images)
    if x.shape[1] != net.input_dim:
        raise ConfigurationError(
            f"images are {x.shape[1]}-wide but the network expects "
            f"{net.input_dim} inputs")
    if net.output_dim != net.input_dim:
        raise ConfigurationError(
            "image reconstruction needs output width equal to input width")
    if ds.test_images:
        x_test = load_image_matrix(ds.test_images)[:ds.n_test]
        x_train = x[:ds.n_train]
    else:
        if len(x) < ds.n_train + ds.n_test:
            raise ConfigurationError(
                f"{len(x)} images cannot cover n_train={ds.n_train} plus a "
                f"held-out n_test={ds.n_test}")
        x_train = x[:ds.n_train]
        x_test = x[ds.n_train:ds.n_train + ds.n_test]
    return x_train, x_train.copy(), x_test, x_test.copy()


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

    ``net``/``graph``/``epochs``/``data`` override the config when given,
    which is how fine-tuning reuses this loop on a pruned checkpoint.
    """
    seed = cfg.resolve_seed() if seed is None else int(seed)
    if seed < 0:
        raise ConfigurationError(f"seed must be non-negative, got {seed}")
    epochs = cfg.epochs if epochs is None else int(epochs)
    if epochs < 1:
        raise ConfigurationError("epochs must be at least 1")
    if net is None:
        net = build_model(cfg.model, seed)
    if graph is None:
        graph = build_groups(net, cfg.layers_per_group)
    x_train, y_train, x_test, y_test = (
        load_dataset(cfg, seed, net) if data is None else data)
    if len(x_train) < 1:
        raise ConfigurationError("training set is empty")

    groups = graph.groups
    schedule = cfg.schedule.with_groups(len(groups))
    param_counts = [g.param_count for g in groups]
    plan = importance_plan(net, graph)
    states = init_states(graph, cfg.bayes)
    optimizer = make_optimizer(cfg)
    shuffle_rng = np.random.default_rng([seed, 2])

    records: list[TraceRecord] = []
    task_loss = math.nan
    for epoch in range(1, epochs + 1):
        lambdas = schedule_row(epoch - 1, param_counts, schedule)
        weight = lambda_weight_at(epoch, schedule)
        l1_runs = plan.l1_parts([weight * lam for lam in lambdas])
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
            update_all(states, net, graph, cfg.bayes, cfg.gamma)
            add_l1_subgradient(net, l1_runs)
            if lo == starts[-1]:  # the epoch's loss is taken before its last step
                l1 = l1_term(net, groups, lambdas)
            optimizer.step(net)
        epoch_loss = total_loss(task_loss, l1, weight)
        for i, group in enumerate(groups):
            st = states[group.id]
            records.append(TraceRecord(
                epoch=epoch, group_id=group.id, kind=group.kind,
                lambda_=lambdas[i],
                raw_grad=st.raw_grad, ema_grad=st.ema_grad,
                raw_fisher=st.raw_fisher, ema_fisher=st.ema_fisher,
                raw_bayes=st.raw_bayes, ema_bayes=st.ema_bayes,
                l1_norm=group_l1_norm(net, group),
                task_loss=task_loss, total_loss=epoch_loss))

    test_mse = evaluate_mse(net, x_test, y_test) if len(x_test) else math.nan
    return TrainResult(net=net, graph=graph, states=states, records=records,
                       config=cfg, seed=seed, final_task_loss=task_loss,
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


def save_outputs(result: TrainResult, out_dir: str | Path) -> dict[str, Path]:
    """Write the standard artifact set for one run; returns name -> path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cfg = result.config
    paths = {
        "config": out / "config.json",
        "checkpoint": out / "checkpoint.json",
        "trace_csv": out / "trace.csv",
        "trace_json": out / "trace.json",
        "states": out / "states.json",
        "manifest": out / "manifest.json",
        "summary": out / "summary.json",
    }
    cfg.save(paths["config"])
    save_checkpoint(result.net, paths["checkpoint"],
                    meta={"layers_per_group": cfg.layers_per_group,
                          "seed": result.seed,
                          "epochs": max((r.epoch for r in result.records),
                                        default=0)})
    emit_trace(result.records, paths["trace_csv"])
    emit_trace(result.records, paths["trace_json"])
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
        "seed": result.seed,
        "epochs": max((r.epoch for r in result.records), default=0),
        "final_task_loss": result.final_task_loss,
        "test_mse": result.test_mse,
        "param_count": result.net.param_count(),
        "rankings": rankings,
        "groups": table,
        "bayes_note": BAYES_NOTE,
    }

