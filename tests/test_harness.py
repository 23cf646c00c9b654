"""Harness integration: configs, the training loop, hypotheses, and the CLI."""

import importlib
import json
import math
import os
import struct
import subprocess
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from prunescope import importance as importance_module, netcore
from prunescope.errors import ConfigurationError, NumericsError
from prunescope.harness import (cli as cli_module, hypotheses as hypotheses_module,
                                train as train_module)
from prunescope.harness.cli import main
from prunescope.harness.config import (DatasetConfig, ExperimentConfig,
                                       ModelConfig, OptimizerConfig,
                                       SEED_ENV_VAR, build_model)
from prunescope.harness.hypotheses import evaluate_hypotheses, render_report
from prunescope.harness.trace import TraceRecord, check_trace, read_trace
from prunescope.harness.train import (evaluate_mse, finetune, load_dataset,
                                      run_training, save_outputs)
from prunescope.importance import states_from_doc
from prunescope.modelgraph import ComponentGraph, build_groups
from prunescope.netcore import forward, load_checkpoint, mse_loss, save_checkpoint
from prunescope.scheduler import ScheduleConfig, schedule_row, total_loss

from conftest import copied_checkpoint, damaged, group_l1_norm, toy_config


# -- configuration ------------------------------------------------------------


def test_config_round_trips_through_json(tmp_path):
    cfg = toy_config(epochs=7, gamma=0.8,
                     schedule=ScheduleConfig(lambda_base=2e-5, cycle_T=10),
                     optimizer=OptimizerConfig(kind="sgd", lr=0.05))
    path = tmp_path / "cfg.json"
    cfg.save(path)
    assert ExperimentConfig.from_file(path) == cfg
    assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg
    custom = toy_config(model=ModelConfig(
        preset="custom", widths=(16, 8, 1), activations=("relu", "identity"),
        components={"body": (0, 1), "head": (1, 2)}))
    custom.save(path)
    assert ExperimentConfig.from_file(path) == custom


def test_config_rejects_unknown_keys_and_bad_values(tmp_path):
    with pytest.raises(ConfigurationError, match="unknown config keys"):
        ExperimentConfig.from_dict({"epoch": 5})
    with pytest.raises(ConfigurationError):
        ExperimentConfig.from_dict({"model": {"preset": "resnet"}})
    with pytest.raises(ConfigurationError):
        ExperimentConfig(gamma=1.0)
    with pytest.raises(ConfigurationError):
        ExperimentConfig(metric_weights=(0.5, 0.5, 0.5))
    with pytest.raises(ConfigurationError):
        ExperimentConfig(epochs=0)
    path = tmp_path / "absent.json"
    with pytest.raises(ConfigurationError):
        ExperimentConfig.from_file(path)
    path.write_text("{broken")
    with pytest.raises(ConfigurationError):
        ExperimentConfig.from_file(path)


def test_model_config_validates_presets():
    with pytest.raises(ConfigurationError):
        ModelConfig(preset="autoencoder", latent_dim=32)
    for latent in (8, 64, 256, 512):
        assert ModelConfig(preset="autoencoder", latent_dim=latent)
    with pytest.raises(ConfigurationError):
        ModelConfig(preset="custom")  # needs explicit widths


def test_dataset_config_validates():
    with pytest.raises(ConfigurationError):
        DatasetConfig(kind="imagenet")
    with pytest.raises(ConfigurationError):
        DatasetConfig(kind="mnist")  # needs a path


@pytest.mark.parametrize("settings, message", [
    (dict(lr=0.0), "learning rate must be positive"),
    (dict(lr=math.inf), "learning rate must be positive and finite"),
    (dict(kind="sgd", lr=math.inf), "learning rate must be positive and finite"),
    (dict(lr=math.nan), "learning rate must be positive and finite"),
    (dict(beta1=1.0), r"betas must lie in \[0, 1\)"),
    (dict(eps=math.inf), "eps must be positive and finite"),
    (dict(eps=math.nan), "eps must be positive and finite"),
    (dict(kind="sgd", eps=0.0, beta1=5.0), r"sgd takes lr only, got beta1=5\.0, eps=0\.0"),
    (dict(kind="sgd", beta2=0.5), r"sgd takes lr only, got beta2=0\.5"),
    (dict(kind="sgd", eps=math.nan), "sgd takes lr only, got eps=nan"),
], ids=["lr_zero", "adam_lr_inf", "sgd_lr_inf", "lr_nan", "beta1", "eps_inf", "eps_nan",
        "sgd_eps_beta1", "sgd_beta2", "sgd_eps_nan"])
def test_an_optimizer_config_refuses_bad_settings_when_made(settings, message):
    """The optimizer's own checks run when the config is made, so a config
    built in Python is refused as one read from a file is (the file cases
    are the CLI's). An infinite ``eps`` would make every update zero."""
    with pytest.raises(ConfigurationError, match=message):
        OptimizerConfig(**settings)


def test_seed_env_var_overrides_the_config(monkeypatch):
    cfg = toy_config(seed=5)
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    assert cfg.resolve_seed() == 5
    monkeypatch.setenv(SEED_ENV_VAR, "99")
    assert cfg.resolve_seed() == 99
    monkeypatch.setenv(SEED_ENV_VAR, "not-an-int")
    with pytest.raises(ConfigurationError):
        cfg.resolve_seed()


def test_build_model_is_seed_deterministic():
    a = build_model(ModelConfig(preset="toy_multihead"), seed=4)
    b = build_model(ModelConfig(preset="toy_multihead"), seed=4)
    c = build_model(ModelConfig(preset="toy_multihead"), seed=5)
    for (_, _, ta), (_, _, tb) in zip(a.param_tensors(), b.param_tensors()):
        np.testing.assert_array_equal(ta.values, tb.values)
    assert not np.array_equal(a.layers[0].weight.values,
                              c.layers[0].weight.values)


def test_custom_model_builds_sequential_chains():
    cfg = ModelConfig(preset="custom", widths=(6, 4, 2),
                      activations=("relu", "identity"),
                      components={"all": (0, 2)})
    net = build_model(cfg, seed=0)
    assert [l.out_dim for l in net.layers] == [4, 2]


def test_autoencoder_preset_shape():
    net = build_model(ModelConfig(preset="autoencoder", latent_dim=64), seed=1)
    assert [l.out_dim for l in net.layers] == [256, 128, 64, 128, 256, 784]
    assert [l.activation for l in net.layers] == [
        "relu", "relu", "identity", "relu", "relu", "sigmoid"]
    assert net.components == {"encoder": (0, 3), "decoder": (3, 6)}


# -- datasets through the config --------------------------------------------------


def test_load_dataset_identity_width_mismatch():
    cfg = toy_config(dataset=DatasetConfig(kind="synthetic", target="identity"))
    net = build_model(cfg.model, seed=0)  # 16 in, 2 out
    with pytest.raises(ConfigurationError, match="identity"):
        load_dataset(cfg, net)


def test_load_dataset_mnist_round_trip(tmp_path):
    import struct as _struct
    from prunescope.harness.data import IDX_IMAGE_MAGIC
    path = tmp_path / "train.idx"
    payload = bytes(range(6 * 4))
    path.write_bytes(_struct.pack(">IIII", IDX_IMAGE_MAGIC, 6, 2, 2) + payload)
    cfg = toy_config(
        model=ModelConfig(preset="custom", widths=(4, 3, 4),
                          activations=("relu", "sigmoid"),
                          components={"all": (0, 2)}),
        dataset=DatasetConfig(kind="mnist", train_images=str(path),
                              n_train=4, n_test=2))
    net = build_model(cfg.model, seed=0)
    xtr, ytr, xte, yte = load_dataset(cfg, net)
    assert xtr.shape == (4, 4) and xte.shape == (2, 4)
    assert ytr is xtr and yte is xte  # reconstruction targets are the inputs
    with pytest.raises(ConfigurationError, match="cannot cover"):
        load_dataset(toy_config(
            model=cfg.model,
            dataset=DatasetConfig(kind="mnist", train_images=str(path),
                                  n_train=6, n_test=2)), net)

    # A test file: its first n_test rows, and the same count and width checks.
    test_path = tmp_path / "test.idx"
    test_path.write_bytes(_struct.pack(">IIII", IDX_IMAGE_MAGIC, 3, 2, 2)
                          + bytes(range(100, 112)))

    def with_test_file(n_train, n_test, images=test_path):
        return toy_config(model=cfg.model, dataset=DatasetConfig(
            kind="mnist", train_images=str(path), test_images=str(images),
            n_train=n_train, n_test=n_test))

    xtr, _, xte, yte = load_dataset(with_test_file(6, 2), net)
    assert xtr.shape == (6, 4)
    np.testing.assert_array_equal(xte, np.arange(100, 108).reshape(2, 4) / 255.0)
    np.testing.assert_array_equal(xte, yte)
    for n_train, n_test in ((7, 2), (6, 4)):  # one image short in each file
        with pytest.raises(ConfigurationError,
                           match="6 training and 3 test images cannot cover"):
            load_dataset(with_test_file(n_train, n_test), net)
    wide = tmp_path / "wide.idx"  # 3x3 test images against 2x2 training images
    wide.write_bytes(_struct.pack(">IIII", IDX_IMAGE_MAGIC, 3, 3, 3) + bytes(27))
    with pytest.raises(ConfigurationError, match="wide.idx are 9-wide .* expects 4"):
        load_dataset(with_test_file(6, 2, wide), net)


def test_identity_targets_share_the_inputs_and_training_leaves_them_unchanged():
    """Identity targets are the input arrays themselves, not copies; nothing
    the training loop or the evaluation does writes into them."""
    cfg = toy_config(
        model=ModelConfig(preset="custom", widths=(6, 4, 6),
                          activations=("relu", "sigmoid"), components={"all": (0, 2)}),
        dataset=DatasetConfig(kind="synthetic", n_train=40, n_test=9, rank=3,
                              target="identity"))
    net = build_model(cfg.model, seed=0)
    data = load_dataset(cfg, net)
    x_train, y_train, x_test, y_test = data
    # Row slices of one array: each target views the rows of its inputs.
    for x, y in ((x_train, y_train), (x_test, y_test)):
        assert y.base is x.base and y.shape == x.shape
        assert y.__array_interface__["data"] == x.__array_interface__["data"]
    before = [a.copy() for a in data]
    result = run_training(cfg, net=net, data=data)
    assert math.isfinite(result.test_mse)
    for got, want in zip(data, before):
        assert got.tobytes() == want.tobytes()


# -- the training loop --------------------------------------------------------------


def test_training_is_bitwise_deterministic():
    a = run_training(toy_config())
    b = run_training(toy_config())
    assert a.records == b.records
    for (_, _, ta), (_, _, tb) in zip(a.net.param_tensors(),
                                      b.net.param_tensors()):
        np.testing.assert_array_equal(ta.values, tb.values)
    assert struct.pack("d", a.test_mse) == struct.pack("d", b.test_mse)


def test_every_epochs_penalty_shares_the_graphs_one_table(monkeypatch):
    """Each epoch of a run binds its own coefficients to the block table the
    graph compiled once: no penalty builds a table of its own."""
    penalties = []
    original = ComponentGraph.penalty

    def recording(self, coeffs):
        penalties.append(original(self, coeffs))
        return penalties[-1]

    monkeypatch.setattr(ComponentGraph, "penalty", recording)
    result = run_training(toy_config())
    assert len(penalties) == result.config.epochs == 3
    assert len({p.coeffs for p in penalties}) == 3
    assert all(p.blocks is result.graph.blocks for p in penalties)


def test_toy_training_never_starts_the_second_lane(force_lane):
    """1,130 parameters span less than one ADAM_BLOCK, so no stage hands
    work to the lane even where BLAS leaves a core idle, and no pool is made."""
    force_lane(True)
    run_training(toy_config())
    assert "pool" not in netcore._LANE


def test_toy_training_never_imports_the_thread_pool():
    """A toy_multihead run in a fresh interpreter, with the lane rule of the
    machine it runs on, never makes the pool or imports
    ``concurrent.futures``: the import waits for the first stage that
    queues a call."""
    code = ("import sys; from prunescope import netcore; "
            "from prunescope.harness.config import DatasetConfig, ExperimentConfig, "
            "ModelConfig; from prunescope.harness.train import run_training; "
            "run_training(ExperimentConfig(model=ModelConfig(preset='toy_multihead'), "
            "dataset=DatasetConfig(n_train=128, n_test=32, rank=6, target='affine'), "
            "epochs=2, batch_size=32)); "
            "print(netcore._LANE, 'concurrent.futures' in sys.modules)")
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                          text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["{}", "False"]


def test_no_function_the_bench_times_runs_on_the_lane(force_lane, monkeypatch):
    """With the lane forced on, one latent-8 epoch makes every call of the
    step functions the benchmark times on the calling thread: the lane runs
    only whole untimed calls (parameter gradients, importance, optimizer
    blocks), so a tracer's one span stack never sees two threads."""
    timed = ("forward", "apply_activation", "activation_grad", "mse_loss", "backward")
    threads = {name: set() for name in timed}
    modules = [m for name, m in list(sys.modules.items()) if name.startswith("prunescope")]
    for name in timed:
        original = getattr(netcore, name)

        def recording(*args, _name=name, _original=original, **kwargs):
            threads[_name].add(threading.get_ident())
            return _original(*args, **kwargs)

        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, recording)
    force_lane(True)
    run_training(ExperimentConfig(
        model=ModelConfig(preset="autoencoder", latent_dim=8),
        dataset=DatasetConfig(kind="synthetic", n_train=256, n_test=64, rank=8),
        epochs=1, batch_size=128, seed=0))
    assert "pool" in netcore._LANE
    assert threads == {name: {threading.get_ident()} for name in timed}


def latent8_config(n_train=1024) -> ExperimentConfig:
    return ExperimentConfig(
        model=ModelConfig(preset="autoencoder", latent_dim=8),
        dataset=DatasetConfig(kind="synthetic", n_train=n_train, n_test=64, rank=8),
        epochs=1, batch_size=128, seed=0)


def test_a_steps_gradients_are_read_on_the_lane(force_lane, monkeypatch):
    """With the lane forced on, a latent-8 epoch's eight steps are read by
    one call each, seven in stages beside the next forward and the last
    after the run, and at least one of them runs on the lane thread."""
    threads = []
    original = importance_module.Reader.read

    def recording(self):
        threads.append(threading.get_ident())
        original(self)

    monkeypatch.setattr(importance_module.Reader, "read", recording)
    force_lane(True)
    run_training(latent8_config())
    assert len(threads) == 8
    assert "pool" in netcore._LANE and set(threads) - {threading.get_ident()}


def poisoned_run(force_lane, monkeypatch, on: bool, step: int) -> list:
    """A 2-epoch latent-8 run whose Bayes scores are not finite from step
    ``step``'s read on, which must raise the first group's NumericsError;
    returns one entry per ``backward`` that ran."""
    groups = build_groups(build_model(latent8_config().model, 0)).groups
    scores, backwards = [], []
    original = importance_module.bayes_importance

    def poisoned(mu, fisher):
        scores.append(None)
        return math.nan if len(scores) > (step - 1) * len(groups) else original(mu, fisher)

    monkeypatch.setattr(importance_module, "bayes_importance", poisoned)
    monkeypatch.setattr(train_module, "backward",
                        lambda *args: (backwards.append(None), netcore.backward(*args)))
    force_lane(on)
    with pytest.raises(NumericsError, match=rf"group {groups[0].id!r}: importance is not "
                                            r"finite, grad \S+, fisher \S+, bayes nan"):
        run_training(replace(latent8_config(), epochs=2))
    return backwards


@pytest.mark.parametrize("on", [True, False], ids=["lane", "inline"])
def test_a_non_finite_importance_ends_training_with_the_groups_error(
        force_lane, monkeypatch, on):
    """A Bayes score that is not finite from the second step's read on
    raises the first group's NumericsError when the third step's read stage
    closes, before its backward, with the lane and without it."""
    assert len(poisoned_run(force_lane, monkeypatch, on, step=2)) == 2


@pytest.mark.parametrize("on", [True, False], ids=["lane", "inline"])
def test_a_non_finite_importance_at_an_epoch_end_stops_before_the_next_backward(
        force_lane, monkeypatch, on):
    """Not finite from the read of the first epoch's last step, the eighth,
    the error is raised when the next epoch's first read stage closes,
    before its backward, with the lane and without it."""
    assert len(poisoned_run(force_lane, monkeypatch, on, step=8)) == 8


def test_a_training_run_allocates_one_read_arena(monkeypatch):
    """A 2-epoch latent-8 run (16 steps, 16 reads) allocates one array of
    one or two arenas in ``importance``, the reader's ``(2, n)`` scratch,
    and not one per read."""
    cfg = replace(latent8_config(), epochs=2)
    size = build_model(cfg.model, 0).param_count()
    arenas = []

    class CountingNumpy:  # numpy, whose functions report new arena-sized arrays
        def __getattr__(self, name):
            attr = getattr(np, name)
            if not callable(attr) or isinstance(attr, (np.ufunc, type)):
                return attr

            def counted(*args, **kwargs):
                out = attr(*args, **kwargs)
                if (isinstance(out, np.ndarray) and out.base is None
                        and out.size in (size, 2 * size)):
                    arenas.append((name, out.shape))
                return out
            return counted

    monkeypatch.setattr(importance_module, "np", CountingNumpy())
    reads = []
    original = importance_module.Reader.read
    monkeypatch.setattr(importance_module.Reader, "read",
                        lambda self: (reads.append(None), original(self)))
    run_training(cfg)
    assert len(reads) == 16
    assert arenas == [("empty", (2, size))]


def test_training_through_an_sgd_config(tmp_path):
    """An ``optimizer.kind: "sgd"`` config read from a file trains with plain
    gradient descent: the loss falls, and the run differs from Adam's. The
    file holds only the settings SGD uses, and one that also gives Adam's
    defaults loads as the same config."""
    path = tmp_path / "cfg.json"
    toy_config(epochs=6, optimizer=OptimizerConfig(kind="sgd", lr=0.05)).save(path)
    doc = json.loads(path.read_text())
    assert doc["optimizer"] == {"kind": "sgd", "lr": 0.05}
    cfg = ExperimentConfig.from_file(path)
    doc["optimizer"].update(beta1=0.9, beta2=0.999, eps=1e-8)
    assert ExperimentConfig.from_dict(doc) == cfg
    assert cfg.optimizer.kind == "sgd"
    sgd = run_training(cfg)
    losses = [r.task_loss for r in sgd.records]
    assert losses[-1] < losses[0]
    adam = run_training(replace(cfg, optimizer=OptimizerConfig(lr=0.05)))
    assert not np.array_equal(sgd.net.flat_values, adam.net.flat_values)


def test_training_seed_changes_the_run(monkeypatch):
    base = run_training(toy_config())
    other = run_training(toy_config(seed=1))
    assert base.records != other.records
    monkeypatch.setenv(SEED_ENV_VAR, "1")
    via_env = run_training(toy_config())
    assert via_env.config.seed == 1
    assert via_env.records == other.records


def test_trace_has_one_row_per_epoch_and_group_in_graph_order():
    result = run_training(toy_config(epochs=4))
    records = result.records
    check_trace(records)
    gids = [g.id for g in result.graph.groups]
    assert len(records) == 4 * len(gids)
    for epoch in range(1, 5):
        chunk = [r for r in records if r.epoch == epoch]
        assert [r.group_id for r in chunk] == gids
        assert [r.kind for r in chunk] == [g.kind for g in result.graph.groups]


def test_trace_lambda_column_follows_the_schedule():
    result = run_training(toy_config(epochs=3))
    counts = [g.param_count for g in result.graph.groups]
    for epoch in range(1, 4):
        expected = schedule_row(epoch - 1, counts, result.config.schedule)
        chunk = [r.lambda_ for r in result.records if r.epoch == epoch]
        assert chunk == expected


def test_importance_sees_task_gradients_only():
    """With one iteration per epoch, the first epoch's raw metrics must be
    identical whether or not the sparsity term is active, because the
    importance update runs before the subgradient is mixed in."""
    heavy = toy_config(batch_size=128, epochs=1,
                       schedule=ScheduleConfig(lambda_base=10.0))
    light = toy_config(batch_size=128, epochs=1,
                       schedule=ScheduleConfig(lambda_weight=0.0))
    a = run_training(heavy)
    b = run_training(light)
    for ra, rb in zip(a.records, b.records):
        assert ra.raw_grad == rb.raw_grad
        assert ra.raw_fisher == rb.raw_fisher
        assert ra.raw_bayes == rb.raw_bayes


def test_total_loss_adds_the_scheduled_term():
    result = run_training(toy_config(epochs=2))
    for epoch in (1, 2):
        chunk = [r for r in result.records if r.epoch == epoch]
        assert len({r.task_loss for r in chunk}) == 1
        assert len({r.total_loss for r in chunk}) == 1
        assert chunk[0].total_loss >= chunk[0].task_loss
    # With one step per epoch the sparsity term is taken on the initial
    # parameters, so it can be recomputed exactly from a fresh model.
    cfg = toy_config(epochs=1, batch_size=128)
    net = build_model(cfg.model, seed=0)
    groups = build_groups(net, 1).groups
    lambdas = schedule_row(0, [g.param_count for g in groups], cfg.schedule)
    record = run_training(cfg).records[0]
    l1 = sum(lam * group_l1_norm(net, g) for g, lam in zip(groups, lambdas))
    assert record.total_loss == total_loss(record.task_loss, l1, 1.0)


def test_non_finite_loss_raises_with_context():
    cfg = toy_config(epochs=1)
    net = build_model(cfg.model, seed=0)
    for _, _, tensor in net.param_tensors():
        tensor.values[...] = tensor.values * 1e200
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericsError, match="epoch 1"):
            run_training(cfg, net=net)


@pytest.fixture
def two_blas_threads():
    """The caller's OpenBLAS thread count set to 2 through the handle that
    ``netcore.one_blas_thread`` uses, and set back afterwards."""
    lib = netcore._openblas()
    if lib is None:
        pytest.skip("numpy's scipy-openblas cannot be opened")
    before = netcore.blas_runtime().threads
    netcore._ask(lib, "set_num_threads", None, 2)
    yield
    netcore._ask(lib, "set_num_threads", None, before)


def test_training_and_evaluation_run_at_one_blas_thread_and_give_the_count_back(
        two_blas_threads, monkeypatch):
    """Inside ``run_training`` and ``evaluate_mse`` BLAS runs one thread;
    after each, also after a run that raises, the caller's count is back."""
    seen = []

    def recording(net, batch):
        seen.append(netcore.blas_runtime().threads)
        return forward(net, batch)

    monkeypatch.setattr(train_module, "forward", recording)
    result = run_training(toy_config(epochs=1))
    assert netcore.blas_runtime().threads == 2
    x, y, xte, yte = load_dataset(result.config, result.net)
    with np.errstate(invalid="ignore"), pytest.raises(NumericsError, match="epoch 1"):
        run_training(toy_config(epochs=1), data=(np.full_like(x, np.nan), y, xte, yte))
    assert netcore.blas_runtime().threads == 2
    evaluate_mse(result.net, xte, yte)
    assert netcore.blas_runtime().threads == 2
    assert seen and set(seen) == {1}


def test_evaluate_mse_matches_unbatched_loss():
    cfg = toy_config()
    result = run_training(cfg)
    _, _, xte, yte = load_dataset(result.config, result.net)
    whole, _ = mse_loss(forward(result.net, xte)[-1], yte)
    np.testing.assert_allclose(evaluate_mse(result.net, xte, yte, batch_size=7),
                               whole, rtol=1e-12)


# -- artifacts -----------------------------------------------------------------------


def test_save_outputs_writes_the_full_artifact_set(tmp_path):
    result = run_training(toy_config())
    paths = save_outputs(result, tmp_path / "run")
    for name in ("config", "checkpoint", "params", "trace_csv", "states", "manifest",
                 "summary"):
        assert paths[name].exists(), name
    assert sorted(p.name for p in (tmp_path / "run").iterdir()) == sorted(
        p.name for p in paths.values())
    net, meta = load_checkpoint(paths["checkpoint"])
    assert set(meta) == {"layers_per_group", "seed", "epochs"}
    assert meta["layers_per_group"] == 1
    assert meta["seed"] == result.config.seed
    assert read_trace(paths["trace_csv"]) == result.records
    states = states_from_doc(json.loads(paths["states"].read_text()))
    assert set(states) == set(result.states)
    summary = json.loads(paths["summary"].read_text())
    assert summary["format"] == "prunescope.summary"
    assert set(summary["rankings"]) == {"grad", "fisher", "bayes", "combined"}
    assert summary["param_count"] == result.net.param_count()
    assert "mu decreases" in summary["bayes_note"]
    for row in summary["groups"]:
        np.testing.assert_allclose(row["inv_mu"], 1.0 / row["mu"], rtol=1e-15)


def test_summary_without_a_test_set_is_strict_json(tmp_path):
    cfg = toy_config(epochs=2, dataset=DatasetConfig(
        kind="synthetic", n_train=128, n_test=0, rank=6, target="affine"))
    paths = save_outputs(run_training(cfg), tmp_path / "run")

    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    summary = json.loads(paths["summary"].read_text(), parse_constant=refuse)
    assert summary["test_mse"] is None


def test_finetune_uses_checkpoint_grouping_and_fresh_states(tmp_path):
    cfg = toy_config(layers_per_group=2)
    result = run_training(cfg)
    paths = save_outputs(result, tmp_path / "run")
    ft_cfg = toy_config(epochs=2)  # configured with layers_per_group = 1
    ft = finetune(paths["checkpoint"], ft_cfg, epochs=2)
    assert ft.graph.layers_per_group == 2
    iters_per_epoch = -(-128 // 32)
    for st in ft.states.values():
        assert st.iteration == 2 * iters_per_epoch
    assert max(r.epoch for r in ft.records) == 2


def test_a_checkpoint_that_records_no_grouping_groups_by_one_everywhere(tmp_path, capsys,
                                                                         monkeypatch):
    """A bare checkpoint groups by 1, ``build_groups``' default, in ``prune``
    and in ``finetune`` alike, though the config asks for 2."""
    model = ModelConfig(preset="custom", widths=(4,) * 7,
                        activations=("relu",) * 5 + ("identity",),
                        components={"front": (0, 3), "back": (3, 6)})
    cfg = toy_config(model=model, layers_per_group=2, epochs=1, dataset=DatasetConfig(
        kind="synthetic", n_train=64, n_test=0, rank=None, target="affine"))
    cfg.save(tmp_path / "cfg.json")
    result = run_training(replace(cfg, layers_per_group=1))
    checkpoint = save_outputs(result, tmp_path / "run")["checkpoint"]
    save_checkpoint(result.net, checkpoint)
    assert build_groups(result.net, 2).group_ids() != result.graph.group_ids()
    built = []

    def recording(net, layers_per_group=1):
        graph = build_groups(net, layers_per_group)
        built.append(graph.group_ids())
        return graph

    monkeypatch.setattr(train_module, "build_groups", recording)
    assert main(["prune", "--checkpoint", str(checkpoint), "--sparsity", "0.3",
                 "--plan", str(tmp_path / "plan.json")]) == 0
    assert main(["finetune", "--checkpoint", str(checkpoint), "--config",
                 str(tmp_path / "cfg.json"), "--epochs", "1",
                 "--out", str(tmp_path / "ft")]) == 0
    assert built == [result.graph.group_ids()] * 2
    capsys.readouterr()


def test_finetune_continues_from_saved_parameters(tmp_path):
    cfg = toy_config()
    result = run_training(cfg)
    paths = save_outputs(result, tmp_path / "run")
    ft = finetune(paths["checkpoint"], cfg, epochs=1)
    # loss should carry on from the trained level, not restart from scratch
    fresh = run_training(toy_config(epochs=1))
    assert ft.final_task_loss < fresh.final_task_loss


# -- hypotheses ------------------------------------------------------------------------


def constant_records(epochs=60, scores=(3.0, 2.0, 1.0)):
    gids = ["coupling_x_y", "x_1", "y_1"]
    kinds = ["coupling", "component_specific", "component_specific"]
    records = []
    for epoch in range(1, epochs + 1):
        for gid, kind, s in zip(gids, kinds, scores):
            records.append(TraceRecord(
                epoch=epoch, group_id=gid, kind=kind, lambda_=1e-5,
                raw_grad=s, ema_grad=s, raw_fisher=s, ema_fisher=s,
                raw_bayes=s, ema_bayes=s, l1_norm=1.0, task_loss=0.1,
                total_loss=0.1))
    return records


def test_constant_rankings_have_zero_crossovers():
    report = evaluate_hypotheses(constant_records(), window=20)
    assert report.crossover_epochs == {"grad": [], "fisher": [], "bayes": []}
    assert report.coupling_on_top == {"grad": True, "fisher": True,
                                      "bayes": True}
    assert report.earliest_specific == "x_1"
    assert report.earliest_specific_rank["grad"] == 2
    assert report.earliest_specific_bottom["grad"] is False


def test_single_swap_yields_exactly_one_crossover():
    records = constant_records(epochs=100)
    flipped = []
    for r in records:
        if r.epoch >= 50 and r.group_id in ("x_1", "y_1"):
            s = 1.0 if r.group_id == "x_1" else 2.0
            r = TraceRecord(r.epoch, r.group_id, r.kind, r.lambda_,
                            s, s, s, s, s, s, r.l1_norm, r.task_loss,
                            r.total_loss)
        flipped.append(r)
    report = evaluate_hypotheses(flipped, window=20)
    assert report.crossover_epochs["grad"] == [50]
    assert report.earliest_specific_bottom["grad"] is True


def test_hypotheses_window_shrinks_with_a_note():
    report = evaluate_hypotheses(constant_records(epochs=5), window=20)
    assert report.window == 5
    assert any("shrunk" in n for n in report.notes)
    text = render_report(report)
    assert "H1" in text and "H2" in text and "H3" in text


def test_hypotheses_without_component_specific_groups():
    records = [r for r in constant_records(epochs=4) if r.kind == "coupling"]
    report = evaluate_hypotheses(records, window=2)
    assert report.earliest_specific is None and report.earliest_specific_rank == {}
    assert "no component-specific groups in this trace" in report.notes
    assert "    (no component-specific groups)" in render_report(report).splitlines()


def test_hypotheses_report_lists_twelve_crossovers_then_elides():
    """Two groups trade places every epoch from epoch 2 on: 19 crossovers
    over 20 epochs, of which the report shows the first 12."""
    records = []
    for r in constant_records(epochs=20):
        if r.group_id != "coupling_x_y":
            s = 1.0 + (r.epoch % 2 == (r.group_id == "x_1"))
            r = TraceRecord(r.epoch, r.group_id, r.kind, r.lambda_,
                            s, s, s, s, s, s, r.l1_norm, r.task_loss, r.total_loss)
        records.append(r)
    report = evaluate_hypotheses(records, window=5)
    assert report.crossover_epochs["grad"] == list(range(2, 21))
    line = next(x for x in render_report(report).splitlines() if x.startswith("    grad ")
                and "crossover" in x)
    assert line == ("    grad    19 crossover epoch(s): "
                    + ", ".join(map(str, range(2, 14))) + ", ...")


def test_hypotheses_reject_malformed_traces():
    records = constant_records(epochs=3)
    with pytest.raises(Exception):
        evaluate_hypotheses(records[1:], window=5)  # missing one row


# -- CLI ---------------------------------------------------------------------------------


@pytest.fixture
def cli_workspace(tmp_path):
    cfg = toy_config(epochs=2)
    cfg_path = tmp_path / "cfg.json"
    cfg.save(cfg_path)
    return tmp_path, cfg_path


def test_cli_exit_codes_for_usage(capsys):
    assert main([]) == 1
    assert main(["--"]) == 1  # no command after the options
    assert "required: command" in capsys.readouterr().err
    assert main(["--help"]) == 0
    assert main(["no-such-command"]) == 1
    assert main(["train"]) == 1  # missing required arguments


def test_cli_train_prune_finetune_verify_report(cli_workspace, capsys):
    tmp_path, cfg_path = cli_workspace
    run_dir = tmp_path / "run"
    assert main(["train", "--config", str(cfg_path),
                 "--out", str(run_dir)]) == 0
    ckpt = run_dir / "checkpoint.json"

    plan_path = tmp_path / "plan.json"
    assert main(["prune", "--checkpoint", str(ckpt), "--sparsity", "0.4",
                 "--metric", "grad", "--plan", str(plan_path)]) == 0
    assert plan_path.exists()

    pruned_dir = tmp_path / "pruned"
    assert main(["prune", "--checkpoint", str(ckpt), "--sparsity", "0.4",
                 "--metric", "combined", "--out", str(pruned_dir)]) == 0
    assert (pruned_dir / "checkpoint.json").exists()
    assert (pruned_dir / "plan.json").exists()

    applied_dir = tmp_path / "applied"
    assert main(["prune", "--checkpoint", str(ckpt), "--apply", str(plan_path),
                 "--out", str(applied_dir)]) == 0

    ft_dir = tmp_path / "ft"
    assert main(["finetune", "--checkpoint",
                 str(pruned_dir / "checkpoint.json"), "--config",
                 str(cfg_path), "--epochs", "1", "--out", str(ft_dir)]) == 0

    assert main(["verify", "--checkpoint",
                 str(ft_dir / "checkpoint.json")]) == 0
    capsys.readouterr()
    assert main(["report", "--trace", str(run_dir / "trace.csv"),
                 "--hypotheses"]) == 0
    out = capsys.readouterr().out
    assert "H1" in out and "crossover" in out


def test_cli_failures_exit_two(cli_workspace, capsys):
    tmp_path, cfg_path = cli_workspace
    assert main(["train", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "x")]) == 2
    assert main(["report", "--trace", str(tmp_path / "nope.csv")]) == 2
    assert main(["verify", "--checkpoint", str(cfg_path)]) == 2  # not a checkpoint
    run_dir = tmp_path / "run"
    assert main(["train", "--config", str(cfg_path), "--out", str(run_dir)]) == 0
    ckpt = str(run_dir / "checkpoint.json")
    assert main(["prune", "--checkpoint", ckpt, "--sparsity", "2.0",
                 "--out", str(tmp_path / "p")]) == 2
    err = capsys.readouterr().err
    assert "error:" in err

    # Malformed documents fail typed, each with its own error line.
    def fails_typed(argv):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error:")

    bad_cfg = tmp_path / "bad_cfg.json"
    bad_cfg.write_text(json.dumps({"epochs": "abc"}))
    fails_typed(["train", "--config", str(bad_cfg), "--out", str(tmp_path / "x")])
    plan_path = tmp_path / "plan.json"
    assert main(["prune", "--checkpoint", ckpt, "--sparsity", "0.4",
                 "--plan", str(plan_path)]) == 0
    plan = json.loads(plan_path.read_text())
    del plan["target_sparsity"]
    plan_path.write_text(json.dumps(plan))
    fails_typed(["prune", "--checkpoint", ckpt, "--apply", str(plan_path),
                 "--out", str(tmp_path / "p")])
    states = json.loads((run_dir / "states.json").read_text())
    states_path = tmp_path / "states.json"
    no_alpha = json.loads(json.dumps(states))
    del no_alpha["groups"][0]["alpha"]
    states_path.write_text(json.dumps(no_alpha))
    prune_with_states = ["prune", "--checkpoint", ckpt, "--sparsity", "0.4",
                         "--states", str(states_path), "--out", str(tmp_path / "p")]
    fails_typed(prune_with_states)
    states["groups"] = [g for g in states["groups"] if g["id"] != "encoder_1"]
    states_path.write_text(json.dumps(states))
    fails_typed(prune_with_states)
    states_path.write_text("{broken")
    fails_typed(prune_with_states)

    # States whose values would turn the plan into garbage are refused too.
    def first_vector(group):
        return next(iter(group["unit_ema"]))

    for damage in (lambda g: g.update(ema_grad=math.nan),
                   lambda g: g.update(beta=0.0),
                   lambda g: g["unit_ema"].update({first_vector(g): [[0.5, 0.25]]}),
                   lambda g: g["unit_ema"].update({first_vector(g): [0.5, math.inf]})):
        bad = json.loads((run_dir / "states.json").read_text())
        damage(bad["groups"][0])
        states_path.write_text(json.dumps(bad))
        fails_typed(prune_with_states + ["--metric", "grad"])


def test_cli_refuses_mistyped_and_foreign_artifacts(toy_run, tmp_path, capsys):
    cfg_path, run_dir, plan_path = toy_run
    ckpt, states = run_dir / "checkpoint.json", run_dir / "states.json"
    capsys.readouterr()

    def fails_typed(argv):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error:")

    out = str(tmp_path / "out")
    for change in ({"optimizer": {"lr": "abc"}}, {"epochs": 1.9}, {"batch_size": True},
                   {"seed": -1}):
        bad_cfg = damaged(cfg_path, tmp_path / "cfg.json", lambda doc: doc.update(change))
        fails_typed(["train", "--config", bad_cfg, "--out", out])
    not_utf8 = tmp_path / "latin1.json"
    not_utf8.write_bytes(b'{"epochs": "\xe9"}')
    fails_typed(["train", "--config", str(not_utf8), "--out", out])
    fails_typed(["verify", "--checkpoint", str(not_utf8)])
    trace = tmp_path / "trace.csv"
    trace.write_text("[1]")
    fails_typed(["report", "--trace", str(trace)])
    fails_typed(["report", "--trace", str(tmp_path / "trace.json")])

    def shift_first_unit(doc):
        group = next(iter(doc["groups"].values()))
        group["units"][0][0] += 0.9

    bad_plan = damaged(plan_path, tmp_path / "plan.json", shift_first_unit)
    fails_typed(["prune", "--checkpoint", str(ckpt), "--apply", bad_plan, "--out", out])

    def version_99(doc):
        doc["version"] = 99

    fails_typed(["verify", "--checkpoint",
                 copied_checkpoint(ckpt, tmp_path / "ckpt.json", version_99)])
    fails_typed(["prune", "--checkpoint", str(ckpt), "--out", out, "--apply",
                 damaged(plan_path, tmp_path / "plan.json", version_99)])
    fails_typed(["prune", "--checkpoint", str(ckpt), "--sparsity", "0.4", "--out", out,
                 "--states", damaged(states, tmp_path / "states.json", version_99)])


def test_cli_refuses_a_mistyped_layers_per_group(toy_run, tmp_path, capsys):
    cfg_path, run_dir, _ = toy_run
    bad = copied_checkpoint(run_dir / "checkpoint.json", tmp_path / "checkpoint.json",
                            lambda doc: doc["meta"].update(layers_per_group="x"))
    capsys.readouterr()
    for argv in (["prune", "--checkpoint", bad, "--sparsity", "0.4",
                  "--out", str(tmp_path / "p")],
                 ["finetune", "--checkpoint", bad, "--config", str(cfg_path),
                  "--epochs", "1", "--out", str(tmp_path / "f")]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "layers_per_group" in err


@pytest.mark.parametrize("target", [7.5, 0.0])
def test_cli_refuses_a_plan_whose_target_lies_outside_zero_one(toy_run, tmp_path, capsys,
                                                               target):
    _, run_dir, plan_path = toy_run
    bad = damaged(plan_path, tmp_path / "plan.json",
                  lambda doc: doc.update(target_sparsity=target))
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["prune", "--checkpoint", str(run_dir / "checkpoint.json"),
                 "--apply", bad, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "target_sparsity" in err
    assert not (out / "checkpoint.json").exists()


def test_cli_refuses_nan_weights_and_foreign_unit_scores(toy_run, tmp_path, capsys):
    _, run_dir, _ = toy_run
    ckpt, states = str(run_dir / "checkpoint.json"), run_dir / "states.json"
    with pytest.raises(ConfigurationError):
        toy_config(metric_weights=(math.nan, 0.5, 0.5))

    def extend_unit_scores(doc):
        for entry in doc["groups"]:
            for scores in entry["unit_ema"].values():
                scores.extend([0.0] * 50)

    long_states = damaged(states, tmp_path / "states.json", extend_unit_scores)
    capsys.readouterr()
    for extra in (["--weights", "nan", "0.5", "0.5"], ["--states", long_states]):
        out = tmp_path / "out"
        assert main(["prune", "--checkpoint", ckpt, "--sparsity", "0.4",
                     "--out", str(out), *extra]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not (out / "checkpoint.json").exists()


def test_cli_refuses_version_1_states(toy_run, tmp_path, capsys):
    """Version 1 states scored the sink layers' units and not the consumed
    layers'; such a file is refused by its version, and nothing is written."""
    _, run_dir, _ = toy_run

    def version_1(doc):
        doc["version"] = 1
        for entry, sink in zip(doc["groups"][2:], ("3", "5")):
            assert entry["id"] in ("head_a_1", "head_b_1")
            entry["unit_ema"] = {sink: [0.5]}

    old = damaged(run_dir / "states.json", tmp_path / "states.json", version_1)
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["prune", "--checkpoint", str(run_dir / "checkpoint.json"), "--sparsity",
                 "0.4", "--states", old, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'version' must be 2, got 1" in err
    assert not out.exists()


def test_cli_prunes_units_of_a_consumed_head_layer(toy_run, tmp_path):
    """The toy plan takes units of head layers 2 or 4, whose biases alone
    their head groups hold; the plan applies and the pruned network verifies."""
    _, run_dir, plan_path = toy_run
    plan = json.loads(plan_path.read_text())
    head = [layer for entry in plan["groups"].values() for layer, _ in entry["units"]
            if layer in (2, 4)]
    assert head
    out = tmp_path / "pruned"
    assert main(["prune", "--checkpoint", str(run_dir / "checkpoint.json"),
                 "--apply", str(plan_path), "--out", str(out)]) == 0
    assert main(["verify", "--checkpoint", str(out / "checkpoint.json")]) == 0
    pruned, _ = load_checkpoint(out / "checkpoint.json")
    for layer in (2, 4):
        assert pruned.layers[layer].out_dim == 16 - head.count(layer)


def test_cli_report_validates_the_trace_once(toy_run, tmp_path, monkeypatch, capsys):
    calls = []

    def counted(records):
        calls.append(len(records))
        check_trace(records)

    for module in (cli_module, hypotheses_module):
        monkeypatch.setattr(module, "check_trace", counted)
    _, run_dir, _ = toy_run
    trace = run_dir / "trace.csv"
    assert main(["report", "--trace", str(trace), "--hypotheses"]) == 0
    assert len(calls) == 1
    lines = trace.read_text().splitlines(keepends=True)
    short = tmp_path / "trace.csv"
    short.write_text("".join(lines[:2] + lines[3:]))  # epoch 1 loses a group
    short = str(short)
    capsys.readouterr()
    for extra in ([], ["--hypotheses"]):
        calls.clear()
        assert main(["report", "--trace", short, *extra]) == 2
        assert calls == [len(lines) - 2]
        assert capsys.readouterr().err.startswith("error: trace is not well formed:")


def test_cli_report_takes_a_window_only_with_hypotheses(toy_run, monkeypatch, capsys):
    """Without ``--hypotheses`` no window is used, so ``--window`` is refused
    before the trace is read; with them the window defaults to 20."""
    _, run_dir, _ = toy_run
    trace = str(run_dir / "trace.csv")
    for path, window in ((trace, "5"), (trace, "-5"), ("/nonexistent/trace.csv", "20")):
        capsys.readouterr()
        assert main(["report", "--trace", path, "--window", window]) == 2
        printed = capsys.readouterr()
        assert printed.err == ("error: --window sets the hypotheses' window; "
                               "it needs --hypotheses\n")
        assert printed.out == ""
    windows = []

    def recording(records, window):
        windows.append(window)
        return evaluate_hypotheses(records, window)

    monkeypatch.setattr(cli_module, "evaluate_hypotheses", recording)
    for extra, window in (([], 20), (["--window", "2"], 2)):
        assert main(["report", "--trace", trace, "--hypotheses", *extra]) == 0
        assert windows.pop() == window


def test_cli_report_refuses_a_non_finite_trace_cell(toy_run, tmp_path, capsys):
    """Training never writes a non-finite trace value; a trace holding one
    would reorder the hypotheses' rankings, so it is refused."""
    _, run_dir, _ = toy_run
    rows = [line.split(",") for line in
            (run_dir / "trace.csv").read_text().splitlines()]
    col = rows[0].index("ema_grad")
    for row in rows[1:]:
        if row[1] == "head_b_1":
            row[col] = "nan"
    bad = tmp_path / "trace.csv"
    bad.write_text("".join(",".join(row) + "\n" for row in rows))
    capsys.readouterr()
    for extra in ([], ["--hypotheses"]):
        assert main(["report", "--trace", str(bad), *extra]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "ema_grad" in err and "finite" in err


BAD_WEIGHTS = {"nan": ["nan", "0.5", "0.5"], "negative": ["-0.5", "0.75", "0.75"],
               "too_short": ["0.5", "0.5"], "sum_not_one": ["0.5", "0.5", "0.5"]}


@pytest.mark.parametrize("case", sorted(BAD_WEIGHTS))
def test_bad_metric_weights_get_one_refusal_from_config_and_cli(toy_run, tmp_path,
                                                                capsys, case):
    cfg_path, run_dir, _ = toy_run
    weights = BAD_WEIGHTS[case]
    bad_cfg = damaged(cfg_path, tmp_path / "cfg.json",
                      lambda doc: doc.update(metric_weights=[float(w) for w in weights]))
    out = tmp_path / "out"
    capsys.readouterr()
    errors = []
    for argv in (["train", "--config", bad_cfg, "--out", str(out)],
                 ["prune", "--checkpoint", str(run_dir / "checkpoint.json"),
                  "--sparsity", "0.4", "--weights", *weights, "--out", str(out)]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "weights" in err
        errors.append(err.splitlines()[-1])
        assert not out.exists()
    if case in ("negative", "sum_not_one"):  # the config reader passes these on
        assert errors[0].endswith(errors[1].removeprefix("error: "))
    assert "metric weights must be three non-negative numbers that sum to 1" in errors[1]


def test_cli_finetune_records_the_checkpoint_it_started_from(toy_run, tmp_path):
    cfg_path, run_dir, plan_path = toy_run
    pruned, tuned = tmp_path / "pruned", tmp_path / "tuned"
    source = str(run_dir / "checkpoint.json")
    assert main(["prune", "--checkpoint", source, "--apply", str(plan_path),
                 "--out", str(pruned)]) == 0
    assert load_checkpoint(pruned / "checkpoint.json")[1]["pruned_from"] == source
    start = str(pruned / "checkpoint.json")
    assert main(["finetune", "--checkpoint", start, "--config", str(cfg_path),
                 "--epochs", "1", "--out", str(tuned)]) == 0
    _, meta = load_checkpoint(tuned / "checkpoint.json")
    assert meta["finetuned_from"] == start
    assert meta["epochs"] == 1 and meta["layers_per_group"] == 1


def test_star_imports_resolve_every_exported_name():
    for module in ("prunescope", "prunescope.harness"):
        namespace: dict = {}
        exec(f"from {module} import *", namespace)  # raises on a stale name
        assert set(importlib.import_module(module).__all__) <= set(namespace)


def test_cli_import_loads_no_thread_pool_or_logging():
    """``setup_s`` pays for every module the CLI imports; the second lane's
    pool, and with it ``concurrent.futures`` and ``logging``, is imported on
    the first stage that queues a call, and the only dependency outside the
    standard library is numpy. ``-S`` keeps site hooks from loading modules
    of their own first."""
    code = ("import sys; before = set(sys.modules); import prunescope.harness.cli; "
            "print(*[m for m in ('concurrent.futures', 'logging', 'queue') "
            "if m in sys.modules]); "
            "print(*sorted({m.partition('.')[0] for m in set(sys.modules) - before} "
            "- set(sys.stdlib_module_names) - {'numpy', 'prunescope'}))")
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                          text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["", ""]


def test_cli_verify_of_a_checkpoint_without_layers_exits_two(tmp_path, capsys):
    path = tmp_path / "bare.json"
    path.write_text('{"format": "prunescope.checkpoint", "version": 2}')
    assert main(["verify", "--checkpoint", str(path)]) == 2
    assert "layer" in capsys.readouterr().err


def test_cli_train_synthetic_flag_and_protect(tmp_path, capsys):
    cfg = toy_config(epochs=2)
    cfg_path = tmp_path / "cfg.json"
    doc = cfg.to_dict()
    doc["dataset"] = {"kind": "mnist", "train_images": "/nonexistent.idx",
                      "n_train": 128, "n_test": 32, "target": "affine"}
    cfg_path.write_text(json.dumps(doc))
    run_dir = tmp_path / "run"
    assert main(["train", "--config", str(cfg_path), "--out", str(run_dir),
                 "--synthetic"]) == 0
    assert main(["prune", "--checkpoint", str(run_dir / "checkpoint.json"),
                 "--sparsity", "0.3", "--metric", "grad",
                 "--protect", "encoder_1",
                 "--out", str(tmp_path / "pruned")]) == 0
    plan = json.loads((tmp_path / "pruned" / "plan.json").read_text())
    assert "encoder_1" not in plan["groups"]


def test_cli_prunes_a_two_layer_chain_of_two_components(tmp_path):
    """``enc`` is one producing layer and ``dec`` one consuming layer: the
    coupling group ranks the 8 interface units and ``dec_1`` holds only the
    output bias."""
    cfg_path, run_dir = tmp_path / "cfg.json", tmp_path / "run"
    toy_config(epochs=2, model=ModelConfig(
        preset="custom", widths=(16, 8, 16), activations=("relu", "identity"),
        components={"enc": (0, 1), "dec": (1, 2)}),
        dataset=DatasetConfig(n_train=64, n_test=16, rank=4)).save(cfg_path)
    assert main(["train", "--config", str(cfg_path), "--out", str(run_dir)]) == 0
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert [(g["id"], g["prunable_units"]) for g in manifest["groups"]] == [
        ("coupling_enc_dec", 8), ("dec_1", 0)]
    pruned = tmp_path / "pruned"
    assert main(["prune", "--checkpoint", str(run_dir / "checkpoint.json"),
                 "--sparsity", "0.3", "--out", str(pruned)]) == 0
    assert main(["verify", "--checkpoint", str(pruned / "checkpoint.json")]) == 0


def test_cli_verify_refuses_a_repeated_component_name(toy_run, tmp_path, capsys):
    _, run_dir, _ = toy_run
    repeated = copied_checkpoint(run_dir / "checkpoint.json", tmp_path / "checkpoint.json",
                                 lambda doc: doc["components"].append(["head_b", 4, 6]))
    capsys.readouterr()
    assert main(["verify", "--checkpoint", repeated]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "components[3]" in err and "head_b" in err


def test_cli_prune_apply_refuses_a_sparsity(toy_run, tmp_path, capsys):
    _, run_dir, plan_path = toy_run
    out = tmp_path / "out"
    assert main(["prune", "--checkpoint", str(run_dir / "checkpoint.json"),
                 "--apply", str(plan_path), "--sparsity", "0.9",
                 "--out", str(out)]) == 1
    assert "not allowed with argument" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags, missing", [
    (["--metric", "grad", "--out", "OUT"], "--sparsity --apply"),
    (["--sparsity", "0.3"], "--plan --out"),
], ids=["no_sparsity_or_apply", "no_plan_or_out"])
def test_cli_prune_without_a_required_flag_is_a_usage_error(tmp_path, capsys,
                                                            flags, missing):
    out = tmp_path / "out"
    flags = [str(out) if f == "OUT" else f for f in flags]
    # The checkpoint does not exist: argparse refuses before any file is read.
    assert main(["prune", "--checkpoint", str(tmp_path / "checkpoint.json"),
                 *flags]) == 1
    assert f"one of the arguments {missing} is required" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


IGNORED_FLAGS = {
    "weights_with_one_metric": (["--sparsity", "0.3", "--metric", "grad",
                                 "--weights", "5", "5", "5", "--out", "OUT"], 2, ["--weights"]),
    "plan_and_out": (["--sparsity", "0.3", "--plan", "PLAN", "--out", "OUT"], 1, ["--out"]),
    "apply_with_allocation_flags": (["--apply", "APPLY", "--weights", "9", "9", "9",
                                     "--protect", "encoder_1",
                                     "--states", "/nonexistent.json", "--out", "OUT"],
                                    2, ["--states", "--protect", "--weights"]),
    "apply_with_metric": (["--apply", "APPLY", "--metric", "grad", "--out", "OUT"],
                          2, ["--metric"]),
    "apply_with_plan": (["--apply", "APPLY", "--plan", "PLAN"], 2, ["--plan"]),
}


@pytest.mark.parametrize("case", sorted(IGNORED_FLAGS))
def test_cli_prune_refuses_flags_it_would_ignore(toy_run, tmp_path, capsys, case):
    _, run_dir, plan_path = toy_run
    flags, code, named = IGNORED_FLAGS[case]
    plan, out = tmp_path / "y.json", tmp_path / "q"
    flags = [{"PLAN": str(plan), "APPLY": str(plan_path), "OUT": str(out)}.get(f, f)
             for f in flags]
    capsys.readouterr()
    assert main(["prune", "--checkpoint", str(run_dir / "checkpoint.json"), *flags]) == code
    err = capsys.readouterr().err
    assert all(flag in err for flag in named)
    assert not out.exists() and not plan.exists()


def test_cli_prune_writes_nothing_that_fails_its_check(toy_run, tmp_path, capsys):
    _, run_dir, _ = toy_run
    net, meta = load_checkpoint(run_dir / "checkpoint.json")
    net.layers[1].weight.values[0, 0] = math.nan
    ckpt = tmp_path / "checkpoint.json"
    save_checkpoint(net, ckpt, meta)
    out = tmp_path / "p"
    capsys.readouterr()
    assert main(["prune", "--checkpoint", str(ckpt), "--states",
                 str(run_dir / "states.json"), "--sparsity", "0.3",
                 "--out", str(out)]) == 2
    printed = capsys.readouterr().out
    assert "consistency: FAIL" in printed and "layer 1" in printed
    assert "wrote" not in printed and not out.exists()


RUN_FILES = ("checkpoint.json", "checkpoint.f64", "trace.csv", "states.json", "summary.json",
             "config.json")


def test_recorded_config_reproduces_the_run(tmp_path, monkeypatch):
    cfg_path = tmp_path / "cfg.json"
    toy_config(epochs=50).save(cfg_path)
    monkeypatch.setenv(SEED_ENV_VAR, "9")
    first = tmp_path / "first"
    assert main(["train", "--config", str(cfg_path), "--epochs", "2", "--seed", "5",
                 "--out", str(first)]) == 0
    recorded = json.loads((first / "config.json").read_text())
    assert (recorded["epochs"], recorded["seed"]) == (2, 5)

    monkeypatch.delenv(SEED_ENV_VAR)
    again = tmp_path / "again"
    assert main(["train", "--config", str(first / "config.json"),
                 "--out", str(again)]) == 0
    for name in RUN_FILES:
        assert (again / name).read_bytes() == (first / name).read_bytes(), name

    monkeypatch.setenv(SEED_ENV_VAR, "9")
    env_only = tmp_path / "env_only"
    assert main(["train", "--config", str(cfg_path), "--epochs", "2",
                 "--out", str(env_only)]) == 0
    assert json.loads((env_only / "config.json").read_text())["seed"] == 9
