"""Malformed input that no other test feeds in: each refusal ends as a typed
PrunescopeError, and where a file carries the input through the CLI, as exit
2 with an ``error:`` line and nothing written."""

import struct

import numpy as np
import pytest

from prunescope.errors import ConfigurationError
from prunescope.harness.cli import main
from prunescope.harness.data import IDX_IMAGE_MAGIC, synthetic_dataset
from prunescope.harness.train import evaluate_mse, run_training
from prunescope.importance import BayesConfig, init_states, metric_scores, update_all
from prunescope.modelgraph import build_groups
from prunescope.netcore import (Network, activation_grad, build_sequential,
                                seeded_layer)

from conftest import damaged, toy_config


def refused(capsys, argv, fragment, out=None):
    """``main(argv)`` exits 2 with one error line naming the problem, and
    writes nothing to ``out``."""
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and fragment in err, err
    assert out is None or not out.exists()


def idx_images(path, count, rows, cols, payload=None):
    header = struct.pack(">IIII", IDX_IMAGE_MAGIC, count, rows, cols)
    path.write_bytes(header + (bytes(count * rows * cols) if payload is None else payload))
    return str(path)


CONFIG_CASES = {
    "optimizer_kind": ({"optimizer": {"kind": "rmsprop"}}, "unknown optimizer 'rmsprop'"),
    "adam_lr": ({"optimizer": {"lr": 0.0}}, "learning rate must be positive"),
    "sgd_lr": ({"optimizer": {"kind": "sgd", "lr": -0.1}}, "learning rate must be positive"),
    "beta1": ({"optimizer": {"beta1": 1.0}}, "betas must lie in [0, 1)"),
    "beta2": ({"optimizer": {"beta2": -0.5}}, "betas must lie in [0, 1)"),
    "eps": ({"optimizer": {"eps": 0.0}}, "eps must be positive"),
    "batch_size": ({"batch_size": 0}, "batch_size must be at least 1"),
    "layers_per_group": ({"layers_per_group": 0}, "layers_per_group must be at least 1"),
}


@pytest.mark.parametrize("case", sorted(CONFIG_CASES))
def test_cli_train_refuses_a_malformed_config(toy_run, tmp_path, capsys, case):
    cfg_path, _, _ = toy_run
    change, fragment = CONFIG_CASES[case]

    def apply(doc):
        for key, value in change.items():
            if isinstance(value, dict):
                doc[key].update(value)
            else:
                doc[key] = value

    out = tmp_path / "out"
    refused(capsys, ["train", "--config", damaged(cfg_path, tmp_path / "cfg.json", apply),
                     "--out", str(out)], fragment, out)


def test_cli_train_refuses_mnist_files_that_cannot_serve_the_network(toy_run, tmp_path,
                                                                     capsys):
    """toy_multihead reads 16 inputs and writes 2 outputs: 3x3 images are too
    narrow, 4x4 ones fit its input but not a reconstruction target, and a
    header whose dimensions pass 2**40 elements is refused before any read
    of its payload."""
    cfg_path, _, _ = toy_run
    out = tmp_path / "out"
    cases = [
        (idx_images(tmp_path / "narrow.idx", 4, 3, 3),
         "are 9-wide but the network expects 16 inputs"),
        (idx_images(tmp_path / "square.idx", 4, 4, 4),
         "image reconstruction needs output width equal to input width"),
        (idx_images(tmp_path / "huge.idx", 1 << 16, 1 << 16, 1 << 16, payload=b""),
         "overflow a sane payload"),
    ]
    for images, fragment in cases:
        def to_mnist(doc):
            doc["dataset"].update(kind="mnist", train_images=images, n_train=2, n_test=1)

        refused(capsys, ["train", "--config", damaged(cfg_path, tmp_path / "cfg.json", to_mnist),
                         "--out", str(out)], fragment, out)


def test_cli_prune_refuses_a_unit_score_key_that_is_no_layer(toy_run, tmp_path, capsys):
    _, run_dir, _ = toy_run

    def rename_a_key(doc):
        unit_ema = doc["groups"][0]["unit_ema"]
        unit_ema["first"] = unit_ema.pop(next(iter(unit_ema)))

    states = damaged(run_dir / "states.json", tmp_path / "states.json", rename_a_key)
    out = tmp_path / "out"
    refused(capsys, ["prune", "--checkpoint", str(run_dir / "checkpoint.json"),
                     "--sparsity", "0.4", "--states", states, "--out", str(out)],
            "is not a layer index", out)


def test_cli_verify_refuses_a_payload_of_the_right_length_that_is_not_base64(
        toy_run, tmp_path, capsys):
    _, run_dir, _ = toy_run

    for char in ("!", "é"):  # outside the alphabet, ASCII and not
        def not_base64(doc):
            layer = doc["layers"][0]
            layer["bias"] = char * len(layer["bias"])

        bad = damaged(run_dir / "checkpoint.json", tmp_path / "checkpoint.json", not_base64)
        refused(capsys, ["verify", "--checkpoint", bad], "payload is not base64")


def test_cli_verify_refuses_a_base64_payload_of_the_wrong_length(toy_run, tmp_path, capsys):
    _, run_dir, _ = toy_run

    def unpadded(doc):  # 344 characters: 256 bytes and two of padding, or 258 bytes
        layer = doc["layers"][0]
        layer["bias"] = "A" * len(layer["bias"])

    bad = damaged(run_dir / "checkpoint.json", tmp_path / "checkpoint.json", unpadded)
    refused(capsys, ["verify", "--checkpoint", bad], "payload has 258 bytes, expected 256")


def test_cli_report_refuses_a_zero_window_and_an_oversized_csv_field(toy_run, tmp_path,
                                                                     capsys):
    _, run_dir, _ = toy_run
    trace = run_dir / "trace.csv"
    refused(capsys, ["report", "--trace", str(trace), "--hypotheses", "--window", "0"],
            "window must be at least 1")
    header, row = trace.read_text().splitlines()[:2]
    cells = row.split(",")
    cells[1] = "g" * 200_000  # past the csv module's 131,072-character field limit
    huge = tmp_path / "trace.csv"
    huge.write_text(f"{header}\n{','.join(cells)}\n")
    refused(capsys, ["report", "--trace", str(huge)], "is not valid CSV")


def test_library_calls_refuse_malformed_arguments():
    net = build_sequential([4, 3, 2], ["relu", "identity"], {"body": (0, 2)}, 0)
    graph = build_groups(net)
    for k in (-1, 2):
        with pytest.raises(ConfigurationError, match=f"layer {k} belongs to no component"):
            net.component_of(k)
    with pytest.raises(ConfigurationError, match="layers_per_group"):
        build_groups(net, 0)
    for gamma in (1.0, -0.1):
        with pytest.raises(ConfigurationError, match="gamma"):
            update_all(init_states(graph, BayesConfig()), net, graph, BayesConfig(), gamma)
    with pytest.raises(ConfigurationError, match="at least one group"):
        metric_scores({}, [], "grad")
    with pytest.raises(ConfigurationError, match="unknown activation 'tanh'"):
        activation_grad("tanh", np.zeros(3))
    with pytest.raises(ConfigurationError, match="layer 4: widths must be positive"):
        seeded_layer(4, 3, 0, "relu", np.random.default_rng(0))
    with pytest.raises(ConfigurationError, match="two widths"):
        build_sequential([4], [], {"body": (0, 1)})
    with pytest.raises(ConfigurationError, match="widths must be positive"):
        synthetic_dataset(0, 8, 2, 0, 5, target="affine")
    with pytest.raises(ConfigurationError, match="empty dataset"):
        evaluate_mse(net, np.empty((0, 4)), np.empty((0, 2)))
    empty = (np.empty((0, 4)), np.empty((0, 2)), np.empty((0, 4)), np.empty((0, 2)))
    with pytest.raises(ConfigurationError, match="training set is empty"):
        run_training(toy_config(), net=net, data=empty)


def test_group_ids_that_collide_are_refused_by_name():
    """Component ``coupling_x``'s first group and the coupling group of
    components ``x`` and ``1`` would both be named ``coupling_x_1``."""
    rng = np.random.default_rng(0)
    net = Network([seeded_layer(0, 3, 4, "relu", rng), seeded_layer(1, 4, 4, "relu", rng),
                   seeded_layer(2, 4, 2, "relu", rng), seeded_layer(3, 2, 2, "identity", rng),
                   seeded_layer(4, 3, 2, "relu", rng), seeded_layer(5, 2, 2, "identity", rng)],
                  {"x": (0, 2), "1": (2, 4), "coupling_x": (4, 6)}, [-1, 0, 1, 2, -1, 4])
    with pytest.raises(ConfigurationError, match="duplicate group id 'coupling_x_1'"):
        build_groups(net)
