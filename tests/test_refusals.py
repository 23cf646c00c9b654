"""Malformed input that no other test feeds in: each refusal ends as a typed
PrunescopeError, and where a file carries the input through the CLI, as exit
2 with an ``error:`` line and nothing written."""

import base64
import gzip
import shutil
import struct

import numpy as np
import pytest

from prunescope.errors import ConfigurationError
from prunescope.harness import data as data_module, train as train_module
from prunescope.harness.cli import main
from prunescope.harness.data import IDX_IMAGE_MAGIC, synthetic_dataset
from prunescope.harness.train import evaluate_mse, run_training
from prunescope.importance import BayesConfig, Reader, metric_scores
from prunescope.modelgraph import build_groups
from prunescope.netcore import (Network, activation_grad, build_sequential,
                                load_checkpoint, seeded_layer)

from conftest import copied_checkpoint, damaged, toy_config


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


def mnist_counts(**counts):
    """An mnist dataset section with image counts and a missing image file:
    the counts are refused before the file is read, since a negative count
    would slice rows off the end."""
    return {"dataset": {"kind": "mnist", "train_images": "missing.idx", **counts}}


def custom_widths(hidden):
    """A custom model section whose one hidden layer is ``hidden`` wide."""
    return {"model": {"preset": "custom", "widths": [16, hidden, 2],
                      "activations": ["relu", "identity"],
                      "components": {"encoder": [0, 1], "decoder": [1, 2]}}}


CONFIG_CASES = {
    "optimizer_kind": ({"optimizer": {"kind": "rmsprop"}}, "unknown optimizer 'rmsprop'"),
    "adam_lr": ({"optimizer": {"lr": 0.0}}, "learning rate must be positive"),
    "sgd_lr": ({"optimizer": {"kind": "sgd", "lr": -0.1}}, "learning rate must be positive"),
    # Adam's defaults stand in the file; SGD refuses only a changed one.
    "sgd_eps": ({"optimizer": {"kind": "sgd", "eps": 0.0}}, "sgd takes lr only, got eps=0.0"),
    "sgd_beta1": ({"optimizer": {"kind": "sgd", "beta1": 5.0}},
                  "sgd takes lr only, got beta1=5.0"),
    "beta1": ({"optimizer": {"beta1": 1.0}}, "betas must lie in [0, 1)"),
    "beta2": ({"optimizer": {"beta2": -0.5}}, "betas must lie in [0, 1)"),
    "eps": ({"optimizer": {"eps": 0.0}}, "eps must be positive"),
    # The optimizer is built before the dataset is loaded, so the learning
    # rate is named, not the missing image file.
    "lr_before_mnist_file": ({"optimizer": {"lr": -1}, **mnist_counts(n_train=2, n_test=1)},
                             "learning rate must be positive"),
    "batch_size": ({"batch_size": 0}, "batch_size must be at least 1"),
    "layers_per_group": ({"layers_per_group": 0}, "layers_per_group must be at least 1"),
    # An int past the float range: the phase offsets (i / n) * T would overflow.
    "cycle_T_past_float": ({"schedule": {"cycle_T": 10**400}},
                           "cycle_T must be at least 1 and within the float range"),
    # Positive and finite, but kappa * E / eta overflows: the first read's
    # posterior beta is infinite, so the run stops there and writes nothing.
    "bayes_eta_subnormal": ({"bayes": {"eta": 5e-324}},
                            "group 'encoder_1': importance is not finite"),
    "mnist_n_train_zero": (mnist_counts(n_train=0), "need n_train >= 1 and n_test >= 0"),
    "mnist_n_train_negative": (mnist_counts(n_train=-5), "need n_train >= 1 and n_test >= 0"),
    "mnist_n_test_negative": (mnist_counts(n_train=10, n_test=-2),
                              "need n_train >= 1 and n_test >= 0"),
    # Past any address space: refused before numpy is asked for the array.
    "width_2_55": (custom_widths(2**55), "layer 0: 36028797018963968x16 weights exceed"),
    "width_2_62": (custom_widths(2**62), "layer 0: 4611686018427387904x16 weights exceed"),
    "n_train_2_55": ({"dataset": {"n_train": 2**55}},
                     f"{2**55 + 32} dataset rows exceed any address space"),
    # 64 PiB: under that bound but past what a process can map, so numpy
    # fails at once and nothing is allocated.
    "width_2_49": (custom_widths(2**49), "layer 0: 562949953421312x16 weights exceed memory"),
    "n_train_2_49": ({"dataset": {"n_train": 2**49}},
                     f"{2**49 + 32} dataset rows exceed memory"),
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


def test_cli_finetune_refuses_bad_optimizer_settings_before_reading_the_checkpoint(
        toy_run, tmp_path, capsys, monkeypatch):
    """A fine-tune config with a negative learning rate is refused by name,
    though the checkpoint is missing too: it is never loaded."""
    cfg_path, _, _ = toy_run
    loads = []
    monkeypatch.setattr(train_module, "load_checkpoint",
                        lambda *args: loads.append(args) or load_checkpoint(*args))
    bad = damaged(cfg_path, tmp_path / "cfg.json",
                  lambda doc: doc["optimizer"].update(lr=-1))
    out = tmp_path / "out"
    refused(capsys, ["finetune", "--checkpoint", str(tmp_path / "missing.json"),
                     "--config", bad, "--epochs", "1", "--out", str(out)],
            "learning rate must be positive", out)
    assert loads == []


def test_cli_train_refuses_mnist_files_that_cannot_serve_the_network(toy_run, tmp_path,
                                                                     capsys):
    """toy_multihead reads 16 inputs and writes 2 outputs: 3x3 images are too
    narrow, 4x4 ones fit its input but not a reconstruction target, and a
    file whose header's dimensions pass 2**40 elements is read whole, then
    refused by its header before its payload's length is checked or any
    array is built."""
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


def test_cli_train_refuses_images_that_exceed_memory_as_float64(toy_run, tmp_path, capsys,
                                                                monkeypatch):
    """A valid (65536, 65536, 8192) uint8 image set needs 256 TiB as float64,
    more than a 48-bit address space holds, so the conversion fails at once
    whatever the kernel's overcommit rule, and exits 2 naming the file. The
    images are a broadcast view of one byte, so the test allocates none of
    them."""
    cfg_path, _, _ = toy_run
    images, out = idx_images(tmp_path / "huge.idx", 1, 4, 4), tmp_path / "out"
    shape = (1 << 16, 1 << 16, 1 << 13)
    monkeypatch.setattr(data_module, "load_idx", lambda path: np.broadcast_to(np.uint8(0), shape))

    def to_mnist(doc):
        doc["dataset"].update(kind="mnist", train_images=images, n_train=2, n_test=1)

    refused(capsys, ["train", "--config", damaged(cfg_path, tmp_path / "cfg.json", to_mnist),
                     "--out", str(out)], f"{images}: {shape} images exceed memory", out)


def test_cli_train_refuses_a_corrupt_gzip_image_file(toy_run, tmp_path, capsys):
    """A truncated stream (EOFError), a bad deflate block (zlib.error) and an
    unknown compression method (BadGzipFile) each end as one error line
    naming the file."""
    cfg_path, _, _ = toy_run
    packed = gzip.compress(struct.pack(">IIII", IDX_IMAGE_MAGIC, 3, 4, 4) + bytes(48))
    out = tmp_path / "out"
    for name, data in [("truncated", packed[:len(packed) // 2]),
                       ("deflate", packed[:10] + b"\xff" + packed[11:]),
                       ("method", packed[:2] + b"\x07" + packed[3:])]:
        images = tmp_path / f"{name}.idx.gz"
        images.write_bytes(data)

        def to_mnist(doc):
            doc["dataset"].update(kind="mnist", train_images=str(images), n_train=2, n_test=1)

        refused(capsys, ["train", "--config", damaged(cfg_path, tmp_path / "cfg.json", to_mnist),
                         "--out", str(out)], f"{images}: corrupt gzip stream", out)


def test_cli_prune_refuses_a_unit_score_key_that_is_no_layer(toy_run, tmp_path, capsys):
    """A key beside a group's first one is refused unless it is a layer index
    in canonical ASCII digits: a leading zero or Arabic-Indic digits would
    alias the first key's layer, and one vector would silently win. A key
    past int()'s digit limit is refused the same way."""
    _, run_dir, _ = toy_run
    arabic_indic = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")
    out = tmp_path / "out"
    for alias in (lambda key: "first", lambda key: "0" + key,
                  lambda key: key.translate(arabic_indic), lambda key: "9" * 5000):
        def add_a_key(doc):
            unit_ema = doc["groups"][0]["unit_ema"]
            key = next(iter(unit_ema))
            unit_ema[alias(key)] = unit_ema[key]

        states = damaged(run_dir / "states.json", tmp_path / "states.json", add_a_key)
        refused(capsys, ["prune", "--checkpoint", str(run_dir / "checkpoint.json"),
                         "--sparsity", "0.4", "--states", states, "--out", str(out)],
                "is not a layer index", out)


STATES_CONSTANT_CASES = {
    "gamma_text": ("gamma", "x", "'gamma' must be a number, got 'x'"),
    "gamma_one": ("gamma", 1.0, "'gamma' must lie in [0, 1), got 1.0"),
    "gamma_negative": ("gamma", -0.1, "'gamma' must lie in [0, 1), got -0.1"),
    "kappa_negative": ("kappa", -1, "'bayes.kappa' must be positive, got -1"),
    "eta_zero": ("eta", 0, "'bayes.eta' must be positive, got 0"),
    "alpha0_bool": ("alpha0", True, "'bayes.alpha0' must be a number, got True"),
    # Past the float range: read as infinite, so refused as not finite.
    "beta0_huge": ("beta0", 10**400, "'bayes.beta0' must be finite"),
}


@pytest.mark.parametrize("case", sorted(STATES_CONSTANT_CASES))
def test_cli_prune_refuses_states_whose_gamma_or_bayes_constant_is_out_of_range(
        toy_run, tmp_path, capsys, case):
    """The states' ``gamma`` must lie in [0, 1) and each Bayes constant be
    positive and finite, the ranges the config enforces."""
    _, run_dir, _ = toy_run
    name, value, fragment = STATES_CONSTANT_CASES[case]

    def set_constant(doc):
        (doc if name == "gamma" else doc["bayes"])[name] = value

    states = damaged(run_dir / "states.json", tmp_path / "states.json", set_constant)
    out = tmp_path / "out"
    refused(capsys, ["prune", "--checkpoint", str(run_dir / "checkpoint.json"),
                     "--sparsity", "0.4", "--states", states, "--out", str(out)],
            fragment, out)


def test_cli_verify_refuses_a_sidecar_of_the_right_size_from_another_run(
        toy_run, tmp_path, capsys):
    cfg_path, run_dir, _ = toy_run
    other = tmp_path / "other"
    assert main(["train", "--config", str(cfg_path), "--seed", "1", "--out", str(other)]) == 0
    header = copied_checkpoint(run_dir / "checkpoint.json", tmp_path / "checkpoint.json")
    shutil.copyfile(other / "checkpoint.f64", tmp_path / "checkpoint.f64")
    refused(capsys, ["verify", "--checkpoint", header],
            "checkpoint.f64 does not hold the parameters of")


def test_cli_verify_refuses_a_sidecar_of_the_wrong_size(toy_run, tmp_path, capsys):
    _, run_dir, _ = toy_run
    header = copied_checkpoint(run_dir / "checkpoint.json", tmp_path / "checkpoint.json")
    sidecar = tmp_path / "checkpoint.f64"
    sidecar.write_bytes(sidecar.read_bytes() + bytes(8))  # one parameter too many
    refused(capsys, ["verify", "--checkpoint", header],
            "checkpoint.f64 holds 9048 bytes; the layer shapes of")


def test_cli_verify_refuses_a_version_1_checkpoint(toy_run, tmp_path, capsys):
    """A version-1 checkpoint held each layer's parameters as base64 in the
    JSON document; it is refused by its version, before any payload is read."""
    _, run_dir, _ = toy_run
    net, _ = load_checkpoint(run_dir / "checkpoint.json")

    def to_version_1(doc):
        doc["version"] = 1
        del doc["params_sha256"]
        for entry, layer in zip(doc["layers"], net.layers):
            for role in ("weight", "bias"):
                raw = getattr(layer, role).values.astype("<f8").tobytes()
                entry[role] = base64.b64encode(raw).decode("ascii")

    old = damaged(run_dir / "checkpoint.json", tmp_path / "checkpoint.json", to_version_1)
    refused(capsys, ["verify", "--checkpoint", old], "'version' must be 2, got 1")


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
            Reader(net, graph, BayesConfig(), gamma)
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


@pytest.mark.parametrize("batch_size, rows, width, message", [
    (-1, 5, 2, "batch_size must be at least 1, got -1"),
    (0, 5, 2, "batch_size must be at least 1, got 0"),
    (256, 4, 2, r"targets of shape \(4, 2\) do not match 5 rows"),
    (256, 5, 3, r"targets of shape \(5, 3\) do not match 5 rows of network output width 2"),
])
def test_evaluate_mse_refuses_a_bad_batch_size_or_target_shape(monkeypatch, batch_size,
                                                               rows, width, message):
    """Refused before any forward pass. Unchecked, a negative batch size
    returned 0.0 and the others raised bare ValueErrors."""
    def no_forward(*args):
        raise AssertionError("forward ran")

    monkeypatch.setattr(train_module, "forward", no_forward)
    net = build_sequential([4, 3, 2], ["relu", "identity"], {"body": (0, 2)}, 0)
    with pytest.raises(ConfigurationError, match=message):
        evaluate_mse(net, np.ones((5, 4)), np.zeros((rows, width)), batch_size)


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
