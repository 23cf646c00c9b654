"""The artifact codec: typed fields, atomic writes, and unchanged bytes."""

import hashlib
import math
import os

import pytest

from prunescope.artifacts import Fields, write_atomic, write_json
from prunescope.errors import DataFormatError, NumericsError
from prunescope.harness.cli import main
from prunescope.harness.config import DatasetConfig, ExperimentConfig, ModelConfig
from prunescope.harness.train import run_training, save_outputs
from prunescope.netcore import save_checkpoint

from conftest import make_toy_multihead

# SHA-256 of each file a seeded toy train + prune writes, recorded with the
# encoders as they were before every write went through write_atomic;
# run/config.json re-recorded when the schedule lost its n_groups key,
# run/trace.json dropped when the trace became CSV only, and the states,
# manifests and pruned files re-recorded when a group's units became those
# of the non-output layers whose bias it owns, and the checkpoints when they
# became a JSON header and a raw float64 sidecar (version 2). Each sidecar's
# digest is that of the version-1 base64 payloads it replaced, decoded and
# concatenated in layer order (weight, then bias). The trained and pruned
# files' digests were re-recorded when Adam came to keep its moments divided
# by 1 - beta: the same update in another rounding.
ARTIFACT_DIGESTS = {
    "pruned/checkpoint.f64": "843dc2c1b1dfdfccf21bab4e0cb455112c09707a63b4afaaef68a7087f34b3b4",
    "pruned/checkpoint.json": "4030b97069fa8ee51e7b0e76d09cbb5f8e0b3e3ee99bd07f7e53d86a887ff0e1",
    "pruned/manifest.json": "8e5d1cbee6717001e7ceecd7dc5fe24f13bdaec28b8c4414abfc48740fdd97ef",
    "pruned/plan.json": "025e3930c8ce15489e8daabef8b69e6e55c8fa7fac88eba699bf06b437c95c0a",
    "run/checkpoint.f64": "449c20db8f51b0406df4e6dcd1ff3d3c39aa75ffb82b93fb03b17734d4d464e0",
    "run/checkpoint.json": "8c431dce731d76bff6448bd32a4969f89a225c5438b2cc66085bef55b79476bf",
    "run/config.json": "4e98f0495e271faeef05728b88fba0144349635bbc7acc1d26672a668d9a8a45",
    "run/manifest.json": "11ee9c871c41f5bab3139b8c848cae85035509da61faa5f794b9435f5c54b585",
    "run/states.json": "fa568c4075537a0ad95ee354415d00d0aae39f0dbcc9af5ed4c0f101f4497d2c",
    "run/summary.json": "d56ff1800153125dd9ddb0d37b039ecf6fb8e52e4e528110a6d91d736013d3d5",
    "run/trace.csv": "fe3d6b0f6b594be7d218d8e0ac68fbc788b4bf8f0fb6fad01f122bbc0433076b",
}


def test_train_and_prune_write_the_recorded_bytes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the pruned meta records the relative input path
    cfg = ExperimentConfig(
        model=ModelConfig(preset="toy_multihead"),
        dataset=DatasetConfig(kind="synthetic", n_train=128, n_test=32, rank=6,
                              target="affine"),
        epochs=3, batch_size=32, seed=0)
    save_outputs(run_training(cfg), "run")
    assert main(["prune", "--checkpoint", "run/checkpoint.json", "--sparsity", "0.4",
                 "--out", "pruned"]) == 0
    written = {str(p.relative_to(tmp_path)): hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(tmp_path.rglob("*")) if p.is_file()}
    assert written == ARTIFACT_DIGESTS


@pytest.mark.parametrize("fault", ["replace", "unserializable", "non_finite"])
def test_a_failed_write_keeps_the_old_file_and_leaves_no_temp(tmp_path, monkeypatch, fault):
    path = tmp_path / "plan.json"
    path.write_bytes(b'{"old": true}')
    if fault == "replace":
        def refuse(src, dst):
            raise OSError("replace refused")
        monkeypatch.setattr(os, "replace", refuse)
        for data in ("new text", b"new\x00bytes"):
            with pytest.raises(OSError, match="replace refused"):
                write_atomic(path, data)
    elif fault == "unserializable":
        with pytest.raises(TypeError):
            write_json(path, {"value": object()})
    else:  # strict JSON (RFC 8259) has no NaN or infinity
        for value in (math.nan, -math.inf):
            with pytest.raises(NumericsError, match="cannot write .*plan.json"):
                write_json(path, {"value": [1.0, value]})
    assert path.read_bytes() == b'{"old": true}'
    assert os.listdir(tmp_path) == ["plan.json"]


def test_write_atomic_replaces_without_newline_translation(tmp_path):
    path = tmp_path / "a.csv"
    write_atomic(path, "x\r\ny\n")
    write_atomic(path, "é,\r\n")
    assert path.read_bytes() == "é,\r\n".encode()
    write_atomic(path, memoryview(b"\r\n\x00\xff"))
    assert path.read_bytes() == b"\r\n\x00\xff"
    assert os.listdir(tmp_path) == ["a.csv"]


def test_a_crash_between_the_sidecar_and_the_header_leaves_a_pair_verify_refuses(
        tmp_path, monkeypatch, capsys):
    path = tmp_path / "checkpoint.json"
    net = make_toy_multihead(seed=0)
    save_checkpoint(net, path)
    net.flat_values[0] += 1.0
    replace = os.replace

    def die_at_the_header(src, dst):
        if str(dst).endswith(".json"):
            raise KeyboardInterrupt  # the process is killed after the sidecar's rename
        replace(src, dst)

    monkeypatch.setattr(os, "replace", die_at_the_header)
    with pytest.raises(KeyboardInterrupt):
        save_checkpoint(net, path)
    monkeypatch.undo()
    assert sorted(os.listdir(tmp_path)) == ["checkpoint.f64", "checkpoint.json"]
    capsys.readouterr()
    assert main(["verify", "--checkpoint", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "checkpoint.f64 does not hold the parameters" in err


@pytest.mark.parametrize("read, value, message", [
    (lambda f: f.int("k"), 1.0, "must be an integer"),
    (lambda f: f.int("k"), True, "must be an integer"),
    (lambda f: f.int("k", low=1), 0, "must be an integer >= 1"),
    (lambda f: f.float("k"), "1.5", "must be a number"),
    (lambda f: f.float("k"), False, "must be a number"),
    (lambda f: f.float("k", finite=True), math.nan, "must be finite"),
    (lambda f: f.float("k", positive=True), 0.0, "must be positive"),
    (lambda f: f.str("k"), 3, "must be a string"),
    (lambda f: f.obj("k"), [], "must be an object"),
    (lambda f: f.arr("k", length=2), [1], "must hold 2 entries"),
])
def test_fields_refuse_the_wrong_type_and_name_the_field(read, value, message):
    with pytest.raises(DataFormatError, match=f"malformed doc: 'k' {message}"):
        read(Fields({"k": value}, "doc"))


def test_fields_read_defaults_nested_paths_and_text_cells():
    doc = Fields({"a": [{"b": 2}], "n": 3, "x": 2.5}, "doc")
    assert doc.int("n") == 3 and doc.float("n") == 3.0 and doc.float("x") == 2.5
    assert doc.int("absent", 7) == 7 and doc.obj("absent", {}).value == {}
    inner = doc.arr("a").obj(0)
    assert inner.int("b") == 2
    with pytest.raises(DataFormatError, match=r"'a\[0\]\.c' is missing"):
        inner.int("c")
    with pytest.raises(DataFormatError, match="the document must be an object"):
        Fields([], "doc")
    row = Fields({"epoch": "3", "loss": "0.25", "bad": "1.5"}, "row", text=True)
    assert row.int("epoch") == 3 and row.float("loss") == 0.25
    with pytest.raises(DataFormatError, match="'bad' must be an integer"):
        row.int("bad")
    assert Fields({"huge": 10 ** 400}, "doc").float("huge") == math.inf


def test_document_checks_format_and_version():
    ok = {"format": "prunescope.plan", "version": 1}
    assert Fields.document(ok, "plan", "prunescope.plan", 1).value is ok
    with pytest.raises(DataFormatError, match="not a 'prunescope.plan' document"):
        Fields.document({"format": "other"}, "plan", "prunescope.plan", 1)
    with pytest.raises(DataFormatError, match="'version' must be 1, got 99"):
        Fields.document({**ok, "version": 99}, "plan", "prunescope.plan", 1)
    with pytest.raises(DataFormatError, match="'version' is missing"):
        Fields.document({"format": "prunescope.plan"}, "plan", "prunescope.plan", 1)
