"""Property-based fuzzing of every artifact the CLI reads.

Valid artifacts of a tiny ``toy_multihead`` run (config, checkpoint,
importance states, prune plan, and the trace CSV) are
truncated, retyped and stripped of keys, then fed through ``main``. Whatever
the damage, ``main`` must return 0 or 2 and no exception may escape. A
document that no longer parses, or whose whole value was retyped, must exit 2
with an ``error:`` line, and so must a checkpoint whose parameter sidecar is
truncated, has one byte changed or is gone. Examples are derived
deterministically and no example database is written.
"""

import contextlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from prunescope.harness.cli import main
from prunescope.harness.config import DatasetConfig, ExperimentConfig, ModelConfig
from prunescope.harness.train import run_training, save_outputs
from prunescope.netcore import sidecar_path

# Even with no example database, Hypothesis caches the constants of local
# source files under its home directory (./.hypothesis by default), and its
# pytest plugin fills that cache during collection, after this import.
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "prunescope-hypothesis")

FUZZ = settings(max_examples=40, derandomize=True, database=None, deadline=None)

RETYPED = ["x", 0.5, True, None, [0], 7, -1]
RETYPED_CELLS = ["x", "0.5", "", "true", "nan", "7", "-1"]


def run_cli(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """Paths of the valid artifacts, the command that reads each, and a
    directory for damaged copies."""
    root = tmp_path_factory.mktemp("fuzz")
    cfg = ExperimentConfig(
        model=ModelConfig(preset="toy_multihead"),
        dataset=DatasetConfig(kind="synthetic", n_train=64, n_test=16, rank=4,
                              target="affine"),
        epochs=2, batch_size=32, seed=0)
    paths = save_outputs(run_training(cfg), root / "run")
    ckpt, states, plan = paths["checkpoint"], paths["states"], root / "plan.json"
    assert run_cli(["prune", "--checkpoint", str(ckpt), "--sparsity", "0.3",
                    "--plan", str(plan)])[0] == 0
    out = str(root / "out")
    commands = {
        "config": lambda f: ["train", "--config", f, "--epochs", "1", "--out", out],
        "checkpoint": lambda f: ["prune", "--checkpoint", f, "--sparsity", "0.3",
                                 "--states", str(states), "--out", out],
        "states": lambda f: ["prune", "--checkpoint", str(ckpt), "--sparsity", "0.3",
                             "--states", f, "--out", out],
        "plan": lambda f: ["prune", "--checkpoint", str(ckpt), "--apply", f,
                           "--out", out],
        "trace_csv": lambda f: ["report", "--trace", f, "--hypotheses"],
    }
    sources = {**paths, "plan": plan}
    for name, command in commands.items():  # each undamaged artifact passes
        assert run_cli(command(str(sources[name])))[0] == 0, name
    damaged = root / "damaged"
    damaged.mkdir()
    # A damaged checkpoint header pairs with the valid sidecar.
    shutil.copyfile(sidecar_path(ckpt), sidecar_path(damaged / ckpt.name))
    return {name: (sources[name], command) for name, command in commands.items()}, damaged


def feed(run, name: str, data: bytes) -> tuple[int, str]:
    artifacts, damaged = run
    source, command = artifacts[name]
    path = damaged / source.name
    path.write_bytes(data)
    code, err = run_cli(command(str(path)))
    assert code in (0, 2), err
    return code, err


def nodes(doc, path=()):
    """The path of every value in a JSON document, the root's included."""
    yield path
    if isinstance(doc, (dict, list)):
        for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield from nodes(value, path + (key,))


@pytest.mark.parametrize("name", ["config", "checkpoint", "states", "plan"])
@FUZZ
@given(data=st.data())
def test_damaged_json_artifacts_exit_zero_or_two(run, name, data):
    raw = run[0][name][0].read_bytes()
    damage = data.draw(st.sampled_from(["truncate", "retype", "drop"]))
    if damage == "truncate":
        code, err = feed(run, name, raw[:data.draw(st.integers(0, len(raw) - 1))])
        assert code == 2 and err.startswith("error:")
        return
    doc = json.loads(raw)
    paths = list(nodes(doc))
    path = data.draw(st.sampled_from(paths if damage == "retype" else paths[1:]))
    if not path:
        code, err = feed(run, name, json.dumps(data.draw(st.sampled_from(RETYPED))).encode())
        assert code == 2 and err.startswith("error:")
        return
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if damage == "retype":
        parent[path[-1]] = data.draw(st.sampled_from(RETYPED))
    else:
        del parent[path[-1]]
    feed(run, name, json.dumps(doc).encode())


@pytest.mark.parametrize("value", RETYPED, ids=repr)
@pytest.mark.parametrize("name", ["gamma", "kappa", "eta", "alpha0", "beta0"])
def test_states_with_a_retyped_gamma_or_bayes_constant_exit_two_unless_in_range(
        run, name, value):
    """Each retyped value of the states' ``gamma`` or of a Bayes constant is
    read: outside [0, 1) for ``gamma``, or not a positive finite number for
    a constant, it exits 2 with an ``error:`` line."""
    doc = json.loads(run[0]["states"][0].read_bytes())
    (doc if name == "gamma" else doc["bayes"])[name] = value
    code, err = feed(run, "states", json.dumps(doc).encode())
    number = type(value) in (int, float)
    valid = number and (0 <= value < 1 if name == "gamma" else value > 0)
    assert (code, err.startswith("error:")) == ((0, False) if valid else (2, True)), err


@FUZZ
@given(data=st.data())
def test_damaged_csv_traces_exit_zero_or_two(run, data):
    raw = run[0]["trace_csv"][0].read_bytes()
    damage = data.draw(st.sampled_from(["truncate", "retype", "drop"]))
    if damage == "truncate":
        feed(run, "trace_csv", raw[:data.draw(st.integers(0, len(raw) - 1))])
        return
    lines = [line.split(",") for line in raw.decode().split("\r\n")]
    row = data.draw(st.sampled_from(lines[:-1]))  # the last line is empty
    cell = data.draw(st.integers(0, len(row) - 1))
    if damage == "retype":
        row[cell] = data.draw(st.sampled_from(RETYPED_CELLS))
    else:
        del row[cell]
    feed(run, "trace_csv", "\r\n".join(",".join(r) for r in lines).encode())


@FUZZ
@given(data=st.data())
def test_damaged_checkpoint_sidecars_exit_two(run, data):
    artifacts, damaged = run
    header, command = artifacts["checkpoint"]
    pair = damaged / "pair"
    pair.mkdir(exist_ok=True)
    shutil.copyfile(header, pair / header.name)
    raw = sidecar_path(header).read_bytes()
    sidecar = sidecar_path(pair / header.name)
    damage = data.draw(st.sampled_from(["truncate", "flip", "delete"]))
    if damage == "truncate":
        sidecar.write_bytes(raw[:data.draw(st.integers(0, len(raw) - 1))])
    elif damage == "flip":
        flipped = bytearray(raw)
        flipped[data.draw(st.integers(0, len(raw) - 1))] ^= data.draw(st.integers(1, 255))
        sidecar.write_bytes(flipped)
    else:
        sidecar.unlink(missing_ok=True)
    code, err = run_cli(command(str(pair / header.name)))
    assert code == 2 and err.startswith("error:") and sidecar.name in err, err
