#!/usr/bin/env python3
"""Mutation checks: every listed mutant must make a test fail.

Each entry of ``MUTANTS`` names a file, a text that occurs in it exactly
once, the text that replaces it, what the change breaks and the tests
expected to kill it. The script copies the working tree (without ``.git``
and caches) into a fresh directory under ``--scratch`` and checks there,
in pytest child processes, that the expected tests pass on the unchanged
copy. It then applies one mutant at a time and runs its expected tests with
``-x``; if they pass, it runs the suite without criterion 8. A mutant that
passes both survives. One line is printed per mutant; the run exits 1 and
names every survivor if there is one, and exits 2 when the list itself is
broken (a text not found exactly once, a test that does not pass unchanged).
Standard library only.

    python3 scripts/mutants.py --scratch /tmp/m                 # every mutant
    python3 scripts/mutants.py --scratch /tmp/m digest_unchecked  # by name
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
# The suite without criterion 8, and without the check of this list, which
# fails on any tree a mutant has changed.
SUITE = ["--continue-on-collection-errors", "--ignore", "tests/test_mutants.py", "--deselect",
         "tests/test_acceptance.py::test_criterion_8_desk_scale_dynamics"]
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                 ".bench_work", ".benchmarks", "*.egg-info")


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    text: str  # occurs exactly once in ``file``
    replacement: str
    breaks: str  # what the change does that a test must see
    tests: tuple[str, ...]  # pytest node ids expected to kill it


NETCORE, CLI = "src/prunescope/netcore.py", "src/prunescope/harness/cli.py"
CONFIG, BENCH_PAIR = "src/prunescope/harness/config.py", "scripts/bench_pair.py"
IMPORTANCE = "src/prunescope/importance.py"
ORACLE = "tests/test_importance.py::test_a_read_has_the_bits_of_the_per_slot_oracle"

MUTANTS = [
    # The importance read, chunk by chunk.
    Mutant("other_parts_before_first_parts", IMPORTANCE,
           '''            for a, axis, out in first_parts:
                np.add.reduce(a, axis, out=out)
            for a, axis, out in other_parts:
                out += a if axis is None else np.add.reduce(a, axis)
''',
           '''            for a, axis, out in other_parts:
                out += a if axis is None else np.add.reduce(a, axis)
            for a, axis, out in first_parts:
                np.add.reduce(a, axis, out=out)
''',
           "a layer's first part overwrites the other parts added before it, so a "
           "unit score holds its rows or bias alone",
           (ORACLE,)),
    Mutant("chunks_in_reverse", IMPORTANCE,
           "in self._chunks:", "in self._chunks[::-1]:",
           "a unit layer whose parts span two chunks (latent 8's input rows and their "
           "bias) gets its bias added before its rows overwrite it",
           (f"{ORACLE}[chain]", f"{ORACLE}[autoencoder]")),
    Mutant("cap_below_the_largest_slot", IMPORTANCE,
           "cap = max(ADAM_BLOCK, *(hi - lo for lo, hi in slots))", "cap = ADAM_BLOCK",
           "slots beside a slot wider than ADAM_BLOCK pack under 32,768 elements, so "
           "latent 8 reads in more chunks than the rule gives (the bits hold)",
           ("tests/test_importance.py::"
            "test_a_read_packs_whole_slots_into_chunks_in_arena_order[autoencoder]",)),
    Mutant("slot_sums_added_in_reverse", IMPORTANCE,
           "sum(square_sums[slots])", "sum(square_sums[slots][::-1])",
           "a group of three or more slots adds its Fisher slot sums in another order, "
           "which rounds differently from the sum of per-tensor sums in slice order",
           (ORACLE,)),
    Mutant("read_gamma_stays_zero", IMPORTANCE,
           "        self._g = self._gamma\n", "",
           "every read after the first replaces the smoothed metrics and unit scores "
           "by the raw ones, as a first read does",
           ("tests/test_importance.py::test_a_second_read_smooths_with_gamma", ORACLE)),
    Mutant("first_read_at_gamma", IMPORTANCE,
           "self._g = 0.0  # the next read's gamma", "self._g = gamma",
           "a first read smooths its raw values against the zeros of fresh states",
           ("tests/test_importance.py::test_a_first_read_matches_per_group_brute_force",
            ORACLE)),
    # Refusals of an output over an input, and of an overflowed Adam moment.
    Mutant("plan_may_overwrite_an_input", CLI,
           'if getattr(args, "plan", None):', "if False:",
           "prune --plan replaces the input checkpoint or the states it reads",
           ("tests/test_refusals.py::test_cli_refuses_a_plan_that_would_overwrite_an_input",)),
    Mutant("adam_second_moment_unchecked", NETCORE,
           '_blockwise(net, update, "after Adam step", v)',
           '_blockwise(net, update, "after Adam step")',
           "a v that overflows to inf makes every later update of its weight 0, silently",
           ("tests/test_netcore.py::test_adam_refuses_a_second_moment_that_overflows",)),
    # One checkpoint file.
    Mutant("size_checked_after_allocation", NETCORE,
           '''        if size != expected:
            raise DataFormatError(f"checkpoint {path} holds {size} bytes after its "
                                  f"header line; its layer shapes need {expected}")
        # Zeros that take no memory of their own: the file's parameter bytes
        # are read straight into the arena.
        net = Network([(np.broadcast_to(0.0, (out_dim, in_dim)),
                        np.broadcast_to(0.0, out_dim), activation)
                       for out_dim, in_dim, activation in shapes], bounds, inputs)
''',
           '''        net = Network([(np.broadcast_to(0.0, (out_dim, in_dim)),
                        np.broadcast_to(0.0, out_dim), activation)
                       for out_dim, in_dim, activation in shapes], bounds, inputs)
        if size != expected:
            raise DataFormatError(f"checkpoint {path} holds {size} bytes after its "
                                  f"header line; its layer shapes need {expected}")
''',
           "a header claiming more parameters than the file holds allocates them first",
           ("tests/test_netcore.py::"
            "test_checkpoint_shapes_are_checked_against_payloads_before_allocation",)),
    Mutant("digest_unchecked", NETCORE,
           "    if hashlib.sha256(net.flat_values).hexdigest() != digest:",
           "    if False:",
           "a flipped parameter byte or another run's parameters load silently",
           ("tests/test_fuzz.py::test_damaged_checkpoint_files_exit_two",
            "tests/test_refusals.py::"
            "test_cli_verify_refuses_parameters_of_the_right_size_from_another_run")),
    Mutant("newline_unchecked", NETCORE,
           '        if not line.endswith(b"\\n"):',
           "        if False:",
           "a header line with nothing after it is refused by size, not for its newline",
           ("tests/test_fuzz.py::test_damaged_checkpoint_files_exit_two",)),
    Mutant("checkpoint_written_in_place", NETCORE,
           'write_atomic(path, b"".join(',
           'Path(path).write_bytes(b"".join(',
           "a failed write leaves no old checkpoint behind",
           ("tests/test_artifacts.py::"
            "test_a_failed_replace_keeps_the_old_checkpoint_loadable_with_its_digest",)),
    Mutant("out_may_overwrite_the_input", CLI,
           "if out and out.resolve()",
           "if False and out.resolve()",
           "prune and finetune --out overwrite their own input checkpoint",
           ("tests/test_refusals.py::"
            "test_cli_refuses_an_out_that_would_overwrite_the_input_checkpoint",)),
    # Adam in ten passes, and SGD taking lr only.
    Mutant("eps_hat_unscaled", NETCORE,
           "self.eps * r", "self.eps",
           "from the second step on, eps is not scaled as the moments are",
           ("tests/test_netcore.py::test_adam_second_step_matches_hand_computation",
            "tests/test_netcore.py::"
            "test_adam_updates_are_within_128_ulps_of_exact_moments_in_either_order")),
    Mutant("eps_hat_doubled", NETCORE,
           "self.eps * r", "2 * self.eps * r",
           "every update is taken with twice the eps",
           ("tests/test_netcore.py::test_adam_first_step_matches_hand_computation",
            "tests/test_netcore.py::"
            "test_adam_updates_are_within_128_ulps_of_exact_moments_in_either_order")),
    Mutant("r_without_one_minus_beta2", NETCORE,
           "r = math.sqrt((1.0 - b2 ** t) / (1.0 - b2))",
           "r = math.sqrt(1.0 - b2 ** t)",
           "the step size is off by sqrt(1 - beta2) at every step",
           ("tests/test_netcore.py::test_adam_first_step_matches_hand_computation",)),
    Mutant("step_size_off_by_2_to_the_minus_40", NETCORE,
           "alpha, eps_hat = self.lr * (1.0 - b1)",
           "alpha, eps_hat = (1 + 2 ** -40) * self.lr * (1.0 - b1)",
           "each update is 2**-40 too large, about 4,000 ulps",
           ("tests/test_netcore.py::"
            "test_adam_updates_are_within_128_ulps_of_exact_moments_in_either_order",)),
    Mutant("sgd_takes_adam_settings", CONFIG,
           "            if given:", "            if False:",
           "an SGD config accepts beta1, beta2 and eps that it never uses",
           ("tests/test_harness.py::test_an_optimizer_config_refuses_bad_settings_when_made",
            "tests/test_refusals.py")),
    Mutant("sgd_saves_adam_settings", CONFIG,
           'skip = self._ADAM_ONLY if self.kind == "sgd" else ()', "skip = ()",
           "an SGD config.json holds Adam's settings",
           ("tests/test_harness.py::test_training_through_an_sgd_config",)),
    # One update path per optimizer step.
    Mutant("zero_block_shared", NETCORE,
           "return g[lo:hi].copy()", "return g[lo:hi]",
           "a block of zero coefficients hands the step the task gradient itself",
           ("tests/test_netcore.py::test_a_block_of_zero_coefficients_is_read_as_a_private_copy",)),
    Mutant("penalty_type_unchecked", NETCORE,
           "if not isinstance(penalty, Penalty):", "if False:",
           "a step takes None or a coefficient list for its penalty",
           ("tests/test_netcore.py::"
            "test_a_step_refuses_anything_but_a_bound_penalty_before_its_state_moves",)),
    Mutant("penalty_checked_after_adam_reset", NETCORE,
           '''        _check_penalty(net, penalty)
        if net.layout != self._layout:
            n = net.flat_values.size
            self._layout = net.layout
            self._m = np.zeros(n)
            self._v = np.zeros(n)
            self._t = 0
        self._t += 1
''',
           '''        if net.layout != self._layout:
            n = net.flat_values.size
            self._layout = net.layout
            self._m = np.zeros(n)
            self._v = np.zeros(n)
            self._t = 0
        self._t += 1
        _check_penalty(net, penalty)
''',
           "a refused step has already counted itself and reset the moments",
           ("tests/test_netcore.py::"
            "test_a_step_refuses_anything_but_a_bound_penalty_before_its_state_moves",)),
    Mutant("adam_eps_unbounded", NETCORE,
           "if not 0 < eps < math.inf:", "if not 0 < eps:",
           "an infinite eps is accepted and every update is zero",
           ("tests/test_harness.py::test_an_optimizer_config_refuses_bad_settings_when_made",)),
    Mutant("sgd_lr_unbounded", NETCORE,
           "lr: float = 1e-3) -> None:\n        if not 0 < lr < math.inf:",
           "lr: float = 1e-3) -> None:\n        if not 0 < lr:",
           "SGD accepts an infinite learning rate",
           ("tests/test_harness.py::test_an_optimizer_config_refuses_bad_settings_when_made",)),
    # The paired bench runner.
    Mutant("fingerprints_may_disagree", BENCH_PAIR,
           "if len(seen) != 1:", "if False:",
           "a side whose runs computed different parameters is summarized as one",
           ("tests/test_bench_pair.py::test_the_writer_refuses_a_side_whose_fingerprints_disagree",)),
    Mutant("missing_workload_allowed", BENCH_PAIR,
           "            if missing:", "            if False:",
           "a pair without a workload fails later, with no PairError naming it",
           ("tests/test_bench_pair.py::test_the_writer_refuses_a_missing_workload",)),
    Mutant("ties_count_as_wins", BENCH_PAIR,
           "sum(sign * (c - p) > 0", "sum(sign * (c - p) >= 0",
           "a pair the change tied is counted as won",
           ("tests/test_bench_pair.py::"
            "test_the_writer_summarizes_each_side_and_records_unequal_fingerprints",)),
]


def misplaced(mutants: list[Mutant], root: Path = ROOT) -> list[str]:
    """One line per entry whose text does not occur exactly once in its
    file, or that replaces its text by itself."""
    problems = []
    for m in mutants:
        path = root / m.file
        count = path.read_text().count(m.text) if path.is_file() else 0
        if count != 1:
            problems.append(f"{m.name}: its text occurs {count} times in {m.file}")
        if m.replacement == m.text:
            problems.append(f"{m.name}: its replacement is its text")
    return problems


def pytest(tree: Path, args: list[str]) -> tuple[int, float]:
    """Run pytest in ``tree`` in a child process; its exit code and seconds."""
    env = dict(os.environ, PYTHONPATH="src", OPENBLAS_NUM_THREADS="1")
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           *args], cwd=tree, env=env, capture_output=True, timeout=1800)
    return done.returncode, time.perf_counter() - start


def check(tree: Path, m: Mutant) -> str:
    """Apply ``m`` in ``tree``, run its tests, restore the file; the verdict."""
    path = tree / m.file
    original = path.read_text()
    path.write_text(original.replace(m.text, m.replacement))
    try:
        for stage, args in (("its tests", ["-x", *m.tests]), ("the suite", ["-x", *SUITE])):
            code, seconds = pytest(tree, args)
            if code in (1, 2):  # a test failed, or collection did
                return f"killed   {m.name} by {stage} ({seconds:.1f} s)"
            if code != 0:
                return f"ERROR    {m.name}: pytest exited {code} on {stage}"
        return f"SURVIVED {m.name}: {m.breaks}"
    finally:
        path.write_text(original)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scratch", type=Path, required=True,
                        help="a directory to copy the tree into")
    parser.add_argument("names", nargs="*", help="run only these mutants")
    args = parser.parse_args(argv)
    unknown = set(args.names) - {m.name for m in MUTANTS}
    if unknown:
        parser.error(f"unknown mutants: {', '.join(sorted(unknown))}")
    chosen = [m for m in MUTANTS if not args.names or m.name in args.names]
    problems = misplaced(chosen)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 2
    args.scratch.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="mutants-", dir=args.scratch))
    try:
        tree = work / "tree"
        shutil.copytree(ROOT, tree, ignore=IGNORED)
        expected = sorted({t for m in chosen for t in m.tests})
        code, seconds = pytest(tree, expected)
        if code != 0:
            print(f"the expected tests do not pass on the unchanged tree "
                  f"(pytest exited {code})", file=sys.stderr)
            return 2
        print(f"expected tests pass unchanged ({seconds:.1f} s)")
        failed = []
        for m in chosen:
            verdict = check(tree, m)
            print(verdict, flush=True)
            if not verdict.startswith("killed"):
                failed.append(m.name)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if failed:
        print(f"not killed: {', '.join(failed)}", file=sys.stderr)
        return 1
    print(f"all {len(chosen)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
