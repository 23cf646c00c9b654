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
broken (a text not found exactly once, a mutated file that does not
compile, a test that does not pass unchanged).
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
IMPORTANCE, MODELGRAPH = "src/prunescope/importance.py", "src/prunescope/modelgraph.py"
DATA, TRAIN = "src/prunescope/harness/data.py", "src/prunescope/harness/train.py"
PRUNER, SCHEDULER = "src/prunescope/pruner.py", "src/prunescope/scheduler.py"
ORACLE = "tests/test_importance.py::test_a_read_has_the_bits_of_the_per_slot_oracle"
BACKWARD_ORACLE = ("tests/test_netcore.py::"
                   "test_backward_has_the_bits_of_the_per_layer_matmul_oracle")
GOLDEN_TOY = "tests/test_golden.py::test_toy_multihead_train_prune_finetune_is_bitwise_stable"
LANE_RERAISES = "tests/test_netcore.py::test_second_lane_reraises_after_both_halves_finish"
SLOT_REFUSALS = "tests/test_modelgraph.py::test_a_graph_refuses_slots_that_do_not_tile_the_arena"
PENALIZED_STEP = ("tests/test_netcore.py::"
                  "test_a_penalized_step_has_the_bits_of_adding_the_term_in_place")
PARTS_IN_PLACE = ("tests/test_netcore.py::"
                  "test_a_penalty_holds_parts_side_by_side_with_the_bits_of_adding_each_in_place")
READ_RAISES = "tests/test_importance.py::test_a_read_that_raises_changes_no_state"

MUTANTS = [
    # The training step: one per-layer table, every product through np.dot.
    Mutant("bound_relu_as_identity", NETCORE,
           '(src, None if layer.activation == "identity" else layer.activation,',
           '(src, None if layer.activation in ("identity", "relu") else layer.activation,',
           "the table marks relu layers as identity, so forward skips relu and backward "
           "skips its gradient",
           (BACKWARD_ORACLE, GOLDEN_TOY)),
    Mutant("bound_weight_values_as_gradient", NETCORE,
           "                             layer.weight.grad, layer.bias.grad)",
           "                             layer.weight.values, layer.bias.grad)",
           "the table binds each weight as its own gradient, so backward overwrites the "
           "weights and leaves their gradients stale",
           ("tests/test_netcore.py::test_backward_single_layer_by_hand", BACKWARD_ORACLE)),
    Mutant("weight_grad_over_two_batch_halves", NETCORE,
           "    np.dot(dz.T, x, out=weight_grad)\n",
           "    half = len(dz) // 2\n"
           "    np.add(np.dot(dz[:half].T, x[:half]), np.dot(dz[half:].T, x[half:]),"
           " out=weight_grad)\n",
           "the weight gradient sums two half-batch products, which rounds differently "
           "from one product over the batch",
           (BACKWARD_ORACLE,)),
    Mutant("weight_grad_rows_reversed", NETCORE,
           "    np.dot(dz.T, x, out=weight_grad)\n",
           "    np.dot(dz[::-1].T, x[::-1], out=weight_grad)\n",
           "the weight gradient sums the batch rows in reverse, so its bits differ from "
           "the oracle's at 37 and 128 rows",
           (BACKWARD_ORACLE,)),
    # Identity targets are gathered once per step.
    Mutant("target_always_the_batch", TRAIN,
           "batch if y_train is x_train else y_train[idx]", "batch",
           "affine targets are replaced by the inputs, so the toy's two outputs are "
           "compared with its sixteen inputs",
           (GOLDEN_TOY,)),
    Mutant("identity_targets_copied", DATA,
           "        return x_train, x_train, x_test, x_test\n",
           "        return x_train, x_train.copy(), x_test, x_test.copy()\n",
           "identity targets are arrays of their own, so each step gathers its batch "
           "twice (the bits hold)",
           ("tests/test_data.py::test_identity_target_returns_the_inputs",
            "tests/test_harness.py::"
            "test_identity_targets_share_the_inputs_and_training_leaves_them_unchanged")),
    # Checks recorded in CHANGES.md before this list existed, each re-run here
    # on the code that now does the job.
    Mutant("adam_v_decayed_after_the_new_square", NETCORE,
           """            np.multiply(vb, b2, out=vb)
            np.multiply(gb, gb, out=gb)
            np.add(vb, gb, out=vb)
""",
           """            np.multiply(gb, gb, out=gb)
            np.add(vb, gb, out=vb)
            np.multiply(vb, b2, out=vb)
""",
           "v becomes beta2 * (v + g*g), so the newest square is decayed once too often",
           ("tests/test_netcore.py::test_adam_first_step_matches_hand_computation",)),
    Mutant("plain_sigmoid", NETCORE,
           """        den = np.abs(z)
        np.negative(den, out=den)
        np.exp(den, out=den)
        np.add(den, 1.0, out=den)
        np.minimum(z, 0.0, out=z)
        np.exp(z, out=z)
        return np.divide(z, den, out=z)
""",
           """        np.negative(z, out=z)
        np.exp(z, out=z)
        np.add(z, 1.0, out=z)
        return np.divide(1.0, z, out=z)
""",
           "1 / (1 + exp(-z)) rounds differently from the branch-free form below zero",
           ("tests/test_golden.py::test_autoencoder_train_and_importance_are_bitwise_stable",)),
    Mutant("input_width_unchecked", NETCORE,
           "if src >= 0 and layers[k][0].shape[1] != layers[src][0].shape[0]:",
           "if False:",
           "a layer whose input width differs from its source's output is built",
           ("tests/test_netcore.py::test_chained_widths_must_agree",)),
    Mutant("bias_length_unchecked", NETCORE,
           "        if b.size != w.shape[0]:\n", "        if False:\n",
           "a bias whose length differs from the weight's rows is built",
           ("tests/test_netcore.py::test_constructor_names_the_first_structural_problem",)),
    Mutant("consumer_columns_kept", PRUNER,
           "        w = np.delete(w, sorted(ledger.cols.get(k, ())), axis=1)\n", "",
           "a pruned unit's consumer keeps the weight column that read it",
           ("tests/test_pruner.py::test_prune_excises_row_bias_entry_and_consumer_column",)),
    Mutant("epoch_total_without_loss_weight", SCHEDULER,
           "    value = task + weight * l1\n", "    value = task + l1\n",
           "the epoch's total loss adds the L1 term at full weight during the warm-up",
           ("tests/test_scheduler.py::test_total_loss_by_hand_and_finiteness",)),
    Mutant("reader_layout_unchecked", IMPORTANCE,
           "        graph.check_layout(net)\n        self.states", "        self.states",
           "a reader is built for a network of another layout and reads its arena at "
           "the graph's offsets",
           ("tests/test_importance.py::test_a_reader_refuses_a_network_of_another_layout",)),
    Mutant("a_slot_reduced_in_reverse", IMPORTANCE,
           "            for view, out in slot_sums:\n                np.add.reduce(view, 1, out=out)",
           "            for view, out in slot_sums:\n"
           "                np.add.reduce(view[:, ::-1], 1, out=out)",
           "each slot's sums add its elements in reverse, which rounds differently",
           (ORACLE,)),
    Mutant("slot_sums_in_reversed_columns", IMPORTANCE,
           "slot_sums[k].append((view, self._sums[:, j]))",
           "slot_sums[k].append((view, self._sums[:, -1 - j]))",
           "each slot's sums land in another slot's column, so groups read each "
           "other's slots",
           (ORACLE,)),
    Mutant("group_mean_off_by_one", IMPORTANCE,
           "raw_fisher = sum(square_sums[slots]) / group.param_count",
           "raw_fisher = sum(square_sums[slots]) / (group.param_count + 1)",
           "the Fisher value divides a group's sum of squares by one parameter too many",
           ("tests/test_importance.py::test_a_first_read_matches_per_group_brute_force",)),
    Mutant("unit_other_parts_in_reverse", IMPORTANCE,
           "            for a, axis, out in other_parts:\n",
           "            for a, axis, out in other_parts[::-1]:\n",
           "a unit layer of three or more parts adds its later parts in reverse, which "
           "rounds differently",
           (ORACLE,)),
    Mutant("failed_read_smooths_the_unit_arena", IMPORTANCE,
           """        observed = []
        for group, state, slots in self._groups:
""",
           """        observed = []
        ema *= self._g
        ema += scores
        for group, state, slots in self._groups:
""",
           "the unit scores move before the groups are checked, so a read that raises "
           "still changes them",
           (READ_RAISES,)),
    Mutant("failed_read_commits_alpha_and_beta", IMPORTANCE,
           "            raw_bayes = bayes_importance(alpha / beta, raw_fisher)\n",
           "            state.alpha, state.beta = alpha, beta\n"
           "            raw_bayes = bayes_importance(alpha / beta, raw_fisher)\n",
           "the posterior moves inside the check loop, so a read that raises has moved "
           "every group's up to the failing one",
           (READ_RAISES,)),
    Mutant("failed_read_flips_gamma", IMPORTANCE,
           "                raise NumericsError(\n"
           "                    f\"group {group.id!r}: importance is not finite",
           "                self._g = self._gamma\n"
           "                raise NumericsError(\n"
           "                    f\"group {group.id!r}: importance is not finite",
           "a first read that raises leaves gamma set, so the next read smooths its raw "
           "values against zeros",
           (f"{READ_RAISES}[fisher-first_read]", f"{READ_RAISES}[beta-first_read]")),
    Mutant("read_beta_unchecked", IMPORTANCE,
           "and math.isfinite(raw_bayes) and math.isfinite(beta)):",
           "and math.isfinite(raw_bayes)):",
           "an eta that overflows beta is stored, and mu reads 0",
           (f"{READ_RAISES}[beta-first_read]", "tests/test_refusals.py")),
    Mutant("ema_gamma_unchecked", IMPORTANCE,
           "    check_gamma(gamma)\n    return gamma * previous",
           "    return gamma * previous",
           "an EMA step takes a gamma of 1 or more, or NaN",
           ("tests/test_importance.py::test_ema_gamma_must_lie_in_unit_interval",)),
    Mutant("bayes_constants_may_be_infinite", IMPORTANCE,
           "if not 0 < getattr(self, name) < math.inf:", "if not 0 < getattr(self, name):",
           "an infinite kappa, eta, alpha0 or beta0 is accepted",
           ("tests/test_importance.py::test_bayes_config_refuses_non_finite_constants",)),
    Mutant("metric_fields_ema_first", IMPORTANCE,
           'for kind in ("raw", "ema")', 'for kind in ("ema", "raw")',
           "the states document and the trace list the smoothed metrics before the raw "
           "ones, so their bytes change",
           ("tests/test_artifacts.py::test_train_and_prune_write_the_recorded_bytes",)),
    Mutant("allocator_states_unchecked", PRUNER,
           "    graph.check_states(states, candidates)\n", "",
           "allocate_budget takes states without a group or with unit scores of "
           "another width",
           ("tests/test_modelgraph.py::"
            "test_states_without_a_group_or_with_unit_scores_of_another_width_are_refused",)),
    Mutant("missing_state_unchecked", MODELGRAPH,
           "            if group.id not in states:\n", "            if False:\n",
           "states without a group fail with a KeyError, not the refusal that names "
           "the group",
           ("tests/test_modelgraph.py::"
            "test_states_without_a_group_or_with_unit_scores_of_another_width_are_refused",)),
    Mutant("slot_ranges_shifted_by_one", MODELGRAPH,
           "[slice(a, b) for a, b in zip([0, *ends], ends)]",
           "[slice(a + 1, b + 1) for a, b in zip([0, *ends], ends)]",
           "each group reads the slots from its second to the next group's first",
           ("tests/test_modelgraph.py::test_l1_norms_equal_the_per_tensor_sums_bit_for_bit",
            ORACLE)),
    Mutant("l1_slot_sums_in_reverse", MODELGRAPH,
           "return [sum(slot_sums[slots]) for slots in self.slot_ranges]",
           "return [sum(slot_sums[slots][::-1]) for slots in self.slot_ranges]",
           "a group of three or more slots adds its L1 slot sums in another order",
           ("tests/test_modelgraph.py::test_l1_norms_equal_the_per_tensor_sums_bit_for_bit",)),
    Mutant("slots_may_overlap_or_leave_gaps", MODELGRAPH,
           "if lo != end or not lo < hi <= self.size:", "if not lo < hi <= self.size:",
           "slots that overlap or leave a gap are accepted",
           (f"{SLOT_REFUSALS}[overlap]", f"{SLOT_REFUSALS}[gap]")),
    Mutant("slots_may_leave_the_arena", MODELGRAPH,
           "if lo != end or not lo < hi <= self.size:", "if lo != end or not lo < hi:",
           "a slot past the arena's end is accepted",
           (SLOT_REFUSALS,)),
    Mutant("slots_may_stop_short", MODELGRAPH,
           "        if end != self.size:\n", "        if end > self.size:\n",
           "slots that stop short of the arena's end are accepted",
           (f"{SLOT_REFUSALS}[short]",)),
    Mutant("runs_of_one_group_not_joined", MODELGRAPH,
           "            if runs and runs[-1][2] == i:\n", "            if False:\n",
           "adjacent slots of one group stay separate parts (the bits hold)",
           ("tests/test_modelgraph.py::test_each_blocks_parts_are_the_maximal_runs_of_one_group",
            PARTS_IN_PLACE)),
    Mutant("runs_of_two_groups_joined", MODELGRAPH,
           "            if runs and runs[-1][2] == i:\n", "            if runs:\n",
           "adjacent slots of two groups join one part, which takes the first group's "
           "coefficient",
           (PARTS_IN_PLACE, PENALIZED_STEP)),
    Mutant("runs_across_a_block_edge_dropped", MODELGRAPH,
           "for lo, hi, i in runs if lo < start + ADAM_BLOCK and hi > start)",
           "for lo, hi, i in runs if lo >= start and hi <= start + ADAM_BLOCK)",
           "a run that crosses a block edge is in no block, so the L1 term skips it",
           (PENALIZED_STEP,)),
    Mutant("coefficients_may_be_infinite_or_nan", MODELGRAPH,
           "if not 0.0 <= coeff < math.inf:  # written so that NaN fails",
           "if coeff < 0.0:",
           "an infinite or NaN L1 coefficient is accepted",
           ("tests/test_modelgraph.py::"
            "test_penalty_refuses_a_wrong_count_and_negative_or_non_finite_coefficients",)),
    Mutant("zero_parts_not_copied_over", NETCORE,
           "                gb[a:b] = g[lo + a:lo + b]\n", "                pass\n",
           "a part of coefficient zero reads g + sign(theta), not g",
           (PARTS_IN_PLACE, PENALIZED_STEP)),
    Mutant("zero_parts_lose_minus_zero", NETCORE,
           "                gb[a:b] = g[lo + a:lo + b]\n",
           "                gb[a:b] = g[lo + a:lo + b] + 0.0\n",
           "a part of coefficient zero reads a -0.0 gradient as +0.0",
           (PARTS_IN_PLACE,)),
    Mutant("penalty_layout_checked_by_length", NETCORE,
           "    if penalty.layout != net.layout:\n",
           "    if len(penalty.layout) != len(net.layout):\n",
           "a penalty bound for another layout of as many tensors is taken",
           ("tests/test_netcore.py::test_a_step_refuses_a_penalty_bound_for_another_layout",)),
    Mutant("cycle_T_below_infinity", SCHEDULER,
           "if not 1 <= self.cycle_T <= sys.float_info.max:",
           "if not 1 <= self.cycle_T < math.inf:",
           "a cycle_T past the float range is accepted and overflows when the "
           "schedule divides by it",
           ("tests/test_refusals.py",)),
    Mutant("lane_error_not_reraised", NETCORE,
           "        if kind is None and self.errors:\n", "        if False:\n",
           "an error of a call on the lane is lost",
           (f"{LANE_RERAISES}[lane]",)),
    Mutant("lane_latest_error_wins", NETCORE,
           "raise self.errors[min(self.errors)]", "raise self.errors[max(self.errors)]",
           "the last submitted call's error is raised, not the earliest's",
           (f"{LANE_RERAISES}[lane]",
            "tests/test_netcore.py::test_the_earliest_submitted_error_wins_whichever_call_ran_first")),
    Mutant("lane_call_error_beats_the_blocks", NETCORE,
           "        if kind is None and self.errors:\n", "        if self.errors:\n",
           "a call's error replaces the error the block itself raised",
           (f"{LANE_RERAISES}[lane]",)),
    Mutant("inline_error_not_reraised", NETCORE,
           "        if kind is None and self.error is not None:\n", "        if False:\n",
           "an error of an inline call is lost",
           (f"{LANE_RERAISES}[inline]",)),
    Mutant("inline_call_error_beats_the_blocks", NETCORE,
           "        if kind is None and self.error is not None:\n",
           "        if self.error is not None:\n",
           "an inline call's error replaces the error the block itself raised",
           (f"{LANE_RERAISES}[inline]",)),
    Mutant("inline_keeps_the_last_error", NETCORE,
           "            if self.error is None:  # calls run in submit order: the earliest wins\n"
           "                self.error = exc\n",
           "            self.error = exc\n",
           "an inline stage raises its last call's error, not the earliest's",
           (f"{LANE_RERAISES}[inline]",)),
    Mutant("inline_submit_raises_at_once", NETCORE,
           """        try:
            func(*args)
        except BaseException as exc:  # re-raised when the stage closes
            if self.error is None:  # calls run in submit order: the earliest wins
                self.error = exc
""",
           "        func(*args)\n",
           "an inline call's error leaves the block at once, so the calls after it and "
           "the rest of the block never run",
           (f"{LANE_RERAISES}[inline]",)),
    Mutant("stage_exit_skips_the_worker", NETCORE,
           "        if self.task is not None and not self.task.cancel():\n",
           "        if False:\n",
           "a stage closes while the worker still runs one of its calls",
           ("tests/test_netcore.py::test_stages_from_four_threads_close_after_each_call_ran_once",
            "tests/test_netcore.py::test_a_stage_runs_the_calls_a_held_up_lane_has_not_taken")),
    Mutant("lane_call_outside_the_callers_context", NETCORE,
           "functools.partial(contextvars.copy_context().run,\n"
           "                                           _call,",
           "functools.partial(\n"
           "                                           _call,",
           "a call on the worker runs without the caller's np.errstate",
           ("tests/test_netcore.py::test_the_lane_runs_calls_under_the_callers_errstate",)),
    Mutant("forked_child_keeps_the_parents_lane", NETCORE,
           "os.register_at_fork(after_in_child=_fresh_lane)", "pass",
           "a forked child queues calls on its parent's pool, whose worker it has not",
           ("tests/test_netcore.py::test_a_forked_child_starts_its_own_lane",)),
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
    file, that replaces its text by itself, or whose mutated Python file
    does not compile: pytest reports a file that fails to import while it
    collects as it reports a failed test, so such a mutant would read as
    killed."""
    problems = []
    for m in mutants:
        path = root / m.file
        source = path.read_text() if path.is_file() else ""
        count = source.count(m.text)
        if count != 1:
            problems.append(f"{m.name}: its text occurs {count} times in {m.file}")
        elif path.suffix == ".py":
            try:
                compile(source.replace(m.text, m.replacement), m.file, "exec")
            except SyntaxError as exc:
                problems.append(f"{m.name}: the mutated {m.file} does not compile: {exc.msg}")
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
