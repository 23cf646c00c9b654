"""The library functions the traced run wraps, one span name each.

Span names are ``<layer>.<function>``, where the layer is the module below
``prunescope`` that defines the function. The traced run reports
``<name>.calls`` and ``<name>.self_s`` for every target, plus one metric per
counter (``<name>.bytes`` where the call writes or reads a file). Which
end-to-end metric each span should move, and on which workload, is listed
in README.md beside this file.
"""

from __future__ import annotations

import os

from spans import Counter, Target

PACKAGE = "prunescope"


def _size_of_arg(index: int, key: str) -> Counter:
    """Bytes of the file named by a call's path argument, after the call."""
    def count(args: tuple, kwargs: dict, result: object) -> int:
        return os.path.getsize(kwargs[key] if key in kwargs else args[index])
    return count


def _size_of_paths(args: tuple, kwargs: dict, result: object) -> int:
    """Bytes of every file in a returned ``name -> path`` mapping."""
    return sum(os.path.getsize(path) for path in result.values())


def _matmul_flops(net, rows: int, with_input_grads: bool) -> int:
    """2 * rows * in * out per dense layer; the input-gradient product is
    skipped for layers that read the network input."""
    flops = 0
    for k, layer in enumerate(net.layers):
        per_row = layer.in_dim * layer.out_dim
        flops += 2 * rows * per_row
        if with_input_grads and net.source(k) >= 0:
            flops += 2 * rows * per_row
    return flops


def forward_flops(args: tuple, kwargs: dict, result: object) -> int:
    net = args[0]
    batch = kwargs["batch"] if "batch" in kwargs else args[1]
    return _matmul_flops(net, len(batch), with_input_grads=False)


def backward_flops(args: tuple, kwargs: dict, result: object) -> int:
    net = args[0]
    d_output = kwargs["d_output"] if "d_output" in kwargs else args[2]
    return _matmul_flops(net, len(d_output), with_input_grads=True)


def step_flops(net, batch_size: int) -> int:
    """Matrix-product flops of one forward plus backward pass."""
    return (_matmul_flops(net, batch_size, with_input_grads=False)
            + _matmul_flops(net, batch_size, with_input_grads=True))


def _fn(name: str, *counters: tuple[str, Counter]) -> Target:
    """A module-level function whose span name gives its location."""
    module, _, func = name.rpartition(".")
    return Target(name, (f"{PACKAGE}.{module}:{func}",), counters)


BYTES = "bytes"
FLOPS = "flops"

TARGETS: list[Target] = [
    # training arithmetic
    _fn("netcore.forward", (FLOPS, forward_flops)),
    _fn("netcore.apply_activation"),
    _fn("netcore.backward", (FLOPS, backward_flops)),
    _fn("netcore.activation_grad"),
    _fn("netcore.mse_loss"),
    _fn("netcore.add_l1_subgradient"),
    Target("netcore.optimizer_step", (f"{PACKAGE}.netcore:Adam.step",
                                      f"{PACKAGE}.netcore:SGD.step")),
    Target("netcore.check_finite", (f"{PACKAGE}.netcore:ParamTensor.check_finite",)),
    # per-step group bookkeeping
    _fn("importance.update_all"),
    _fn("modelgraph.group_tensors"),
    _fn("scheduler.group_l1_norm"),
    _fn("scheduler.schedule_row"),
    # artifacts
    _fn("netcore.save_checkpoint", (BYTES, _size_of_arg(1, "path"))),
    _fn("netcore.load_checkpoint", (BYTES, _size_of_arg(0, "path"))),
    _fn("importance.states_to_doc"),
    _fn("importance.states_from_doc"),
    _fn("harness.trace.emit_trace", (BYTES, _size_of_arg(1, "path"))),
    _fn("harness.trace.read_trace", (BYTES, _size_of_arg(0, "path"))),
    _fn("harness.train.save_outputs", (BYTES, _size_of_paths)),
    _fn("modelgraph.export_manifest"),
    # pruning and the pipeline stages
    _fn("pruner.allocate_budget"),
    _fn("pruner.apply_prune"),
    _fn("pruner.verify_consistency"),
    _fn("modelgraph.build_groups"),
    _fn("harness.hypotheses.evaluate_hypotheses"),
    _fn("harness.cli.cmd_train"),
    _fn("harness.cli.cmd_prune"),
    _fn("harness.cli.cmd_finetune"),
    _fn("harness.cli.cmd_verify"),
    _fn("harness.cli.cmd_report"),
    # set-up and the loop itself
    _fn("harness.data.synthetic_dataset"),
    _fn("harness.config.build_model"),
    _fn("harness.train.evaluate_mse"),
    _fn("harness.train.run_training"),
]

# Metrics the traced run derives rather than reads off one span.
DERIVED = ("netcore.flops_per_step", "netcore.param_bytes", "netcore.gflops",
           "trace.overhead_frac", "trace.self_sum_frac", "quality.test_mse")


def per_layer_names() -> list[str]:
    """Every per-layer metric name the traced run reports, in order."""
    names = []
    for target in TARGETS:
        names += [f"{target.name}.calls", f"{target.name}.self_s"]
        names += [f"{target.name}.{suffix}" for suffix, _ in target.counters
                  if suffix != FLOPS]
    return names + list(DERIVED)
