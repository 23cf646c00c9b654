"""Command-line entry points.

Subcommands: train, prune, finetune, report, verify. Exit codes: 0 on
success, 1 for usage errors, 2 when a command starts but fails.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from ..artifacts import read_json, write_json
from ..errors import PrunescopeError
from ..importance import COMBINED, METRICS, states_from_doc
from ..modelgraph import export_manifest
from ..netcore import load_checkpoint, save_checkpoint
from ..pruner import PrunePlan, allocate_budget, apply_prune, verify_consistency
from .config import DatasetConfig, ExperimentConfig
from .hypotheses import evaluate_hypotheses, render_report
from .train import finetune, load_grouped, run_training, save_outputs
from .trace import check_trace, group_order, read_trace

METRIC_CHOICES = METRICS + (COMBINED,)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prunescope",
        description="Train, prune, and audit small multi-component networks.")
    sub = parser.add_subparsers(dest="command", metavar="command", required=True)

    p = sub.add_parser("train", help="train a model and write run artifacts")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--epochs", type=int, default=None,
                   help="override the configured epoch count")
    p.add_argument("--seed", type=int, default=None,
                   help="override the configured seed")
    p.add_argument("--synthetic", action="store_true",
                   help="force the seeded synthetic dataset")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("prune", help="plan and apply structured pruning")
    p.add_argument("--checkpoint", required=True, help="trained checkpoint JSON")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--sparsity", type=float, default=None,
                        help="target fraction of parameters to remove, in (0, 1)")
    source.add_argument("--apply", default=None,
                        help="apply an existing plan JSON instead of allocating")
    p.add_argument("--metric", default=None, choices=METRIC_CHOICES,
                   help=f"ranking metric when allocating (default: {COMBINED})")
    p.add_argument("--states", default=None,
                   help="importance states JSON (default: states.json beside "
                        "the checkpoint)")
    p.add_argument("--protect", nargs="*", default=[], metavar="GROUP_ID",
                   help="group ids exempt from pruning")
    p.add_argument("--weights", nargs="+", type=float, default=None,
                   metavar="W",
                   help="combined-metric weights for grad, fisher and bayes: "
                        "three, non-negative, summing to 1")
    dest = p.add_mutually_exclusive_group(required=True)
    dest.add_argument("--plan", default=None,
                      help="write the plan JSON here and stop without applying")
    dest.add_argument("--out", default=None,
                      help="output directory for the pruned checkpoint")
    p.set_defaults(func=cmd_prune)

    p = sub.add_parser("finetune", help="continue training a pruned checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--epochs", required=True, type=int)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("report", help="summarize a trace file")
    p.add_argument("--trace", required=True, help="trace CSV")
    p.add_argument("--hypotheses", action="store_true",
                   help="score the importance-dynamics hypotheses")
    p.add_argument("--window", type=int, default=None,
                   help="late-training window for hypothesis scoring "
                        "(default: 20); needs --hypotheses")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("verify", help="consistency-check a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(func=cmd_verify)
    return parser


def cmd_train(args: argparse.Namespace) -> int:
    cfg = ExperimentConfig.from_file(args.config)
    if args.synthetic and cfg.dataset.kind != "synthetic":
        cfg = replace(cfg, dataset=DatasetConfig(
            kind="synthetic", n_train=cfg.dataset.n_train,
            n_test=cfg.dataset.n_test, rank=None,
            target=cfg.dataset.target))
    result = run_training(cfg, epochs=args.epochs, seed=args.seed)
    paths = save_outputs(result, args.out)
    print(f"trained {result.config.epochs} epochs, seed {result.config.seed}")
    print(f"final task loss {result.final_task_loss:.6g}, "
          f"test mse {result.test_mse:.6g}")
    for name in ("checkpoint", "params", "trace_csv", "states", "summary"):
        print(f"wrote {paths[name]}")
    return 0


def cmd_prune(args: argparse.Namespace) -> int:
    if args.apply:
        refused = [f"--{name}" for name in ("metric", "states", "protect", "weights", "plan")
                   if getattr(args, name)]
        if refused:
            raise PrunescopeError("--apply applies the plan as it is; "
                                  f"it takes no {', '.join(refused)}")
    elif args.weights and args.metric not in (None, COMBINED):
        raise PrunescopeError(f"--weights needs --metric {COMBINED}, not {args.metric}")
    net, graph, meta = load_grouped(args.checkpoint)
    if args.apply:
        plan = PrunePlan.load(args.apply)
    else:
        states_path = args.states or Path(args.checkpoint).parent / "states.json"
        states = states_from_doc(read_json(states_path, "importance states"))
        weights = tuple(args.weights) if args.weights else None
        plan = allocate_budget(states, graph, net, args.sparsity,
                               args.metric or COMBINED, protect=args.protect,
                               weights=weights)
    if args.plan:
        plan.save(args.plan)
        print(f"wrote plan {args.plan}: {plan.total_units()} units, "
              f"{plan.predicted_removed} parameters")
        return 0
    before = net.param_count()
    pruned, new_graph = apply_prune(net, graph, plan)
    report = verify_consistency(pruned)
    achieved = plan.predicted_removed / before
    print(f"removed {plan.predicted_removed} of {before} parameters "
          f"({achieved:.4f} vs target {plan.target_sparsity:.4f})")
    print(report.summary())
    if not report.ok:
        return 2
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_checkpoint(pruned, out / "checkpoint.json",
                    meta={**meta, "pruned_from": str(args.checkpoint),
                          "target_sparsity": plan.target_sparsity})
    plan.save(out / "plan.json")
    write_json(out / "manifest.json", export_manifest(pruned, new_graph), indent=2)
    print(f"wrote {out / 'checkpoint.json'}")
    return 0


def cmd_finetune(args: argparse.Namespace) -> int:
    cfg = ExperimentConfig.from_file(args.config)
    result = finetune(args.checkpoint, cfg, args.epochs)
    paths = save_outputs(result, args.out,
                         meta={"finetuned_from": str(args.checkpoint)})
    print(f"fine-tuned {args.epochs} epochs, final task loss "
          f"{result.final_task_loss:.6g}, test mse {result.test_mse:.6g}")
    print(f"wrote {paths['checkpoint']}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    if args.window is not None and not args.hypotheses:
        raise PrunescopeError("--window sets the hypotheses' window; it needs --hypotheses")
    records = read_trace(args.trace)
    if args.hypotheses:  # evaluate_hypotheses checks the trace itself
        window = 20 if args.window is None else args.window
        hypotheses = evaluate_hypotheses(records, window=window)
    else:
        check_trace(records)
    epochs = sorted({r.epoch for r in records})
    ids = group_order(records)
    print(f"trace: {len(records)} rows, epochs {epochs[0]}..{epochs[-1]}, "
          f"{len(ids)} groups")
    last = {r.group_id: r for r in records if r.epoch == epochs[-1]}
    for gid in ids:
        rec = last[gid]
        print(f"  {gid:<28} [{rec.kind}] ema_grad={rec.ema_grad:.6g} "
              f"ema_fisher={rec.ema_fisher:.6g} ema_bayes={rec.ema_bayes:.6g} "
              f"l1={rec.l1_norm:.6g}")
    if args.hypotheses:
        print()
        print(render_report(hypotheses))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    net, _ = load_checkpoint(args.checkpoint)
    report = verify_consistency(net)
    print(report.summary())
    return 0 if report.ok else 2


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except (PrunescopeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
