"""Acceptance suite: one verdict line per criterion (run with ``pytest -s``).

Criteria 1-7 and 9 are hard checks at fixed tolerances.  Criterion 8 is the
desk-scale qualitative reproduction: its sub-checks print PASS or DIVERGES
but never fail the build, since the underlying findings were established at
a much larger scale.
"""

import math
import time
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from prunescope.harness.cli import main
from prunescope.harness.config import (DatasetConfig, ExperimentConfig,
                                       ModelConfig)
from prunescope.harness.hypotheses import evaluate_hypotheses
from prunescope.harness.train import run_training
from prunescope.harness.trace import check_trace
from prunescope.importance import BayesConfig, Reader, ema_update
from prunescope.modelgraph import ComponentGraph, PruningGroup, build_groups
from prunescope.netcore import backward, build_sequential, forward, mse_loss
from prunescope.pruner import PrunePlan, apply_prune, verify_consistency
from prunescope.scheduler import ScheduleConfig, lambda_coefficient

from conftest import (dyadic, fd_gradient, group_l1_norm, group_tensors, make_toy_multihead,
                      predicted_removed_params, set_dyadic, with_activations)


def announce(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} — {detail}")


def toy_config(**overrides):
    base = dict(model=ModelConfig(preset="toy_multihead"),
                dataset=DatasetConfig(kind="synthetic", rank=None,
                                      target="affine"),
                seed=0)
    base.update(overrides)
    return ExperimentConfig(**base)


def test_criterion_1_gradients_match_finite_differences():
    start = time.monotonic()
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng([seed, 71])
        widths = [int(w) for w in rng.integers(6, 10, size=4)]
        net = build_sequential(widths, ["sigmoid", "sigmoid", "identity"],
                               {"body": (0, 3)}, seed=rng)
        x = rng.uniform(-1.0, 1.0, size=(4, widths[0]))
        y = rng.uniform(-1.0, 1.0, size=(4, widths[-1]))
        acts = forward(net, x)
        _, d_out = mse_loss(acts[-1], y)
        backward(net, acts, d_out)
        analytic = np.concatenate(
            [t.grad.ravel() for _, _, t in net.param_tensors()])
        picks = rng.choice(analytic.size, size=100, replace=False)
        for index in picks:
            fd = fd_gradient(net, x, y, int(index), h=1e-5)
            # The floor keeps the ratio meaningful where a sampled
            # gradient happens to sit near zero.
            rel = abs(fd - analytic[index]) / max(abs(analytic[index]), 1e-6)
            worst = max(worst, rel)
    elapsed = time.monotonic() - start
    ok = worst < 1e-4 and elapsed < 30.0
    announce(1, ok, f"max relative FD error {worst:.3e} over 20 nets x 100 "
                    f"parameters in {elapsed:.1f}s")
    assert ok


def test_criterion_2_metrics_match_brute_force():
    rng = np.random.default_rng(202)
    worst = 0.0
    cfg = BayesConfig()
    # The reader's kernel, on one group whose single slot is the vector: an
    # arena of its own, read through a stand-in network.
    for _ in range(1000):
        g = rng.normal(0.0, 3.0, size=int(rng.integers(1, 64)))
        n = g.size
        group = PruningGroup("g", "component_specific", (), ("body",), n,
                             ((0, n, (n,)),), (), ())
        layout = (("g", (n,)),)
        arena = SimpleNamespace(flat_grad=g, layout=layout)
        reader = Reader(arena, ComponentGraph([group], 1, layout), cfg, 0.9)
        reader.read()
        state = reader.states["g"]
        ref_grad = math.fsum(abs(v) for v in g) / n
        ref_fisher = math.fsum(v * v for v in g) / n
        for got, ref in ((state.raw_grad, ref_grad), (state.raw_fisher, ref_fisher)):
            worst = max(worst, abs(got - ref) / max(abs(ref), 1.0))
    # A whole read, on random gradients.
    for seed in range(20):
        net = make_toy_multihead(seed=seed)
        for _, _, tensor in net.param_tensors():
            tensor.grad[...] = rng.normal(0.0, 3.0, size=tensor.shape)
        graph = build_groups(net)
        reader = Reader(net, graph, cfg, 0.9)
        reader.read()
        states = reader.states
        for group in graph.groups:
            g = [v for t in group_tensors(net, group) for v in t.grad.ravel()]
            st = states[group.id]
            for got, ref in ((st.raw_grad, math.fsum(abs(v) for v in g) / len(g)),
                             (st.raw_fisher, math.fsum(v * v for v in g) / len(g))):
                worst = max(worst, abs(got - ref) / max(abs(ref), 1.0))
    ok = worst <= 1e-12
    announce(2, ok, f"the reader's kernel over 1000 vectors and a read "
                    f"over 20 networks vs fsum recomputation, worst "
                    f"deviation {worst:.3e}")
    assert ok


def test_criterion_3_bayes_recurrence_is_exact():
    """The posterior is read from :meth:`Reader.read`, the update training
    runs. Each read fills ``flat_grad`` with one dyadic magnitude, signs
    drawn, so every group's energy E is that magnitude exactly."""
    cfg = BayesConfig()  # kappa 1/4, eta 1, alpha0 = beta0 = 1
    rng = np.random.default_rng(33)
    net = make_toy_multihead(seed=0)
    signs = rng.choice([-1.0, 1.0], size=net.flat_grad.size)
    reader = Reader(net, build_groups(net), cfg, 0.9)
    exact_beta = Fraction(1)
    energies = (rng.integers(1, 33, size=500) * 0.125).tolist()
    for t, energy in enumerate(energies, start=1):
        np.multiply(signs, energy, out=net.flat_grad)
        reader.read()
        exact_beta += Fraction(1, 4) * Fraction(energy)
        for state in reader.states.values():
            assert state.alpha == 1.0 + 0.25 * t
            assert state.beta == float(exact_beta)
    reader = Reader(net, build_groups(net), cfg, 0.9)
    np.multiply(signs, 2.0, out=net.flat_grad)
    for _ in range(2000):
        reader.read()
    states = reader.states.values()
    drift = max(abs(state.mu - 0.5) / 0.5 for state in states)
    ok = (all(state.alpha == 501.0 and state.beta == 1001.0 for state in states)
          and drift < 0.01)
    announce(3, ok, f"alpha/beta recurrences exact over 500 random updates; "
                    f"mu within {drift:.4%} of eta/E at t=2000")
    assert ok


def test_criterion_4_ema_matches_closed_form():
    gamma = 0.9
    exact_gamma = Fraction(gamma)
    rng = np.random.default_rng(44)
    worst = 0.0
    for _ in range(20):
        raws = rng.normal(0.0, 2.0, size=100).tolist()
        smoothed = raws[0]
        exact = Fraction(raws[0])
        for raw in raws[1:]:
            smoothed = ema_update(smoothed, raw, gamma)
            exact = exact_gamma * exact + (1 - exact_gamma) * Fraction(raw)
        closed = float(exact)
        worst = max(worst, abs(smoothed - closed) / max(abs(closed), 1e-9))
    ok = worst <= 1e-12
    announce(4, ok, f"recurrence vs closed-form unroll at t=100, gamma=0.9, "
                    f"worst relative gap {worst:.3e}")
    assert ok


def test_criterion_5_scheduler_identities():
    cfg = ScheduleConfig()  # lambda_base 1e-5, T = 20
    n_groups = 4
    top = lambda_coefficient(0, 0, n_groups, 16, cfg)
    bottom = lambda_coefficient(cfg.cycle_T // 2, 0, n_groups, 25, cfg)
    exact_ends = (top == cfg.lambda_max / 4.0
                  and bottom == cfg.lambda_min / 5.0)
    rng = np.random.default_rng(55)
    worst = 0.0
    for _ in range(1000):
        t = int(rng.integers(0, 10_000))
        i = int(rng.integers(0, n_groups))
        n = int(rng.integers(1, 10_000))
        worst = max(worst, abs(lambda_coefficient(t + cfg.cycle_T, i, n_groups, n, cfg)
                               - lambda_coefficient(t, i, n_groups, n, cfg)))
    ok = exact_ends and worst <= 1e-15
    announce(5, ok, f"exact lambda_max/sqrt(N) and lambda_min/sqrt(N) "
                    f"endpoints; period-T drift {worst:.1e} over 1000 draws")
    assert ok


def _masked_outputs(net, pairs, batch):
    clone = net.copy()
    for layer, unit in pairs:
        clone.layers[layer].weight.values[unit, :] = 0.0
        clone.layers[layer].bias.values[unit] = 0.0
        for consumer in clone.consumers(layer):
            clone.layers[consumer].weight.values[:, unit] = 0.0
    return forward(clone, batch)[-1]


def _fuzz_plan(rng, net, graph):
    per_group = {}
    pairs = []
    for group in graph.groups:
        units = group.prunable
        if not units:
            continue
        by_layer = {}
        for layer, unit in units:
            by_layer.setdefault(layer, []).append(unit)
        chosen = []
        for layer, layer_units in by_layer.items():
            take = int(rng.integers(0, len(layer_units)))  # never all of them
            if take:
                idx = rng.choice(len(layer_units), size=take, replace=False)
                chosen.extend((layer, layer_units[j]) for j in sorted(idx))
        if chosen:
            per_group[group.id] = chosen
            pairs.extend(chosen)
    if not pairs:  # force at least one removal
        for group in graph.groups:
            units = group.prunable
            if units:
                pick = units[int(rng.integers(0, len(units)))]
                per_group[group.id] = [pick]
                pairs = [pick]
                break
    predicted = predicted_removed_params(net, pairs)
    plan = PrunePlan(target_sparsity=predicted / net.param_count(),
                     ranking_used="fuzz", per_group=per_group,
                     predicted_removed=predicted)
    return plan, pairs


def test_criterion_6_fuzzed_prune_plans_stay_consistent():
    rounds = 1000
    for round_no in range(rounds):
        rng = np.random.default_rng([round_no, 4242])
        identity_only = round_no % 2 == 0
        if round_no % 4 == 0:
            net = make_toy_multihead(seed=round_no)
            if identity_only:
                net = with_activations(net, ["identity"] * len(net.layers))
        else:
            depth = int(rng.integers(3, 5))
            widths = [int(w) for w in rng.integers(3, 8, size=depth + 1)]
            acts = ["identity"] * depth if identity_only else [
                str(rng.choice(["relu", "identity"])) for _ in range(depth)]
            cut = int(rng.integers(1, depth - 1)) if depth > 2 else 1
            net = build_sequential(widths, acts,
                                   {"front": (0, cut), "back": (cut, depth)},
                                   seed=rng)
        if identity_only:
            # Grid-valued parameters make every partial sum exactly
            # representable, so the equality check is immune to the
            # summation-order changes a narrower matmul produces.
            set_dyadic(net, rng)
        graph = build_groups(net)
        plan, pairs = _fuzz_plan(rng, net, graph)
        before = net.param_count()
        pruned, _ = apply_prune(net, graph, plan)
        report = verify_consistency(pruned)
        assert report.ok, report.summary()
        assert before - pruned.param_count() == plan.predicted_removed
        if identity_only:
            batch = dyadic(rng, (4, net.layers[0].in_dim))
        else:
            batch = rng.uniform(-1.0, 1.0, size=(4, net.layers[0].in_dim))
        got = forward(pruned, batch)[-1]
        want = _masked_outputs(net, pairs, batch)
        if identity_only:
            np.testing.assert_array_equal(got, want)
        else:
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)
    announce(6, True, f"{rounds} fuzzed plans: consistency, exact recount, "
                      f"and masked-forward oracle all held")


def test_criterion_7_l1_schedule_shrinks_group_norms():
    on = run_training(toy_config(epochs=50))
    off = run_training(toy_config(
        epochs=50, schedule=ScheduleConfig(lambda_weight=0.0)))
    l1_on = sum(group_l1_norm(on.net, g) for g in on.graph.groups)
    l1_off = sum(group_l1_norm(off.net, g) for g in off.graph.groups)
    ok = l1_on < l1_off
    announce(7, ok, f"50 epochs, same seed: total group L1 {l1_on:.6f} with "
                    f"the schedule vs {l1_off:.6f} without")
    assert ok


@pytest.fixture(scope="module")
def latent8_records():
    cfg = ExperimentConfig(
        model=ModelConfig(preset="autoencoder", latent_dim=8),
        dataset=DatasetConfig(kind="synthetic"), epochs=110, seed=0)
    return run_training(cfg).records


@pytest.fixture(scope="module")
def latent512_records():
    cfg = ExperimentConfig(
        model=ModelConfig(preset="autoencoder", latent_dim=512),
        dataset=DatasetConfig(kind="synthetic"), epochs=200, seed=0)
    return run_training(cfg).records


def test_criterion_8_desk_scale_dynamics(latent8_records, latent512_records):
    """Report-only: the reference findings come from far larger runs, so
    each sub-check prints PASS or DIVERGES instead of failing the build."""
    check_trace(latent8_records)
    check_trace(latent512_records)
    narrow = evaluate_hypotheses(latent8_records, window=20)
    # A 200-epoch run shares its first 110 epochs bitwise with a standalone
    # 110-epoch run, so one long run serves both wide-latent checks.
    wide_early = evaluate_hypotheses(
        [r for r in latent512_records if r.epoch <= 110], window=20)
    wide_full = evaluate_hypotheses(latent512_records, window=20)

    per_metric = {m: narrow.coupling_on_top[m] for m in ("grad", "fisher",
                                                         "bayes")}
    dethroned = not all(wide_early.coupling_on_top.values())
    crossed = sum(len(v) for v in wide_full.crossover_epochs.values()) >= 1

    labels = {
        "latent8-coupling-top": all(per_metric.values()),
        "latent512-dethroned": dethroned,
        "latent512-crossovers": crossed,
    }
    detail = ", ".join(f"{name}={'PASS' if ok else 'DIVERGES'}"
                       for name, ok in labels.items())
    metric_detail = " ".join(f"{m}:{'top' if v else 'not-top'}"
                             for m, v in per_metric.items())
    print(f"criterion 8: {detail} (soft, report-only; latent-8 late-window "
          f"leaders — {metric_detail})")


def test_criterion_9_end_to_end_pipeline(tmp_path):
    start = time.monotonic()
    cfg_path = tmp_path / "cfg.json"
    toy_config(epochs=5).save(cfg_path)
    run_dir = tmp_path / "run"
    codes = [main(["train", "--config", str(cfg_path), "--out", str(run_dir),
                   "--epochs", "5"])]
    pruned_dir = tmp_path / "pruned"
    codes.append(main(["prune", "--checkpoint", str(run_dir / "checkpoint.json"),
                       "--sparsity", "0.5", "--metric", "combined",
                       "--out", str(pruned_dir)]))
    ft_dir = tmp_path / "ft"
    codes.append(main(["finetune", "--checkpoint",
                       str(pruned_dir / "checkpoint.json"), "--config",
                       str(cfg_path), "--epochs", "2", "--out", str(ft_dir)]))
    codes.append(main(["verify", "--checkpoint",
                       str(ft_dir / "checkpoint.json")]))
    elapsed = time.monotonic() - start
    ok = codes == [0, 0, 0, 0] and elapsed < 60.0
    announce(9, ok, f"train->prune 50%->finetune->verify exit codes {codes} "
                    f"in {elapsed:.1f}s")
    assert ok
