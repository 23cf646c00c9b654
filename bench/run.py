#!/usr/bin/env python3
"""prunescope benchmark runner.

Usage, from the repository root:

    python3 bench/run.py --workload ae8-train --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped except
one timestamp per optimizer step. ``--trace 1`` alternates untraced units
with units whose library calls are wrapped in span timers, and reports the
per-layer metrics. The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it is a JSON report with the machine record, sample counts, test
MSE and parameter fingerprint. Metric names and units come from
BENCHMARK.json at the repository root. The library is imported from
``src/`` beside this directory and nowhere else.
"""

from __future__ import annotations

import argparse
import bisect
import functools
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"

# One BLAS thread: toy-train runs faster with 1 OpenBLAS thread than with 2
# on a 2-core machine, and an unpinned pool measures the scheduler.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_SAMPLES = 16
MIN_UNITS = 3


class BenchError(Exception):
    """The benchmark cannot run here; reported without a result line."""


def pin_threads() -> int:
    threads = max(1, min(BLAS_THREADS, os.cpu_count() or 1))
    for var in BLAS_ENV:
        os.environ[var] = str(threads)
    return threads


# Prints the modules the interpreter loaded at start-up, then imports numpy
# and prunescope; run under ``-X importtime``.
IMPORT_PROBE = ("import sys; print(*sys.modules); "
                "sys.path.insert(0, sys.argv[1]); "
                "import numpy, prunescope.harness.cli")
IMPORT_PREFIX = "import "


def import_library() -> None:
    """Import numpy and prunescope from ``src/`` and nowhere else."""
    if not (SRC / "prunescope" / "__init__.py").is_file():
        raise BenchError(f"no prunescope package under {SRC}")
    sys.path.insert(0, str(SRC))
    os.environ.pop("PRUNESCOPE_SEED", None)  # the config's seed must win
    import prunescope.harness.cli  # noqa: F401
    origin = Path(sys.modules["prunescope"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise BenchError(f"prunescope was imported from {origin}, not {SRC}")


def import_seconds() -> dict[str, float]:
    """The self time of each module that importing numpy and prunescope
    loads, in a fresh interpreter, keyed ``"import <module>"``.

    An import happens once per process, so each sample runs in its own.
    ``-X importtime`` reports a module's self time: its import minus the
    imports it starts. Their sum is the time of the whole import."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise BenchError(f"import probe failed:\n{proc.stderr[-2000:]}")
    preloaded = set(proc.stdout.split())
    seconds = {}
    for line in proc.stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) == 3 and fields[0].strip().isdigit():
            module = fields[2].strip()
            if module not in preloaded:
                seconds[IMPORT_PREFIX + module] = int(fields[0]) / 1e6
    if not seconds:
        raise BenchError("the import probe reported no module")
    return seconds


def setup_sample(workload, seed: int) -> dict[str, float]:
    """One set-up sample: the import probe, then the workload's set-up,
    each part timed on its own."""
    return import_seconds() | workload.setup(seed)


def machine_record(threads: int) -> dict:
    import numpy as np
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": "unknown", "version": "unknown"}
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": threads}


class StepClock:
    """The one hook of the untraced run: a timestamp after each optimizer
    step, kept with the optimizer that stepped."""

    def __init__(self) -> None:
        self.stamps: list[tuple[float, object]] = []
        self._undo: list = []

    def install(self, classes) -> None:
        for cls in classes:
            original = cls.step

            def step(opt, *args, _original=original, **kwargs):
                _original(opt, *args, **kwargs)
                self.stamps.append((time.perf_counter(), opt))
            cls.step = step
            self._undo.append((cls, original))

    def take(self) -> list[tuple[float, int]]:
        """The stamps recorded since the last call, each with the ordinal of
        its optimizer among them, so that no optimizer is kept alive."""
        taken, self.stamps = self.stamps, []
        ordinals: dict[int, int] = {}
        return [(t, ordinals.setdefault(id(opt), len(ordinals)))
                for t, opt in taken]

    def uninstall(self) -> None:
        for cls, original in self._undo:
            cls.step = original
        self._undo = []


def segments(unit, stamps) -> tuple[list[float], list[bool]]:
    """Split a unit's wall time at its optimizer steps.

    Returns the segment durations and, for each, whether it lies between
    two steps of the same optimizer, that is, whether it is a step interval.
    The first and last segments, and the gap between two training calls,
    are not step intervals."""
    times = [unit.start] + [t for t, _ in stamps] + [unit.end]
    owners = [None] + [opt for _, opt in stamps] + [None]
    durations = [b - a for a, b in zip(times, times[1:])]
    is_step = [a is not None and a == b for a, b in zip(owners, owners[1:])]
    return durations, is_step


class BestProfile:
    """Each segment's shortest duration over the units of a run.

    Every unit does the same work on the same inputs, so its segments line
    up one to one, and the work the program does in a segment, including
    its collector passes (see :class:`GcWatch`), is the same in every unit.
    Load from outside the process, which comes in bursts on a shared
    machine, makes some instances of a segment slower; the minimum drops
    them. The profile is updated unit by unit, so memory does not grow with
    the number of units."""

    def __init__(self) -> None:
        self.best: list[float] = []
        self.is_step: list[bool] = []

    def add(self, unit, stamps) -> None:
        durations, is_step = segments(unit, stamps)
        if not self.best:
            self.best, self.is_step = durations, is_step
        elif is_step != self.is_step:
            raise BenchError("units differ in their sequence of optimizer steps")
        else:
            self.best = [min(a, b) for a, b in zip(self.best, durations)]

    def steps(self) -> list[float]:
        return [d for d, step in zip(self.best, self.is_step) if step]


class GcWatch:
    """Records the cyclic collector's passes during a unit: the segment each
    starts in and their total time. Each unit starts after a full
    collection, so a program whose allocations are the same in every unit
    has its passes in the same segments of every unit, where the best
    profile keeps them. The report says whether that held."""

    def __init__(self) -> None:
        self.patterns: set[tuple[int, ...]] = set()
        self.max_unit_s = 0.0
        self._starts: list[float] = []
        self._seconds = 0.0
        self._begun = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        now = time.perf_counter()
        if phase == "start":
            self._begun = now
            self._starts.append(now)
        else:
            self._seconds += now - self._begun

    def clear(self) -> None:
        """Forget the passes so far; they were not in a unit."""
        self._starts, self._seconds = [], 0.0

    def add(self, stamps) -> None:
        """File the passes since the last call under the unit's segments."""
        times = [t for t, _ in stamps]
        self.patterns.add(tuple(bisect.bisect(times, t) for t in self._starts))
        self.max_unit_s = max(self.max_unit_s, self._seconds)
        self.clear()

    def summary(self) -> dict:
        return {"gc_passes_aligned": len(self.patterns) <= 1,
                "gc_ms_per_unit_max": 1e3 * self.max_unit_s}


def measure_untraced(workload, seed: int,
                     n_units: int) -> tuple[list, dict, dict]:
    """Run ``n_units`` units with one set-up sample before the first and
    the others spread evenly between the units."""
    from prunescope import netcore
    setups = [setup_sample(workload, seed)]
    workload.prepare()
    clock, watch = StepClock(), GcWatch()
    clock.install([getattr(netcore, name) for name in ("Adam", "SGD")
                   if hasattr(netcore, name)])
    gc.callbacks.append(watch)
    units, profile = [], BestProfile()
    sample_before = {k * n_units // SETUP_SAMPLES
                     for k in range(1, SETUP_SAMPLES)} - {0}
    try:
        for i in range(n_units):
            if i in sample_before:
                setups.append(setup_sample(workload, seed))
            gc.collect()
            clock.take()
            watch.clear()
            units.append(workload.run_unit())
            stamps = clock.take()
            profile.add(units[-1], stamps)
            watch.add(stamps)
    finally:
        gc.callbacks.remove(watch)
        clock.uninstall()
    steps = profile.steps()
    if len(steps) < 10:
        raise BenchError(f"a unit has only {len(steps)} step intervals")
    best = {part: min(sample[part] for sample in setups if part in sample)
            for part in set().union(*setups)}
    setup_parts = {"import": sum(v for part, v in best.items()
                                 if part.startswith(IMPORT_PREFIX))}
    setup_parts |= {part: best[part] for part in setups[0]
                    if not part.startswith(IMPORT_PREFIX)}
    values = {
        "train_steps_per_s": len(steps) / sum(steps),
        "step_ms_p50": 1e3 * statistics.median(steps),
        "step_ms_p90": 1e3 * statistics.quantiles(steps, n=10)[-1],
        "wall_s": sum(profile.best),
        "setup_s": sum(setup_parts.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    samples = {"units": len(units), "step_intervals_per_unit": len(steps),
               "segments_per_unit": len(profile.best),
               "best_unit_wall_s": min(unit.wall_s for unit in units),
               "setup_samples": len(setups), "setup_parts_s": setup_parts,
               **watch.summary()}
    return units, values, samples


def span_values(stats, per: float) -> dict[str, float]:
    """The per-layer span metrics of one tracer, each divided by ``per``."""
    import layers
    values = {}
    for target in layers.TARGETS:
        st = stats[target.name]
        values[f"{target.name}.calls"] = st.calls / per
        values[f"{target.name}.self_s"] = st.self_s / per
        for suffix, _ in target.counters:
            if suffix != layers.FLOPS:
                values[f"{target.name}.{suffix}"] = st.counts[suffix] / per
    return values


def measure_traced(workload, seed: int,
                   n_units: int) -> tuple[list, dict, dict]:
    """Set up once under the tracer, then alternate untraced and traced
    units, ``n_units`` of them and at least 2 of each."""
    import layers
    from spans import Tracer
    setup_tracer, tracer = Tracer(), Tracer()
    with setup_tracer.installed(layers.TARGETS, (layers.PACKAGE,)):
        workload.setup(seed)
    workload.prepare()
    enter = functools.partial(tracer.installed, layers.TARGETS, (layers.PACKAGE,))
    walls = {False: [], True: []}
    units = []
    for i in range(max(4, n_units)):
        traced = i % 2 == 1
        unit = workload.run_unit(enter) if traced else workload.run_unit()
        units.append(unit)
        walls[traced].append(unit.wall_s)
    n = len(walls[True])
    per_unit = span_values(tracer.stats, n)
    once = span_values(setup_tracer.stats, 1)
    values = {name: per_unit[name] + once[name] for name in per_unit}
    stats = tracer.stats
    arith = ("netcore.forward", "netcore.backward")
    flops = sum(stats[name].counts[layers.FLOPS] for name in arith)
    arith_s = sum(stats[name].self_s for name in arith)
    values.update({
        "netcore.flops_per_step": layers.step_flops(workload.net, workload.cfg.batch_size),
        "netcore.param_bytes": 8 * workload.net.param_count(),
        "netcore.gflops": flops / arith_s / 1e9 if arith_s else 0.0,
        "trace.overhead_frac": min(walls[True]) / min(walls[False]) - 1.0,
        "trace.self_sum_frac": (sum(st.self_s for st in stats.values())
                                / sum(walls[True])),
        "quality.test_mse": units[0].test_mse,
    })
    samples = {"units": len(units), "traced_units": n,
               "missing": sorted(set(tracer.missing))}
    return units, values, samples


def load_spec() -> dict:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}") from exc


def run_one(args) -> int:
    threads = pin_threads()
    spec = load_spec()
    import_library()
    import workloads
    if args.workload not in workloads.NAMES:
        raise BenchError(f"unknown workload {args.workload!r}")
    workload = workloads.make(args.workload, WORK_ROOT)
    n_units = max(MIN_UNITS, round(args.seconds * workload.units_per_s))
    try:
        if args.trace:
            units, values, samples = measure_traced(workload, args.seed, n_units)
            wanted = spec["per_layer"]
        else:
            units, values, samples = measure_untraced(workload, args.seed,
                                                      n_units)
            wanted = spec["end_to_end"]
    finally:
        workload.close()
    checks = [ok for unit in units for _, ok in unit.checks]
    failed_checks = sorted({name for unit in units
                            for name, ok in unit.checks if not ok})
    attempted, failed = len(checks), checks.count(False)
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "machine": machine_record(threads), "samples": samples,
        "test_mse": units[0].test_mse, "fingerprint": units[0].fingerprint,
        "failed_frac": failed / attempted, "failed_checks": failed_checks,
    }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": attempted > 0 and failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Run every workload in its own process and print one table."""
    totals = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in load_spec()["workloads"]:
        name = workload["name"]
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            raise BenchError(f"{name} exited with {proc.returncode}:\n"
                             f"{proc.stderr[-4000:]}")
        *_, report_line, result_line = proc.stdout.splitlines()
        report = json.loads(report_line)["report"]
        result = json.loads(result_line)
        print(f"{name}  (seed {args.seed}, {report['samples']})")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:<44} {entry['value']:>14.6g} {entry['unit']}")
            totals["metrics"][f"{name}.{metric}"] = entry
        print(f"  {'failed_frac':<44} {report['failed_frac']:>14.6g} share"
              f"  ({result['failed']} of {result['attempted']} checks)")
        print(f"  {'test_mse':<44} {report['test_mse']:>14.6g}"
              f"  fingerprint {report['fingerprint'][:16]}")
        totals["correct"] = totals["correct"] and result["correct"]
        totals["attempted"] += result["attempted"]
        totals["failed"] += result["failed"]
    print(json.dumps(totals))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            return run_all(args)
        return run_one(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
