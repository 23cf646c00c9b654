"""Tests for the benchmark's span tracer, step clock, best profile and probes."""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path
from types import SimpleNamespace

import pytest

import layers
import run
from spans import Target, Tracer


class FakeClock:
    def __init__(self, times):
        self.times = list(times)

    def __call__(self):
        return self.times.pop(0)


def test_self_time_subtracts_only_direct_children():
    # outer 0..10 holds mid 1..7 (which holds leaf 2..5) and leaf 8..9
    tracer = Tracer(clock=FakeClock([0, 1, 2, 5, 7, 8, 9, 10]))
    with tracer.span("outer"):
        with tracer.span("mid"):
            with tracer.span("leaf"):
                pass
        with tracer.span("leaf"):
            pass
    st = tracer.stats
    assert (st["outer"].calls, st["outer"].total_s, st["outer"].self_s) == (1, 10, 3)
    assert (st["mid"].calls, st["mid"].total_s, st["mid"].self_s) == (1, 6, 3)
    assert (st["leaf"].calls, st["leaf"].total_s, st["leaf"].self_s) == (2, 4, 4)
    assert sum(s.self_s for s in st.values()) == st["outer"].total_s


def test_span_closes_when_the_call_raises():
    tracer = Tracer(clock=FakeClock([0, 1, 4, 6]))
    with pytest.raises(ValueError):
        with tracer.span("outer"):
            with tracer.span("inner"):
                raise ValueError
    assert tracer.stats["outer"].self_s == 3
    assert tracer.stats["inner"].self_s == 3


@pytest.fixture
def fake_package(monkeypatch):
    """fakepkg.core defines f and Box.get; fakepkg.user imports f by name."""
    pkg = types.ModuleType("fakepkg")
    core = types.ModuleType("fakepkg.core")
    user = types.ModuleType("fakepkg.user")

    def f(x, path=None):
        return x + 1

    class Box:
        def get(self):
            return core.f(1)

    core.f, core.Box = f, Box
    user.f = f
    exec("def call(x):\n    return f(x)\n", user.__dict__)
    pkg.core, pkg.user = core, user
    for module in (pkg, core, user):
        monkeypatch.setitem(sys.modules, module.__name__, module)
    return pkg


def test_every_binding_and_method_is_wrapped_then_restored(fake_package):
    core, user = fake_package.core, fake_package.user
    original_f, original_get = core.f, core.Box.get
    tracer = Tracer()
    targets = [Target("core.f", ("fakepkg.core:f",),
                      (("bytes", lambda args, kwargs, result: result),)),
               Target("core.get", ("fakepkg.core:Box.get",))]
    with tracer.installed(targets, ("fakepkg",)):
        assert user.call(1) == 2
        assert core.Box().get() == 2
    assert tracer.stats["core.f"].calls == 2
    assert tracer.stats["core.f"].counts["bytes"] == 4
    assert tracer.stats["core.get"].calls == 1
    assert core.f is original_f and user.f is original_f
    assert core.Box.get is original_get
    assert tracer.missing == []


def test_missing_names_report_zero_calls(fake_package):
    tracer = Tracer()
    targets = [Target("core.gone", ("fakepkg.core:gone",)),
               Target("core.method_gone", ("fakepkg.core:Box.gone",
                                           "fakepkg.core:NoClass.get")),
               Target("nomodule.f", ("fakepkg.nomodule:f",))]
    with tracer.installed(targets, ("fakepkg",)):
        fake_package.user.call(1)
    assert {name: st.calls for name, st in tracer.stats.items()} == {
        "core.gone": 0, "core.method_gone": 0, "nomodule.f": 0}
    assert len(tracer.missing) == 4


def test_a_failing_counter_counts_zero(fake_package):
    def broken(args, kwargs, result):
        raise OSError("file vanished")

    tracer = Tracer()
    with tracer.installed([Target("core.f", ("fakepkg.core:f",),
                                  (("bytes", broken),))], ("fakepkg",)):
        fake_package.user.call(1)
    assert tracer.stats["core.f"].calls == 1
    assert tracer.stats["core.f"].counts["bytes"] == 0


def test_counter_time_is_the_spans_own_not_its_callers():
    now = [0.0]

    def f():
        now[0] += 1.0

    def slow_count(args, kwargs, result):
        now[0] += 2.0
        return 7

    tracer = Tracer(clock=lambda: now[0])
    traced = tracer.wrap("f", f, (("bytes", slow_count),))
    with tracer.span("caller"):
        traced()
    st = tracer.stats
    assert (st["f"].self_s, st["f"].counts["bytes"]) == (3.0, 7)
    assert st["caller"].self_s == 0.0


def test_step_clock_stamps_each_step_with_its_optimizer(monkeypatch):
    times = iter([1.0, 1.5])
    monkeypatch.setattr(run.time, "perf_counter", lambda: next(times))

    class Opt:
        def step(self, net):
            pass

    original = Opt.step
    clock = run.StepClock()
    clock.install([Opt])
    first, second = Opt(), Opt()
    first.step(None)
    second.step(None)
    clock.uninstall()
    assert clock.take() == [(1.0, 0), (1.5, 1)]
    assert Opt.step is original


def test_segments_count_only_gaps_between_steps_of_one_optimizer():
    a, b = 0, 1
    unit = SimpleNamespace(start=0.0, end=10.0)
    stamps = [(1.0, a), (2.0, a), (4.0, a), (7.0, b), (8.0, b)]
    durations, is_step = run.segments(unit, stamps)
    assert durations == [1.0, 1.0, 2.0, 3.0, 1.0, 2.0]
    assert is_step == [False, True, True, False, True, False]


def test_best_profile_takes_each_segment_at_its_fastest():
    a = 0
    units = [SimpleNamespace(start=0.0, end=5.0),
             SimpleNamespace(start=10.0, end=14.0)]
    stamps = [[(1.0, a), (3.0, a)], [(12.0, a), (13.0, a)]]
    profile = run.BestProfile()
    for unit, unit_stamps in zip(units, stamps):
        profile.add(unit, unit_stamps)
    assert (profile.best, profile.is_step) == ([1.0, 1.0, 1.0],
                                               [False, True, False])
    assert profile.steps() == [1.0]
    with pytest.raises(run.BenchError):
        profile.add(units[0], [(1.0, a)])


def test_gc_watch_files_passes_under_their_segments(monkeypatch):
    now = [0.0]
    monkeypatch.setattr(run.time, "perf_counter", lambda: now[0])
    watch = run.GcWatch()

    def unit(*passes):
        for start in passes:
            now[0] = start
            watch("start", {})
            now[0] = start + 0.5
            watch("stop", {})
        watch.add([(1.0, 0), (2.0, 0), (3.0, 0)])

    unit(1.5)
    unit(1.2)
    assert watch.summary() == {"gc_passes_aligned": True,
                               "gc_ms_per_unit_max": 500.0}
    unit(2.5)
    assert watch.summary()["gc_passes_aligned"] is False


def test_import_probe_times_each_module_the_import_loads():
    seconds = run.import_seconds()
    assert {"import numpy", "import prunescope.harness.cli"} <= set(seconds)
    assert "import sys" not in seconds  # loaded before the probe's import
    assert all(value >= 0 for value in seconds.values())


def test_benchmark_json_lists_every_per_layer_metric():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == layers.per_layer_names()
