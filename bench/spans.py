"""Span timers that wrap a library's public functions and methods from outside.

A :class:`Tracer` replaces each named function with a wrapper that records
one span per call: its duration, and its self time, which is the duration
minus the time covered by wrapped calls made inside it. Calls run on one
thread and nest strictly, so the covered part is the sum of the direct
children's durations. Spans are aggregated per name in memory (calls, self
time, total time, and optional counters such as bytes) rather than kept one
by one, so a run of a million short calls stays small. Counters run inside
their span, so their cost is the span's own self time and never its
caller's.

Libraries bind names with ``from module import name``, so wrapping only the
defining module would miss most calls. :meth:`Tracer.install` therefore
replaces every module-level binding of the original object in the given
packages, and wraps methods on their class. A target whose name no longer
exists is still reported, with zero calls.

Only the standard library is used, so this module imports nothing that
starts BLAS threads.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator

# A counter maps a call's (args, kwargs, result) to an amount to add.
Counter = Callable[[tuple, dict, object], int]


@dataclass(frozen=True)
class Target:
    """One span name and where its code lives.

    ``locations`` are ``"package.module:function"`` or
    ``"package.module:Class.method"`` strings; several locations may share a
    span (for example ``Adam.step`` and ``SGD.step``). ``counters`` maps a
    metric suffix such as ``"bytes"`` to a function of the call.
    """

    name: str
    locations: tuple[str, ...]
    counters: tuple[tuple[str, Counter], ...] = ()


@dataclass
class SpanStats:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    counts: dict[str, int] = field(default_factory=dict)


class Tracer:
    """Aggregating span recorder; see the module docstring."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.stats: dict[str, SpanStats] = {}
        self.missing: list[str] = []
        self._child_time: list[float] = []  # one slot per open span
        self._undo: list[Callable[[], None]] = []

    # -- recording ---------------------------------------------------------

    def _open(self) -> float:
        self._child_time.append(0.0)
        return self.clock()

    def _close(self, name: str, start: float) -> None:
        duration = self.clock() - start
        children = self._child_time.pop()
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = SpanStats()
        st.calls += 1
        st.total_s += duration
        st.self_s += duration - children
        if self._child_time:
            self._child_time[-1] += duration

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record the enclosed block as one span named ``name``."""
        start = self._open()
        try:
            yield
        finally:
            self._close(name, start)

    def wrap(self, name: str, func: Callable,
             counters: tuple[tuple[str, Counter], ...] = ()) -> Callable:
        """Return ``func`` wrapped so that each call records a span."""
        open_, close = self._open, self._close

        @functools.wraps(func)
        def traced(*args, **kwargs):
            start = open_()
            try:
                result = func(*args, **kwargs)
                for suffix, count in counters:
                    self._add_count(name, suffix, count, args, kwargs, result)
            finally:
                close(name, start)
            return result

        return traced

    def _add_count(self, name: str, suffix: str, count: Counter,
                   args: tuple, kwargs: dict, result: object) -> None:
        try:
            amount = int(count(args, kwargs, result))
        except (AttributeError, TypeError, ValueError, IndexError,
                KeyError, OSError):
            amount = 0
        counts = self.stats.setdefault(name, SpanStats()).counts
        counts[suffix] = counts.get(suffix, 0) + amount

    # -- installing --------------------------------------------------------

    def install(self, targets: list[Target], packages: tuple[str, ...]) -> None:
        """Wrap every target; rebind plain functions in all loaded modules
        whose name is one of ``packages`` or lies below one of them."""
        self.missing = []
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and any(
                       name == p or name.startswith(p + ".") for p in packages)]
        for target in targets:
            self.stats.setdefault(target.name, SpanStats())
            for suffix, _ in target.counters:
                self.stats[target.name].counts.setdefault(suffix, 0)
            for location in target.locations:
                if not self._install_one(target, location, modules):
                    self.missing.append(location)

    @contextmanager
    def installed(self, targets: list[Target],
                  packages: tuple[str, ...]) -> Iterator["Tracer"]:
        """Wrap the targets for the duration of a ``with`` block."""
        self.install(targets, packages)
        try:
            yield self
        finally:
            self.uninstall()

    def _install_one(self, target: Target, location: str,
                     modules: list) -> bool:
        module_name, _, qualname = location.partition(":")
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            return False
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part, None)
            if owner is None:
                return False
        if path:  # a method: wrap it once, on its class
            original = vars(owner).get(attr)
            if original is None:
                return False
            setattr(owner, attr, self.wrap(target.name, original, target.counters))
            self._undo.append(functools.partial(setattr, owner, attr, original))
            return True
        original = getattr(owner, attr, None)
        if original is None:
            return False
        wrapper = self.wrap(target.name, original, target.counters)
        for module in modules + [owner]:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    self._undo.append(
                        functools.partial(setattr, module, key, original))
        return True

    def uninstall(self) -> None:
        """Restore every binding that :meth:`install` replaced."""
        while self._undo:
            self._undo.pop()()
