#!/usr/bin/env python3
"""Measure what the second lane buys on this host right now.

Runs at one BLAS thread (``netcore.one_blas_thread``) and through the
library's own ``netcore.second_lane``, so it measures the path training
takes. For three pairs of calls it prints the two-thread speedup: the time
of running both calls one after the other on this thread, divided by the
time of one stage that submits the first call to the lane and runs the
second here.

* product||product: two (128, 784) by (784, 256) products through
  ``np.dot``, as ``netcore.forward`` runs the first layer of the
  autoencoder's forward pass at batch 128.
* stream||stream: two element-wise passes, ``np.square`` then ``np.abs``,
  over a latent-8 autoencoder's 470,552-element gradient arena into a
  buffer, the passes ``importance.Reader.read`` makes chunk by chunk into
  the two rows of its buffer.
* product||stream: the lane runs the stream and this thread the product,
  as the read stage runs beside ``forward`` in ``run_training``.

Two products side by side need two free cores, so product||product near
2x says the second vCPU was free, and near 1x that it was busy (or that the
lane is off, as with one usable core). The last line records that reading
for a bench session. A product beside a stream overlaps fully when it reads
(p + s) / max(p, s), about 1.55x for these two calls. Each figure is the
median over ``--reps`` rounds; a round times the two calls in turn, then
side by side. The script starts no thread but the lane's worker.

    PYTHONPATH=src python3 scripts/lane_probe.py
    PYTHONPATH=src python3 scripts/lane_probe.py --reps 400
"""

from __future__ import annotations

import argparse
import statistics
import time
from typing import Callable

import numpy as np

from prunescope import netcore

FREE = 1.4  # product||product at or above this reads as a free second vCPU
ARENA = 470_552  # the latent-8 autoencoder's parameter count


def product(rng: np.random.Generator) -> Callable[[], None]:
    x, w, out = rng.random((128, 784)), rng.random((256, 784)), np.empty((128, 256))
    return lambda: np.dot(x, w.T, out=out)


def stream(rng: np.random.Generator) -> Callable[[], None]:
    g, buf = rng.standard_normal(ARENA), np.empty(ARENA)

    def run() -> None:
        np.square(g, out=buf)
        np.abs(g, out=buf)
    return run


def seconds(func: Callable[[], None]) -> float:
    start = time.perf_counter()
    func()
    return time.perf_counter() - start


def speedup(on_lane: Callable[[], None], here: Callable[[], None],
            reps: int) -> tuple[float, float]:
    """Median milliseconds of the two calls in turn and side by side."""
    def in_turn() -> None:
        on_lane()
        here()

    def side_by_side() -> None:
        with netcore.second_lane(ARENA) as submit:
            submit(on_lane)
            here()

    side_by_side()  # starts the worker and warms both calls
    serial, paired = [], []
    for _ in range(reps):
        serial.append(seconds(in_turn))
        paired.append(seconds(side_by_side))
    return 1e3 * statistics.median(serial), 1e3 * statistics.median(paired)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reps", type=int, default=200,
                        help="rounds per pair; the medians are printed (default 200)")
    args = parser.parse_args()
    if args.reps < 1:
        parser.error("--reps must be at least 1")
    rng = np.random.default_rng(0)
    pairs = {"product||product": (product(rng), product(rng)),
             "stream||stream": (stream(rng), stream(rng)),
             "product||stream": (stream(rng), product(rng))}
    with netcore.one_blas_thread():
        blas = netcore.blas_runtime()
        lane = "on" if netcore._lane_rule() else "off"
        print(f"blas: {blas.name} {blas.version} {blas.core}, {blas.threads} thread; "
              f"lane: {lane} ({netcore._usable_cores()} usable cores)")
        print(f"{'pair':<18} {'in turn ms':>10} {'side by side ms':>16} {'speedup':>8}")
        ratios = {}
        for name, (on_lane, here) in pairs.items():
            serial, paired = speedup(on_lane, here, args.reps)
            ratios[name] = serial / paired
            print(f"{name:<18} {serial:>10.3f} {paired:>16.3f} {ratios[name]:>7.2f}x")
    free = ratios["product||product"] >= FREE
    print(f"second vCPU: {'free' if free else 'busy'} "
          f"(product||product {'>=' if free else '<'} {FREE}x)")


if __name__ == "__main__":
    main()
