"""Phase-offset cosine schedule for per-group L1 pressure.

Group i of n receives the size-normalized coefficient

    lambda_i(t) = S(t, i) / sqrt(N_i),
    S(t, i) = lambda_min + (lambda_max - lambda_min) * (1 + cos(2 pi (t + phi_i) / T)) / 2,
    phi_i = (i / n) * T,

where t is the epoch counter and N_i the group's parameter count. The
implementation evaluates S as a convex combination of the endpoints and
reduces t modulo T first, so S hits lambda_min / lambda_max exactly and is
exactly periodic in t. The total objective is
``task + lambda_weight * sum_i lambda_i(t) * |theta_i|_1``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence

from .errors import ConfigurationError, NumericsError


@dataclass(frozen=True)
class ScheduleConfig:
    """Schedule constants. lambda_min / lambda_max default to 0.1x and 2.0x
    the base coefficient; ``warmup_epochs = 0`` disables the loss-weight
    ramp (when enabled, the weight rises linearly from 0 to ``lambda_weight``
    over that many epochs)."""

    lambda_base: float = 1e-5
    lambda_min: float | None = None
    lambda_max: float | None = None
    cycle_T: int = 20
    lambda_weight: float = 1.0
    warmup_epochs: int = 0

    def __post_init__(self) -> None:
        # Each check is written so that NaN fails it.
        if not 0 < self.lambda_base < math.inf:
            raise ConfigurationError("lambda_base must be positive and finite")
        if self.lambda_min is None:
            object.__setattr__(self, "lambda_min", 0.1 * self.lambda_base)
        if self.lambda_max is None:
            object.__setattr__(self, "lambda_max", 2.0 * self.lambda_base)
        if not 0 <= self.lambda_min <= self.lambda_max < math.inf:
            raise ConfigurationError(
                f"need 0 <= lambda_min <= lambda_max < inf, got "
                f"[{self.lambda_min}, {self.lambda_max}]")
        # An int past the float range would overflow the phase offsets.
        if not 1 <= self.cycle_T <= sys.float_info.max:
            raise ConfigurationError("cycle_T must be at least 1 and within the float range")
        object.__setattr__(self, "cycle_T", int(self.cycle_T))
        if not 0 <= self.lambda_weight < math.inf:
            raise ConfigurationError("lambda_weight must be non-negative and finite")
        if not 0 <= self.warmup_epochs < math.inf:
            raise ConfigurationError("warmup_epochs must be non-negative")
        object.__setattr__(self, "warmup_epochs", int(self.warmup_epochs))


def phase_offset(i: int, n: int, cycle_T: int) -> float:
    """Evenly spread offsets over one cycle: phi_i = (i / n) * T."""
    if not 0 <= i < n:
        raise ConfigurationError(f"group index {i} out of range [0, {n})")
    return (i / n) * cycle_T


def lambda_coefficient(t: int, i: int, n: int, n_params: int,
                       cfg: ScheduleConfig) -> float:
    """The L1 coefficient for group i of n at epoch t, scaled by 1/sqrt(N_i)."""
    t = int(t)
    if t < 0:
        raise ConfigurationError(f"epoch counter must be non-negative, got {t}")
    if n_params < 1:
        raise ConfigurationError("group parameter count must be at least 1")
    phi = phase_offset(i, n, cfg.cycle_T)
    # Integer reduction keeps the schedule exactly periodic in t.
    u = (t % cfg.cycle_T) + phi
    w = 0.5 * (1.0 + math.cos(math.tau * (u / cfg.cycle_T)))
    s = w * cfg.lambda_max + (1.0 - w) * cfg.lambda_min
    return s / math.sqrt(n_params)


def schedule_row(t: int, param_counts: Sequence[int],
                 cfg: ScheduleConfig) -> list[float]:
    """lambda_i(t) for every group, in group order; the groups are counted
    from ``param_counts``."""
    return [lambda_coefficient(t, i, len(param_counts), count, cfg)
            for i, count in enumerate(param_counts)]


def lambda_weight_at(epoch: int, cfg: ScheduleConfig) -> float:
    """The global loss weight at a 1-based epoch, honoring the warm-up ramp."""
    if epoch < 1:
        raise ConfigurationError(f"epoch must be >= 1, got {epoch}")
    if cfg.warmup_epochs <= 0:
        return cfg.lambda_weight
    ramp = min(1.0, (epoch - 1) / cfg.warmup_epochs)
    return cfg.lambda_weight * ramp


def total_loss(task: float, l1: float, weight: float) -> float:
    """task + weight * l1, with a finiteness guard."""
    value = task + weight * l1
    if not math.isfinite(value):
        raise NumericsError(
            f"non-finite total loss (task={task}, l1={l1}, weight={weight})")
    return value
