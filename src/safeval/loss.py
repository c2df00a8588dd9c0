"""Trajectory discrepancy and the aggregate outer-loop objective.

The pairwise discrepancy is the time-averaged squared error

    mse(high, low) = (1/D) * integral_0^D |high(t) - low(t)|^2 dt

with |.| the Euclidean norm across channels, D the common duration, and the
integral discretized by the trapezoidal rule on the high-fidelity grid (the
low trajectory is first linearly resampled onto that grid). The aggregate
objective sums the pairwise discrepancy over every (task, parameter)
simulation pair plus any extra environment configurations (e.g. inner-loop
counterexamples) supplied by the caller, on (pairs, channels, steps) sample
arrays. It simulates in two batched calls per evaluation, not two calls per
pair: one high-fidelity call over the pairs whose ground truth is not
cached yet, the cache keyed by (task id or ``"extra"``, config values), and
one low-fidelity call over every pair. Every row of a batch is integrated
independently, so each pair's trajectories are the ones its own single-row
calls would give.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .core import (
    EnvironmentConfig,
    FidelitySetting,
    InvalidArgumentError,
    NumericalFailureError,
    Seed,
    SimulationDivergedError,
    Task,
    Trajectory,
    split_seed,
)
from .sim import AdapterProtocolError, SimulatorSpec, _diverged, simulate_batch
from .stl import SpecEvaluationError

__all__ = ["LossValue", "AggregateLossResult", "mse_loss", "aggregate_loss"]

# Mean squared trajectory discrepancy; finite and nonnegative.
LossValue = float

# What a failed loss evaluation may raise. Optimizers record these as an
# infinite loss and go on; anything else is a programming error and propagates.
LOSS_FAILURES = (
    SimulationDivergedError,
    AdapterProtocolError,
    NumericalFailureError,
    SpecEvaluationError,
)


def mse_loss(high: Trajectory, low: Trajectory) -> LossValue:
    """Time-averaged squared Euclidean distance between two trajectories."""
    if set(high.channels) != set(low.channels):
        raise InvalidArgumentError(
            f"channel sets differ: {sorted(high.channels)} vs {sorted(low.channels)}"
        )
    t0 = max(high.start_time, low.start_time)
    t1 = min(high.end_time, low.end_time)
    if not t1 > t0:
        raise InvalidArgumentError(
            f"trajectories do not overlap in time ([{high.start_time}, {high.end_time}] "
            f"vs [{low.start_time}, {low.end_time}])"
        )
    times = high.times()
    mask = (times >= t0 - 1e-12) & (times <= t1 + 1e-12)
    grid = times[mask]
    if len(grid) < 2:
        raise InvalidArgumentError("overlap contains fewer than 2 high-fidelity samples")
    low_times = low.times()
    lows = [np.interp(grid, low_times, low.channel(name)) for name in high.channels]
    return float(_mse_rows(high.samples[None, :, mask], np.array(lows)[None], grid)[0])


def _mse_rows(high: np.ndarray, low: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Discrepancy per pair of (pairs, channels, steps) sample arrays sampled at ``times``."""
    sq = ((high - low) ** 2).sum(axis=1)
    return np.trapezoid(sq, times, axis=-1) / (times[-1] - times[0])


@dataclass(frozen=True)
class AggregateLossResult:
    """Sum and per-evaluation mean of the pairwise trajectory losses."""

    total: LossValue
    pair_count: int
    per_task: tuple[tuple[str, float], ...]

    @property
    def mean(self) -> float:
        return self.total / self.pair_count if self.pair_count else 0.0


def check_task_weights(
    weights: Mapping[str, float] | None, tasks: Sequence[Task]
) -> dict[str, float]:
    """``weights`` as a dict; raises if it names a task id not in ``tasks``."""
    weights = dict(weights or {})
    unknown = set(weights) - {task.id for task in tasks}
    if unknown:
        raise InvalidArgumentError(f"weights name tasks that do not exist: {sorted(unknown)}")
    return weights


def aggregate_loss(
    spec: SimulatorSpec,
    f: FidelitySetting,
    tasks: Sequence[Task],
    extra_configs: Sequence[EnvironmentConfig] = (),
    seed: Seed = 0,
    weights: Mapping[str, float] | None = None,
    high_cache: dict[tuple[str, tuple[float, ...]], np.ndarray] | None = None,
) -> AggregateLossResult:
    """Summed high/low discrepancy over all task parameters plus extras.

    Each (task i, parameter j) pair contributes
    ``w_i * mse(high(p_ij), low(p_ij, f))``; ``extra_configs`` contribute
    the same summand with weight 1 under the pseudo-task id ``"extra"``;
    ``weights`` may name only ids in ``tasks``.
    Per-(i, j) seeds are derived from ``seed`` so results are reproducible,
    and ``high_cache`` lets a driver reuse the fidelity-independent
    high-fidelity runs: it maps (task id or ``"extra"``, config values) to
    that config's (channels, steps) sample array.

    All simulation is two batched calls: one high-fidelity call over the
    pairs missing from ``high_cache`` (skipped when none are missing), then
    one low-fidelity call at ``f`` over every pair. The cache gains the
    missing pairs' high runs once both calls succeed, the first run of a
    repeated key winning. A diverged pair raises
    :class:`SimulationDivergedError` naming the first such pair in pair
    order (tasks, then extras).
    """
    if not tasks and not extra_configs:
        raise InvalidArgumentError("aggregate_loss needs at least one task or extra config")
    if f.space.dimension != spec.fidelity_space.dimension:
        raise InvalidArgumentError("fidelity setting dimension mismatch")
    weights = check_task_weights(weights, tasks)
    groups = [(task.id, task.sampled_params, float(weights.get(task.id, 1.0))) for task in tasks]
    if extra_configs:
        groups.append(("extra", tuple(extra_configs), 1.0))
    pairs = [(task_id, j, cfg, w) for task_id, cfgs, w in groups for j, cfg in enumerate(cfgs)]
    e_rows = [cfg.values for _, _, cfg, _ in pairs]
    seeds = [split_seed(seed, task_id, j) for task_id, j, _, _ in pairs]
    keys = [(task_id, cfg.values) for task_id, _, cfg, _ in pairs]
    cache = {} if high_cache is None else high_cache
    highs = [cache.get(key) for key in keys]
    missing = [i for i, high in enumerate(highs) if high is None]

    ok = np.ones(len(pairs), dtype=bool)
    if missing:
        e_missing = [e_rows[i] for i in missing]
        fresh, ok_high = simulate_batch(spec, e_missing, None, [seeds[i] for i in missing])
        ok[missing] = ok_high
    lows, ok_low = simulate_batch(spec, e_rows, f, seeds)
    ok &= ok_low
    if not ok.all():
        task_id, j, cfg, _ = pairs[int(np.flatnonzero(~ok)[0])]
        raise SimulationDivergedError(
            f"simulation failed for task {task_id!r}, parameter index {j}: "
            f"{_diverged(spec, cfg)}"
        )

    for k, i in enumerate(missing):
        highs[i] = fresh[k]
        cache.setdefault(keys[i], fresh[k])
    pair_weights = np.array([w for *_, w in pairs])
    losses = pair_weights * _mse_rows(np.array(highs), lows, spec.grid_times())

    per_task: list[tuple[str, float]] = []
    start = 0
    for task_id, cfgs, _ in groups:
        per_task.append((task_id, math.fsum(losses[start : start + len(cfgs)])))
        start += len(cfgs)
    return AggregateLossResult(
        total=math.fsum(subtotal for _, subtotal in per_task),
        pair_count=len(pairs),
        per_task=tuple(per_task),
    )
