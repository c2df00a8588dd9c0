"""Empirical estimators and planners for the framework's guarantees.

This module turns the framework's smoothness, sensitivity, sample-complexity
and convergence statements into things that run:

* Lipschitz constants of the robustness landscape (in the environment and in
  the fidelity directions) and of the trajectory-discrepancy loss, estimated
  as the maximum observed slope over sampled pairs plus tight near-pairs.
* A finite-difference sensitivity operator for the optimal counterexample's
  robustness with respect to fidelity knobs.
* The Hoeffding per-iteration sample bound n >= (2 L^2 / eps^2) * ln(2/delta)
  and the total-sample accounting product N = n * K1 * K2.
* A best-so-far stationarity check used as the convergence diagnostic for
  both optimization loops.

All estimators refuse to run with the observation-noise knob active unless
an averaging repeat count is supplied.

The Lipschitz estimators are row plans: a :class:`RowPlan` holds the
(environment, fidelity, seed, high flag) rows an estimate needs and the
reduction of their simulator output to the estimate. :func:`run_plans` runs
the rows of many plans in one simulator call and reduces each plan in turn,
so errors raised while reducing come in plan order. Each public estimator is
its plan run on its own; the campaign's analysis summary runs all three
plans in one call.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from .core import (
    Checked,
    EnvironmentConfig,
    ExtendedFloat,
    FidelitySetting,
    InvalidArgumentError,
    Seed,
    SimulationDivergedError,
    Task,
    latin_hypercube_unit,
    rng_from_seed,
    split_seed,
)
from .falsify import FalsifyBudget, falsify, falsify_many
from .loss import _mse_rows
from .sim import SimulatorSpec, simulate_batch_multi_f
from .stl import SafetySpec, robustness_batch

__all__ = [
    "LipschitzEstimate",
    "SensitivityReport",
    "SampleComplexityPlan",
    "ConvergenceReport",
    "RowPlan",
    "run_plans",
    "lipschitz_env_plan",
    "lipschitz_fidelity_plan",
    "lipschitz_loss_plan",
    "estimate_lipschitz_env",
    "estimate_lipschitz_fidelity",
    "estimate_lipschitz_loss",
    "sensitivity_plan",
    "sensitivity",
    "hoeffding_n",
    "total_samples",
    "sample_complexity_plan",
    "convergence_report",
]

_NEAR_PAIR_DISTANCE = 1e-3


@dataclass(frozen=True)
class LipschitzEstimate(Checked):
    """Maximum observed slope over sampled pairs."""

    constant: float = field(metadata={"ge": 0})
    pairs_used: int
    max_pair: tuple[tuple[float, ...], tuple[float, ...]]


@dataclass(frozen=True)
class SensitivityReport:
    """Finite-difference sensitivity of the best counterexample to fidelity knobs.

    The counterexample is frozen at the stencil center; ``total_derivative``
    additionally re-falsifies at the stencil points when requested, exposing
    the difference between the frozen-point and total variations.
    """

    fidelity: tuple[float, ...]
    gradient: tuple[float, ...]
    step: float
    method: str
    boundary_clipped: tuple[bool, ...]
    base_config: tuple[float, ...]
    base_robustness: float
    total_derivative: tuple[float, ...] | None = None


@dataclass(frozen=True)
class SampleComplexityPlan(Checked):
    """Hoeffding-derived per-iteration sample count and total budget."""

    epsilon: float
    delta: float
    lipschitz: float
    n_per_iteration: int
    K1: int
    K2: int
    total_samples: int

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.total_samples != self.n_per_iteration * self.K1 * self.K2:
            raise InvalidArgumentError("total_samples must equal n * K1 * K2")


@dataclass(frozen=True)
class ConvergenceReport(Checked):
    """Best-so-far stationarity over a trailing window."""

    converged: bool
    gap: ExtendedFloat  # inf when the window starts at a failed (+inf) value
    window: int


@dataclass(frozen=True)
class RowPlan:
    """Simulator rows and the reduction of their output.

    ``reduce(samples, ok)`` receives the rows' samples and finite flags in
    row order.
    """

    e_rows: np.ndarray
    f_rows: np.ndarray
    seeds: list[Seed]
    high: np.ndarray
    reduce: Callable[[np.ndarray, np.ndarray], Any]

    def then(self, finish: Callable[[Any], Any]) -> "RowPlan":
        """The same rows, with ``finish`` applied to this plan's reduction."""
        reduce = self.reduce
        return dataclasses.replace(self, reduce=lambda samples, ok: finish(reduce(samples, ok)))


def run_plans(spec: SimulatorSpec, plans: Sequence[RowPlan]) -> list[Any]:
    """Run the rows of all ``plans`` in one simulator call; reduce each plan in order."""
    samples, ok = simulate_batch_multi_f(
        spec,
        np.vstack([p.e_rows for p in plans]),
        np.vstack([p.f_rows for p in plans]),
        [s for p in plans for s in p.seeds],
        np.concatenate([p.high for p in plans]),
    )
    results = []
    start = 0
    for plan in plans:
        rows = slice(start, start + len(plan.seeds))
        results.append(plan.reduce(samples[rows], ok[rows]))
        start = rows.stop
    return results


# ---------------------------------------------------------------------------
# Robustness evaluation helpers
# ---------------------------------------------------------------------------


def _repeat_seeds(seed: Seed, repeats: int | None) -> list[Seed]:
    return [split_seed(seed, "rep", k) for k in range(repeats or 1)]


def _noise_active(spec: SimulatorSpec, f_rows: np.ndarray) -> bool:
    mapping = spec.fidelity_mapping
    if mapping.noise_knob is None:
        return False
    return any(mapping.noise_scale(row) > 1e-15 for row in f_rows)


def _force_noise_off(spec: SimulatorSpec, f_rows: np.ndarray) -> np.ndarray:
    if spec.fidelity_mapping.noise_knob is None:
        return f_rows
    rows = f_rows.copy()
    rows[:, spec.fidelity_mapping.noise_knob] = 1.0
    return rows


def _rho_plan(
    spec: SimulatorSpec,
    phi: SafetySpec,
    e_values: np.ndarray,
    f_rows: np.ndarray,
    seed: Seed,
    repeats: int | None,
) -> RowPlan:
    """Plan of the mean robustness for each (e, f) row; errors out on diverged items.

    The rows are tiled once per repeat seed; robustness is summed per repeat
    in seed order.
    """
    if _noise_active(spec, f_rows) and repeats is None:
        raise InvalidArgumentError(
            "the noise knob is active; supply a repeats count for averaging"
        )
    n = e_values.shape[0]
    seeds = _repeat_seeds(seed, repeats)

    def reduce(samples: np.ndarray, ok: np.ndarray) -> np.ndarray:
        total = np.zeros(n)
        for r in range(len(seeds)):
            block = slice(r * n, (r + 1) * n)
            if not ok[block].all():
                bad = int(np.flatnonzero(~ok[block])[0])
                raise SimulationDivergedError(
                    f"simulation diverged during estimation at e={e_values[bad].tolist()}"
                )
            total += robustness_batch(phi, samples[block], spec.channels, spec.base_dt)
        return total / len(seeds)

    return RowPlan(
        e_rows=np.tile(e_values, (len(seeds), 1)),
        f_rows=np.tile(f_rows, (len(seeds), 1)),
        seeds=[rep for rep in seeds for _ in range(n)],
        high=np.zeros(n * len(seeds), dtype=bool),
        reduce=reduce,
    )


def _paired_points(
    lower: np.ndarray, upper: np.ndarray, pairs: int, seed: Seed
) -> tuple[np.ndarray, np.ndarray]:
    """``pairs`` point pairs: half far apart (space-filling), half tight near-pairs."""
    dim = len(lower)
    width = upper - lower
    n_far = pairs // 2
    n_near = pairs - n_far
    a_rows: list[np.ndarray] = []
    b_rows: list[np.ndarray] = []
    if n_far:
        far = lower + latin_hypercube_unit(dim, 2 * n_far, split_seed(seed, "far")) * width
        a_rows.append(far[0::2])
        b_rows.append(far[1::2])
    if n_near:
        base = lower + latin_hypercube_unit(dim, n_near, split_seed(seed, "near")) * width
        rng = rng_from_seed(split_seed(seed, "near-dir"))
        direction = rng.standard_normal((n_near, dim))
        direction /= np.linalg.norm(direction, axis=1, keepdims=True)
        partner = base + _NEAR_PAIR_DISTANCE * direction
        flip = (partner < lower) | (partner > upper)
        partner = np.where(flip, base - _NEAR_PAIR_DISTANCE * direction, partner)
        partner = np.clip(partner, lower, upper)
        a_rows.append(base)
        b_rows.append(partner)
    return np.vstack(a_rows), np.vstack(b_rows)


def _max_slope(
    a: np.ndarray, b: np.ndarray, va: np.ndarray, vb: np.ndarray
) -> LipschitzEstimate:
    dist = np.linalg.norm(a - b, axis=1)
    usable = dist > 1e-15
    if not usable.any():
        raise InvalidArgumentError("all sampled pairs are degenerate (zero distance)")
    ratios = np.abs(va[usable] - vb[usable]) / dist[usable]
    idx_usable = np.flatnonzero(usable)
    best = int(idx_usable[np.argmax(ratios)])
    return LipschitzEstimate(
        constant=float(np.max(ratios)),
        pairs_used=int(usable.sum()),
        max_pair=(tuple(float(v) for v in a[best]), tuple(float(v) for v in b[best])),
    )


def lipschitz_env_plan(
    spec: SimulatorSpec,
    phi: SafetySpec,
    f: FidelitySetting,
    pairs: int,
    seed: Seed,
    repeats: int | None = None,
) -> RowPlan:
    """Plan of :func:`estimate_lipschitz_env`."""
    if pairs < 10:
        raise InvalidArgumentError("pairs must be >= 10")
    space = spec.environment_space
    a, b = _paired_points(space.lower_array(), space.upper_array(), pairs, seed)
    f_rows = np.tile(f.as_array(), (2 * len(a), 1))
    plan = _rho_plan(spec, phi, np.vstack([a, b]), f_rows, split_seed(seed, "eval"), repeats)
    return plan.then(lambda v: _max_slope(a, b, v[: len(a)], v[len(a) :]))


def estimate_lipschitz_env(
    spec: SimulatorSpec,
    phi: SafetySpec,
    f: FidelitySetting,
    pairs: int,
    seed: Seed,
    repeats: int | None = None,
) -> LipschitzEstimate:
    """Max slope of robustness between environment points at fixed fidelity."""
    return run_plans(spec, [lipschitz_env_plan(spec, phi, f, pairs, seed, repeats)])[0]


def lipschitz_fidelity_plan(
    spec: SimulatorSpec,
    phi: SafetySpec,
    e: EnvironmentConfig,
    pairs: int,
    seed: Seed,
    repeats: int | None = None,
) -> RowPlan:
    """Plan of :func:`estimate_lipschitz_fidelity`."""
    if pairs < 10:
        raise InvalidArgumentError("pairs must be >= 10")
    dim = spec.fidelity_space.dimension
    a, b = _paired_points(np.zeros(dim), np.ones(dim), pairs, seed)
    a = _force_noise_off(spec, a)
    b = _force_noise_off(spec, b)
    e_rows = np.tile(e.as_array(), (2 * len(a), 1))
    plan = _rho_plan(spec, phi, e_rows, np.vstack([a, b]), split_seed(seed, "eval"), repeats)
    return plan.then(lambda v: _max_slope(a, b, v[: len(a)], v[len(a) :]))


def estimate_lipschitz_fidelity(
    spec: SimulatorSpec,
    phi: SafetySpec,
    e: EnvironmentConfig,
    pairs: int,
    seed: Seed,
    repeats: int | None = None,
) -> LipschitzEstimate:
    """Max slope of robustness between fidelity settings at a fixed environment.

    The observation-noise knob (when the simulator has one) is forced to its
    off position in every sampled setting, so the slope reflects the
    deterministic fidelity mechanisms.
    """
    return run_plans(spec, [lipschitz_fidelity_plan(spec, phi, e, pairs, seed, repeats)])[0]


def _smooth_offset(shape: tuple[int, int], times: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Random constant-plus-sinusoid perturbation per channel."""
    channels, _ = shape
    const = rng.normal(0.0, 0.25, size=(channels, 1))
    amp = rng.normal(0.0, 0.25, size=(channels, 1))
    phase = rng.uniform(0.0, 2.0 * np.pi, size=(channels, 1))
    period = times[-1] - times[0] if times[-1] > times[0] else 1.0
    wave = np.sin(2.0 * np.pi * times[None, :] / period + phase)
    return const + amp * wave


def _loss_pair_plan(
    spec: SimulatorSpec, tasks: Sequence[Task], pairs: int, seed: Seed
) -> RowPlan:
    """Plan of (ratio, config, fidelity) per sampled pair; degenerate pairs skipped.

    Base trajectory pairs cycle through the tasks' parameters at random
    noise-free fidelity settings (the high rows, then the low rows); each
    is compared against a smoothly perturbed copy of itself (high side, low
    side, or both).
    """
    configs = [cfg for task in tasks for cfg in task.sampled_params]
    dim_f = spec.fidelity_space.dimension
    e_rows = np.array([configs[k % len(configs)].as_array() for k in range(pairs)])
    f_rows = _force_noise_off(
        spec, latin_hypercube_unit(dim_f, pairs, split_seed(seed, "fid"))
    )
    pair_seeds = [split_seed(seed, "pair", k) for k in range(pairs)]

    def reduce(
        samples: np.ndarray, ok: np.ndarray
    ) -> list[tuple[float, tuple[float, ...], tuple[float, ...]]]:
        if not ok.all():
            raise SimulationDivergedError("simulation diverged while sampling trajectory pairs")
        highs, lows = samples[:pairs], samples[pairs:]
        highs2, lows2 = highs.copy(), lows.copy()
        rng = rng_from_seed(split_seed(seed, "perturb"))
        times = spec.grid_times()
        for k in range(pairs):
            mode = k % 3  # perturb high, low, or both
            if mode != 1:
                highs2[k] += _smooth_offset(highs[k].shape, times, rng)
            if mode != 0:
                lows2[k] += _smooth_offset(lows[k].shape, times, rng)
        denoms = np.abs(highs - highs2).max(axis=(1, 2)) + np.abs(lows - lows2).max(axis=(1, 2))
        changes = np.abs(_mse_rows(highs, lows, times) - _mse_rows(highs2, lows2, times))
        return [
            (
                float(changes[k] / denoms[k]),
                tuple(float(v) for v in e_rows[k]),
                tuple(float(v) for v in f_rows[k]),
            )
            for k in range(pairs)
            if denoms[k] > 1e-15
        ]

    return RowPlan(
        e_rows=np.vstack([e_rows, e_rows]),
        f_rows=np.vstack([f_rows, f_rows]),
        seeds=pair_seeds * 2,
        high=np.arange(2 * pairs) < pairs,
        reduce=reduce,
    )


def _max_ratio(
    ratios: list[tuple[float, tuple[float, ...], tuple[float, ...]]],
) -> LipschitzEstimate:
    if not ratios:
        raise InvalidArgumentError("all trajectory pairs were identical")
    best_ratio, cfg, fid = max(ratios, key=lambda r: r[0])
    return LipschitzEstimate(constant=best_ratio, pairs_used=len(ratios), max_pair=(cfg, fid))


def lipschitz_loss_plan(
    spec: SimulatorSpec, tasks: Sequence[Task], pairs: int, seed: Seed
) -> RowPlan:
    """Plan of :func:`estimate_lipschitz_loss`."""
    if pairs < 10:
        raise InvalidArgumentError("pairs must be >= 10")
    if not tasks:
        raise InvalidArgumentError("estimate_lipschitz_loss needs at least one task")
    return _loss_pair_plan(spec, tasks, pairs, seed).then(_max_ratio)


def estimate_lipschitz_loss(
    spec: SimulatorSpec,
    tasks: Sequence[Task],
    pairs: int,
    seed: Seed,
) -> LipschitzEstimate:
    """Max ratio of loss change to summed sup-norm trajectory change."""
    return run_plans(spec, [lipschitz_loss_plan(spec, tasks, pairs, seed)])[0]


# ---------------------------------------------------------------------------
# Sensitivity / gradients
# ---------------------------------------------------------------------------


def _stencil(f: np.ndarray, h: float) -> list[tuple[int, np.ndarray, np.ndarray, bool]]:
    """Per-dimension (dim, plus, minus, clipped) stencil clipped to [0, 1]."""
    entries = []
    for k in range(len(f)):
        plus = f.copy()
        minus = f.copy()
        clipped = False
        if f[k] + h <= 1.0 and f[k] - h >= 0.0:
            plus[k] += h
            minus[k] -= h
        elif f[k] + h > 1.0:
            minus[k] -= h  # backward one-sided at the upper boundary
            clipped = True
        else:
            plus[k] += h  # forward one-sided at the lower boundary
            clipped = True
        entries.append((k, plus, minus, clipped))
    return entries


def _stencil_rows(entries: list[tuple[int, np.ndarray, np.ndarray, bool]]) -> np.ndarray:
    """The stencil's fidelity rows: each dimension's plus row, then its minus row."""
    return np.array([row for _, plus, minus, _ in entries for row in (plus, minus)])


def sensitivity_plan(
    spec: SimulatorSpec,
    phi: SafetySpec,
    f: FidelitySetting,
    h: float,
    falsify_budget: FalsifyBudget,
    seed: Seed,
    repeats: int | None = None,
) -> RowPlan:
    """Falsify at ``f`` now; plan the stencil rows that :func:`sensitivity` probes.

    The plan reduces to the :class:`SensitivityReport` without a total
    derivative, so its stencil can share a simulator call with other plans.
    """
    if h <= 0.0:
        raise InvalidArgumentError("step h must be > 0")
    f0 = f.as_array()
    entries = _stencil(f0, h)
    f_rows = _stencil_rows(entries)
    if _noise_active(spec, f_rows) and repeats is None:
        raise InvalidArgumentError(
            "sensitivity stencil activates the noise knob; supply a repeats count"
        )
    inner = falsify(spec, phi, f, falsify_budget, split_seed(seed, "falsify"))
    e_star = inner.best_config
    e_rows = np.tile(e_star.as_array(), (len(f_rows), 1))

    def report(rho: np.ndarray) -> SensitivityReport:
        gradient = [
            (rho[2 * i] - rho[2 * i + 1]) / float(plus[k] - minus[k])
            for i, (k, plus, minus, _) in enumerate(entries)
        ]
        return SensitivityReport(
            fidelity=tuple(float(v) for v in f0),
            gradient=tuple(float(g) for g in gradient),
            step=float(h),
            method="central",
            boundary_clipped=tuple(clipped for _, _, _, clipped in entries),
            base_config=tuple(e_star.values),
            base_robustness=float(inner.best_robustness),
        )

    plan = _rho_plan(spec, phi, e_rows, f_rows, split_seed(seed, "stencil"), repeats)
    return plan.then(report)


def sensitivity(
    spec: SimulatorSpec,
    phi: SafetySpec,
    f: FidelitySetting,
    h: float,
    falsify_budget: FalsifyBudget,
    seed: Seed,
    repeats: int | None = None,
    refalsify: bool = False,
) -> SensitivityReport:
    """Central-difference sensitivity of the falsified robustness to fidelity.

    Falsifies once at ``f``, freezes the returned counterexample, and probes
    ``rho(e*, f +/- h u_k)`` per knob (one-sided at the box boundary). With
    ``refalsify=True`` the stencil points are falsified as well and the
    resulting total-derivative estimate is reported alongside.
    """
    plan = sensitivity_plan(spec, phi, f, h, falsify_budget, seed, repeats)
    report = run_plans(spec, [plan])[0]
    if not refalsify:
        return report
    entries = _stencil(f.as_array(), h)
    fseed = split_seed(seed, "falsify")
    found = falsify_many(
        spec,
        phi,
        [(spec.fidelity_space.setting(row), fseed) for row in _stencil_rows(entries)],
        falsify_budget,
    )
    total = tuple(
        (found[2 * i].best_robustness - found[2 * i + 1].best_robustness)
        / float(plus[k] - minus[k])
        for i, (k, plus, minus, _) in enumerate(entries)
    )
    return dataclasses.replace(report, total_derivative=total)


# ---------------------------------------------------------------------------
# Sample complexity / convergence
# ---------------------------------------------------------------------------


def hoeffding_n(L: float, epsilon: float, delta: float, L_alt: float | None = None) -> int:
    """Per-iteration samples so the empirical estimate is eps-accurate w.p. 1-delta.

    ``ceil((2 L^2 / eps^2) * ln(2 / delta))``, 0 for ``L = 0``; with
    ``L_alt`` supplied the larger of the two resulting bounds is returned.
    Raises ``OverflowError`` when the bound is not a finite number.
    """
    if L < 0:
        raise InvalidArgumentError("L must be >= 0")
    if epsilon <= 0:
        raise InvalidArgumentError("epsilon must be > 0")
    if not 0 < delta <= 2:
        raise InvalidArgumentError("delta must lie in (0, 2]")
    try:
        n = math.ceil((2.0 * L * L / (epsilon * epsilon)) * math.log(2.0 / delta)) if L else 0
    except (ZeroDivisionError, ValueError):  # eps^2 underflowed to 0, or inf * ln(1) is NaN
        raise OverflowError("the Hoeffding bound is not finite") from None
    if L_alt is not None:
        n = max(n, hoeffding_n(L_alt, epsilon, delta))
    return int(n)


def total_samples(n: int, K1: int, K2: int) -> int:
    """Total simulation budget n * K1 * K2 for nested loops of K1 and K2 iterations."""
    for name, v in (("n", n), ("K1", K1), ("K2", K2)):
        if int(v) != v or v < 0:
            raise InvalidArgumentError(f"{name} must be a nonnegative integer")
    result = int(n) * int(K1) * int(K2)
    if result > 2**63 - 1:
        raise OverflowError("total sample count exceeds the 64-bit range")
    return result


def sample_complexity_plan(
    epsilon: float,
    delta: float,
    lipschitz: float,
    K1: int,
    K2: int,
    lipschitz_alt: float | None = None,
) -> SampleComplexityPlan:
    """Assemble the Hoeffding n with observed loop lengths into one plan.

    Raises a usage error naming ε, δ and L when n * K1 * K2 is no 64-bit count.
    """
    L = float(max(lipschitz, lipschitz_alt or 0.0))
    try:
        n = hoeffding_n(lipschitz, epsilon, delta, L_alt=lipschitz_alt)
        total = total_samples(n, K1, K2)
    except OverflowError:
        raise InvalidArgumentError(
            f"the sample plan for epsilon {epsilon!r}, delta {delta!r} and Lipschitz "
            f"constant {L!r} needs more than 2**63 - 1 samples"
        ) from None
    return SampleComplexityPlan(
        epsilon=float(epsilon),
        delta=float(delta),
        lipschitz=L,
        n_per_iteration=n,
        K1=int(K1),
        K2=int(K2),
        total_samples=total,
    )


def convergence_report(trace: Sequence[float], window: int, tol: float) -> ConvergenceReport:
    """Converged iff the best-so-far value moved at most ``tol`` over the last ``window``."""
    if window < 2:
        raise InvalidArgumentError("window must be >= 2")
    if len(trace) < window:
        raise InvalidArgumentError(f"trace length {len(trace)} shorter than window {window}")
    best = np.minimum.accumulate(np.asarray(trace, dtype=float))
    gap = float(best[-window] - best[-1])
    return ConvergenceReport(converged=gap <= tol, gap=gap, window=int(window))
