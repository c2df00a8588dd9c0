"""Inner-loop falsifier: search for environment configs minimizing robustness.

The search is a derivative-free population loop over the environment box.
Generations alternate between Latin-hypercube exploration (every fourth
generation, so a quarter of the evaluation budget) and cross-entropy-method
(CEM) generations that sample a diagonal Gaussian and refit it to the elite
fraction. The sequence of candidate points depends only on the seed, never
on the budget, so a run with a larger budget evaluates a superset of the
points of a smaller run: the anytime contract
``best(budget B2) <= best(budget B1)`` for ``B2 > B1`` holds by
construction.

Noisy fidelity settings are handled by averaging the robustness over
``samples_per_eval`` fixed repeat seeds shared by all candidates (common
random numbers). Diverged simulations score +inf and still consume budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    EnvironmentConfig,
    FalsificationFailedError,
    FidelitySetting,
    InvalidArgumentError,
    Seed,
    check_number_fields,
    latin_hypercube_unit,
    rng_from_seed,
    split_seed,
)
from .sim import SimulatorSpec, simulate_batch
from .stl import RobustnessValue, SafetySpec, horizon, robustness_batch

__all__ = ["FalsifyBudget", "FalsificationResult", "falsify"]

_LHS_EVERY = 4  # every 4th generation explores; 1/4 of the budget overall


@dataclass(frozen=True)
class FalsifyBudget:
    """Evaluation budget and population-search parameters.

    ``max_evaluations`` counts candidate configurations; each costs
    ``samples_per_eval`` simulations. ``stop_tolerance`` stops the search
    once the elite spread (per-dimension std normalized by the box width)
    falls below it; zero disables early stopping.
    """

    max_evaluations: int
    population: int = 64
    elite_fraction: float = 0.25
    stop_tolerance: float = 0.0
    samples_per_eval: int = 1

    def __post_init__(self) -> None:
        check_number_fields(self)
        if self.population < 4:
            raise InvalidArgumentError("population must be >= 4")
        if self.max_evaluations < self.population:
            raise InvalidArgumentError("max_evaluations must be >= population")
        if not 0.0 < self.elite_fraction < 1.0:
            raise InvalidArgumentError("elite_fraction must lie in (0, 1)")
        if self.stop_tolerance < 0.0:
            raise InvalidArgumentError("stop_tolerance must be >= 0")
        if self.samples_per_eval < 1:
            raise InvalidArgumentError("samples_per_eval must be >= 1")


@dataclass(frozen=True)
class FalsificationResult:
    """Outcome of one falsification run."""

    best_config: EnvironmentConfig
    best_robustness: RobustnessValue
    counterexample_found: bool
    evaluations_used: int
    iterations: int
    trace: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "trace", tuple(float(v) for v in self.trace))
        if self.counterexample_found != (self.best_robustness < 0):
            raise InvalidArgumentError("counterexample_found must mirror best_robustness < 0")


def _evaluate_population(
    spec: SimulatorSpec,
    phi: SafetySpec,
    f: FidelitySetting,
    points: np.ndarray,
    repeat_seeds: list[Seed],
) -> np.ndarray:
    """Mean robustness per candidate over the repeat seeds; +inf if diverged."""
    n = points.shape[0]
    scores = np.zeros(n)
    alive = np.ones(n, dtype=bool)
    for rep_seed in repeat_seeds:
        samples, ok = simulate_batch(spec, points, f, [rep_seed] * n)
        alive &= ok
        # Boolean indexing copies the batch; do it only once a row has died.
        rows = samples if alive.all() else samples[alive]
        scores[alive] += robustness_batch(phi, rows, spec.channels, spec.base_dt)
    scores /= len(repeat_seeds)
    scores[~alive] = np.inf
    return scores


def falsify(
    spec: SimulatorSpec,
    phi: SafetySpec,
    f: FidelitySetting,
    budget: FalsifyBudget,
    seed: Seed,
) -> FalsificationResult:
    """Minimize robustness of ``phi`` over the environment space at fidelity ``f``.

    Deterministic given ``seed``. Returns the best-ever configuration; ties in
    robustness are broken by lexicographic order of the configuration values.
    Raises :class:`FalsificationFailedError` if an entire population diverges.
    """
    space = spec.environment_space
    if horizon(phi) > spec.duration + 1e-9:
        raise InvalidArgumentError(
            f"spec horizon {horizon(phi):g} s exceeds simulator duration {spec.duration:g} s"
        )
    lo = space.lower_array()
    hi = space.upper_array()
    width = hi - lo
    dim = space.dimension
    repeat_seeds = [split_seed(seed, "rep", k) for k in range(budget.samples_per_eval)]

    if np.all(width < 1e-12):
        center = space.config((lo + hi) / 2.0)
        score = float(
            _evaluate_population(spec, phi, f, center.as_array()[None, :], repeat_seeds)[0]
        )
        return FalsificationResult(
            best_config=center,
            best_robustness=score,
            counterexample_found=score < 0,
            evaluations_used=1,
            iterations=1,
            trace=(score,),
        )

    best_score = np.inf
    best_values: tuple[float, ...] | None = None
    trace: list[float] = []
    mean: np.ndarray | None = None
    std: np.ndarray | None = None
    evaluations = 0
    generation = 0

    while evaluations < budget.max_evaluations:
        take = min(budget.population, budget.max_evaluations - evaluations)
        if generation % _LHS_EVERY == 0 or mean is None:
            unit = latin_hypercube_unit(dim, budget.population, split_seed(seed, "lhs", generation))
            points = lo + unit * width
            is_cem = False
        else:
            rng = rng_from_seed(split_seed(seed, "cem", generation))
            points = mean + std * rng.standard_normal((budget.population, dim))
            points = np.clip(points, lo, hi)
            is_cem = True
        points = points[:take]
        scores = _evaluate_population(spec, phi, f, points, repeat_seeds)
        evaluations += take
        generation += 1

        finite = np.isfinite(scores)
        if not finite.any():
            raise FalsificationFailedError(
                f"entire population diverged at generation {generation}"
            )
        order = sorted(range(len(scores)), key=lambda i: (scores[i], tuple(points[i])))
        top = order[0]
        if (scores[top], tuple(points[top])) < (
            best_score,
            best_values if best_values is not None else (),
        ):
            best_score = float(scores[top])
            best_values = tuple(points[top])
        trace.append(best_score)
        if len(trace) > 1 and not trace[-1] <= trace[-2]:
            raise RuntimeError("best-so-far trace must be nonincreasing")

        n_elite = max(2, math.ceil(budget.elite_fraction * take))
        elite_idx = [i for i in order if finite[i]][:n_elite]
        elite = points[elite_idx]
        if is_cem or mean is None:
            mean = elite.mean(axis=0)
            std = np.maximum(elite.std(axis=0), 1e-12 * np.maximum(width, 1.0))
        if (
            budget.stop_tolerance > 0.0
            and std is not None
            and float(np.max(std / width)) <= budget.stop_tolerance
        ):
            break

    if best_values is None:
        raise RuntimeError("falsification evaluated no candidate")
    return FalsificationResult(
        best_config=space.config(best_values),
        best_robustness=best_score,
        counterexample_found=best_score < 0,
        evaluations_used=evaluations,
        iterations=generation,
        trace=tuple(trace),
    )
