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

Each candidate is simulated only as far as the spec reads: every simulator
call asks for the first :func:`~safeval.stl.samples_read` samples of the
grid, which are those of a full-length simulation bit for bit, so the
scores are too. A simulation counts as diverged when one of those samples
is not finite; what it does after the spec's reach is never computed.

Simulator calls. A call costs mostly per loop step, not per row: on a
2-vCPU VM (NumPy 2.4) a max-fidelity 601-sample braking call took 2.7 ms
for 1 row, 6.5 ms for 64 and 8.9 ms for 128, the fastest of 80 calls.
Rows are not free, but one call for two generations costs less than two
calls, so the search sends few, full batches:

* Only generation 0 and the CEM generations refit the Gaussian, so the
  points of the CEM generation after a later exploration generation g do
  not depend on g's scores, and the stop check after g sees the spread the
  check after g - 1 saw and cannot fire. Generations g and g + 1 therefore
  share one call (g + 1 truncated to the budget, or left out when none
  remains) and are then processed in order, exactly as two calls would be.
* All ``samples_per_eval`` repeats go into that call, the candidate rows
  tiled once per repeat seed. A candidate scores +inf once any repeat has
  diverged, and the repeats' robustness values are summed in seed order.
* :func:`falsify_many` advances several searches sharing one budget in
  lockstep, one ``simulate_batch_multi_f`` call per step for all of them,
  each row carrying its search's fidelity setting. A search leaves the step
  loop when it stops early, exhausts the budget or fails. When searches
  diverge, the :class:`FalsificationFailedError` raised is that of the
  lowest-index failing search, the one a loop of :func:`falsify` calls
  would raise. Any other error from the shared call (an
  ``AdapterProtocolError``, say) is raised as soon as it happens, even when
  it comes from rows a loop would not have simulated yet. :func:`falsify`
  is its one-search case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import (
    MAX_COUNT,
    Checked,
    EnvironmentConfig,
    FalsificationFailedError,
    FidelitySetting,
    InvalidArgumentError,
    Seed,
    latin_hypercube_unit,
    rng_from_seed,
    split_seed,
)
from .sim import SimulatorSpec, simulate_batch_multi_f
from .stl import RobustnessValue, SafetySpec, horizon, robustness_batch, samples_read

__all__ = ["FalsifyBudget", "FalsificationResult", "falsify", "falsify_many"]

_LHS_EVERY = 4  # every 4th generation explores; 1/4 of the budget overall


@dataclass(frozen=True)
class FalsifyBudget(Checked):
    """Evaluation budget and population-search parameters.

    ``max_evaluations`` counts candidate configurations; each costs
    ``samples_per_eval`` simulations. ``stop_tolerance`` stops the search
    once the elite spread (per-dimension std normalized by the box width)
    falls below it; zero disables early stopping.
    """

    max_evaluations: int
    population: int = field(default=64, metadata={"ge": 4, "le": MAX_COUNT})
    elite_fraction: float = field(default=0.25, metadata={"gt": 0, "lt": 1})
    stop_tolerance: float = field(default=0.0, metadata={"ge": 0})
    samples_per_eval: int = field(default=1, metadata={"ge": 1, "le": MAX_COUNT})

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.max_evaluations < self.population:
            raise InvalidArgumentError("max_evaluations must be >= population")


@dataclass(frozen=True)
class FalsificationResult:
    """Outcome of one falsification run."""

    best_config: EnvironmentConfig
    best_robustness: RobustnessValue
    evaluations_used: int
    iterations: int
    trace: tuple[float, ...]

    @property
    def counterexample_found(self) -> bool:
        return self.best_robustness < 0


@dataclass
class _Search:
    """State of one search: its fidelity, seeds, best-so-far and CEM Gaussian."""

    f: FidelitySetting
    seed: Seed
    repeat_seeds: list[Seed]
    best_score: float = np.inf
    best_values: tuple[float, ...] | None = None
    trace: list[float] = field(default_factory=list)
    mean: np.ndarray | None = None
    std: np.ndarray | None = None
    evaluations: int = 0
    generation: int = 0
    stopped: bool = False

    def _explores(self, generation: int) -> bool:
        return generation % _LHS_EVERY == 0 or self.mean is None

    def _points(self, generation: int, population: int, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        if self._explores(generation):
            unit = latin_hypercube_unit(len(lo), population, split_seed(self.seed, "lhs", generation))
            return lo + unit * (hi - lo)
        rng = rng_from_seed(split_seed(self.seed, "cem", generation))
        points = self.mean + self.std * rng.standard_normal((population, len(lo)))
        return np.clip(points, lo, hi)

    def next_generations(
        self, budget: FalsifyBudget, lo: np.ndarray, hi: np.ndarray
    ) -> list[np.ndarray]:
        """Points of the generations the next call evaluates, each cut to the budget.

        The next generation, followed by the CEM generation after it when the
        next one is an exploration generation that leaves the Gaussian as it is.
        """
        left = budget.max_evaluations - self.evaluations
        g = self.generation
        gens = [self._points(g, budget.population, lo, hi)[:left]]
        left -= len(gens[0])
        if self.mean is not None and self._explores(g) and left > 0:
            gens.append(self._points(g + 1, budget.population, lo, hi)[:left])
        return gens

    def absorb(
        self, points: np.ndarray, scores: np.ndarray, budget: FalsifyBudget, width: np.ndarray
    ) -> None:
        """Book one evaluated generation: best-so-far, trace, Gaussian refit, stop check."""
        refit = not self._explores(self.generation) or self.mean is None
        self.evaluations += len(points)
        self.generation += 1
        finite = np.isfinite(scores)
        if not finite.any():
            raise FalsificationFailedError(
                f"entire population diverged at generation {self.generation}"
            )
        order = sorted(range(len(scores)), key=lambda i: (scores[i], tuple(points[i])))
        top = order[0]
        if (scores[top], tuple(points[top])) < (
            self.best_score,
            self.best_values if self.best_values is not None else (),
        ):
            self.best_score = float(scores[top])
            self.best_values = tuple(points[top])
        self.trace.append(self.best_score)
        if len(self.trace) > 1 and not self.trace[-1] <= self.trace[-2]:
            raise RuntimeError("best-so-far trace must be nonincreasing")

        n_elite = max(2, math.ceil(budget.elite_fraction * len(points)))
        elite = points[[i for i in order if finite[i]][:n_elite]]
        if refit:
            self.mean = elite.mean(axis=0)
            self.std = np.maximum(elite.std(axis=0), 1e-12 * np.maximum(width, 1.0))
        if budget.stop_tolerance > 0.0 and float(np.max(self.std / width)) <= budget.stop_tolerance:
            self.stopped = True

    def result(self, spec: SimulatorSpec) -> FalsificationResult:
        if self.best_values is None:
            raise RuntimeError("falsification evaluated no candidate")
        return FalsificationResult(
            best_config=spec.environment_space.config(self.best_values),
            best_robustness=self.best_score,
            evaluations_used=self.evaluations,
            iterations=self.generation,
            trace=tuple(self.trace),
        )


def _evaluate(
    spec: SimulatorSpec,
    phi: SafetySpec,
    n_samples: int,
    searches: Sequence[_Search],
    points: Sequence[np.ndarray],
) -> np.ndarray:
    """Mean robustness of ``points[k]`` under search k, one row per search; +inf if diverged.

    One simulator call covers every search and repeat: search k's rows are
    its points tiled once per repeat seed, and every ``points[k]`` has the
    same length. Each row is simulated for the ``n_samples`` samples that
    ``phi`` reads.
    """
    n = len(points[0])
    repeats = len(searches[0].repeat_seeds)
    e_rows = np.vstack([np.tile(p, (repeats, 1)) for p in points])
    seeds = [rep for s in searches for rep in s.repeat_seeds for _ in range(n)]
    f_rows = np.repeat([s.f.as_array() for s in searches], repeats * n, axis=0)
    samples, ok = simulate_batch_multi_f(spec, e_rows, f_rows, seeds, n_samples=n_samples)
    # A candidate stays alive while every repeat so far is finite; later
    # repeats of a dead candidate are not scored.
    alive = np.logical_and.accumulate(ok.reshape(len(searches), repeats, n), axis=1)
    rho = np.zeros(alive.shape)
    rows = samples if alive.all() else samples[alive.ravel()]
    rho[alive] = robustness_batch(phi, rows, spec.channels, spec.base_dt)
    scores = np.zeros((len(searches), n))
    for r in range(repeats):
        scores += rho[:, r]
    scores /= repeats
    scores[~alive[:, -1]] = np.inf
    return scores


def check_horizon(spec: SimulatorSpec, phi: SafetySpec) -> None:
    """Raise a usage error if ``phi`` reads past the simulator's duration."""
    if horizon(phi) > spec.duration + 1e-9:
        raise InvalidArgumentError(
            f"spec horizon {horizon(phi):g} s exceeds simulator duration {spec.duration:g} s"
        )


def falsify_many(
    spec: SimulatorSpec,
    phi: SafetySpec,
    searches: Sequence[tuple[FidelitySetting, Seed]],
    budget: FalsifyBudget,
) -> list[FalsificationResult]:
    """Run one falsification per ``(f, seed)`` pair in lockstep; results in input order.

    Each result equals what :func:`falsify` returns for its pair. Raises the
    :class:`FalsificationFailedError` of the lowest-index search whose
    entire population diverges; errors of the simulator call itself
    propagate from the step that raised them.
    """
    space = spec.environment_space
    check_horizon(spec, phi)
    if not searches:
        return []
    n_samples = min(samples_read(phi, spec.base_dt), spec.steps)
    lo = space.lower_array()
    hi = space.upper_array()
    width = hi - lo
    state = [
        _Search(f, seed, [split_seed(seed, "rep", k) for k in range(budget.samples_per_eval)])
        for f, seed in searches
    ]

    failures: dict[int, FalsificationFailedError] = {}
    active = list(range(len(state)))
    while active:
        gens = [state[k].next_generations(budget, lo, hi) for k in active]
        scores = _evaluate(
            spec, phi, n_samples, [state[k] for k in active], [np.vstack(g) for g in gens]
        )
        for k, points, row in zip(active, gens, scores):
            try:
                for p, part in zip(points, np.split(row, [len(points[0])])):
                    state[k].absorb(p, part, budget, width)
            except FalsificationFailedError as exc:
                failures[k] = exc
        # A search after the first failure cannot change the error raised.
        last = min(failures, default=len(state))
        active = [
            k for k in active
            if k < last and not state[k].stopped and state[k].evaluations < budget.max_evaluations
        ]
    if failures:
        raise failures[min(failures)]
    return [s.result(spec) for s in state]


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
    return falsify_many(spec, phi, [(f, seed)], budget)[0]
