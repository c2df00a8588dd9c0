"""Outer loop: GP surrogate over the fidelity box, LCB acquisition, regret.

The Gaussian process uses a squared-exponential kernel with fixed per-
dimension length-scales, an amplitude refreshed to the running standard
deviation of the observed losses, and a small observation-noise variance.
Minimization uses the lower confidence bound

    lcb_t(f) = mu_t(f) - sqrt(beta_t) * sigma_t(f),

the mirror image of the familiar upper-confidence-bound rule for
maximization, with the finite-candidate-set schedule

    beta_t = 2 * ln(|grid| * t^2 * pi^2 / (6 * delta)).

Candidates are a seeded Latin-hypercube grid plus all previously observed
points; ties are broken by the lowest candidate index. Instantaneous regret
is recorded as r_t = loss(f_t) - loss(f*) >= 0 (nonnegative under
minimization) and cumulated into R_T. Objectives come from the caller:
the outer loss and ``optimize_fidelity`` live in :mod:`safeval.campaign`.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .core import (
    MAX_COUNT,
    Checked,
    FidelitySetting,
    FidelitySpace,
    InvalidArgumentError,
    NumericalFailureError,
    Seed,
    latin_hypercube_unit,
    split_seed,
)

__all__ = [
    "GpKernel",
    "GpState",
    "BetaSchedule",
    "RegretTrace",
    "FidelityOptResult",
    "gp_posterior",
    "gp_posterior_many",
    "UcbMinimizer",
    "gp_ucb_minimize",
    "regret_growth_fit",
]

log = logging.getLogger(__name__)

_JITTERS = (0.0, 1e-12, 1e-10, 1e-8, 1e-6, 1e-4)

# The minimizer's kernel: one length-scale for every dimension of the unit
# box, and the observation-noise variance.
_LENGTHSCALE = 0.2
_NOISE_VARIANCE = 1e-6


@dataclass(frozen=True)
class GpKernel(Checked):
    """Squared-exponential kernel with per-dimension length-scales."""

    lengthscales: tuple[float, ...] = field(metadata={"gt": 0})
    amplitude: float = field(metadata={"gt": 0})
    noise_variance: float = field(metadata={"ge": 0})

    def matrix(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        ls = np.asarray(self.lengthscales)
        diff = a[:, None, :] / ls - b[None, :, :] / ls
        return self.amplitude**2 * np.exp(-0.5 * np.sum(diff**2, axis=2))


@dataclass(frozen=True, eq=False)
class GpState:
    """Immutable GP posterior state over the fidelity box.

    Holds the observed points/values and the Cholesky factor of the noisy
    kernel matrix. Adding an observation returns a new state with the same
    kernel, so posterior variance at any query point is nonincreasing along
    a chain of ``with_observation`` calls.
    """

    kernel: GpKernel
    points: np.ndarray  # (n, d)
    values: np.ndarray  # (n,)
    chol: np.ndarray = field(repr=False, default=None)  # type: ignore[assignment]
    alpha: np.ndarray = field(repr=False, default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if pts.size == 0:
            pts = pts.reshape(0, pts.shape[1] if pts.ndim == 2 and pts.shape[1] else 1)
        vals = np.asarray(self.values, dtype=float).reshape(-1)
        if pts.shape[0] != vals.shape[0]:
            raise InvalidArgumentError("points and values length mismatch")
        if vals.size and not np.all(np.isfinite(vals)):
            raise InvalidArgumentError("observations must be finite")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "values", vals)
        if self.chol is None and len(vals):
            kmat = self.kernel.matrix(pts, pts)
            n = len(vals)
            last_exc: Exception | None = None
            for jitter in _JITTERS:
                try:
                    chol = np.linalg.cholesky(
                        kmat + (self.kernel.noise_variance + jitter) * np.eye(n)
                    )
                except np.linalg.LinAlgError as exc:
                    last_exc = exc
                    continue
                object.__setattr__(self, "chol", chol)
                object.__setattr__(
                    self, "alpha", np.linalg.solve(chol.T, np.linalg.solve(chol, vals))
                )
                return
            raise NumericalFailureError(
                f"kernel matrix not positive definite even with jitter: {last_exc}"
            )

    @classmethod
    def empty(cls, dimension: int, kernel: GpKernel) -> "GpState":
        return cls(kernel=kernel, points=np.zeros((0, dimension)), values=np.zeros(0))

    @property
    def dimension(self) -> int:
        return int(self.points.shape[1])

    @property
    def n_observations(self) -> int:
        return int(len(self.values))

    def with_observation(self, x: Sequence[float], y: float) -> "GpState":
        x = np.asarray(x, dtype=float).reshape(1, -1)
        if x.shape[1] != self.dimension:
            raise InvalidArgumentError("observation dimension mismatch")
        if not np.isfinite(y):
            raise InvalidArgumentError("observation value must be finite")
        pts = np.vstack([self.points, x]) if self.points.size else x
        vals = np.append(self.values, float(y))
        return GpState(kernel=self.kernel, points=pts, values=vals)


def gp_posterior_many(gp: GpState, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and stddev at many query points, shape (m, d) -> ((m,), (m,))."""
    queries = np.atleast_2d(np.asarray(queries, dtype=float))
    m = queries.shape[0]
    if gp.n_observations == 0:
        return np.zeros(m), np.full(m, gp.kernel.amplitude)
    kstar = gp.kernel.matrix(queries, gp.points)  # (m, n)
    mean = kstar @ gp.alpha
    v = np.linalg.solve(gp.chol, kstar.T)  # (n, m)
    var = gp.kernel.amplitude**2 - np.sum(v**2, axis=0)
    std = np.sqrt(np.maximum(var, 0.0))
    return mean, std


def gp_posterior(gp: GpState, f: FidelitySetting | Sequence[float]) -> tuple[float, float]:
    """Exact GP regression posterior (mean, stddev) at one fidelity point."""
    mean, std = gp_posterior_many(gp, f.values if isinstance(f, FidelitySetting) else f)
    return float(mean[0]), float(std[0])


@dataclass(frozen=True)
class BetaSchedule(Checked):
    """Exploration schedule beta_t = 2*ln(grid_size * t^2 * pi^2 / (6*delta))."""

    delta: float = field(default=0.1, metadata={"gt": 0, "lt": 1})
    grid_size: int = field(default=512, metadata={"ge": 1, "le": MAX_COUNT})

    def beta(self, t: int) -> float:
        if t < 1:
            raise InvalidArgumentError("t must be >= 1")
        return 2.0 * math.log(self.grid_size * t**2 * math.pi**2 / (6.0 * self.delta))


@dataclass(frozen=True)
class RegretTrace:
    """Per-iteration regret record against a reference optimum.

    ``reference_is_proxy`` is True when the reference is the best observed
    loss rather than a known optimum; instantaneous regrets are then still
    nonnegative but only a surrogate for true regret.
    """

    fidelities: tuple[tuple[float, ...], ...]
    losses: tuple[float, ...]
    reference: float
    reference_is_proxy: bool
    instantaneous: tuple[float, ...] = field(init=False)
    cumulative: tuple[float, ...] = field(init=False)

    def __post_init__(self) -> None:
        inst = tuple(l - self.reference for l in self.losses)
        object.__setattr__(self, "instantaneous", inst)
        object.__setattr__(self, "cumulative", tuple(itertools.accumulate(inst)))

    def __len__(self) -> int:
        return len(self.losses)


@dataclass(frozen=True)
class FidelityOptResult:
    """Outcome of the outer-loop fidelity optimization."""

    best_fidelity: FidelitySetting
    best_loss: float
    iterations: int
    regret: RegretTrace
    gp: GpState


class UcbMinimizer:
    """Sequential LCB minimizer over the unit box with a seeded candidate grid.

    Drives the suggest/observe loop used by :func:`gp_ucb_minimize` and by
    the campaign driver (which interleaves falsification between
    iterations). Failed evaluations are reported via ``observe(x, inf)``;
    they are excluded from the GP but kept in the trace.
    """

    def __init__(
        self,
        dimension: int,
        seed: Seed,
        schedule: BetaSchedule | None = None,
    ):
        if dimension < 1:
            raise InvalidArgumentError("dimension must be >= 1")
        self.dimension = dimension
        self.schedule = schedule or BetaSchedule()
        self.grid = latin_hypercube_unit(dimension, self.schedule.grid_size, split_seed(seed, "grid"))
        self.warm = latin_hypercube_unit(dimension, dimension + 1, split_seed(seed, "warm"))
        self._x: list[np.ndarray] = []
        self._y: list[float] = []
        self._gp_cache: GpState | None = None

    def gp(self) -> GpState:
        """The GP over the finite observations, scaled to their spread (1 below two of them)."""
        if self._gp_cache is None:
            finite = np.isfinite(self._y)
            values = np.array(self._y)[finite]
            kernel = GpKernel(
                lengthscales=(_LENGTHSCALE,) * self.dimension,
                amplitude=max(float(np.std(values)), 1e-8) if len(values) >= 2 else 1.0,
                noise_variance=_NOISE_VARIANCE,
            )
            points = np.array(self._x).reshape(-1, self.dimension)[finite]
            self._gp_cache = GpState(kernel=kernel, points=points, values=values)
        return self._gp_cache

    def posterior(self, x: Sequence[float]) -> tuple[float, float]:
        return gp_posterior(self.gp(), x)

    def suggest(self, t: int) -> np.ndarray:
        """Next point to evaluate at iteration ``t`` (1-based)."""
        if t < 1:
            raise InvalidArgumentError("t must be >= 1")
        if t <= len(self.warm):
            return self.warm[t - 1].copy()
        gp = self.gp()
        candidates = np.vstack([self.grid, gp.points])
        mean, std = gp_posterior_many(gp, candidates)
        lcb = mean - math.sqrt(self.schedule.beta(t)) * std
        best = int(np.argmin(lcb))  # np.argmin returns the lowest index on ties
        return candidates[best].copy()

    def observe(self, x: Sequence[float], y: float) -> None:
        self._x.append(np.asarray(x, dtype=float).copy())
        self._y.append(float(y))
        self._gp_cache = None
        if not math.isfinite(y):
            log.warning("evaluation at %s failed; excluded from GP updates", self._x[-1].tolist())

    def trace(
        self, reference_optimum: float | None, fidelity_space: FidelitySpace
    ) -> tuple[RegretTrace, FidelitySetting, float]:
        gp = self.gp()
        if not gp.n_observations:
            raise NumericalFailureError("every objective evaluation failed")
        best = int(np.argmin(gp.values))  # the first observation on ties
        best_loss = float(gp.values[best])
        if reference_optimum is None:
            reference, proxy = best_loss, True
        else:
            reference, proxy = float(reference_optimum), False
        regret = RegretTrace(
            fidelities=tuple(tuple(float(v) for v in x) for x in self._x),
            losses=tuple(self._y),
            reference=reference,
            reference_is_proxy=proxy,
        )
        return regret, fidelity_space.setting(gp.points[best]), best_loss


def gp_ucb_minimize(
    objective: Callable[[np.ndarray, int], float],
    dimension: int,
    iterations: int,
    seed: Seed,
    reference_optimum: float | None = None,
    fidelity_space: FidelitySpace | None = None,
) -> FidelityOptResult:
    """Minimize a black-box objective on [0,1]^d with the GP-LCB loop.

    ``objective(x, t)`` returns the loss at iteration ``t``; non-finite
    returns are treated as failed evaluations. Deterministic given ``seed``.
    """
    if iterations < 1:
        raise InvalidArgumentError("iterations must be >= 1")
    space = fidelity_space or FidelitySpace(dimension=dimension)
    opt = UcbMinimizer(dimension, seed)
    for t in range(1, iterations + 1):
        x = opt.suggest(t)
        y = objective(x, t)
        opt.observe(x, float(y))
    regret, best_f, best_loss = opt.trace(reference_optimum, space)
    return FidelityOptResult(
        best_fidelity=best_f,
        best_loss=best_loss,
        iterations=iterations,
        regret=regret,
        gp=opt.gp(),
    )


def regret_growth_fit(trace: RegretTrace) -> float:
    """Least-squares growth exponent of cumulative regret over the trace's second half.

    Fits ``log R_T ~ exponent * log T`` on T in [len/2, len]; a trace whose
    cumulative regret is identically zero reports exponent 0. Requires an
    exact (non-proxy) reference optimum and at least 10 iterations.
    """
    if len(trace) < 10:
        raise InvalidArgumentError("regret trace must have length >= 10")
    if trace.reference_is_proxy:
        raise InvalidArgumentError("regret growth fit needs an exact reference optimum")
    r_cum = np.asarray(trace.cumulative)
    t_all = np.arange(1, len(r_cum) + 1)
    half = len(r_cum) // 2
    window_t = t_all[half:]
    window_r = r_cum[half:]
    positive = window_r > 0
    if not positive.any():
        return 0.0
    slope = np.polyfit(np.log(window_t[positive]), np.log(window_r[positive]), 1)[0]
    return float(slope)
