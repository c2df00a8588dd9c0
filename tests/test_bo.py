import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safeval.bo import (
    BetaSchedule,
    GpKernel,
    GpState,
    RegretTrace,
    UcbMinimizer,
    gp_posterior,
    gp_ucb_minimize,
    regret_growth_fit,
)
from safeval.campaign import optimize_fidelity
from safeval.core import FidelitySpace, InvalidArgumentError, NumericalFailureError, Task


def kernel(amp=1.0, noise=1e-6, ls=0.2, dim=1):
    return GpKernel(lengthscales=(ls,) * dim, amplitude=amp, noise_variance=noise)


class TestGpPosterior:
    def test_prior_is_zero_mean_amplitude_std(self):
        gp = GpState.empty(2, kernel(amp=1.7, dim=2))
        mean, std = gp_posterior(gp, (0.3, 0.4))
        assert mean == 0.0
        assert std == pytest.approx(1.7)

    def test_noise_free_interpolation(self):
        gp = GpState.empty(1, kernel(noise=1e-12))
        xs = [0.1, 0.45, 0.8]
        ys = [0.5, -0.25, 0.9]
        for x, y in zip(xs, ys):
            gp = gp.with_observation((x,), y)
        for x, y in zip(xs, ys):
            mean, std = gp_posterior(gp, (x,))
            assert abs(mean - y) <= 1e-6
            assert std <= 1e-3

    def test_symmetric_observations_cancel_at_midpoint(self):
        gp = GpState.empty(1, kernel(noise=1e-12))
        gp = gp.with_observation((0.3,), 1.0).with_observation((0.5,), -1.0)
        mean, _ = gp_posterior(gp, (0.4,))
        assert abs(mean) <= 1e-9

    def test_nonfinite_observation_rejected(self):
        gp = GpState.empty(1, kernel())
        with pytest.raises(InvalidArgumentError):
            gp.with_observation((0.5,), float("inf"))

    def test_jitter_exhaustion_raises_numerical_failure(self):
        from safeval.core import NumericalFailureError

        # duplicated points at an amplitude where no admissible jitter can
        # restore positive definiteness
        degenerate = GpKernel(lengthscales=(0.2,), amplitude=1e150, noise_variance=0.0)
        with pytest.raises(NumericalFailureError):
            GpState(
                kernel=degenerate,
                points=np.array([[0.1], [0.1]]),
                values=np.array([1.0, 2.0]),
            )

    def test_duplicate_points_recovered_by_jitter(self):
        gp = GpState.empty(1, kernel(noise=0.0))
        gp = gp.with_observation((0.5,), 1.0).with_observation((0.5,), 1.0)
        mean, std = gp_posterior(gp, (0.5,))
        assert mean == pytest.approx(1.0, abs=1e-3)

    @given(
        seed=st.integers(0, 1000),
        n=st.integers(1, 12),
    )
    @settings(max_examples=50, deadline=None)
    def test_variance_never_increases_with_observations(self, seed, n):
        rng = np.random.default_rng(seed)
        gp = GpState.empty(2, kernel(dim=2))
        query = rng.random(2)
        _, last = gp_posterior(gp, query)
        for _ in range(n):
            x = rng.random(2)
            y = float(rng.normal())
            gp = gp.with_observation(x, y)
            _, std = gp_posterior(gp, query)
            assert std <= last + 1e-12
            last = std


class TestBetaSchedule:
    def test_positive_and_nondecreasing(self):
        sched = BetaSchedule(delta=0.1, grid_size=512)
        betas = [sched.beta(t) for t in range(1, 50)]
        assert all(b > 0 for b in betas)
        assert all(b2 >= b1 for b1, b2 in zip(betas, betas[1:]))

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            BetaSchedule(delta=0.0)
        with pytest.raises(InvalidArgumentError):
            BetaSchedule(grid_size=0)
        with pytest.raises(InvalidArgumentError):
            BetaSchedule().beta(0)


class TestAcquisition:
    def test_argmin_invariant_under_candidate_reordering(self):
        # The winner is determined by (value, canonical index), so chunked or
        # permuted evaluation of the candidate set cannot change it.
        opt = UcbMinimizer(2, seed=1)
        rng = np.random.default_rng(0)
        for _ in range(4):
            opt.observe(rng.random(2), float(rng.normal()))
        gp = opt.gp()
        from safeval.bo import gp_posterior_many

        cands = opt.grid
        mean, std = gp_posterior_many(gp, cands)
        lcb = mean - math.sqrt(opt.schedule.beta(7)) * std
        forward = int(np.argmin(lcb))
        assert forward == int(np.flatnonzero(lcb == lcb.min())[0])
        perm = rng.permutation(len(lcb))
        best_permuted = min(zip(lcb[perm], perm))  # reduce by (value, index)
        assert int(best_permuted[1]) == forward
        repeat = opt.suggest(7)
        assert np.array_equal(repeat, opt.suggest(7))

    def test_every_observation_failed(self):
        # An empty GP has a constant prior, so LCB ties everywhere and the
        # lowest index, grid[0], wins past the warm-up points.
        opt = UcbMinimizer(2, seed=3)
        for t in range(1, len(opt.warm) + 5):
            x = opt.suggest(t)
            if t > len(opt.warm):
                assert np.array_equal(x, opt.grid[0])
            opt.observe(x, math.inf)
        assert opt.gp().n_observations == 0
        with pytest.raises(NumericalFailureError, match="every objective evaluation failed"):
            opt.trace(None, FidelitySpace(dimension=2))


class TestSyntheticQuadratic:
    def test_converges_over_ten_seeds(self):
        for seed in range(10):
            res = gp_ucb_minimize(
                lambda x, t: float((x[0] - 0.3) ** 2),
                dimension=1,
                iterations=60,
                seed=seed,
                reference_optimum=0.0,
            )
            assert abs(res.best_fidelity.values[0] - 0.3) <= 0.05

    def test_single_iteration(self):
        res = gp_ucb_minimize(
            lambda x, t: float(x[0]), dimension=1, iterations=1, seed=0, reference_optimum=0.0
        )
        assert res.iterations == 1
        assert len(res.regret) == 1
        assert res.regret.cumulative[0] == res.regret.instantaneous[0]

    def test_deterministic(self):
        runs = [
            gp_ucb_minimize(
                lambda x, t: float((x[0] - 0.3) ** 2), 1, 25, seed=11, reference_optimum=0.0
            )
            for _ in range(2)
        ]
        assert runs[0].regret.losses == runs[1].regret.losses
        assert runs[0].best_fidelity == runs[1].best_fidelity

    def test_failed_evaluations_excluded_from_gp(self):
        def objective(x, t):
            if t == 2:
                return math.inf
            return float((x[0] - 0.3) ** 2)

        res = gp_ucb_minimize(objective, 1, 12, seed=4, reference_optimum=0.0)
        assert math.isinf(res.regret.losses[1])
        assert res.gp.n_observations == 11
        assert math.isfinite(res.best_loss)


class TestRegret:
    def test_nonnegative_and_cumulative_nondecreasing(self):
        res = gp_ucb_minimize(
            lambda x, t: float((x[0] - 0.3) ** 2), 1, 30, seed=2, reference_optimum=0.0
        )
        inst = res.regret.instantaneous
        cum = res.regret.cumulative
        assert all(r >= 0 for r in inst)
        assert all(b >= a for a, b in zip(cum, cum[1:]))

    def _trace(self, regrets):
        return RegretTrace(
            fidelities=tuple((0.0,) for _ in regrets),
            losses=tuple(regrets),
            reference=0.0,
            reference_is_proxy=False,
        )

    def test_sqrt_regret_exponent(self):
        t = np.arange(1, 401)
        trace = self._trace(1.0 / np.sqrt(t))
        assert regret_growth_fit(trace) == pytest.approx(0.5, abs=0.05)

    def test_zero_regret_exponent(self):
        trace = self._trace([0.0] * 50)
        assert regret_growth_fit(trace) == 0.0

    def test_constant_regret_exponent(self):
        trace = self._trace([0.7] * 400)
        assert regret_growth_fit(trace) == pytest.approx(1.0, abs=0.05)

    def test_preconditions(self):
        with pytest.raises(InvalidArgumentError):
            regret_growth_fit(self._trace([1.0] * 5))
        proxy = RegretTrace(
            fidelities=tuple((0.0,) for _ in range(20)),
            losses=tuple(float(i) for i in range(20)),
            reference=0.0,
            reference_is_proxy=True,
        )
        with pytest.raises(InvalidArgumentError):
            regret_growth_fit(proxy)

    def test_empirical_sublinearity(self):
        # Desk-scale face of the sqrt-regret bound: fitted exponent stays
        # well below linear growth on the quadratic objective.
        for seed in range(10):
            res = gp_ucb_minimize(
                lambda x, t: float((x[0] - 0.3) ** 2),
                dimension=1,
                iterations=60,
                seed=seed,
                reference_optimum=0.0,
            )
            assert regret_growth_fit(res.regret) <= 0.8


class TestOptimizeFidelity:
    def test_runs_on_oscillator(self, oscillator):
        task = Task(
            id="task-0",
            parameter_space=oscillator.environment_space,
            sampled_params=(oscillator.environment_space.config((1.0, 0.0, 0.2)),),
        )
        res = optimize_fidelity(oscillator, [task], T=6, seed=3)
        assert res.iterations == 6
        assert res.best_loss == min(l for l in res.regret.losses if math.isfinite(l))
        assert res.regret.reference_is_proxy
        again = optimize_fidelity(oscillator, [task], T=6, seed=3)
        assert res.regret.losses == again.regret.losses

    def test_requires_tasks(self, oscillator):
        with pytest.raises(InvalidArgumentError):
            optimize_fidelity(oscillator, [], T=3, seed=0)
