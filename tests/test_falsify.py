import numpy as np
import pytest

from safeval.core import FalsificationFailedError, InvalidArgumentError, split_seed
from safeval.falsify import FalsifyBudget, _evaluate_population, falsify
from safeval.sim import register_backend, simulate_low
from safeval.stl import robustness
from tests.conftest import QUAD_CENTER, make_synthetic


class TestBudgetValidation:
    def test_budget_below_population_rejected(self):
        with pytest.raises(InvalidArgumentError):
            FalsifyBudget(max_evaluations=63, population=64)

    def test_population_minimum(self):
        with pytest.raises(InvalidArgumentError):
            FalsifyBudget(max_evaluations=100, population=3)

    def test_elite_fraction_range(self):
        with pytest.raises(InvalidArgumentError):
            FalsifyBudget(max_evaluations=100, elite_fraction=1.0)


class TestSyntheticQuadratic:
    def test_finds_analytic_minimum(self, quad_robustness_spec, synth_phi):
        f = quad_robustness_spec.fidelity_space.setting((1.0,))
        budget = FalsifyBudget(max_evaluations=2000, population=64)
        result = falsify(quad_robustness_spec, synth_phi, f, budget, seed=0)
        assert result.counterexample_found
        assert np.linalg.norm(np.array(result.best_config.values) - QUAD_CENTER) < 0.02
        assert result.best_robustness == pytest.approx(-0.01, abs=5e-3)

    def test_trace_nonincreasing_and_budget_respected(self, quad_robustness_spec, synth_phi):
        f = quad_robustness_spec.fidelity_space.setting((1.0,))
        result = falsify(
            quad_robustness_spec, synth_phi, f, FalsifyBudget(max_evaluations=500), seed=1
        )
        assert result.evaluations_used <= 500
        assert all(b <= a for a, b in zip(result.trace, result.trace[1:]))
        assert result.counterexample_found == (result.best_robustness < 0)
        assert result.iterations == len(result.trace)

    def test_anytime_contract(self, quad_robustness_spec, synth_phi):
        f = quad_robustness_spec.fidelity_space.setting((1.0,))
        for seed in range(4):
            small = falsify(
                quad_robustness_spec, synth_phi, f, FalsifyBudget(max_evaluations=512), seed=seed
            )
            large = falsify(
                quad_robustness_spec, synth_phi, f, FalsifyBudget(max_evaluations=1536), seed=seed
            )
            assert large.best_robustness <= small.best_robustness

    def test_deterministic(self, quad_robustness_spec, synth_phi):
        f = quad_robustness_spec.fidelity_space.setting((1.0,))
        budget = FalsifyBudget(max_evaluations=400)
        a = falsify(quad_robustness_spec, synth_phi, f, budget, seed=3)
        b = falsify(quad_robustness_spec, synth_phi, f, budget, seed=3)
        assert a == b

    def test_stop_tolerance_short_circuits(self, quad_robustness_spec, synth_phi):
        f = quad_robustness_spec.fidelity_space.setting((1.0,))
        eager = falsify(
            quad_robustness_spec,
            synth_phi,
            f,
            FalsifyBudget(max_evaluations=5000, stop_tolerance=1e-2),
            seed=2,
        )
        assert eager.evaluations_used < 5000


class TestFailureModes:
    def test_all_diverged_population(self, diverging_spec, synth_phi):
        f = diverging_spec.fidelity_space.setting((0.5,))
        with pytest.raises(FalsificationFailedError):
            falsify(diverging_spec, synth_phi, f, FalsifyBudget(max_evaluations=64), seed=0)

    def test_rows_diverging_in_one_repeat(self, synth_phi):
        # Rows with e > 0.65 diverge only under the second repeat seed and the
        # row at e = 0 only under the first; every other row scores the mean
        # of its per-trajectory robustness values.
        repeat_seeds = [split_seed(13, "rep", k) for k in range(2)]

        class SeedOffsetBackend:
            def run(self, spec, e_values, f_values, seeds):
                out = np.empty((len(e_values), 1, spec.steps))
                for i, (e, seed) in enumerate(zip(e_values, seeds)):
                    bad = e[0] > 0.65 if seed == repeat_seeds[1] else e[0] == 0.0
                    out[i, 0, :] = np.nan if bad else e[0] + (seed % 997) / 997.0
                return out, len(e_values) * spec.steps

        spec = make_synthetic("synth-seed-offset", lambda e, f: 0.0, (0.0,), (1.0,))
        register_backend(spec.id, SeedOffsetBackend())
        f = spec.fidelity_space.setting((0.5,))
        points = np.linspace(0.0, 1.0, 11)[:, None]
        scores = _evaluate_population(spec, synth_phi, f, points, repeat_seeds)
        dead = (points[:, 0] > 0.65) | (points[:, 0] == 0.0)
        assert np.isinf(scores[dead]).all() and dead.sum() == 5
        for i in np.flatnonzero(~dead):
            e = spec.environment_space.config(points[i])
            rhos = [robustness(synth_phi, simulate_low(spec, e, f, s)) for s in repeat_seeds]
            assert scores[i] == (rhos[0] + rhos[1]) / 2

    def test_spec_horizon_checked(self, quad_robustness_spec):
        from safeval.stl import parse_spec

        f = quad_robustness_spec.fidelity_space.setting((1.0,))
        with pytest.raises(InvalidArgumentError):
            falsify(
                quad_robustness_spec,
                parse_spec("G[0,99](y > 0)"),
                f,
                FalsifyBudget(max_evaluations=64),
                seed=0,
            )


class TestNoisyAveraging:
    def test_repeat_averaging_deterministic(self, oscillator):
        from safeval.stl import parse_spec

        phi = parse_spec(oscillator.safety_spec)
        noisy = oscillator.fidelity_space.setting((0.1, 1.0, 0.5))
        budget = FalsifyBudget(max_evaluations=96, population=48, samples_per_eval=3)
        a = falsify(oscillator, phi, noisy, budget, seed=5)
        b = falsify(oscillator, phi, noisy, budget, seed=5)
        assert a == b
        assert a.evaluations_used == 96


class TestBraking:
    def test_finds_crash(self, braking, braking_phi):
        f1 = braking.fidelity_space.max_fidelity()
        result = falsify(braking, braking_phi, f1, FalsifyBudget(max_evaluations=1500), seed=0)
        assert result.counterexample_found
        gap, speed, decel = result.best_config.values
        # the crash basin: short gap, fast ego, strong lead braking
        assert gap < 40 and speed > 20 and decel > 4

    def test_fidelity_sensitivity_hook(self, braking, braking_phi):
        # Robustness at the falsified config moves at most C-hat per unit of
        # fidelity distance (1.1 safety factor), noise knob off.
        from safeval.analysis import estimate_lipschitz_fidelity

        f1 = braking.fidelity_space.setting((1.0, 1.0, 1.0))
        result = falsify(braking, braking_phi, f1, FalsifyBudget(max_evaluations=512), seed=1)
        e_star = result.best_config
        est = estimate_lipschitz_fidelity(braking, braking_phi, e_star, pairs=200, seed=9)
        rho_base = robustness(braking_phi, simulate_low(braking, e_star, f1, seed=0))
        for f2_values in [(0.9, 1.0, 1.0), (1.0, 0.8, 1.0), (0.7, 0.9, 1.0)]:
            f2 = braking.fidelity_space.setting(f2_values)
            rho_alt = robustness(braking_phi, simulate_low(braking, e_star, f2, seed=0))
            dist = f1.distance(f2)
            assert abs(rho_base - rho_alt) <= 1.1 * est.constant * dist + 1e-9
