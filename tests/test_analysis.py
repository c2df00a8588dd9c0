import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safeval.analysis import (
    convergence_report,
    estimate_lipschitz_env,
    estimate_lipschitz_fidelity,
    estimate_lipschitz_loss,
    hoeffding_n,
    sample_complexity_plan,
    sensitivity,
    sensitivity_plan,
    total_samples,
)
from safeval import sim
from safeval.core import InvalidArgumentError, SimulationDivergedError, Task, Trajectory
from safeval.falsify import FalsifyBudget
from safeval.loss import mse_loss


class TestLipschitzEnv:
    def test_linear_slope_recovered_exactly(self, linear_env_spec, synth_phi):
        f = linear_env_spec.fidelity_space.setting((1.0,))
        est = estimate_lipschitz_env(linear_env_spec, synth_phi, f, pairs=50, seed=1)
        assert est.constant == pytest.approx(3.0, abs=1e-6)
        assert est.pairs_used == 50

    def test_constant_function_gives_zero(self, constant_rho_spec, synth_phi):
        f = constant_rho_spec.fidelity_space.setting((1.0,))
        est = estimate_lipschitz_env(constant_rho_spec, synth_phi, f, pairs=30, seed=2)
        assert est.constant == 0.0

    def test_minimum_pairs(self, linear_env_spec, synth_phi):
        f = linear_env_spec.fidelity_space.setting((1.0,))
        with pytest.raises(InvalidArgumentError):
            estimate_lipschitz_env(linear_env_spec, synth_phi, f, pairs=9, seed=1)

    def test_holdout_validation_oscillator(self, oscillator):
        # Estimate on one seed, validate on fresh pairs: the inflated bound
        # holds for at least 99% of them.
        from safeval.analysis import _paired_points, _rho_plan, run_plans
        from safeval.core import split_seed
        from safeval.stl import parse_spec

        phi = parse_spec(oscillator.safety_spec)
        f = oscillator.fidelity_space.max_fidelity()
        est = estimate_lipschitz_env(oscillator, phi, f, pairs=200, seed=3)
        space = oscillator.environment_space
        a, b = _paired_points(space.lower_array(), space.upper_array(), 400, 77)
        f_rows = np.tile(f.as_array(), (len(a), 1))
        eval_seed = split_seed(77, "eval")
        va, vb = (
            run_plans(oscillator, [_rho_plan(oscillator, phi, x, f_rows, eval_seed, None)])[0]
            for x in (a, b)
        )
        dist = np.linalg.norm(a - b, axis=1)
        violations = np.abs(va - vb) > 1.1 * est.constant * dist
        assert violations.mean() <= 0.01


class TestLipschitzFidelity:
    def test_linear_slope_in_f(self, linear_fid_spec, synth_phi):
        e = linear_fid_spec.environment_space.config((0.5,))
        est = estimate_lipschitz_fidelity(linear_fid_spec, synth_phi, e, pairs=50, seed=1)
        assert est.constant == pytest.approx(3.0, abs=1e-6)

    def test_constant_gives_zero(self, constant_rho_spec, synth_phi):
        e = constant_rho_spec.environment_space.config((0.5,))
        est = estimate_lipschitz_fidelity(constant_rho_spec, synth_phi, e, pairs=20, seed=4)
        assert est.constant == 0.0

    def test_noise_knob_forced_off(self, braking, braking_phi):
        # All sampled settings sit on the noise-free face, so the estimate is
        # reproducible without averaging.
        e = braking.environment_space.config((40.0, 25.0, 6.0))
        a = estimate_lipschitz_fidelity(braking, braking_phi, e, pairs=40, seed=6)
        b = estimate_lipschitz_fidelity(braking, braking_phi, e, pairs=40, seed=6)
        assert a == b
        for point in a.max_pair:
            assert point[braking.fidelity_mapping.noise_knob] == 1.0


class TestNoiseGuard:
    def test_refuses_noisy_fidelity_without_repeats(self, oscillator):
        from safeval.stl import parse_spec

        phi = parse_spec(oscillator.safety_spec)
        noisy = oscillator.fidelity_space.setting((1.0, 1.0, 0.5))
        with pytest.raises(InvalidArgumentError):
            estimate_lipschitz_env(oscillator, phi, noisy, pairs=12, seed=0)

    def test_runs_with_repeats(self, oscillator):
        from safeval.stl import parse_spec

        phi = parse_spec(oscillator.safety_spec)
        noisy = oscillator.fidelity_space.setting((1.0, 1.0, 0.5))
        est = estimate_lipschitz_env(oscillator, phi, noisy, pairs=12, seed=0, repeats=2)
        assert est.constant >= 0


class TestLipschitzLoss:
    def test_constant_offset_ratio_analytic(self, oscillator):
        # Offsetting the low trajectory by delta vs 2*delta: the loss-change
        # ratio equals (mse difference) / delta = 3*delta exactly.
        from safeval.sim import simulate_high

        cfg = oscillator.environment_space.config((1.0, 0.0, 0.3))
        high = simulate_high(oscillator, cfg, seed=0)
        delta = 0.25
        low1 = Trajectory(0.0, high.dt, high.channels, high.samples + delta)
        low2 = Trajectory(0.0, high.dt, high.channels, high.samples + 2 * delta)
        measured = abs(mse_loss(high, low1) - mse_loss(high, low2)) / delta
        analytic = abs(len(high.channels) * delta**2 - len(high.channels) * 4 * delta**2) / delta
        assert measured == pytest.approx(analytic, abs=1e-6)

    def test_estimator_on_benchmark(self, oscillator):
        task = Task(
            id="task-0",
            parameter_space=oscillator.environment_space,
            sampled_params=(
                oscillator.environment_space.config((1.0, 0.0, 0.2)),
                oscillator.environment_space.config((-0.5, 1.0, 0.7)),
            ),
        )
        est = estimate_lipschitz_loss(oscillator, [task], pairs=12, seed=5)
        assert est.constant > 0
        assert est.pairs_used == 12

    def test_holdout_validation_braking(self, braking):
        # Fresh perturbed pairs respect the inflated estimate on >= 99%.
        from safeval.analysis import _loss_pair_plan, run_plans
        from safeval.campaign import sample_tasks

        tasks = sample_tasks(braking, 2, 3, seed=5)
        est = estimate_lipschitz_loss(braking, tasks, pairs=300, seed=1)
        changes, sizes = run_plans(braking, [_loss_pair_plan(braking, tasks, 300, seed=42)])[0]
        fresh = changes[sizes > 1e-15] / sizes[sizes > 1e-15]
        assert (fresh <= 1.1 * est.constant).mean() >= 0.99

    def test_all_identical_pairs_error(self, oscillator, monkeypatch):
        import safeval.analysis as analysis_mod

        monkeypatch.setattr(
            analysis_mod, "_smooth_offset", lambda shape, times, rng: np.zeros(shape)
        )
        task = Task(
            id="task-0",
            parameter_space=oscillator.environment_space,
            sampled_params=(oscillator.environment_space.config((1.0, 0.0, 0.2)),),
        )
        with pytest.raises(InvalidArgumentError):
            estimate_lipschitz_loss(oscillator, [task], pairs=10, seed=5)


class TestRowPlans:
    def test_rho_plan_scores_repeats_as_the_falsifier_does(self, braking, braking_phi):
        from safeval.analysis import _noise_active, _rho_plan, run_plans
        from safeval.core import latin_hypercube_unit
        from safeval.falsify import _evaluate, _repeat_seeds, _Search

        f = braking.fidelity_space.setting((0.5, 0.5, 0.5))
        space = braking.environment_space
        width = space.upper_array() - space.lower_array()
        points = space.lower_array() + latin_hypercube_unit(space.dimension, 8, 3) * width
        f_rows = np.tile(f.as_array(), (len(points), 1))
        assert _noise_active(braking, f_rows)
        plan = _rho_plan(braking, braking_phi, points, f_rows, 13, repeats=2)
        search = _Search(f, 13, _repeat_seeds(13, 2))
        scores = _evaluate(braking, braking_phi, braking.steps, [search], [points])[0]
        assert run_plans(braking, [plan])[0].tolist() == scores.tolist()

    def test_analysis_summary_is_one_call_equal_to_the_three_estimators(
        self, braking, braking_phi, monkeypatch
    ):
        import safeval.analysis as analysis_mod
        from safeval.campaign import CampaignConfig, analysis_summary, sample_tasks
        from safeval.core import split_seed

        config = CampaignConfig(
            simulator="braking",
            task_count=2,
            params_per_task=2,
            outer_iterations=3,
            master_seed=13,
            analysis_pairs=10,
        )
        tasks = sample_tasks(braking, 2, 2, seed=13)
        f_probe = braking.fidelity_space.setting((0.4, 0.7, 1.0))
        e_probe = braking.environment_space.config((40.0, 20.0, 6.0))
        rows = []
        real = analysis_mod.simulate_batch_multi_f

        def counting(spec, e_values, *args, **kwargs):
            rows.append(len(e_values))
            return real(spec, e_values, *args, **kwargs)

        monkeypatch.setattr(analysis_mod, "simulate_batch_multi_f", counting)
        summary = analysis_summary(braking, braking_phi, tasks, config, f_probe, e_probe, K1=64)
        assert rows == [6 * config.analysis_pairs]

        seed = config.master_seed
        estimates = {
            "lipschitz_env": estimate_lipschitz_env(
                braking, braking_phi, f_probe, 10, split_seed(seed, "lip-env")
            ),
            "lipschitz_fidelity": estimate_lipschitz_fidelity(
                braking, braking_phi, e_probe, 10, split_seed(seed, "lip-fid")
            ),
            "lipschitz_loss": estimate_lipschitz_loss(
                braking, tasks, 10, split_seed(seed, "lip-loss")
            ),
        }
        assert len(rows) == 4
        plan = sample_complexity_plan(
            epsilon=config.analysis_epsilon,
            delta=config.analysis_delta,
            lipschitz=estimates["lipschitz_env"].constant,
            K1=64,
            K2=config.outer_iterations,
            lipschitz_alt=estimates["lipschitz_loss"].constant,
        )
        assert summary == {**estimates, "sample_plan": plan}

    def test_a_diverging_plan_raises_its_standalone_message(self, diverging_spec, synth_phi):
        from safeval.analysis import lipschitz_env_plan, lipschitz_loss_plan, run_plans

        f = diverging_spec.fidelity_space.setting((0.5,))
        task = Task(
            id="task-0",
            parameter_space=diverging_spec.environment_space,
            sampled_params=(diverging_spec.environment_space.config((0.3,)),),
        )
        messages = {}
        for name, call in (
            ("env", lambda: estimate_lipschitz_env(diverging_spec, synth_phi, f, 10, 1)),
            ("loss", lambda: estimate_lipschitz_loss(diverging_spec, [task], 10, 2)),
        ):
            with pytest.raises(SimulationDivergedError) as info:
                call()
            messages[name] = str(info.value)
        assert messages["env"] != messages["loss"]

        def plans():
            return {
                "env": lipschitz_env_plan(diverging_spec, synth_phi, f, 10, 1),
                "loss": lipschitz_loss_plan(diverging_spec, [task], 10, 2),
            }

        for first, second in (("env", "loss"), ("loss", "env")):
            built = plans()
            with pytest.raises(SimulationDivergedError) as info:
                run_plans(diverging_spec, [built[first], built[second]])
            assert str(info.value) == messages[first]


class TestSensitivity:
    def test_linear_in_f(self, linear_sens_spec, synth_phi):
        f = linear_sens_spec.fidelity_space.setting((0.5,))
        rep = sensitivity(
            linear_sens_spec,
            synth_phi,
            f,
            h=1e-3,
            falsify_budget=FalsifyBudget(max_evaluations=600),
            seed=0,
        )
        assert rep.gradient[0] == pytest.approx(0.7, abs=1e-6)
        assert rep.boundary_clipped == (False,)

    def test_quadratic_in_f(self, quad_sens_spec, synth_phi):
        f = quad_sens_spec.fidelity_space.setting((0.4,))
        rep = sensitivity(
            quad_sens_spec,
            synth_phi,
            f,
            h=1e-3,
            falsify_budget=FalsifyBudget(max_evaluations=600),
            seed=0,
        )
        assert rep.gradient[0] == pytest.approx(0.8, abs=1e-4)
        # relative error of the frozen-point stencil vs the true derivative
        assert abs(rep.gradient[0] - 0.8) / 0.8 <= 1e-3

    def test_zero_step_rejected(self, quad_sens_spec, synth_phi):
        f = quad_sens_spec.fidelity_space.setting((0.4,))
        with pytest.raises(InvalidArgumentError):
            sensitivity(
                quad_sens_spec, synth_phi, f, 0.0, FalsifyBudget(max_evaluations=64), seed=0
            )

    def test_noisy_stencil_rejected_before_any_simulation(self, braking, braking_phi):
        # At max fidelity the noise knob is off, but its stencil probe turns it on.
        f = braking.fidelity_space.max_fidelity()
        budget = FalsifyBudget(max_evaluations=600)
        with sim.tally() as counts:
            with pytest.raises(InvalidArgumentError) as info:
                sensitivity_plan(braking, braking_phi, f, 1e-2, budget, seed=0)
        assert str(info.value) == (
            "sensitivity stencil activates the noise knob; supply a repeats count"
        )
        assert counts["high_calls"] + counts["low_calls"] == 0

    def test_boundary_one_sided(self, quad_sens_spec, synth_phi):
        f = quad_sens_spec.fidelity_space.setting((1.0,))
        rep = sensitivity(
            quad_sens_spec,
            synth_phi,
            f,
            h=1e-3,
            falsify_budget=FalsifyBudget(max_evaluations=400),
            seed=0,
        )
        assert rep.boundary_clipped == (True,)
        assert rep.gradient[0] == pytest.approx(2.0, abs=1e-2)

    def test_total_derivative_reported_on_request(self, quad_sens_spec, synth_phi):
        f = quad_sens_spec.fidelity_space.setting((0.4,))
        rep = sensitivity(
            quad_sens_spec,
            synth_phi,
            f,
            h=1e-2,
            falsify_budget=FalsifyBudget(max_evaluations=400),
            seed=0,
            refalsify=True,
        )
        assert rep.total_derivative is not None
        # e*(f) is constant here, so both estimates coincide approximately
        assert rep.total_derivative[0] == pytest.approx(rep.gradient[0], abs=5e-2)


class TestHoeffding:
    def test_reference_value(self):
        assert hoeffding_n(1.0, 0.1, 0.05) == 738

    def test_delta_two_gives_zero(self):
        assert hoeffding_n(1.0, 0.1, 2.0) == 0

    def test_zero_lipschitz_gives_zero(self):
        assert hoeffding_n(0.0, 0.1, 0.05) == 0
        # Also where eps**2 underflows to 0 or ln(2 / delta) overflows.
        assert hoeffding_n(0.0, 1e-170, 1e-320) == 0

    @pytest.mark.parametrize(
        "epsilon, delta",
        [(1e-170, 0.05), (1e-320, 0.05), (1e-160, 0.05), (0.1, 1e-320), (1e-160, 2.0)],
    )
    def test_a_bound_that_is_no_finite_number_overflows(self, epsilon, delta):
        with pytest.raises(OverflowError):
            hoeffding_n(1.0, epsilon, delta)

    def test_invalid_epsilon(self):
        with pytest.raises(InvalidArgumentError):
            hoeffding_n(1.0, 0.0, 0.05)

    @given(
        L=st.floats(0.0, 5.0),
        eps=st.floats(0.01, 1.0),
        delta=st.floats(0.01, 1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotonicity(self, L, eps, delta):
        n = hoeffding_n(L, eps, delta)
        assert hoeffding_n(L, eps / 2, delta) >= n
        assert hoeffding_n(L, eps, delta / 2) >= n
        assert hoeffding_n(L + 1.0, eps, delta) >= n


class TestTotalSamples:
    def test_product(self):
        assert total_samples(10, 5, 4) == 200
        assert total_samples(738, 1, 1) == 738

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            total_samples(-1, 1, 1)

    def test_overflow(self):
        with pytest.raises(OverflowError):
            total_samples(2**40, 2**40, 2)

    def test_plan_invariant(self):
        plan = sample_complexity_plan(0.1, 0.05, 1.0, K1=5, K2=4)
        assert plan.n_per_iteration == 738
        assert plan.total_samples == 738 * 5 * 4

    @pytest.mark.parametrize("epsilon, delta", [(1e-8, 0.05), (1e-170, 0.05), (0.1, 1e-320)])
    def test_plan_beyond_64_bits_is_a_usage_error_naming_its_inputs(self, epsilon, delta):
        with pytest.raises(InvalidArgumentError) as info:
            sample_complexity_plan(epsilon, delta, 2.0, K1=200, K2=20, lipschitz_alt=3.5)
        assert str(info.value) == (
            f"the sample plan for epsilon {epsilon!r}, delta {delta!r} and Lipschitz "
            "constant 3.5 needs more than 2**63 - 1 samples"
        )


class TestConvergence:
    def test_flat_tail_converges(self):
        rep = convergence_report([5.0, 3.0, 2.0, 2.0, 2.0, 2.0], window=3, tol=1e-9)
        assert rep.converged
        assert rep.gap == 0.0

    def test_strictly_decreasing_does_not(self):
        trace = [1.0 / t for t in range(1, 30)]
        rep = convergence_report(trace, window=3, tol=1e-9)
        assert not rep.converged

    def test_gap_is_infinite_while_the_window_starts_at_a_failed_value(self):
        from safeval.analysis import ConvergenceReport

        rep = convergence_report([float("inf"), 2.0, 1.0], window=3, tol=1e-6)
        assert rep == ConvergenceReport(converged=False, gap=float("inf"), window=3)
        with pytest.raises(InvalidArgumentError, match="gap must be a number"):
            ConvergenceReport(converged=False, gap=float("nan"), window=3)

    def test_short_trace_rejected(self):
        with pytest.raises(InvalidArgumentError):
            convergence_report([1.0, 2.0], window=3, tol=1e-6)
        with pytest.raises(InvalidArgumentError):
            convergence_report([1.0, 2.0, 3.0], window=1, tol=1e-6)

    def test_cem_trace_converges(self, quad_robustness_spec, synth_phi):
        from safeval.falsify import falsify

        f = quad_robustness_spec.fidelity_space.setting((1.0,))
        result = falsify(
            quad_robustness_spec, synth_phi, f, FalsifyBudget(max_evaluations=2000), seed=0
        )
        rep = convergence_report(result.trace, window=5, tol=1e-6)
        assert rep.converged
