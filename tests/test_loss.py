import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safeval.campaign import sample_tasks
from safeval.core import (
    EnvironmentSpace,
    FidelitySpace,
    InvalidArgumentError,
    Task,
    Trajectory,
    sample_uniform,
)
from safeval.loss import aggregate_loss, mse_loss
from safeval.sim import simulate_high, simulate_low, tally


def const_traj(value, steps=101, dt=0.01, channels=("x",)):
    return Trajectory(0.0, dt, channels, np.full((len(channels), steps), float(value)))


class TestMseLoss:
    def test_identical_is_zero(self):
        t = const_traj(3.5)
        assert mse_loss(t, t) == 0.0

    def test_constant_one_vs_zero(self):
        assert mse_loss(const_traj(1.0), const_traj(0.0)) == pytest.approx(1.0, abs=1e-12)

    def test_sine_vs_zero_analytic(self):
        # (1/2pi) * integral of sin^2 over [0, 2pi] = 1/2. The grid spans
        # exactly one period at dt ~= 1e-3.
        n = 6284
        dt = 2 * np.pi / (n - 1)
        ts = dt * np.arange(n)
        high = Trajectory(0.0, dt, ("x",), np.sin(ts)[None, :])
        low = Trajectory(0.0, dt, ("x",), np.zeros((1, n)))
        assert mse_loss(high, low) == pytest.approx(0.5, abs=1e-5)

    def test_channel_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            mse_loss(const_traj(1.0, channels=("x",)), const_traj(1.0, channels=("y",)))

    def test_zero_overlap(self):
        a = const_traj(1.0)
        b = Trajectory(10.0, 0.01, ("x",), np.zeros((1, 101)))
        with pytest.raises(InvalidArgumentError):
            mse_loss(a, b)

    def test_resampling_alignment(self):
        # Low on a 3x coarser grid of the same signal: loss stays tiny.
        dt = 0.01
        ts_hi = dt * np.arange(301)
        ts_lo = 3 * dt * np.arange(101)
        high = Trajectory(0.0, dt, ("x",), (ts_hi**2)[None, :])
        low = Trajectory(0.0, 3 * dt, ("x",), (ts_lo**2)[None, :])
        assert mse_loss(high, low) < 1e-7

    @given(
        base=st.floats(-3, 3),
        delta=st.floats(1e-4, 1.0),
        span=st.floats(0.5, 3.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_uniform_offset_bound(self, base, delta, span):
        # |mse(h, l + delta) - mse(h, l)| <= (2*range + delta) * delta
        rng = np.random.default_rng(7)
        n = 101
        h = base + span * rng.standard_normal(n)
        l = base + span * rng.standard_normal(n)
        high = Trajectory(0.0, 0.01, ("x",), h[None, :])
        low = Trajectory(0.0, 0.01, ("x",), l[None, :])
        shifted = Trajectory(0.0, 0.01, ("x",), (l + delta)[None, :])
        change = abs(mse_loss(high, shifted) - mse_loss(high, low))
        signal_range = float(np.max(np.abs(h - l)))
        assert change <= (2 * signal_range + delta) * delta + 1e-12


def task_of(spec, values_list, task_id="task-0"):
    cfgs = tuple(spec.environment_space.config(v) for v in values_list)
    return Task(id=task_id, parameter_space=spec.environment_space, sampled_params=cfgs)


class TestAggregateLoss:
    def test_single_pair_equals_mse(self, oscillator):
        task = task_of(oscillator, [(1.0, 0.5, 0.3)])
        f = oscillator.fidelity_space.setting((0.5, 0.5, 1.0))
        res = aggregate_loss(oscillator, f, [task], seed=3)
        cfg = task.sampled_params[0]
        from safeval.core import split_seed

        pair_seed = split_seed(3, "task-0", 0)
        expected = mse_loss(
            simulate_high(oscillator, cfg, pair_seed),
            simulate_low(oscillator, cfg, f, pair_seed),
        )
        assert res.total == expected
        assert res.pair_count == 1
        assert res.mean == expected

    def test_max_fidelity_is_zero(self, oscillator):
        task = task_of(oscillator, [(0.2, -1.0, 0.8)])
        res = aggregate_loss(oscillator, oscillator.fidelity_space.max_fidelity(), [task], seed=0)
        assert res.total <= 1e-12

    def test_coarse_exceeds_fine(self, oscillator):
        task = task_of(oscillator, [(1.0, 0.0, 0.2), (-0.5, 1.0, 0.7)])
        coarse = aggregate_loss(
            oscillator, oscillator.fidelity_space.setting((0.1, 1.0, 1.0)), [task], seed=1
        )
        fine = aggregate_loss(
            oscillator, oscillator.fidelity_space.setting((0.9, 1.0, 1.0)), [task], seed=1
        )
        assert coarse.total > fine.total

    def test_additivity_over_disjoint_tasks(self, oscillator):
        a = task_of(oscillator, [(1.0, 0.0, 0.1)], task_id="task-a")
        b = task_of(oscillator, [(0.0, 1.0, 0.5), (-1.0, -1.0, 0.9)], task_id="task-b")
        f = oscillator.fidelity_space.setting((0.4, 0.6, 1.0))
        both = aggregate_loss(oscillator, f, [a, b], seed=5)
        only_a = aggregate_loss(oscillator, f, [a], seed=5)
        only_b = aggregate_loss(oscillator, f, [b], seed=5)
        assert both.total == only_a.total + only_b.total

    def test_extras_contribute(self, oscillator):
        task = task_of(oscillator, [(1.0, 0.0, 0.1)])
        extra = oscillator.environment_space.config((0.3, 0.3, 0.3))
        f = oscillator.fidelity_space.setting((0.3, 0.5, 1.0))
        with_extra = aggregate_loss(oscillator, f, [task], extra_configs=[extra], seed=2)
        without = aggregate_loss(oscillator, f, [task], seed=2)
        assert with_extra.pair_count == 2
        assert with_extra.total > without.total

    def test_weights_scale_tasks(self, oscillator):
        task = task_of(oscillator, [(1.0, 0.0, 0.1)])
        f = oscillator.fidelity_space.setting((0.5, 0.5, 1.0))
        base = aggregate_loss(oscillator, f, [task], seed=4)
        doubled = aggregate_loss(oscillator, f, [task], seed=4, weights={"task-0": 2.0})
        assert doubled.total == pytest.approx(2 * base.total, rel=1e-12)

    def test_empty_everything_rejected(self, oscillator):
        with pytest.raises(InvalidArgumentError):
            aggregate_loss(oscillator, oscillator.fidelity_space.max_fidelity(), [], seed=0)

    def test_fidelity_of_another_dimension_rejected_before_simulating(self, braking):
        tasks = sample_tasks(braking, 1, 2, seed=0)
        f = FidelitySpace(dimension=1).setting((0.5,))
        calls = [
            lambda: aggregate_loss(braking, f, tasks, seed=0),
            lambda: simulate_low(braking, tasks[0].sampled_params[0], f, seed=0),
        ]
        with tally() as counts:
            for call in calls:
                with pytest.raises(InvalidArgumentError, match="^fidelity setting dimension mismatch"):
                    call()
        assert counts["high_calls"] == counts["low_calls"] == 0

    def test_row_outside_the_space_named_before_simulating(self, braking, oscillator):
        tasks = sample_tasks(braking, 1, 2, seed=0)
        f = braking.fidelity_space.setting((0.5, 0.5, 0.5))
        outside = oscillator.environment_space.config((1.5, -1.0, 0.6))
        one_dimensional = EnvironmentSpace(lower=(0.0,), upper=(1.0,)).config((0.5,))
        named = lambda row: (
            f"^environment row {row}, \\(1\\.5, -1\\.0, 0\\.6\\), is out-of-bounds or NaN "
            "for the space of simulator 'braking'$"
        )
        cache = {}
        aggregate_loss(braking, f, tasks, seed=0, high_cache=cache)
        calls = [
            (lambda: aggregate_loss(braking, f, tasks, [outside], seed=0), named(2)),
            # With the tasks' high runs cached, the extra is the high call's only row.
            (lambda: aggregate_loss(braking, f, tasks, [outside], 0, high_cache=cache), named(0)),
            (lambda: simulate_high(braking, outside, seed=0), named(0)),
            (lambda: simulate_low(braking, outside, f, seed=0), named(0)),
            # Rows of different lengths are a shape error, not a ValueError from NumPy.
            (
                lambda: aggregate_loss(braking, f, tasks, [one_dimensional], 0),
                r"^e_values must have shape \(batch, 3\)$",
            ),
        ]
        with tally() as counts:
            for call, message in calls:
                with pytest.raises(InvalidArgumentError, match=message):
                    call()
        assert set(counts.values()) == {0}

    def test_failure_identifies_pair(self, diverging_spec):
        task = Task(
            id="task-z",
            parameter_space=diverging_spec.environment_space,
            sampled_params=(diverging_spec.environment_space.config((0.5,)),),
        )
        f = diverging_spec.fidelity_space.setting((0.5,))
        with pytest.raises(Exception) as err:
            aggregate_loss(diverging_spec, f, [task], seed=0)
        assert "task-z" in str(err.value)

    def test_high_cache_reused(self, oscillator):
        task = task_of(oscillator, [(1.0, 0.0, 0.1)])
        f = oscillator.fidelity_space.setting((0.5, 0.5, 1.0))
        cache: dict = {}
        first = aggregate_loss(oscillator, f, [task], seed=9, high_cache=cache)
        assert ("task-0", (1.0, 0.0, 0.1)) in cache
        again = aggregate_loss(oscillator, f, [task], seed=9, high_cache=cache)
        assert again.total == first.total

    def test_high_cache_survives_a_changed_extras_list(self, braking):
        # Dropping the first extra moves the second to index 0; its cached
        # high run must still be its own.
        tasks = sample_tasks(braking, 1, 2, seed=5)
        a, b = sample_uniform(braking.environment_space, 2, seed=6)
        f = braking.fidelity_space.setting((0.5, 0.5, 1.0))
        cache: dict = {}
        aggregate_loss(braking, f, tasks, extra_configs=[a, b], seed=5, high_cache=cache)
        reused = aggregate_loss(braking, f, tasks, extra_configs=[b], seed=5, high_cache=cache)
        fresh = aggregate_loss(braking, f, tasks, extra_configs=[b], seed=5)
        assert reused.total == fresh.total
