"""The batched loss, estimator and campaign paths against per-trajectory references.

Each reference is computed here from single-trajectory calls
(``simulate_high``/``simulate_low``) or from one-row ``simulate_batch``
calls, and compared with ``==``: batching must not change a single bit.
"""

import importlib
import math

import numpy as np
import pytest

from safeval.analysis import (
    _force_noise_off,
    _max_slope,
    _paired_points,
    _stencil,
    estimate_lipschitz_env,
    estimate_lipschitz_fidelity,
    estimate_lipschitz_loss,
    sensitivity,
)
from safeval.campaign import (
    CampaignConfig,
    optimize_fidelity,
    run_joint,
    sample_tasks,
    save_result,
)
from safeval.core import (
    EnvironmentSpace,
    FidelitySpace,
    SimulationDivergedError,
    Task,
    Trajectory,
    latin_hypercube_unit,
    sample_uniform,
    split_seed,
)
from safeval.falsify import FalsifyBudget, falsify
from safeval.loss import aggregate_loss, mse_loss
from safeval.sim import (
    SimulatorSpec,
    get_benchmark,
    identity_mapping,
    simulate_high,
    simulate_low,
)
from safeval.stl import robustness
from tests.conftest import replace_braking_backend

sim_module = importlib.import_module("safeval.sim")
loss_module = importlib.import_module("safeval.loss")
analysis_module = importlib.import_module("safeval.analysis")
campaign_module = importlib.import_module("safeval.campaign")
falsify_module = importlib.import_module("safeval.falsify")


def reference_loss(spec, f, tasks, extras, seed, weights, cache):
    """The per-pair definition: one high and one low run per pair, in pair order."""
    groups = [(t.id, t.sampled_params, weights.get(t.id, 1.0)) for t in tasks]
    if extras:
        groups.append(("extra", tuple(extras), 1.0))
    per_task = []
    for task_id, cfgs, w in groups:
        terms = []
        for j, cfg in enumerate(cfgs):
            pair_seed = split_seed(seed, task_id, j)
            if (task_id, cfg.values) in cache:
                high = Trajectory(0.0, spec.base_dt, spec.channels, cache[(task_id, cfg.values)])
            else:
                high = simulate_high(spec, cfg, pair_seed)
            terms.append(w * mse_loss(high, simulate_low(spec, cfg, f, pair_seed)))
        per_task.append((task_id, math.fsum(terms)))
    return math.fsum(v for _, v in per_task), tuple(per_task)


def count_batches(monkeypatch, module):
    """Record the fidelity argument of each ``simulate_batch`` call made from ``module``."""
    calls = []
    real = module.simulate_batch

    def counted(spec, e_values, f, seeds):
        calls.append((f, len(seeds)))
        return real(spec, e_values, f, seeds)

    monkeypatch.setattr(module, "simulate_batch", counted)
    return calls


class TestAggregateLoss:
    @pytest.mark.parametrize("sim_id", ["braking", "oscillator"])
    def test_matches_per_pair_definition(self, sim_id, monkeypatch):
        spec = get_benchmark(sim_id)
        tasks = sample_tasks(spec, 2, (2, 3), seed=8)
        extras = sample_uniform(spec.environment_space, 2, seed=9)
        f = spec.fidelity_space.setting((0.4, 0.7, 0.6))  # noise knob active
        weights = {"task-0": 2.5}
        seed = 31

        def config_of(task_id, j):
            return (extras if task_id == "extra" else tasks[int(task_id[-1])].sampled_params)[j]

        def key_of(task_id, j):
            return (task_id, config_of(task_id, j).values)

        def high_of(task_id, j):
            return simulate_high(spec, config_of(task_id, j), split_seed(seed, task_id, j))

        cache = {key_of(*pair): high_of(*pair).samples for pair in [("task-0", 1), ("task-1", 0)]}
        warm = set(cache)
        expected_total, expected_per_task = reference_loss(
            spec, f, tasks, extras, seed, weights, dict(cache)
        )

        calls = count_batches(monkeypatch, loss_module)
        got = aggregate_loss(
            spec, f, tasks, extra_configs=extras, seed=seed, weights=weights, high_cache=cache
        )
        assert got.total == expected_total
        assert got.per_task == expected_per_task
        assert got.pair_count == 7
        # One high call over the 5 uncached pairs, one low call over all 7.
        assert calls == [(None, 5), (f, 7)]
        missing = {("task-0", 0), ("task-1", 1), ("task-1", 2), ("extra", 0), ("extra", 1)}
        assert set(cache) == warm | {key_of(*pair) for pair in missing}
        for pair in missing:
            assert np.array_equal(cache[key_of(*pair)], high_of(*pair).samples)

    def test_warm_cache_skips_the_high_call(self, braking, monkeypatch):
        tasks = sample_tasks(braking, 1, 3, seed=4)
        f = braking.fidelity_space.setting((0.5, 0.5, 1.0))
        cache: dict = {}
        first = aggregate_loss(braking, f, tasks, seed=2, high_cache=cache)
        calls = count_batches(monkeypatch, loss_module)
        again = aggregate_loss(braking, f, tasks, seed=2, high_cache=cache)
        assert calls == [(f, 3)]
        assert again == first


def diverge_at(e_low, e_high):
    """Backend emitting y = e, but NaN on the low path at ``e_low`` and on the high path at ``e_high``."""

    class Backend:
        def run(self, spec, e_values, f_rows, seeds, high, n_samples):
            bad = np.where(high, e_high, e_low)
            out = np.repeat(e_values[:, :1, None], n_samples, axis=2)
            out[e_values[:, 0] == bad] = np.nan
            return out, np.full(len(e_values), spec.steps)

    return Backend()


@pytest.mark.parametrize(
    "e_low, e_high, named",
    [
        (0.5, 0.7, "task 'task-b', parameter index 1"),  # low fails first
        (0.7, 0.5, "task 'task-b', parameter index 1"),  # high fails first
        (0.9, 0.2, "task 'task-a', parameter index 1"),  # high fails at a task pair, low at an extra
    ],
)
def test_divergence_names_first_failing_pair(e_low, e_high, named):
    sim_id = f"synth-diverge-{e_low}-{e_high}"
    space = EnvironmentSpace(lower=(0.0,), upper=(1.0,))
    spec = SimulatorSpec(
        id=sim_id,
        environment_space=space,
        fidelity_space=FidelitySpace(dimension=1),
        channels=("y",),
        base_dt=0.1,
        duration=1.0,
        fidelity_mapping=identity_mapping(1),
        backend=diverge_at(e_low, e_high),
    )

    def task(task_id, values):
        return Task(task_id, space, tuple(space.config((v,)) for v in values))

    tasks = [task("task-a", (0.1, 0.2)), task("task-b", (0.3, 0.5, 0.7))]
    with pytest.raises(SimulationDivergedError, match=named):
        aggregate_loss(
            spec,
            spec.fidelity_space.setting((0.5,)),
            tasks,
            extra_configs=[space.config((0.9,))],
            seed=0,
        )


def rho_reference(spec, phi, e_row, f_row, seed, repeats):
    """Mean robustness of one (e, f) row from single-trajectory calls, summed in repeat order."""
    e = spec.environment_space.config(e_row)
    f = spec.fidelity_space.setting(f_row)
    total = 0.0
    for k in range(repeats or 1):
        total += robustness(phi, simulate_low(spec, e, f, split_seed(seed, "rep", k)))
    return total / (repeats or 1)


class TestEstimators:
    def test_lipschitz_env(self, braking, braking_phi):
        f = braking.fidelity_space.setting((0.6, 0.8, 0.5))  # noisy, so repeats matter
        seed, pairs, repeats = 13, 12, 2
        got = estimate_lipschitz_env(braking, braking_phi, f, pairs, seed, repeats=repeats)
        space = braking.environment_space
        a, b = _paired_points(space.lower_array(), space.upper_array(), pairs, seed)
        eval_seed = split_seed(seed, "eval")
        va = np.array([rho_reference(braking, braking_phi, r, f.values, eval_seed, repeats) for r in a])
        vb = np.array([rho_reference(braking, braking_phi, r, f.values, eval_seed, repeats) for r in b])
        assert got == _max_slope(a, b, va, vb)

    def test_lipschitz_fidelity(self, braking, braking_phi):
        e = braking.environment_space.config((20.0, 25.0, 6.0))
        seed, pairs = 17, 12
        got = estimate_lipschitz_fidelity(braking, braking_phi, e, pairs, seed)
        a, b = _paired_points(np.zeros(3), np.ones(3), pairs, seed)
        a, b = _force_noise_off(braking, a), _force_noise_off(braking, b)
        eval_seed = split_seed(seed, "eval")
        va = np.array([rho_reference(braking, braking_phi, e.values, r, eval_seed, None) for r in a])
        vb = np.array([rho_reference(braking, braking_phi, e.values, r, eval_seed, None) for r in b])
        assert got == _max_slope(a, b, va, vb)

    def test_lipschitz_loss_trajectories(self, braking, monkeypatch):
        # The estimator compares each base pair (high, low) with a perturbed
        # copy; the base pairs must be the single-call trajectories.
        tasks = sample_tasks(braking, 2, 2, seed=3)
        seed, pairs = 23, 12
        seen = []
        real_mse_rows = analysis_module._mse_rows

        def recording_mse_rows(high, low, times):
            seen.append((high.copy(), low.copy()))
            return real_mse_rows(high, low, times)

        monkeypatch.setattr(analysis_module, "_mse_rows", recording_mse_rows)
        got = estimate_lipschitz_loss(braking, tasks, pairs, seed)
        assert got.pairs_used == pairs and len(seen) == 2
        highs, lows = seen[0]  # the base pairs; the perturbed copies follow
        assert len(highs) == len(lows) == pairs
        configs = [cfg for t in tasks for cfg in t.sampled_params]
        f_rows = _force_noise_off(braking, latin_hypercube_unit(3, pairs, split_seed(seed, "fid")))
        for k in range(pairs):
            cfg, pair_seed = configs[k % len(configs)], split_seed(seed, "pair", k)
            f = braking.fidelity_space.setting(f_rows[k])
            assert np.array_equal(highs[k], simulate_high(braking, cfg, pair_seed).samples)
            assert np.array_equal(lows[k], simulate_low(braking, cfg, f, pair_seed).samples)

    def test_sensitivity_gradient_with_repeats(self, braking, braking_phi):
        f = braking.fidelity_space.max_fidelity()  # the stencil activates the noise knob
        budget = FalsifyBudget(max_evaluations=64, population=32)
        seed, h = 29, 1e-3
        got = sensitivity(braking, braking_phi, f, h, budget, seed, repeats=3)
        entries = _stencil(np.asarray(f.values), h)
        stencil_seed = split_seed(seed, "stencil")
        expected = []
        for k, plus, minus, _ in entries:
            rp = rho_reference(braking, braking_phi, got.base_config, plus, stencil_seed, 3)
            rm = rho_reference(braking, braking_phi, got.base_config, minus, stencil_seed, 3)
            expected.append((rp - rm) / float(plus[k] - minus[k]))
        assert got.gradient == tuple(expected)

    def test_sensitivity_refalsifies_the_stencil_in_lockstep(self, braking, braking_phi, monkeypatch):
        f = braking.fidelity_space.setting((0.6, 0.8, 1.0))
        budget = FalsifyBudget(max_evaluations=192, population=32)
        seed, h = 31, 0.05
        entries = _stencil(np.asarray(f.values), h)
        falsify_seed = split_seed(seed, "falsify")
        expected = []
        for k, plus, minus, _ in entries:
            rp, rm = (
                falsify(braking, braking_phi, braking.fidelity_space.setting(row), budget,
                        falsify_seed).best_robustness
                for row in (plus, minus)
            )
            expected.append((rp - rm) / float(plus[k] - minus[k]))
        calls = []
        real = falsify_module.simulate_batch_multi_f

        def counting(*args, **kwargs):
            samples, ok = real(*args, **kwargs)
            calls.append(len(ok))
            return samples, ok

        monkeypatch.setattr(falsify_module, "simulate_batch_multi_f", counting)
        got = sensitivity(braking, braking_phi, f, h, budget, seed, repeats=2, refalsify=True)
        assert got.total_derivative == tuple(expected)
        # The base search at f, then the six stencil searches in lockstep;
        # each makes generations 0-3 alone, then 4 with 5.
        assert calls == [32] * 4 + [64] + [6 * 32] * 4 + [6 * 64]


def per_row(spec, e_values, settings, seeds):
    """One ``simulate_batch`` call per row: the per-trajectory reference."""
    parts = [
        sim_module.simulate_batch(spec, e_values[i : i + 1], f, [s])
        for i, (f, s) in enumerate(zip(settings, seeds))
    ]
    return np.concatenate([p[0] for p in parts]), np.concatenate([p[1] for p in parts])


def one_row_calls(spec, e_values, f, seeds):
    return per_row(spec, e_values, [f] * len(seeds), seeds)


def one_row_multi_f(spec, e_values, f_rows, seeds, high=None):
    high = [False] * len(seeds) if high is None else high
    settings = [None if h else spec.fidelity_space.setting(r) for r, h in zip(f_rows, high)]
    return per_row(spec, e_values, settings, seeds)


def test_noise_drawn_once_per_seed_matches_per_row_draws(braking, monkeypatch):
    # Shared and distinct seeds, rows with noise off (noise knob 1) and high
    # rows, whose noise knob is ignored. Rows 0 and 3 share a seed at
    # different noise scales; seeds 12 and 13 appear only on noise-free rows.
    seeds = [7, 8, 7, 7, 9, 8, 12, 13, 7, 10]
    noise_knob = [0.2, 0.5, 0.2, 0.7, 0.0, 1.0, 1.0, 0.3, 1.0, 0.9]
    high = [False, False, False, False, False, False, False, True, True, False]
    e_values = np.array([c.as_array() for c in sample_uniform(braking.environment_space, 10, 3)])
    f_rows = np.column_stack([np.linspace(0.2, 1.0, 10), np.full(10, 0.6), noise_knob])

    expected = []
    for i, (seed, is_high) in enumerate(zip(seeds, high)):
        quiet = None if is_high else braking.fidelity_space.setting((*f_rows[i, :2], 1.0))
        samples, _ = sim_module.simulate_batch(braking, e_values[i : i + 1], quiet, [seed])
        sigma = braking.fidelity_mapping.noise_scale(f_rows[i])
        if not is_high and sigma > 0.0:
            rng = sim_module.rng_from_seed(split_seed(seed, "obs-noise", braking.id))
            samples[0] += sigma * rng.standard_normal(samples[0].shape)
        expected.append(samples[0])

    keys = []
    real_rng = sim_module.rng_from_seed

    def counting_rng(seed):
        keys.append(seed)
        return real_rng(seed)

    monkeypatch.setattr(sim_module, "rng_from_seed", counting_rng)
    samples, ok = sim_module.simulate_batch_multi_f(braking, e_values, f_rows, seeds, high)
    assert ok.all()
    assert samples.tobytes() == np.array(expected).tobytes()
    assert keys == [split_seed(s, "obs-noise", braking.id) for s in (7, 8, 9, 10)]


def test_campaign_totals_match_per_trajectory_calls(tmp_path, monkeypatch):
    config = CampaignConfig(
        simulator="braking",
        task_count=2,
        params_per_task=2,
        outer_iterations=3,
        master_seed=41,
        falsify_budget=FalsifyBudget(max_evaluations=64, population=32, samples_per_eval=2),
        analysis_pairs=10,
    )
    batched = run_joint(config)
    save_result(batched, tmp_path / "batched.json")

    monkeypatch.setattr(campaign_module, "simulate_batch", one_row_calls)
    monkeypatch.setattr(loss_module, "simulate_batch", one_row_calls)
    monkeypatch.setattr(analysis_module, "simulate_batch_multi_f", one_row_multi_f)
    reference = run_joint(config)
    save_result(reference, tmp_path / "reference.json")

    assert batched.totals == reference.totals
    for phase in ("setup", "loss", "analysis"):
        assert batched.totals[f"{phase}_high_calls"] > 0
    assert (tmp_path / "batched.json").read_bytes() == (tmp_path / "reference.json").read_bytes()


class LossPathTypeError:
    """Braking, except that batches with low-fidelity rows smaller than a
    falsifier population raise TypeError: a programming error inside the
    loss path."""

    def __init__(self, inner, population):
        self.inner, self.population = inner, population

    def run(self, spec, e_values, f_rows, seeds, high, n_samples):
        if not high.all() and len(e_values) < self.population:
            raise TypeError("synthetic programming error")
        return self.inner.run(spec, e_values, f_rows, seeds, high, n_samples)


@pytest.fixture()
def loss_path_bug(monkeypatch):
    return replace_braking_backend(monkeypatch, lambda real: LossPathTypeError(real, 32))


def test_run_joint_propagates_programming_errors(loss_path_bug):
    config = CampaignConfig(
        simulator="braking",
        task_count=1,
        params_per_task=2,
        outer_iterations=2,
        master_seed=5,
        falsify_budget=FalsifyBudget(max_evaluations=64, population=32),
        analysis_pairs=10,
    )
    with pytest.raises(TypeError, match="synthetic programming error"):
        run_joint(config)


def test_optimize_fidelity_propagates_programming_errors(loss_path_bug):
    tasks = sample_tasks(loss_path_bug, 1, 2, seed=5)
    with pytest.raises(TypeError, match="synthetic programming error"):
        optimize_fidelity(loss_path_bug, tasks, T=2, seed=5)


class SeedOffsetHigh:
    """Braking, except that each high-fidelity row is offset by an amount
    set by its seed, so that the seed scheme of the cached runs shows."""

    def __init__(self, inner):
        self.inner = inner

    def run(self, spec, e_values, f_rows, seeds, high, n_samples):
        samples, steps = self.inner.run(spec, e_values, f_rows, seeds, high, n_samples)
        offsets = np.array([(s % 1000) * 1e-3 for s in seeds])
        samples[high] += offsets[high][:, None, None]
        return samples, steps


def test_cached_high_runs_share_the_loss_seed_scheme(monkeypatch):
    braking = replace_braking_backend(monkeypatch, SeedOffsetHigh)
    config = CampaignConfig(
        simulator="braking",
        task_count=2,
        params_per_task=2,
        outer_iterations=1,
        master_seed=7,
        falsify_budget=FalsifyBudget(max_evaluations=64, population=32),
        analysis_pairs=10,
    )
    result = run_joint(config)
    tasks = sample_tasks(braking, config.task_count, config.params_per_task, config.master_seed)
    extras = [braking.environment_space.config(c.values) for c in result.counterexamples]
    f = braking.fidelity_space.setting(result.iterations[0].fidelity)
    fresh = aggregate_loss(
        braking, f, tasks, extra_configs=extras, seed=split_seed(config.master_seed, "loss")
    )
    assert result.iterations[0].loss == fresh.total
