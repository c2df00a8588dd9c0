"""Acceptance gate: every release criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion. The braking ground-truth oracle (a 50^3 brute-force grid at high
fidelity) is computed once per session and shared.
"""

import json
import time

import numpy as np
import pytest
from scipy import stats

from safeval.analysis import (
    _paired_points,
    _rho_plan,
    estimate_lipschitz_env,
    estimate_lipschitz_fidelity,
    hoeffding_n,
    run_plans,
    sensitivity,
    total_samples,
)
from safeval.bo import GpKernel, GpState, gp_posterior, gp_ucb_minimize, regret_growth_fit
from safeval.campaign import (
    AdaptiveBudgetPolicy,
    CampaignConfig,
    load_result,
    run_joint,
    sample_tasks,
)
from safeval.cli import main
from safeval.core import Trajectory, rng_from_seed, split_seed
from safeval.falsify import FalsifyBudget, falsify
from safeval.loss import aggregate_loss, mse_loss
from safeval.sim import simulate_batch

GRID_N = 50


@pytest.fixture(scope="session")
def braking_oracle(braking):
    """Brute-force high-fidelity robustness of G[0,6](gap > 0) on a 50^3 grid."""
    lo = braking.environment_space.lower_array()
    hi = braking.environment_space.upper_array()
    axes = [np.linspace(lo[d], hi[d], GRID_N) for d in range(3)]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    gap_row = braking.channels.index("gap")
    rho = np.empty(len(mesh))
    chunk = 4096
    for start in range(0, len(mesh), chunk):
        part = mesh[start : start + chunk]
        samples, ok = simulate_batch(braking, part, None, [0] * len(part))
        assert ok.all()
        rho[start : start + len(part)] = samples[:, gap_row, :].min(axis=1)
    return axes, rho.reshape(GRID_N, GRID_N, GRID_N)


def oracle_certifies_crash(axes, rho_grid, config_values):
    idx = tuple(int(np.abs(axes[d] - config_values[d]).argmin()) for d in range(3))
    return rho_grid[idx] < 0


def test_criterion_01_falsification_finds_certified_crashes(braking, braking_phi, braking_oracle):
    axes, rho_grid = braking_oracle
    assert (rho_grid < 0).any(), "oracle must certify a nonempty crash region"
    f_max = braking.fidelity_space.max_fidelity()
    budget = FalsifyBudget(max_evaluations=3000)
    elapsed = 0.0
    for seed in range(10):
        start = time.monotonic()
        result = falsify(braking, braking_phi, f_max, budget, seed=seed)
        elapsed += time.monotonic() - start
        assert result.counterexample_found, f"seed {seed} found no counterexample"
        assert result.best_robustness < 0
        assert oracle_certifies_crash(axes, rho_grid, result.best_config.values), (
            f"seed {seed}: {result.best_config.values} not in the certified crash region"
        )
    assert elapsed < 60.0, f"falsification took {elapsed:.1f} s (budget: 60 s)"
    print(f"ACCEPTANCE 01 PASS: 10/10 certified counterexamples in {elapsed:.1f} s")


def test_criterion_02_mse_matches_analytic_integral():
    n = 6284
    dt = 2 * np.pi / (n - 1)
    ts = dt * np.arange(n)
    high = Trajectory(0.0, dt, ("x",), np.sin(ts)[None, :])
    low = Trajectory(0.0, dt, ("x",), np.zeros((1, n)))
    value = mse_loss(high, low)
    assert abs(value - 0.5) <= 1e-5
    assert mse_loss(high, high) <= 1e-12
    print(f"ACCEPTANCE 02 PASS: mse(sin, 0) = {value:.8f}; identical-pair loss 0")


def test_criterion_03_max_fidelity_identity(braking):
    from safeval.core import sample_uniform

    f_max = braking.fidelity_space.max_fidelity()
    configs = sample_uniform(braking.environment_space, 100, seed=21)
    values = np.array([c.values for c in configs])
    high, ok_h = simulate_batch(braking, values, None, [4] * 100)
    low, ok_l = simulate_batch(braking, values, f_max, [4] * 100)
    assert ok_h.all() and ok_l.all()
    worst = float(np.max(np.abs(high - low)))
    assert worst <= 1e-9
    print(f"ACCEPTANCE 03 PASS: sup-norm gap at max fidelity = {worst:.2e} over 100 configs")


def test_criterion_04_regret_growth_on_known_quadratic():
    start = time.monotonic()
    exponents, hits = [], 0
    for seed in range(10):
        res = gp_ucb_minimize(
            lambda x, t: float((x[0] - 0.3) ** 2),
            dimension=1,
            iterations=100,
            seed=seed,
            reference_optimum=0.0,
        )
        exponents.append(regret_growth_fit(res.regret))
        if abs(res.best_fidelity.values[0] - 0.3) <= 0.05:
            hits += 1
    elapsed = time.monotonic() - start
    sublinear = sum(e <= 0.8 for e in exponents)
    assert sublinear >= 9, f"only {sublinear}/10 seeds had exponent <= 0.8: {exponents}"
    assert hits == 10, f"only {hits}/10 seeds landed within 0.05 of the optimum"
    assert elapsed < 30.0, f"took {elapsed:.1f} s (budget: 30 s)"
    print(
        f"ACCEPTANCE 04 PASS: exponent <= 0.8 in {sublinear}/10 seeds "
        f"(max {max(exponents):.3f}), optimum hit 10/10, {elapsed:.1f} s"
    )


def test_criterion_05_hoeffding_bound_and_monte_carlo():
    n = hoeffding_n(1.0, 0.1, 0.05)
    assert n == 738
    misses = 0
    trials = 1000
    for k in range(trials):
        rng = rng_from_seed(split_seed(1234, "mc", k))
        mean = float(rng.random(n).mean())
        if abs(mean - 0.5) > 0.1:
            misses += 1
    assert misses <= 0.05 * trials
    upper = float(stats.beta.ppf(0.99, misses + 1, trials - misses)) if misses < trials else 1.0
    assert upper < 0.07, f"99% CI upper bound {upper:.4f} not below 0.07"
    print(
        f"ACCEPTANCE 05 PASS: hoeffding_n = {n}; {misses}/{trials} misses, "
        f"99% CI upper bound {upper:.4f}"
    )


def rho_rows(spec, phi, e_values, f_rows, seed):
    """Robustness of each (e, f) row, in one simulator call."""
    return run_plans(spec, [_rho_plan(spec, phi, e_values, f_rows, seed, None)])[0]


def test_criterion_06_lipschitz_estimates_hold_out(braking, braking_phi):
    f_max = braking.fidelity_space.max_fidelity()
    est_env = estimate_lipschitz_env(braking, braking_phi, f_max, pairs=500, seed=101)
    space = braking.environment_space
    a, b = _paired_points(space.lower_array(), space.upper_array(), 1000, 909)
    f_rows = np.tile(f_max.as_array(), (len(a), 1))
    va = rho_rows(braking, braking_phi, a, f_rows, split_seed(909, "eval"))
    vb = rho_rows(braking, braking_phi, b, f_rows, split_seed(909, "eval"))
    dist = np.linalg.norm(a - b, axis=1)
    env_ok = np.abs(va - vb) <= 1.1 * est_env.constant * dist
    assert env_ok.mean() >= 0.99, f"env-direction bound held on only {env_ok.mean():.3f}"

    e_center = space.config((space.lower_array() + space.upper_array()) / 2.0)
    est_fid = estimate_lipschitz_fidelity(braking, braking_phi, e_center, pairs=500, seed=101)
    from safeval.analysis import _force_noise_off

    fa, fb = _paired_points(np.zeros(3), np.ones(3), 1000, 909)
    fa, fb = _force_noise_off(braking, fa), _force_noise_off(braking, fb)
    e_rows = np.tile(e_center.as_array(), (len(fa), 1))
    wa = rho_rows(braking, braking_phi, e_rows, fa, split_seed(909, "eval"))
    wb = rho_rows(braking, braking_phi, e_rows, fb, split_seed(909, "eval"))
    fdist = np.linalg.norm(fa - fb, axis=1)
    usable = fdist > 1e-15
    fid_ok = np.abs(wa - wb)[usable] <= 1.1 * est_fid.constant * fdist[usable]
    assert fid_ok.mean() >= 0.99, f"fidelity-direction bound held on only {fid_ok.mean():.3f}"
    print(
        f"ACCEPTANCE 06 PASS: bound held on {env_ok.mean():.1%} (env) and "
        f"{fid_ok.mean():.1%} (fidelity) of 1000 fresh pairs"
    )


def test_criterion_07_sensitivity_matches_analytic_derivative(quad_sens_spec, synth_phi):
    f = quad_sens_spec.fidelity_space.setting((0.4,))
    rep = sensitivity(
        quad_sens_spec,
        synth_phi,
        f,
        h=1e-3,
        falsify_budget=FalsifyBudget(max_evaluations=600),
        seed=5,
    )
    analytic = 2 * 0.4
    rel_err = abs(rep.gradient[0] - analytic) / analytic
    assert rel_err <= 1e-3, f"relative error {rel_err:.2e}"
    print(f"ACCEPTANCE 07 PASS: S(0.4) = {rep.gradient[0]:.6f} vs 0.8 (rel err {rel_err:.2e})")


def test_criterion_08_gp_interpolation_and_variance_monotonicity():
    kernel = GpKernel(lengthscales=(0.2, 0.2), amplitude=1.0, noise_variance=1e-12)
    rng = np.random.default_rng(3)
    for _ in range(20):
        gp = GpState.empty(2, kernel)
        xs = rng.random((6, 2))
        ys = rng.uniform(-1, 1, 6)
        for x, y in zip(xs, ys):
            gp = gp.with_observation(x, float(y))
        for x, y in zip(xs, ys):
            mean, std = gp_posterior(gp, x)
            assert abs(mean - y) <= 1e-6
            assert std <= 1e-3

    kernel = GpKernel(lengthscales=(0.2, 0.2), amplitude=1.0, noise_variance=1e-6)
    assertions = 0
    for seq in range(50):
        rng = np.random.default_rng(1000 + seq)
        gp = GpState.empty(2, kernel)
        query = rng.random(2)
        _, last = gp_posterior(gp, query)
        for _ in range(20):
            gp = gp.with_observation(rng.random(2), float(rng.normal()))
            _, std = gp_posterior(gp, query)
            assert std <= last + 1e-12
            last = std
            assertions += 1
    assert assertions == 1000
    print("ACCEPTANCE 08 PASS: interpolation within 1e-6/1e-3; 1000 variance assertions")


def test_criterion_09_joint_campaign_end_to_end(tmp_path, braking):
    config = CampaignConfig(
        simulator="braking",
        task_count=2,
        params_per_task=3,
        outer_iterations=20,
        master_seed=2024,
        falsify_budget=FalsifyBudget(
            max_evaluations=192, population=64, stop_tolerance=0.0, samples_per_eval=1
        ),
        budget_policy=AdaptiveBudgetPolicy(base_budget=192, scale=0.0),
        analysis_pairs=24,
    )
    start = time.monotonic()
    result = run_joint(config, output_dir=tmp_path)
    elapsed = time.monotonic() - start
    assert elapsed < 300.0, f"campaign took {elapsed:.1f} s (budget: 300 s)"

    # schema-valid on disk and lossless through the loader
    loaded = load_result(tmp_path / "result.json")
    assert loaded == result
    assert len(result.iterations) == 20

    # Sample-accounting identity: with a fixed inner budget, the logged
    # low-fidelity falsification calls equal n * K1 * K2 exactly.
    n = config.falsify_budget.samples_per_eval
    k1 = config.budget_policy.base_budget
    k2 = config.outer_iterations
    assert all(r.inner_evaluations == k1 for r in result.iterations)
    assert result.totals["inner_low_calls"] == total_samples(n, k1, k2)

    # Best fidelity beats the fixed mid-fidelity baseline on the same set.
    tasks = sample_tasks(braking, config.task_count, config.params_per_task, config.master_seed)
    extras = [braking.environment_space.config(c.values) for c in result.counterexamples]
    seed = split_seed(config.master_seed, "loss")
    f_best = braking.fidelity_space.setting(result.best_fidelity)
    f_mid = braking.fidelity_space.setting((0.5, 0.5, 0.5))
    loss_best = aggregate_loss(braking, f_best, tasks, extra_configs=extras, seed=seed)
    loss_mid = aggregate_loss(braking, f_mid, tasks, extra_configs=extras, seed=seed)
    assert loss_best.total <= loss_mid.total
    print(
        f"ACCEPTANCE 09 PASS: campaign in {elapsed:.1f} s, "
        f"inner calls {result.totals['inner_low_calls']} = {n}*{k1}*{k2}, "
        f"loss(f*) {loss_best.total:.4g} <= loss(mid) {loss_mid.total:.4g}"
    )


def test_criterion_10_cli_determinism(tmp_path):
    def strip_events(path):
        return [
            {k: v for k, v in json.loads(line).items() if k != "timestamp"}
            for line in path.read_text().splitlines()
        ]

    config = {
        "simulator": "braking",
        "task_count": 1,
        "params_per_task": 2,
        "outer_iterations": 3,
        "master_seed": 11,
        "falsify_budget": {
            "max_evaluations": 128,
            "population": 64,
            "elite_fraction": 0.25,
            "stop_tolerance": 0.0,
            "samples_per_eval": 1,
        },
        "analysis_pairs": 12,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))

    pairs = []
    for run in ("one", "two"):
        base = tmp_path / run
        assert main(["falsify", "--sim", "braking", "--budget", "128", "--seed", "3",
                     "--out", str(base / "fal")]) == 0
        assert main(["tune-fidelity", "--sim", "braking", "--tasks", "1", "--per-task", "2",
                     "--iters", "3", "--seed", "3", "--out", str(base / "tune")]) == 0
        assert main(["joint", "--config", str(cfg_path), "--out", str(base / "joint")]) == 0
        assert main(["analyze", "--config", str(cfg_path), "--out", str(base / "ana")]) == 0
        assert main(["report", "--result", str(base / "joint" / "result.json"),
                     "--format", "csv", "--out", str(base / "rep")]) == 0
        pairs.append(base)

    a, b = pairs
    for rel in (
        "fal/falsify.json",
        "tune/fidelity.json",
        "tune/regret.csv",
        "joint/result.json",
        "ana/analysis.json",
        "rep/regret.csv",
        "rep/inner_traces.csv",
    ):
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), f"{rel} differs between reruns"
    assert strip_events(a / "joint/events.jsonl") == strip_events(b / "joint/events.jsonl")
    print("ACCEPTANCE 10 PASS: all CLI outputs byte-identical across reruns")
