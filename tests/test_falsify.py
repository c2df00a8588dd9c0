import dataclasses
import importlib
import math

import numpy as np
import pytest

from safeval.core import (
    FalsificationFailedError,
    InvalidArgumentError,
    latin_hypercube_unit,
    rng_from_seed,
    split_seed,
)
from safeval.falsify import FalsificationResult, FalsifyBudget, _evaluate, _Search, falsify, falsify_many
from safeval.sim import get_benchmark, simulate_batch, simulate_low, tally
from safeval.stl import parse_spec, robustness, robustness_batch
from tests.conftest import QUAD_CENTER, SYNTH_PHI, make_synthetic

falsify_module = importlib.import_module("safeval.falsify")


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


class TestFalsificationResult:
    @pytest.mark.parametrize("rho, found", [(0.0, False), (-0.0, False), (-5e-324, True)])
    def test_counterexample_found_is_robustness_below_zero(self, rho, found):
        braking = get_benchmark("braking")
        result = FalsificationResult(
            best_config=braking.environment_space.config((5.0, 30.0, 9.0)),
            best_robustness=rho,
            evaluations_used=1,
            iterations=1,
            trace=(rho,),
        )
        assert result.counterexample_found is found


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

    @pytest.mark.parametrize("as_type", [np.int64, np.uint64])
    def test_numpy_integer_seed_is_the_int_seed(self, quad_robustness_spec, synth_phi, as_type):
        f = quad_robustness_spec.fidelity_space.setting((1.0,))
        budget = FalsifyBudget(max_evaluations=400)
        numpy_seeded = falsify(quad_robustness_spec, synth_phi, f, budget, as_type(5))
        int_seeded = falsify(quad_robustness_spec, synth_phi, f, budget, 5)
        assert outcome(numpy_seeded) == outcome(int_seeded)

    def test_float_seed_raises(self, quad_robustness_spec, synth_phi):
        f = quad_robustness_spec.fidelity_space.setting((1.0,))
        with pytest.raises(InvalidArgumentError, match="seed must be an integer, got 5.0"):
            falsify(quad_robustness_spec, synth_phi, f, FalsifyBudget(max_evaluations=400), 5.0)

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
            def run(self, spec, e_values, f_rows, seeds, high, n_samples):
                out = np.empty((len(e_values), 1, n_samples))
                for i, (e, seed) in enumerate(zip(e_values, seeds)):
                    bad = e[0] > 0.65 if seed == repeat_seeds[1] else e[0] == 0.0
                    out[i, 0, :] = np.nan if bad else e[0] + (seed % 997) / 997.0
                return out, np.full(len(e_values), spec.steps)

        spec = dataclasses.replace(
            make_synthetic("synth-seed-offset", None, (0.0,), (1.0,)), backend=SeedOffsetBackend()
        )
        f = spec.fidelity_space.setting((0.5,))
        points = np.linspace(0.0, 1.0, 11)[:, None]
        scores = _evaluate(spec, synth_phi, spec.steps, [_Search(f, 13, repeat_seeds)], [points])[0]
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


# ---------------------------------------------------------------------------
# The call schedule against the per-generation loop it replaced
# ---------------------------------------------------------------------------


def reference_scores(spec, phi, f, points, repeat_seeds):
    """One simulator call per repeat; a row dead in any repeat scores +inf."""
    n = points.shape[0]
    scores = np.zeros(n)
    alive = np.ones(n, dtype=bool)
    for rep_seed in repeat_seeds:
        samples, ok = simulate_batch(spec, points, f, [rep_seed] * n)
        alive &= ok
        rows = samples if alive.all() else samples[alive]
        scores[alive] += robustness_batch(phi, rows, spec.channels, spec.base_dt)
    scores /= len(repeat_seeds)
    scores[~alive] = np.inf
    return scores


def reference_falsify(spec, phi, f, budget, seed):
    """The falsifier as one simulator call per generation and repeat, processed as it goes."""
    space = spec.environment_space
    lo = space.lower_array()
    hi = space.upper_array()
    width = hi - lo
    dim = space.dimension
    repeat_seeds = [split_seed(seed, "rep", k) for k in range(budget.samples_per_eval)]
    best_score = np.inf
    best_values = None
    trace = []
    mean = std = None
    evaluations = 0
    generation = 0
    while evaluations < budget.max_evaluations:
        take = min(budget.population, budget.max_evaluations - evaluations)
        if generation % 4 == 0 or mean is None:
            unit = latin_hypercube_unit(dim, budget.population, split_seed(seed, "lhs", generation))
            points = lo + unit * width
            is_cem = False
        else:
            rng = rng_from_seed(split_seed(seed, "cem", generation))
            points = mean + std * rng.standard_normal((budget.population, dim))
            points = np.clip(points, lo, hi)
            is_cem = True
        points = points[:take]
        scores = reference_scores(spec, phi, f, points, repeat_seeds)
        evaluations += take
        generation += 1

        finite = np.isfinite(scores)
        if not finite.any():
            raise FalsificationFailedError(f"entire population diverged at generation {generation}")
        order = sorted(range(len(scores)), key=lambda i: (scores[i], tuple(points[i])))
        top = order[0]
        if (scores[top], tuple(points[top])) < (best_score, best_values or ()):
            best_score = float(scores[top])
            best_values = tuple(points[top])
        trace.append(best_score)

        n_elite = max(2, math.ceil(budget.elite_fraction * take))
        elite = points[[i for i in order if finite[i]][:n_elite]]
        if is_cem or mean is None:
            mean = elite.mean(axis=0)
            std = np.maximum(elite.std(axis=0), 1e-12 * np.maximum(width, 1.0))
        if budget.stop_tolerance > 0.0 and float(np.max(std / width)) <= budget.stop_tolerance:
            break
    return (space.config(best_values), best_score, evaluations, generation, tuple(trace))


def outcome(result):
    return (result.best_config, result.best_robustness, result.evaluations_used,
            result.iterations, result.trace)


def counted(fn, *args):
    """``fn(*args)`` with the simulations it ran (or its error instead of a value)."""
    with tally() as counts:
        try:
            value = fn(*args)
        except FalsificationFailedError as exc:
            value = exc
    return value, counts


def lhs_points(spec, seed, generation, population=64):
    """The points of exploration generation ``generation`` of the search seeded ``seed``."""
    space = spec.environment_space
    lo, hi = space.lower_array(), space.upper_array()
    unit = latin_hypercube_unit(space.dimension, population, split_seed(seed, "lhs", generation))
    return lo + unit * (hi - lo)


class DivergeAt:
    """Quadratic at f >= 0.5, scattered below, NaN at f = 0 and at the given points."""

    def __init__(self, points):
        self.points = {tuple(p) for p in points}

    def run(self, spec, e_values, f_rows, seeds, high, n_samples):
        out = np.empty((len(e_values), 1, n_samples))
        for i, (e, f) in enumerate(zip(e_values, f_rows[:, 0])):
            if tuple(e) in self.points or f == 0.0:
                out[i] = np.nan
            elif f >= 0.5:
                out[i] = float(np.sum((e - QUAD_CENTER) ** 2)) - 0.01
            else:  # a hash of e: the elites scatter, so the search never stops early
                out[i] = math.modf(math.sin(12.9898 * e[0] + 78.233 * e[-1]) * 43758.5453)[0]
        return out, np.full(len(e_values), spec.steps)


BRAKING_PHI = parse_spec("G[0,6](gap > 0)")
COARSE = (0.4, 0.9, 1.0)  # braking at a 19x step, noise knob off
NOISY = (0.5, 0.8, 0.4)


class TestGenerationSchedule:
    @pytest.mark.parametrize(
        "sim_id, f_values, budget, seed",
        [
            ("braking", COARSE, FalsifyBudget(max_evaluations=542), 3),  # LHS 8 cut, no CEM 9
            ("braking", COARSE, FalsifyBudget(max_evaluations=600), 4),  # CEM 9 cut to 24 rows
            ("braking", COARSE, FalsifyBudget(max_evaluations=640), 5),
            ("braking", COARSE, FalsifyBudget(max_evaluations=700), 6),  # CEM 10 cut, alone
            ("braking", NOISY, FalsifyBudget(max_evaluations=330, samples_per_eval=2), 7),
            ("braking", NOISY, FalsifyBudget(max_evaluations=330, samples_per_eval=3), 8),
            ("oscillator", (0.5, 0.7, 1.0), FalsifyBudget(max_evaluations=330), 9),
        ],
    )
    def test_equals_per_generation_loop(self, sim_id, f_values, budget, seed):
        spec = get_benchmark(sim_id)
        phi = BRAKING_PHI if sim_id == "braking" else parse_spec(spec.safety_spec)
        f = spec.fidelity_space.setting(f_values)
        got, got_calls = counted(falsify, spec, phi, f, budget, seed)
        want, want_calls = counted(reference_falsify, spec, phi, f, budget, seed)
        assert outcome(got) == want
        assert got_calls == want_calls

    # Stops after CEM generation 5 and 9, each evaluated with the exploration
    # generation before it, and after CEM generation 10, evaluated alone.
    @pytest.mark.parametrize("tolerance, seed, generations", [(3e-3, 0, 6), (3e-4, 1, 10), (1e-4, 1, 11)])
    def test_early_stop(self, quad_robustness_spec, synth_phi, tolerance, seed, generations):
        f = quad_robustness_spec.fidelity_space.setting((1.0,))
        budget = FalsifyBudget(max_evaluations=5000, stop_tolerance=tolerance)
        got, got_calls = counted(falsify, quad_robustness_spec, synth_phi, f, budget, seed)
        want, want_calls = counted(reference_falsify, quad_robustness_spec, synth_phi, f, budget, seed)
        assert outcome(got) == want
        assert got_calls == want_calls
        assert got.iterations == generations

    def test_diverged_exploration_generation_is_named(self):
        # Every row of exploration generation 4 (the fifth) diverges. The
        # paired call has also simulated the 64 rows of CEM generation 5,
        # which the per-generation loop never reached.
        spec = make_synthetic("synth-lhs-diverge", None, (0.0, 0.0), (1.0, 1.0))
        spec = dataclasses.replace(spec, backend=DivergeAt(lhs_points(spec, 11, 4)))
        f = spec.fidelity_space.setting((1.0,))
        budget = FalsifyBudget(max_evaluations=640)
        got, got_calls = counted(falsify, spec, SYNTH_PHI, f, budget, 11)
        want, want_calls = counted(reference_falsify, spec, SYNTH_PHI, f, budget, 11)
        assert isinstance(got, FalsificationFailedError) and isinstance(want, FalsificationFailedError)
        assert str(got) == str(want) == "entire population diverged at generation 5"
        assert want_calls["low_calls"] == 5 * 64
        assert got_calls["low_calls"] == 6 * 64

    @pytest.mark.parametrize("max_evaluations, rows", [
        (640, [64, 64, 64, 64, 128, 64, 64, 128]),
        (3000, [64] * 4 + [128, 64, 64] * 10 + [128, 56]),
    ])
    def test_one_call_per_paired_step(self, quad_robustness_spec, synth_phi, monkeypatch,
                                      max_evaluations, rows):
        calls = []
        real = falsify_module.simulate_batch_multi_f

        def counting(spec, e_values, f_rows, seeds, n_samples):
            calls.append(len(seeds))
            return real(spec, e_values, f_rows, seeds, n_samples=n_samples)

        monkeypatch.setattr(falsify_module, "simulate_batch_multi_f", counting)
        f = quad_robustness_spec.fidelity_space.setting((1.0,))
        falsify(quad_robustness_spec, synth_phi, f, FalsifyBudget(max_evaluations), seed=0)
        assert calls == rows
        assert sum(rows) == max_evaluations



class TestLockstep:
    @pytest.fixture()
    def landscape(self):
        """``DivergeAt`` seed 7's generation-4 points."""
        spec = make_synthetic("synth-lockstep", None, (0.0, 0.0), (1.0, 1.0))
        return dataclasses.replace(spec, backend=DivergeAt(lhs_points(spec, 7, 4)))

    def sequential(self, spec, jobs, budget):
        """What a loop of ``falsify`` calls returns, or the first error it raises."""
        return [falsify(spec, SYNTH_PHI, f, budget, seed) for f, seed in jobs]

    def test_matches_per_search_runs(self, landscape):
        setting = landscape.fidelity_space.setting
        jobs = [(setting((1.0,)), 1), (setting((0.2,)), 2), (setting((0.7,)), 3), (setting((1.0,)), 4)]
        budget = FalsifyBudget(max_evaluations=1500, stop_tolerance=1e-2)
        want, want_calls = counted(self.sequential, landscape, jobs, budget)
        got, got_calls = counted(falsify_many, landscape, SYNTH_PHI, jobs, budget)
        assert got == want
        assert got_calls == want_calls
        # Searches 0, 2 and 3 stop early; the scattered one runs its whole budget.
        assert [r.evaluations_used < 1500 for r in got] == [True, False, True, True]

    def test_raises_error_of_lowest_index_failure(self, landscape):
        # Search 1 (seed 7) fails at generation 5, search 2 (f = 0) at
        # generation 1: the loop of falsify calls raises search 1's error.
        setting = landscape.fidelity_space.setting
        jobs = [(setting((1.0,)), 1), (setting((0.2,)), 7), (setting((0.0,)), 2), (setting((0.7,)), 3)]
        budget = FalsifyBudget(max_evaluations=640)
        with pytest.raises(FalsificationFailedError) as want:
            self.sequential(landscape, jobs, budget)
        with pytest.raises(FalsificationFailedError) as got:
            falsify_many(landscape, SYNTH_PHI, jobs, budget)
        assert str(got.value) == str(want.value) == "entire population diverged at generation 5"
        with pytest.raises(FalsificationFailedError, match="generation 1"):
            falsify_many(landscape, SYNTH_PHI, jobs[2:], budget)

    def test_braking_mixed_fidelities_one_call_per_step(self, monkeypatch):
        spec = get_benchmark("braking")
        setting = spec.fidelity_space.setting
        jobs = [(setting(NOISY), 21), (setting(COARSE), 22), (setting(NOISY), 23)]
        budget = FalsifyBudget(max_evaluations=330, samples_per_eval=2)
        want = [falsify(spec, BRAKING_PHI, f, budget, seed) for f, seed in jobs]
        calls = []
        real = falsify_module.simulate_batch_multi_f

        def counting(*args, **kwargs):
            samples, ok = real(*args, **kwargs)
            calls.append(len(ok))
            return samples, ok

        monkeypatch.setattr(falsify_module, "simulate_batch_multi_f", counting)
        assert falsify_many(spec, BRAKING_PHI, jobs, budget) == want
        # Generations 0-3 alone, then 4 (64 rows) with 5 (10 rows): 3 searches x 2 repeats.
        assert calls == [3 * 2 * 64] * 4 + [3 * 2 * 74]

    def test_degenerate_box(self, synth_phi):
        spec = make_synthetic("synth-point", lambda e, f: e[0] - f[0], (0.5,), (0.5 + 1e-13,))
        setting = spec.fidelity_space.setting
        jobs = [(setting((0.2,)), 1), (setting((0.9,)), 2)]
        budget = FalsifyBudget(max_evaluations=64)
        got = falsify_many(spec, synth_phi, jobs, budget)
        assert got == [falsify(spec, synth_phi, f, budget, seed) for f, seed in jobs]
        assert [r.best_robustness for r in got] == pytest.approx([0.3, -0.4])
        assert [r.counterexample_found for r in got] == [False, True]

    def test_degenerate_box_that_diverges_fails_like_any_box(self, synth_phi):
        spec = make_synthetic("synth-point-nan", lambda e, f: math.nan, (0.5,), (0.5 + 1e-13,))
        with pytest.raises(FalsificationFailedError, match="entire population diverged"):
            falsify(spec, synth_phi, spec.fidelity_space.setting((0.5,)), FalsifyBudget(64), 1)

    def test_no_searches(self, quad_robustness_spec, synth_phi):
        assert falsify_many(quad_robustness_spec, synth_phi, [], FalsifyBudget(64)) == []


# ---------------------------------------------------------------------------
# Specs that read less than the whole trajectory
# ---------------------------------------------------------------------------

SHORT_SPECS = [
    ("oscillator", "G[0,3](F[0,2](x > -1.9))"),  # reaches 5 s of 6
    ("braking", "G[0,2](gap > 0)"),
    ("braking", "G[0,2.0005](gap > 0)"),  # the interval ends between two samples
]


class TailTurnsNaN:
    """The quadratic landscape for the first 6 samples of 11, NaN after; cut to those asked for."""

    def run(self, spec, e_values, f_rows, seeds, high, n_samples):
        out = np.full((len(e_values), 1, spec.steps), np.nan)
        out[:, 0, :6] = (np.sum((e_values - QUAD_CENTER) ** 2, axis=1) - 0.01)[:, None]
        return out[:, :, :n_samples], np.full(len(e_values), n_samples)


class TestShortHorizon:
    @pytest.mark.parametrize("f_values", [(1.0, 1.0, 1.0), NOISY], ids=["max", "noisy"])
    @pytest.mark.parametrize("sim_id, text", SHORT_SPECS)
    def test_equals_falsifying_full_length_simulations(self, sim_id, text, f_values):
        spec = get_benchmark(sim_id)
        phi = parse_spec(text)
        f = spec.fidelity_space.setting(f_values)
        budget = FalsifyBudget(max_evaluations=128, samples_per_eval=2)
        got, got_calls = counted(falsify, spec, phi, f, budget, 3)
        want, want_calls = counted(reference_falsify, spec, phi, f, budget, 3)
        assert outcome(got) == want
        assert got_calls["low_calls"] == want_calls["low_calls"]
        assert got_calls["low_steps"] < want_calls["low_steps"]

    def test_divergence_is_judged_by_the_samples_the_spec_reads(self):
        spec = dataclasses.replace(
            make_synthetic("synth-tail-nan", None, (0.0, 0.0), (1.0, 1.0)), backend=TailTurnsNaN()
        )
        phi = parse_spec("G[0,0.5](y > 0)")  # samples 0-5 at dt = 0.1
        f = spec.fidelity_space.setting((1.0,))
        budget = FalsifyBudget(max_evaluations=128)
        result = falsify(spec, phi, f, budget, seed=0)
        best = np.array(result.best_config.values)
        assert result.best_robustness == float(np.sum((best - QUAD_CENTER) ** 2) - 0.01)
        with pytest.raises(FalsificationFailedError):  # every full-length row has a NaN
            reference_falsify(spec, phi, f, budget, 0)

    def test_books_the_steps_integrated(self, oscillator):
        # The nested spec reads 5001 samples: 5000 RK4 steps per row, not 6000.
        phi = parse_spec("G[0,3](F[0,2](x > -1.9))")
        f = oscillator.fidelity_space.max_fidelity()
        with tally() as counts:
            falsify(oscillator, phi, f, FalsifyBudget(max_evaluations=64), seed=1)
        assert counts == {"high_calls": 0, "low_calls": 64, "high_steps": 0, "low_steps": 64 * 5000}
