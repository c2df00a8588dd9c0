import dataclasses
import importlib
import math
import pkgutil
import random
import re
import typing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import safeval
from safeval.analysis import LipschitzEstimate
from safeval.bo import BetaSchedule, GpKernel
from safeval.campaign import AdaptiveBudgetPolicy, CampaignConfig
from safeval.core import (
    Checked,
    EnvironmentSpace,
    ExtendedFloat,
    FidelitySpace,
    InvalidArgumentError,
    Reading,
    SimulationDivergedError,
    Trajectory,
    latin_hypercube_unit,
    rng_from_seed,
    sample_uniform,
    split_seed,
)
from safeval.falsify import FalsifyBudget
from safeval.sim import get_benchmark


def unit_box(dim=1):
    return EnvironmentSpace(lower=(0.0,) * dim, upper=(1.0,) * dim)


class TestSampleUniform:
    def test_deterministic_given_seed(self):
        space = unit_box()
        a = sample_uniform(space, 3, seed=7)
        b = sample_uniform(space, 3, seed=7)
        assert [p.values for p in a] == [p.values for p in b]
        assert all(0.0 <= p.values[0] <= 1.0 for p in a)

    def test_degenerate_box_collapses_to_two(self):
        eps = 1e-9
        space = EnvironmentSpace(lower=(2.0,), upper=(2.0 + eps,))
        pts = sample_uniform(space, 10, seed=3)
        assert all(abs(p.values[0] - 2.0) < 1e-8 for p in pts)

    def test_mean_matches_law_of_large_numbers(self):
        # Independent oracle: the stdlib uniform sampler at the same sample
        # size confirms the 0.05 tolerance is attainable for n = 1000.
        oracle = random.Random(1)
        oracle_mean = np.mean([oracle.uniform(0, 1) for _ in range(1000)])
        assert abs(oracle_mean - 0.5) < 0.05

        pts = sample_uniform(unit_box(2), 1000, seed=1)
        arr = np.array([p.values for p in pts])
        assert np.all(np.abs(arr.mean(axis=0) - 0.5) < 0.05)

    def test_zero_count_rejected(self):
        with pytest.raises(InvalidArgumentError):
            sample_uniform(unit_box(), 0, seed=1)


class TestLatinHypercube:
    def test_one_point_per_stratum(self):
        values = sorted(latin_hypercube_unit(1, 4, seed=5)[:, 0])
        for i, v in enumerate(values):
            assert i * 0.25 <= v <= (i + 1) * 0.25

    def test_single_point(self):
        unit = latin_hypercube_unit(1, 1, seed=9)
        assert unit.shape == (1, 1) and 0.0 <= unit[0, 0] <= 1.0

    def test_strata_occupancy_2d(self):
        # Brute-force binning oracle: every axis stratum holds exactly one point.
        unit = latin_hypercube_unit(2, 8, seed=3)
        for d in range(2):
            bins = np.clip(np.floor(unit[:, d] * 8).astype(int), 0, 7)
            assert sorted(bins) == list(range(8))

    def test_zero_count_rejected(self):
        with pytest.raises(InvalidArgumentError):
            latin_hypercube_unit(1, 0, seed=1)
        with pytest.raises(InvalidArgumentError):
            latin_hypercube_unit(0, 4, seed=1)

    @given(count=st.integers(1, 40), seed=st.integers(0, 2**32), dim=st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_always_in_bounds_and_deterministic(self, count, seed, dim):
        a = latin_hypercube_unit(dim, count, seed)
        b = latin_hypercube_unit(dim, count, seed)
        assert a.shape == (count, dim)
        assert np.array_equal(a, b)
        assert np.all((a >= 0.0) & (a <= 1.0))


class TestSeeds:
    def test_split_seed_distinct_paths(self):
        seen = {split_seed(1, "a"), split_seed(1, "b"), split_seed(1, "a", 0), split_seed(2, "a")}
        assert len(seen) == 4

    def test_rng_is_counter_based_and_stable(self):
        a = rng_from_seed(123).random(4)
        b = rng_from_seed(123).random(4)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize(
        "numpy_seed",
        [np.int32(5), np.int32(-1), np.int64(5), np.int64(-1), np.int64(2**63 - 1),
         np.uint64(5), np.uint64(2**63), np.uint64(2**64 - 1)],
        ids=repr,
    )
    def test_numpy_integer_seed_is_the_equal_int(self, numpy_seed):
        seed = int(numpy_seed)
        assert split_seed(numpy_seed, "x", 1) == split_seed(seed, "x", 1)
        draws = rng_from_seed(numpy_seed).integers(0, 2**63, 4)
        assert draws.tolist() == rng_from_seed(seed).integers(0, 2**63, 4).tolist()

    def test_seed_is_reduced_mod_2_to_the_64(self):
        assert split_seed(-1, "x") == split_seed(2**64 - 1, "x") == split_seed(2**128 - 1, "x")
        assert rng_from_seed(-1).random(2).tolist() == rng_from_seed(2**64 - 1).random(2).tolist()

    @pytest.mark.parametrize("seed", [5.7, 5.0, np.float64(5.0), "5", None], ids=repr)
    def test_non_integer_seed_raises_naming_it(self, seed):
        message = re.escape(f"seed must be an integer, got {seed!r}")
        for derive in (lambda: split_seed(seed, "x"), lambda: rng_from_seed(seed)):
            with pytest.raises(InvalidArgumentError, match=message):
                derive()


class TestSpaces:
    def test_bounds_must_be_ordered(self):
        with pytest.raises(InvalidArgumentError):
            EnvironmentSpace(lower=(1.0,), upper=(1.0,))
        with pytest.raises(InvalidArgumentError):
            EnvironmentSpace(lower=(2.0,), upper=(1.0,))

    def test_dimension_zero_rejected(self):
        with pytest.raises(InvalidArgumentError):
            EnvironmentSpace(lower=(), upper=())

    def test_config_validation(self):
        space = unit_box(2)
        with pytest.raises(InvalidArgumentError):
            space.config((0.5,))
        with pytest.raises(InvalidArgumentError):
            space.config((0.5, 1.5))
        cfg = space.config((0.25, 0.75))
        assert cfg.names == ("e0", "e1")

    def test_fidelity_setting_bounds(self):
        fspace = FidelitySpace(dimension=2)
        with pytest.raises(InvalidArgumentError):
            fspace.setting((0.5, 1.2))
        s = fspace.max_fidelity()
        assert s.values == (1.0, 1.0)
        assert s.distance(fspace.setting((1.0, 0.0))) == 1.0


class TestCheckFields:
    def test_an_integer_beyond_float_range_is_no_number_of_any_float_kind(self):
        @dataclasses.dataclass(frozen=True)
        class Record(Checked):
            extended: ExtendedFloat = 0.0
            reading: Reading = 0.0

        assert Record(float("inf"), float("nan")).extended == float("inf")
        with pytest.raises(InvalidArgumentError, match="extended must be a number"):
            Record(extended=10**400)
        with pytest.raises(InvalidArgumentError, match="reading must be a number"):
            Record(reading=-(10**400))


class TestTrajectory:
    def test_duration_and_times(self):
        traj = Trajectory(0.0, 0.5, ("a",), np.zeros((1, 5)))
        assert traj.duration == 2.0
        assert np.allclose(traj.times(), [0.0, 0.5, 1.0, 1.5, 2.0])

    def test_invariants(self):
        with pytest.raises(InvalidArgumentError):
            Trajectory(0.0, -0.1, ("a",), np.zeros((1, 5)))
        with pytest.raises(InvalidArgumentError):
            Trajectory(0.0, 0.1, ("a",), np.zeros((1, 1)))
        with pytest.raises(SimulationDivergedError):
            Trajectory(0.0, 0.1, ("a",), np.array([[0.0, np.nan]]))
        with pytest.raises(InvalidArgumentError):
            Trajectory(0.0, 0.1, ("a", "b"), np.zeros((1, 5)))

    def test_samples_are_immutable(self):
        traj = Trajectory(0.0, 0.5, ("a",), np.zeros((1, 5)))
        with pytest.raises(ValueError):
            traj.samples[0, 0] = 1.0

    def test_unknown_channel(self):
        traj = Trajectory(0.0, 0.5, ("a",), np.zeros((1, 5)))
        with pytest.raises(InvalidArgumentError):
            traj.channel("missing")



# Every bound a record declares, as "Record.field". Dropping a declaration
# fails the pinned list; a bound moved to a hand-written check fails it too.
DECLARED_BOUNDS = {
    "AdaptiveBudgetPolicy.base_budget", "AdaptiveBudgetPolicy.scale",
    "AdaptiveBudgetPolicy.sigma_threshold",
    "BetaSchedule.delta", "BetaSchedule.grid_size",
    "CampaignConfig.analysis_delta", "CampaignConfig.analysis_epsilon",
    "CampaignConfig.analysis_pairs", "CampaignConfig.convergence_window",
    "CampaignConfig.counterexample_cap", "CampaignConfig.outer_iterations",
    "CampaignConfig.params_per_task", "CampaignConfig.task_count", "CampaignConfig.task_weights",
    "FalsifyBudget.elite_fraction", "FalsifyBudget.population", "FalsifyBudget.samples_per_eval",
    "FalsifyBudget.stop_tolerance",
    "FidelitySpace.dimension",
    "GpKernel.amplitude", "GpKernel.lengthscales", "GpKernel.noise_variance",
    "LipschitzEstimate.constant",
    "SimulatorSpec.base_dt",
    "Trajectory.dt",
}
BOUND_KEYS = ("ge", "gt", "le", "lt")


def valid_record(name):
    """A valid instance of record ``name``; its bounded fields are replaced one at a time."""
    makers = {
        "AdaptiveBudgetPolicy": AdaptiveBudgetPolicy,
        "BetaSchedule": BetaSchedule,
        "CampaignConfig": lambda: CampaignConfig(
            simulator="braking", task_count=1, params_per_task=1, outer_iterations=1,
            master_seed=0,
        ),
        "FalsifyBudget": lambda: FalsifyBudget(max_evaluations=10**7),
        "FidelitySpace": lambda: FidelitySpace(dimension=1),
        "GpKernel": lambda: GpKernel(lengthscales=(0.2,), amplitude=1.0, noise_variance=0.0),
        "LipschitzEstimate": lambda: LipschitzEstimate(
            constant=1.0, pairs_used=1, max_pair=((0.0,), (1.0,))
        ),
        "SimulatorSpec": lambda: get_benchmark("braking"),
        "Trajectory": lambda: Trajectory(0.0, 0.1, ("a",), np.zeros((1, 2))),
    }
    return makers[name]()


def declared_bounds():
    """{"Record.field": (record class, field, type hint)} of every bounded dataclass field."""
    found = {}
    for info in pkgutil.iter_modules(safeval.__path__):
        module = importlib.import_module(f"safeval.{info.name}")
        for cls in vars(module).values():
            if isinstance(cls, type) and dataclasses.is_dataclass(cls):
                hints = typing.get_type_hints(cls)
                for f in dataclasses.fields(cls):
                    if any(key in f.metadata for key in BOUND_KEYS):
                        found[f"{cls.__name__}.{f.name}"] = (cls, f, hints[f.name])
    return found


def bound_message(f):
    """The message of a broken bound of field ``f``, from the one template."""
    if "error" in f.metadata:
        return f.metadata["error"]
    keys = [key for key in BOUND_KEYS if key in f.metadata]
    if len(keys) == 1:
        sign = {"ge": ">=", "gt": ">", "le": "<=", "lt": "<"}[keys[0]]
        return f"{f.name} must be {sign} {f.metadata[keys[0]]}"
    low, high = keys
    left, right = "[" if low == "ge" else "(", "]" if high == "le" else ")"
    return f"{f.name} must lie in {left}{f.metadata[low]}, {f.metadata[high]}{right}"


def next_value(value, integral, direction):
    """The next int, or the next float, from ``value`` in ``direction`` (+1 or -1)."""
    return value + direction if integral else math.nextafter(value, direction * math.inf)


class TestDeclaredBounds:
    def test_the_bounded_fields_are_the_pinned_ones_on_checked_records(self):
        found = declared_bounds()
        assert set(found) == DECLARED_BOUNDS
        assert all(issubclass(cls, Checked) for cls, _, _ in found.values())

    @pytest.mark.parametrize("name", sorted(DECLARED_BOUNDS))
    def test_a_value_just_outside_raises_and_the_last_inside_passes(self, name):
        _, f, hint = declared_bounds()[name]
        integral = int in (typing.get_args(hint) or (hint,))
        wrap = {"lengthscales": lambda v: (v,), "task_weights": lambda v: {"task-0": v}}
        wrap = wrap.get(f.name, lambda v: v)
        record = valid_record(name.split(".")[0])
        for key in BOUND_KEYS:
            if key not in f.metadata:
                continue
            bound, outward = f.metadata[key], -1 if key in ("ge", "gt") else 1
            if key in ("ge", "le"):
                inside, outside = bound, next_value(bound, integral, outward)
            else:
                inside, outside = next_value(bound, integral, -outward), bound
            dataclasses.replace(record, **{f.name: wrap(inside)})
            with pytest.raises(InvalidArgumentError) as info:
                dataclasses.replace(record, **{f.name: wrap(outside)})
            assert str(info.value) == bound_message(f)
