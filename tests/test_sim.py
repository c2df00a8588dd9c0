import dataclasses
import importlib
import json
import stat
import subprocess
import textwrap
import threading

import numpy as np
import pytest

from safeval.core import InvalidArgumentError, SimulationDivergedError
from safeval.loss import LOSS_FAILURES, mse_loss
from safeval.sim import (
    AdapterProtocolError,
    KnobMap,
    builtin_benchmarks,
    external_simulator_spec,
    get_benchmark,
    simulate_batch,
    simulate_batch_multi_f,
    simulate_high,
    simulate_low,
    tally,
)
from safeval.stl import robustness
from tests.conftest import make_synthetic


def rand_configs(spec, n, seed):
    from safeval.core import sample_uniform

    return sample_uniform(spec.environment_space, n, seed)


class TestFidelityMapping:
    def test_benchmark_mapping_extremes(self, braking):
        m = braking.fidelity_mapping
        phys_hi = m.to_physical((1.0, 1.0, 1.0))
        assert phys_hi == pytest.approx([1.0, 0.0, 0.0])
        phys_lo = m.to_physical((0.0, 0.0, 0.0))
        assert phys_lo == pytest.approx([32.0, 1.0, 0.1])

    def test_monotone_required(self):
        with pytest.raises(InvalidArgumentError):
            KnobMap("flat", at_min=1.0, at_max=1.0)

    def test_noise_scale(self, braking):
        m = braking.fidelity_mapping
        assert m.noise_scale((1.0, 1.0, 1.0)) == pytest.approx(0.0)
        assert m.noise_scale((1.0, 1.0, 0.0)) == pytest.approx(0.1)


class TestBuiltins:
    def test_exactly_two_benchmarks(self):
        specs = builtin_benchmarks()
        assert [s.id for s in specs] == ["oscillator", "braking"]
        for s in specs:
            assert s.base_dt > 0
            assert s.duration >= 10 * s.base_dt
            assert s.fidelity_space.dimension == 3

    def test_braking_crash_and_safe_regions(self, braking, braking_phi):
        crash = braking.environment_space.config((5.0, 35.0, 9.0))
        safe = braking.environment_space.config((100.0, 10.0, 1.0))
        assert robustness(braking_phi, simulate_high(braking, crash, 0)) < 0
        assert robustness(braking_phi, simulate_high(braking, safe, 0)) > 0

    def test_oscillator_matches_analytic_undamped(self, oscillator):
        # e = (x0=1, v0=0, c=0) has the closed-form solution cos(w t), w = 2.
        e = oscillator.environment_space.config((1.0, 0.0, 0.0))
        tr = simulate_high(oscillator, e, seed=1)
        analytic = np.cos(2.0 * tr.times())
        assert np.max(np.abs(tr.channel("x") - analytic)) < 1e-6

    def test_braking_gap_consistent_with_kinematics(self, braking):
        # Lead decel 0 at the maximum gap: gap(t) must equal
        # gap0 + integral of (v_lead - v_ego), and the ego never crashes.
        e = braking.environment_space.config((100.0, 20.0, 1.0))
        tr = simulate_high(braking, e, seed=0)
        gap = tr.channel("gap")
        rel = tr.channel("v_lead") - tr.channel("v_ego")
        integral = np.concatenate(
            [[0.0], np.cumsum((rel[1:] + rel[:-1]) / 2.0 * tr.dt)]
        )
        assert np.max(np.abs(gap - (100.0 + integral))) < 1e-3
        assert gap.min() > 0


class TestDeterminism:
    def test_high_fidelity_bit_identical(self, braking):
        e = braking.environment_space.config((30.0, 20.0, 5.0))
        a = simulate_high(braking, e, seed=9)
        b = simulate_high(braking, e, seed=9)
        assert np.array_equal(a.samples, b.samples)

    def test_noise_seeded(self, oscillator):
        e = oscillator.environment_space.config((1.0, 0.5, 0.2))
        noisy = oscillator.fidelity_space.setting((1.0, 1.0, 0.0))  # max noise
        a = simulate_low(oscillator, e, noisy, seed=1)
        b = simulate_low(oscillator, e, noisy, seed=1)
        c = simulate_low(oscillator, e, noisy, seed=2)
        assert np.array_equal(a.samples, b.samples)
        assert not np.array_equal(a.samples, c.samples)


class TestMaxFidelityIdentity:
    def test_sup_norm_identity(self, oscillator):
        f1 = oscillator.fidelity_space.max_fidelity()
        values = np.array([c.values for c in rand_configs(oscillator, 20, seed=5)])
        hi, ok_h = simulate_batch(oscillator, values, None, [3] * 20)
        lo, ok_l = simulate_batch(oscillator, values, f1, [3] * 20)
        assert ok_h.all() and ok_l.all()
        assert np.max(np.abs(hi - lo)) <= 1e-9


class TestDegradation:
    def test_mse_nondecreasing_in_coarseness(self, oscillator):
        # Noise off, blend off: only the step-size knob varies.
        knob_values = [1.0, 0.8, 0.6, 0.4, 0.2, 0.0]
        values = np.array([c.values for c in rand_configs(oscillator, 20, seed=8)])
        high, ok = simulate_batch(oscillator, values, None, [0] * 20)
        assert ok.all()
        per_knob = []
        for v in knob_values:
            f = oscillator.fidelity_space.setting((v, 1.0, 1.0))
            low, ok = simulate_batch(oscillator, values, f, [0] * 20)
            assert ok.all()
            # time-averaged squared error per config, same formula as mse_loss
            per_knob.append(np.mean(np.sum((high - low) ** 2, axis=1), axis=1))
        for a, b in zip(per_knob, per_knob[1:]):
            assert np.all(b >= a - 1e-15)

    def test_multiplier_32_worse_than_2(self, oscillator):
        cfg = oscillator.environment_space.config((1.5, -1.0, 0.6))
        hi = simulate_high(oscillator, cfg, seed=0)
        v2 = 30.0 / 31.0  # physical multiplier 2
        coarse = mse_loss(hi, simulate_low(oscillator, cfg, oscillator.fidelity_space.setting((0.0, 1.0, 1.0)), 0))
        fine = mse_loss(hi, simulate_low(oscillator, cfg, oscillator.fidelity_space.setting((v2, 1.0, 1.0)), 0))
        assert coarse > fine


class TestValidation:
    def test_out_of_bounds_config_rejected(self, braking):
        outside = get_benchmark("oscillator").environment_space.config((0.0, 0.0, 0.0))
        with pytest.raises(InvalidArgumentError):
            simulate_high(braking, outside, seed=0)

    def test_batch_shape_checks(self, braking):
        with pytest.raises(InvalidArgumentError):
            simulate_batch(braking, np.zeros((2, 2)), None, [0, 0])
        with pytest.raises(InvalidArgumentError):
            simulate_batch(braking, np.array([[30.0, 20.0, 5.0]]), None, [0, 1])
        with pytest.raises(InvalidArgumentError, match="out-of-bounds"):
            simulate_batch_multi_f(braking, np.array([[500.0, 20.0, 5.0]]), np.ones((1, 3)), [0])

    def test_nan_environment_value_rejected(self, braking):
        with pytest.raises(InvalidArgumentError, match="NaN"):
            simulate_batch(braking, [[np.nan, 20.0, 5.0]], None, [0])

    @pytest.mark.parametrize("f_row", [[np.nan, 1.0, 1.0], [1.0, np.nan, 1.0], [1.0, 1.0, np.nan]])
    def test_nan_fidelity_value_rejected(self, braking, f_row):
        with pytest.raises(InvalidArgumentError, match="NaN"):
            simulate_batch_multi_f(braking, [[50.0, 20.0, 5.0]], [f_row], [0])

    def test_diverging_backend_raises(self, diverging_spec):
        e = diverging_spec.environment_space.config((0.5,))
        f = diverging_spec.fidelity_space.setting((0.5,))
        with pytest.raises(SimulationDivergedError):
            simulate_low(diverging_spec, e, f, seed=0)
        # high path is fine
        assert simulate_high(diverging_spec, e, seed=0).samples[0, 0] == 1.0


class TestBatchConsistency:
    def test_batch_matches_single_calls(self, braking):
        f = braking.fidelity_space.setting((0.5, 0.7, 1.0))
        configs = rand_configs(braking, 5, seed=2)
        values = np.array([c.values for c in configs])
        samples, ok = simulate_batch(braking, values, f, [11] * 5)
        assert ok.all()
        for i, cfg in enumerate(configs):
            single = simulate_low(braking, cfg, f, seed=11)
            assert np.array_equal(single.samples, samples[i])

    def test_multi_f_matches_single_calls(self, braking):
        configs = rand_configs(braking, 4, seed=3)
        values = np.array([c.values for c in configs])
        f_rows = np.array(
            [[1.0, 1.0, 1.0], [0.5, 1.0, 1.0], [1.0, 0.5, 1.0], [0.25, 0.25, 1.0]]
        )
        samples, ok = simulate_batch_multi_f(braking, values, f_rows, [7] * 4)
        assert ok.all()
        for i, cfg in enumerate(configs):
            f = braking.fidelity_space.setting(f_rows[i])
            single = simulate_low(braking, cfg, f, seed=7)
            assert np.array_equal(single.samples, samples[i])

    @pytest.mark.parametrize("sim_id", ["braking", "synth-quad-loss"])
    def test_multi_f_high_rows_match_separate_calls(self, sim_id, quad_loss_spec):
        # One mixed call equals a high-fidelity simulate_batch over the
        # flagged rows plus a multi-f call over the rest, bytes and booking.
        # synth-quad-loss covers a backend that runs row by row.
        spec = quad_loss_spec if sim_id == "synth-quad-loss" else get_benchmark(sim_id)
        values = np.array([c.values for c in rand_configs(spec, 4, seed=5)])
        values = np.vstack([values, values])
        f_rows = np.vstack([np.full((4, spec.fidelity_space.dimension), 0.3),
                            np.linspace(0.0, 1.0, 4 * spec.fidelity_space.dimension).reshape(4, -1)])
        seeds = [3, 4, 5, 6, 3, 4, 5, 6]
        high = np.array([True, False] * 4)

        with tally() as mixed:
            samples, ok = simulate_batch_multi_f(spec, values, f_rows, seeds, high=high)
        assert ok.all()

        with tally() as separate:
            highs, _ = simulate_batch(spec, values[high], None, [s for s, h in zip(seeds, high) if h])
            lows, _ = simulate_batch_multi_f(
                spec, values[~high], f_rows[~high], [s for s, h in zip(seeds, high) if not h]
            )
        assert np.array_equal(samples[high], highs)
        assert np.array_equal(samples[~high], lows)
        assert mixed == separate
        assert mixed["high_calls"] == mixed["low_calls"] == 4

    def test_mixed_batch_reaches_the_backend_in_one_run_call(self):
        # High and low rows of several settings go to the backend together,
        # each with its own fidelity row, seed and high flag, and are booked
        # by their flags with the per-row steps the backend reports.
        class Recording:
            def __init__(self):
                self.calls = []

            def run(self, spec, e_values, f_rows, seeds, high, n_samples):
                self.calls.append((e_values.copy(), f_rows.copy(), list(seeds), high.copy()))
                f0 = np.where(high, -1.0, f_rows[:, 0])
                values = e_values[:, 0] + 10.0 * f0 + 100.0 * np.asarray(seeds)
                out = np.repeat(values[:, None, None], n_samples, axis=2)
                return out, np.arange(1, len(seeds) + 1)

        backend = Recording()
        spec = make_synthetic("synth-recording", None, (0.0,), (1.0,), fidelity_dim=2)
        spec = dataclasses.replace(spec, backend=backend)
        e_values = np.linspace(0.1, 0.7, 7)[:, None]
        f_rows = np.array([[0.2, 0.5], [0.9, 0.5], [0.2, 0.5], [0.0, 0.0],
                           [0.9, 0.5], [0.2, 0.5], [0.9, 0.5]])
        high = np.array([False, False, False, True, False, False, True])
        seeds = [1, 2, 3, 4, 5, 6, 7]

        with tally() as delta:
            samples, ok = simulate_batch_multi_f(spec, e_values, f_rows, seeds, high=high)
        ((got_e, got_f, got_seeds, got_high),) = backend.calls
        assert np.array_equal(got_e, e_values) and np.array_equal(got_f, f_rows)
        assert got_seeds == seeds and got_high.tolist() == high.tolist()
        f0 = np.where(high, -1.0, f_rows[:, 0])
        assert ok.all()
        assert np.array_equal(samples[:, 0, 0], e_values[:, 0] + 10.0 * f0 + 100.0 * np.array(seeds))
        assert delta == {"high_calls": 2, "low_calls": 5, "high_steps": 4 + 7, "low_steps": 17}

        # simulate_batch is the one-setting case: one run call whose rows
        # all carry the setting (all-ones and flagged high for f=None).
        f = spec.fidelity_space.setting((0.2, 0.5))
        for setting, row, flag in ((None, (1.0, 1.0), True), (f, (0.2, 0.5), False)):
            backend.calls.clear()
            simulate_batch(spec, e_values, setting, seeds)
            ((got_e, got_f, got_seeds, got_high),) = backend.calls
            assert np.array_equal(got_e, e_values) and got_seeds == seeds
            assert (got_f == row).all() and (got_high == flag).all()

    def test_each_spec_runs_on_its_own_backend(self):
        # Two specs with one id: the backend goes with the spec, not the id.
        one = make_synthetic("synth-same-id", lambda e, f: 1.0, (0.0,), (1.0,))
        two = make_synthetic("synth-same-id", lambda e, f: 2.0, (0.0,), (1.0,))
        e = one.environment_space.config((0.5,))
        assert simulate_high(one, e, seed=0).samples[0, 0] == 1.0
        assert simulate_high(two, e, seed=0).samples[0, 0] == 2.0
        assert simulate_high(one, e, seed=0).samples[0, 0] == 1.0

    def test_multi_f_high_mask_shape_checked(self, braking):
        values = np.array([c.values for c in rand_configs(braking, 2, seed=1)])
        with pytest.raises(InvalidArgumentError):
            simulate_batch_multi_f(braking, values, np.ones((2, 3)), [0, 0], high=[True])



class TestTally:
    def test_nested_tallies_both_count_an_inner_call(self, quad_loss_spec):
        spec, steps = quad_loss_spec, quad_loss_spec.steps
        e = np.array([[0.2], [0.7]])
        f = spec.fidelity_space.setting((0.5,))
        with tally() as outer:
            simulate_batch(spec, e, None, [1, 2])
            with tally() as inner:
                simulate_batch(spec, e[:1], f, [3])
            simulate_batch(spec, e, f, [4, 5])
        assert inner == {"high_calls": 0, "low_calls": 1, "high_steps": 0, "low_steps": steps}
        assert outer == {
            "high_calls": 2, "low_calls": 3, "high_steps": 2 * steps, "low_steps": 3 * steps
        }

    def test_a_tally_in_another_thread_counts_none_of_this_threads_calls(self, quad_loss_spec):
        # Both tallies are open at once; each counts only its own thread's calls.
        spec, steps = quad_loss_spec, quad_loss_spec.steps
        e = np.array([[0.2], [0.7]])
        opened, release = threading.Event(), threading.Event()
        theirs = []

        def other():
            with tally() as counts:
                simulate_batch(spec, e[:1], spec.fidelity_space.setting((0.5,)), [3])
                opened.set()
                release.wait(timeout=60)
            theirs.append(counts)

        thread = threading.Thread(target=other)
        thread.start()
        assert opened.wait(timeout=60)
        with tally() as mine:
            simulate_batch(spec, e, None, [1, 2])
        release.set()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert mine == {"high_calls": 2, "low_calls": 0, "high_steps": 2 * steps, "low_steps": 0}
        assert theirs == [{"high_calls": 0, "low_calls": 1, "high_steps": 0, "low_steps": steps}]



def multiplier_knob(multiplier):
    """The dt_multiplier knob value at which the benchmarks' step is ``multiplier`` base steps."""
    return (32.0 - multiplier) / 31.0


# (fidelity rows, seeds, high flags) of a call; each is cut at several sample
# counts below. A multiplier of 2.7 is not a whole number of base steps, so its
# knots fall between grid points and it ends on a remainder step; 32 does too.
PREFIX_CASES = {
    "max-fidelity": ([(1.0, 1.0, 1.0)] * 3, [1, 2, 3], [False] * 3),
    "off-grid-step": ([(multiplier_knob(2.7), 1.0, 1.0)] * 3, [1, 2, 3], [False] * 3),
    "blend-half": ([(1.0, 0.5, 1.0)] * 3, [1, 2, 3], [False] * 3),
    "noise-shared-seed": ([(1.0, 1.0, 0.3), (multiplier_knob(2.7), 1.0, 0.6), (1.0, 1.0, 0.3)],
                          [5, 5, 6], [False] * 3),
    "mixed-high-low": (
        [(1.0, 1.0, 1.0), (0.0, 0.3, 0.5), (multiplier_knob(2.7), 0.5, 1.0), (1.0, 1.0, 1.0)],
        [1, 2, 3, 4],
        [True, False, False, False],
    ),
}


class TestSamplePrefix:
    """A call for the first m samples gives the first m samples of a full call, bit for bit."""

    @pytest.mark.parametrize("case", PREFIX_CASES)
    @pytest.mark.parametrize("sim_id", ["oscillator", "braking"])
    def test_prefix_is_bit_identical_to_the_full_call(self, sim_id, case):
        spec = get_benchmark(sim_id)
        f_rows, seeds, high = PREFIX_CASES[case]
        f_rows, high = np.array(f_rows), np.array(high)
        e_rows = np.array([c.values for c in rand_configs(spec, len(seeds), seed=11)])
        full, ok_full = simulate_batch_multi_f(spec, e_rows, f_rows, seeds, high)
        assert ok_full.all()
        # The cut falls on the first sample, inside the first drive block, a
        # third of the way, just before the end and on the last sample.
        for m in (1, 2, 40, spec.steps // 3, spec.steps - 2, spec.steps - 1, spec.steps):
            with tally() as counts:
                samples, ok = simulate_batch_multi_f(
                    spec, e_rows, f_rows, seeds, high, n_samples=m
                )
            assert samples.shape == (len(seeds), len(spec.channels), m)
            assert samples.tobytes() == full[:, :, :m].tobytes(), m
            assert ok.tolist() == ok_full.tolist()
            if case == "max-fidelity":  # one RK4 step per grid interval read
                assert counts["low_steps"] == len(seeds) * (m - 1)

    def test_sample_count_is_checked(self, braking):
        values = np.array([c.values for c in rand_configs(braking, 1, seed=1)])
        for m in (0, braking.steps + 1):
            with pytest.raises(InvalidArgumentError, match="n_samples"):
                simulate_batch_multi_f(braking, values, np.ones((1, 3)), [0], n_samples=m)


ADAPTER_SOURCE = textwrap.dedent(
    """\
    #!/usr/bin/env python3
    import json
    import math
    import os
    import sys

    request = json.load(sys.stdin)
    with open(os.path.join(os.path.dirname(__file__), "requests.jsonl"), "a") as log:
        log.write(json.dumps(request) + "\\n")
    e = request["e"]
    f = request["f"]
    dt = request["dt"]
    steps = round(request["duration"] / dt) + 1
    scale = 1.0 if f is None else f[0]
    samples = [[e[0] * scale * math.cos(0.5 * k * dt) for k in range(steps)]]
    json.dump(
        {"start_time": 0.0, "dt": dt, "channels": ["y"], "samples": samples},
        sys.stdout,
    )
    """
)


# The object a campaign config's "simulator" field holds, less the adapter path.
DEMO_DESCRIPTION = {
    "id": "external-demo",
    "environment": {"lower": [0.0], "upper": [2.0]},
    "fidelity_dimension": 1,
    "channels": ["y"],
    "base_dt": 0.1,
    "duration": 2.0,
}


@pytest.fixture()
def adapter_spec(tmp_path):
    script = tmp_path / "adapter.py"
    script.write_text(ADAPTER_SOURCE)
    script.chmod(script.stat().st_mode | stat.S_IEXEC)
    return external_simulator_spec(
        {**DEMO_DESCRIPTION, "adapter": str(script), "safety_spec": "G[0,2](y > -10)"}
    )


class TestExternalAdapter:
    def test_high_and_low_fidelity_round_trip(self, adapter_spec):
        e = adapter_spec.environment_space.config((1.5,))
        hi = simulate_high(adapter_spec, e, seed=0)
        assert hi.channel("y")[0] == pytest.approx(1.5)
        lo = simulate_low(adapter_spec, e, adapter_spec.fidelity_space.setting((0.5,)), seed=0)
        assert lo.channel("y")[0] == pytest.approx(0.75)
        assert hi.steps == adapter_spec.steps

    def test_one_request_per_row_in_row_order(self, adapter_spec, tmp_path):
        e_values = np.array([[0.2], [0.4], [0.6], [0.8], [1.0]])
        f_rows = np.array([[0.5], [0.9], [0.25], [0.5], [0.3]])
        high = np.array([False, True, False, False, True])
        samples, ok = simulate_batch_multi_f(
            adapter_spec, e_values, f_rows, [1, 2, 3, 4, 5], high=high
        )
        lines = (tmp_path / "requests.jsonl").read_text().splitlines()
        requests = [json.loads(line) for line in lines]
        assert [(r["e"], r["f"], r["seed"]) for r in requests] == [
            ([0.2], [0.5], 1),
            ([0.4], None, 2),
            ([0.6], [0.25], 3),
            ([0.8], [0.5], 4),
            ([1.0], None, 5),
        ]
        assert ok.all()
        assert samples[:, 0, 0].tolist() == pytest.approx([0.1, 0.4, 0.15, 0.4, 1.0])

    def test_prefix_asks_for_the_whole_duration_and_cuts_the_reply(self, adapter_spec, tmp_path):
        e_values, f_rows = np.array([[0.5], [1.5]]), np.array([[0.5], [0.25]])
        full, _ = simulate_batch_multi_f(adapter_spec, e_values, f_rows, [1, 2])
        with tally() as counts:
            samples, ok = simulate_batch_multi_f(adapter_spec, e_values, f_rows, [1, 2], n_samples=5)
        assert ok.all() and samples.tobytes() == full[:, :, :5].tobytes()
        requests = [json.loads(line) for line in (tmp_path / "requests.jsonl").read_text().splitlines()]
        assert [r["duration"] for r in requests] == [2.0] * 4
        # The adapter simulated the whole duration, and that is what is booked.
        assert counts["low_steps"] == 2 * adapter_spec.steps

    def test_protocol_violation_reported(self, tmp_path, adapter_spec):
        bad = tmp_path / "bad.py"
        bad.write_text("#!/usr/bin/env python3\nprint('not json')\n")
        bad.chmod(bad.stat().st_mode | stat.S_IEXEC)
        spec = external_simulator_spec(
            {**DEMO_DESCRIPTION, "id": "external-bad", "adapter": str(bad)}
        )
        with pytest.raises(AdapterProtocolError):
            simulate_high(spec, spec.environment_space.config((1.0,)), seed=0)

    # Replies that parse as JSON but break the protocol; each must raise
    # AdapterProtocolError, which a loss evaluation scores as +inf.
    GOOD_REPLY = {"start_time": 0.0, "dt": 0.1, "channels": ["y"], "samples": [[0.0] * 21]}

    @pytest.mark.parametrize(
        "reply",
        [
            5,
            [GOOD_REPLY],
            "null",
            {**GOOD_REPLY, "channels": "y"},
            {**GOOD_REPLY, "channels": 5},
            {**GOOD_REPLY, "dt": "fast"},
            {**GOOD_REPLY, "dt": [0.1]},
            {**GOOD_REPLY, "dt": None},
            {**GOOD_REPLY, "dt": 10**400},
            {**GOOD_REPLY, "dt": float("nan")},
            {**GOOD_REPLY, "samples": [["x"] * 21]},
            {**GOOD_REPLY, "samples": [[0.0] * 21, [0.0]]},
            {**GOOD_REPLY, "samples": {"y": [0.0] * 21}},
            {**GOOD_REPLY, "samples": [[10**400] * 21]},
            # Values that float() converts but that are not JSON numbers.
            {**GOOD_REPLY, "dt": "0.1"},
            {**GOOD_REPLY, "dt": True},
            {**GOOD_REPLY, "samples": [[0.0] * 20 + ["1.5"]]},
            {**GOOD_REPLY, "samples": [[True] + [0.0] * 20]},
        ],
        ids=[
            "number", "list", "string", "channels-string", "channels-number",
            "dt-string", "dt-list", "dt-null", "dt-huge-int", "dt-nan",
            "samples-strings", "samples-ragged", "samples-object", "samples-huge-int",
            "dt-numeric-string", "dt-boolean", "samples-numeric-string", "samples-boolean",
        ],
    )
    def test_malformed_reply_is_protocol_error(self, adapter_spec, monkeypatch, reply):
        sim_module = importlib.import_module("safeval.sim")

        def reply_with(cmd, **kwargs):
            return subprocess.CompletedProcess(cmd, 0, json.dumps(reply).encode(), b"")

        monkeypatch.setattr(sim_module.subprocess, "run", reply_with)
        assert AdapterProtocolError in LOSS_FAILURES
        with pytest.raises(AdapterProtocolError):
            simulate_high(adapter_spec, adapter_spec.environment_space.config((1.0,)), seed=0)

    @pytest.mark.parametrize(
        "reply, message",
        [
            ({**GOOD_REPLY, "wormhole": 1}, "adapter reply: unknown reply fields: ['wormhole']"),
            ({**GOOD_REPLY, "start_time": "0"},
             "adapter reply: start_time must be a finite number, got '0'"),
            ({**GOOD_REPLY, "start_time": None},
             "adapter reply: start_time must be a finite number, got None"),
        ],
        ids=["unknown-field", "start-time-string", "start-time-null"],
    )
    def test_reply_is_checked_as_a_record(self, adapter_spec, monkeypatch, reply, message):
        sim_module = importlib.import_module("safeval.sim")

        def reply_with(cmd, **kwargs):
            return subprocess.CompletedProcess(cmd, 0, json.dumps(reply).encode(), b"")

        monkeypatch.setattr(sim_module.subprocess, "run", reply_with)
        with pytest.raises(AdapterProtocolError) as info:
            simulate_high(adapter_spec, adapter_spec.environment_space.config((1.0,)), seed=0)
        assert str(info.value) == message

    def test_start_time_may_be_left_out(self, adapter_spec, monkeypatch):
        sim_module = importlib.import_module("safeval.sim")
        reply = {key: value for key, value in self.GOOD_REPLY.items() if key != "start_time"}

        def reply_with(cmd, **kwargs):
            return subprocess.CompletedProcess(cmd, 0, json.dumps(reply).encode(), b"")

        monkeypatch.setattr(sim_module.subprocess, "run", reply_with)
        _, ok = simulate_batch(adapter_spec, np.array([[1.0]]), None, [0])
        assert ok.tolist() == [True]

    @pytest.mark.parametrize("sample", [None, float("nan"), float("inf")], ids=["null", "nan", "inf"])
    def test_non_finite_sample_marks_the_row_diverged(self, adapter_spec, monkeypatch, sample):
        sim_module = importlib.import_module("safeval.sim")
        reply = {**self.GOOD_REPLY, "samples": [[sample] + [0.0] * 20]}

        def reply_with(cmd, **kwargs):
            return subprocess.CompletedProcess(cmd, 0, json.dumps(reply).encode(), b"")

        monkeypatch.setattr(sim_module.subprocess, "run", reply_with)
        _, ok = simulate_batch(adapter_spec, np.array([[1.0]]), None, [0])
        assert ok.tolist() == [False]

    def test_missing_executable(self, adapter_spec):
        spec = external_simulator_spec(
            {**DEMO_DESCRIPTION, "id": "external-missing", "adapter": "/nonexistent/adapter"}
        )
        with pytest.raises(AdapterProtocolError):
            simulate_high(spec, spec.environment_space.config((1.0,)), seed=0)

    def test_timeout_is_protocol_error(self, adapter_spec, monkeypatch):
        sim_module = importlib.import_module("safeval.sim")

        def hang(cmd, **kwargs):
            raise subprocess.TimeoutExpired(cmd, kwargs["timeout"])

        monkeypatch.setattr(sim_module.subprocess, "run", hang)
        with pytest.raises(AdapterProtocolError, match="timed out"):
            simulate_high(adapter_spec, adapter_spec.environment_space.config((1.0,)), seed=0)


class TestContinuityInEnvironment:
    def test_robustness_locally_lipschitz(self, braking, braking_phi):
        # The testable face of the smoothness assumption: nearby environment
        # points produce nearby robustness values at a fixed fidelity.
        from safeval.analysis import estimate_lipschitz_env

        f = braking.fidelity_space.setting((0.6, 0.8, 1.0))
        est = estimate_lipschitz_env(braking, phi=braking_phi, f=f, pairs=60, seed=4)
        rng = np.random.default_rng(0)
        lo = braking.environment_space.lower_array()
        hi = braking.environment_space.upper_array()
        for _ in range(20):
            base = lo + rng.random(3) * (hi - lo)
            other = np.clip(base + rng.normal(0, 1e-4, 3), lo, hi)
            ra = robustness(
                braking_phi, simulate_low(braking, braking.environment_space.config(base), f, 0)
            )
            rb = robustness(
                braking_phi, simulate_low(braking, braking.environment_space.config(other), f, 0)
            )
            assert abs(ra - rb) <= 1.2 * est.constant * np.linalg.norm(base - other) + 1e-9
