"""The RK4 integrator against the plain textbook formulation, byte for byte.

``_integrate_to_grid`` reuses buffers, evaluates the terms that do not
depend on the state once per block of steps, sums the stages with one
reduce, integrates the quadrature rows (the braking gap) after each block
of steps, and takes the braking steps whose stage speeds are all above the
stop ramp as block quadrature too. The reference below is the direct
formulation it replaced: one ``_rk4_step`` per step that calls a right-hand
side returning a fresh ``np.stack`` of all the derivatives, the gap's
included, four times, with the time and environment terms computed inside
it. Both must give the same bits.
"""

import dataclasses
import os
import subprocess
import sys
import tracemalloc
import types
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy._core._multiarray_umath import __cpu_features__

from safeval import sim
from safeval.core import sample_uniform
from safeval.sim import get_benchmark, simulate_batch_multi_f


def ref_osc_rhs(t, x, e, blend):
    pos = x[:, 0]
    vel = x[:, 1]
    c = e[:, 2]
    drag = c * ((1.0 - blend) * (vel * vel * vel) + blend * vel)
    return np.stack([vel, -(sim._OSC_OMEGA**2) * pos - drag], axis=1)


def ref_brk_rhs(t, x, e, blend):
    v_ego = x[:, 1]
    v_lead = x[:, 2]
    a_lead = e[:, 2]
    after_reaction = np.maximum(t - sim._BRK_REACTION_TIME, 0.0)
    braking_on = (t >= sim._BRK_REACTION_TIME).astype(float)
    actuation = 1.0 - blend * np.exp(-after_reaction / sim._BRK_BRAKE_LAG)
    ego_ramp = np.clip(v_ego / sim._BRK_SPEED_RAMP, 0.0, 1.0)
    lead_ramp = np.clip(v_lead / sim._BRK_SPEED_RAMP, 0.0, 1.0)
    dv_ego = -sim._BRK_EGO_DECEL * braking_on * actuation * ego_ramp
    dv_lead = -a_lead * lead_ramp
    return np.stack([v_lead - v_ego, dv_ego, dv_lead], axis=1)


REFERENCE_RHS = {sim._osc_rhs: ref_osc_rhs, sim._brk_rhs: ref_brk_rhs}


def ref_rk4_step(rhs, t, x, h, e, blend, stage_states):
    hc = h[:, None]
    k1 = rhs(t, x, e, blend)
    x2 = x + 0.5 * hc * k1
    k2 = rhs(t + 0.5 * h, x2, e, blend)
    x3 = x + 0.5 * hc * k2
    k3 = rhs(t + 0.5 * h, x3, e, blend)
    x4 = x + hc * k3
    k4 = rhs(t + h, x4, e, blend)
    if stage_states is not None:
        stage_states.append(np.stack([x, x2, x3, x4]))
    return x + (hc / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def ref_integrate_to_grid(model, x0, e, h, blend, duration, grid, n_samples=None,
                          stage_states=None):
    """The textbook integration over the whole duration, its samples cut to the first
    ``n_samples``; each step's four (B, S) stage states go to ``stage_states``."""
    rhs = REFERENCE_RHS[model.rhs]
    batch, state_dim = x0.shape
    base_dt = float(grid[1] - grid[0])
    full_steps = np.floor(duration / h + 1e-9).astype(int)
    remainder = duration - full_steps * h
    remainder = np.where(remainder > 1e-12 * max(duration, 1.0), remainder, 0.0)
    max_full = int(full_steps.max())

    hist = np.empty((max_full + 2, batch, state_dim))
    hist[0] = x0
    x = x0.copy()
    t = np.zeros(batch)
    for k in range(max_full):
        hk = np.where(k < full_steps, h, 0.0)
        x = ref_rk4_step(rhs, t, x, hk, e, blend, stage_states)
        t = t + hk
        hist[k + 1] = x
    hist[max_full + 1] = ref_rk4_step(rhs, t, x, remainder, e, blend, stage_states)

    n_grid = len(grid)
    out = np.empty((batch, state_dim, n_grid))
    for i in range(batch):
        fi = int(full_steps[i])
        if h[i] == base_dt and fi == n_grid - 1:
            out[i] = hist[:n_grid, i, :].T
            continue
        knots_t = h[i] * np.arange(fi + 1)
        knots_x = hist[: fi + 1, i, :]
        if remainder[i] > 0.0:
            knots_t = np.append(knots_t, duration)
            knots_x = np.vstack([knots_x, hist[max_full + 1, i, :][None, :]])
        for s in range(state_dim):
            out[i, s] = np.interp(grid, knots_t, knots_x[:, s])
    return out[:, :, :n_samples], full_steps + (remainder > 0.0)


def random_batch(spec, batch, seed):
    """Rows at mixed step sizes and blends, some noisy, some high, one all-ones."""
    rng = np.random.default_rng(seed)
    e_rows = np.array([c.as_array() for c in sample_uniform(spec.environment_space, batch, seed)])
    f_rows = rng.random((batch, 3))
    f_rows[:, 2] = np.where(rng.random(batch) < 0.5, 1.0, f_rows[:, 2])
    f_rows[0] = 1.0
    f_rows[1, 0] = 0.0
    high = np.zeros(batch, dtype=bool)
    high[2] = True
    return e_rows, f_rows, list(range(batch)), high


def shaped_batch(spec, batch, kind):
    """Rows at full resolution, all on the high path, ending in different drive blocks, or
    at one coarse, blended, noisy setting."""
    rng = np.random.default_rng(batch)
    e_rows = np.array([c.as_array() for c in sample_uniform(spec.environment_space, batch, 7)])
    f_rows = rng.random((batch, 3))
    high = np.zeros(batch, dtype=bool)
    if kind == "full-resolution":
        f_rows[:] = 1.0
        high[1::2] = True
    elif kind == "all-high":
        high[:] = True
    elif kind == "blocks":
        multiplier = np.array([1.0, 1.5, 2.0, 5.0, 32.0])
        f_rows[:, 0] = (32.0 - multiplier) / 31.0
        f_rows[:, 2] = 1.0
    elif kind == "noisy-low":
        f_rows[:] = (0.9, 0.5, 0.5)
    elif kind == "corners":
        lo, hi = spec.environment_space.lower_array(), spec.environment_space.upper_array()
        e_rows = np.array([[(lo, hi)[(m >> i) & 1][i] for i in range(3)] for m in range(batch)])
        f_rows[:, 0] = 0.0
        f_rows[:, 2] = 1.0
    elif kind == "signed-zero-nan":
        f_rows[:, 2] = 1.0
    return e_rows, f_rows, list(range(batch)), high


# (gap, v_ego, v_lead) of the "signed-zero-nan" rows: -0.0 and NaN speeds
# reach the stop ramps and the gap's rate.
SIGNED_ZERO_NAN_STATES = np.array(
    [
        [50.0, -0.0, 0.05],
        [50.0, np.nan, 2.0],
        [-0.0, 0.0, -0.0],
        [50.0, 0.0, np.nan],
        [20.0, 1.0, -0.0],
    ]
)


@pytest.mark.parametrize(
    "sim_id, batch, seed",
    [
        ("braking", 24, 1),
        ("braking", 9, 2),
        ("braking", 5, 3),
        ("oscillator", 6, 4),
        ("braking", 1, "full-resolution"),
        ("braking", 6, "all-high"),
        ("braking", 5, "blocks"),
        ("oscillator", 2, "full-resolution"),
        ("oscillator", 1, "noisy-low"),
        ("braking", 257, 5),
        ("braking", 8, "corners"),
        ("braking", 5, "signed-zero-nan"),
    ],
)
def test_samples_match_the_textbook_rk4_bit_for_bit(sim_id, batch, seed, monkeypatch):
    spec = get_benchmark(sim_id)
    if isinstance(seed, int):
        e_rows, f_rows, seeds, high = random_batch(spec, batch, seed)
        h, blend, sigma = spec.backend._knob_arrays(spec, f_rows[~high], int((~high).sum()))
        assert len(set(np.floor(spec.duration / h + 1e-9).tolist())) >= 3  # rows end apart
        assert (spec.duration % h > 1e-9).any() and (blend > 0).any() and (sigma > 0).any()
    else:
        e_rows, f_rows, seeds, high = shaped_batch(spec, batch, seed)
        h, _, _ = spec.backend._knob_arrays(spec, f_rows, batch)
        last_step = np.floor(spec.duration / np.where(high, spec.base_dt, h) + 1e-9)
        if seed == "full-resolution":  # spec.steps loop steps: the last block is partial
            assert (last_step == spec.steps - 1).all()
            assert spec.steps % sim._DRIVE_BLOCK != 0
        if seed == "blocks":
            assert len(set((last_step // sim._DRIVE_BLOCK).tolist())) == batch
        if seed == "noisy-low":
            _, blend, sigma = spec.backend._knob_arrays(spec, f_rows, batch)
            assert (h > spec.base_dt).all() and (blend > 0).all() and (sigma > 0).all()
        if seed == "corners":
            assert (h == 32 * spec.base_dt).all()
        if seed == "signed-zero-nan":
            model = dataclasses.replace(
                spec.backend, initial_state=lambda e: SIGNED_ZERO_NAN_STATES
            )
            spec = dataclasses.replace(spec, backend=model)

    samples, ok = simulate_batch_multi_f(spec, e_rows, f_rows, seeds, high)
    monkeypatch.setattr(sim, "_integrate_to_grid", ref_integrate_to_grid)
    expected, ok_ref = simulate_batch_multi_f(spec, e_rows, f_rows, seeds, high)

    if seed == "signed-zero-nan":
        assert ok.tolist() == ok_ref.tolist() == [True, False, True, False, True]
    else:
        assert ok.all() and ok_ref.all()
    if seed == "corners":  # the coarse steps overshoot the stop: speeds change sign
        assert (samples[:, 1:] < 0.0).any()
    assert samples.tobytes() == expected.tobytes()


@pytest.mark.parametrize("sim_id", ["braking", "oscillator"])
def test_knob_arrays_match_the_per_row_mapping(sim_id):
    spec = get_benchmark(sim_id)
    _, f_rows, _, _ = random_batch(spec, 16, 5)
    backend = spec.backend
    h, blend, sigma = backend._knob_arrays(spec, f_rows, len(f_rows))
    phys = np.stack([spec.fidelity_mapping.to_physical(row) for row in f_rows])
    expected_h = np.minimum(spec.base_dt * np.maximum(phys[:, 0], 1.0), spec.duration)
    assert h.tobytes() == expected_h.tobytes()
    assert blend.tobytes() == np.clip(phys[:, 1], 0.0, 1.0).tobytes()
    assert sigma.tobytes() == np.maximum(phys[:, 2], 0.0).tobytes()


def counting_model(backend, calls):
    """``backend`` with its drive, step, quadrature and drive-only calls counted in ``calls``."""

    def drive(t, e, blend):
        calls["drive"] += 1
        return backend.drive(t, e, blend)

    def rhs(e, blend):
        bind = backend.rhs(e, blend)

        def counted_bind(stages):
            def counted(step):
                def counted_step(d):
                    calls["rhs"] += 1
                    step(d)

                return counted_step

            return [counted(step) for step in bind(stages)]

        return counted_bind

    def quad(x, out):
        calls["quad"] += 1
        backend.quad(x, out)

    def drive_only(x):
        calls["drive_only"] += 1
        return backend.drive_only(x)

    return dataclasses.replace(
        backend,
        drive=drive,
        rhs=rhs,
        quad=quad,
        drive_only=drive_only if backend.drive_only else None,
    )


@pytest.mark.parametrize("sim_id, quad_rows", [("braking", 1), ("oscillator", 0)])
def test_two_drive_calls_per_block_and_four_rhs_calls_per_step(sim_id, quad_rows):
    spec = get_benchmark(sim_id)
    backend = spec.backend
    assert backend.quad_rows == quad_rows
    calls = dict.fromkeys(["drive", "rhs", "quad", "drive_only"], 0)
    model = counting_model(backend, calls)
    e_rows = np.array([c.as_array() for c in sample_uniform(spec.environment_space, 3, 6)])
    h = spec.base_dt * np.array([1.0, 7.3, 32.0])
    h = np.minimum(h, spec.duration)
    x0 = backend.initial_state(e_rows)
    if backend.drive_only:  # the speeds start inside the stop ramp: every step reads them
        x0[:, 1:] = 0.05
    sim._integrate_to_grid(
        model, x0, e_rows, h, np.full(3, 0.5), spec.duration, spec.grid_times()
    )
    loop_steps = int(np.floor(spec.duration / h + 1e-9).max()) + 1  # the remainder step counts
    blocks = -(-loop_steps // sim._DRIVE_BLOCK)
    quad_calls = blocks if quad_rows else 0
    drive_only_calls = 1 if backend.drive_only else 0  # the first block keeps no step
    assert calls == {
        "drive": 2 * blocks,
        "rhs": 4 * loop_steps,
        "quad": quad_calls,
        "drive_only": drive_only_calls,
    }


BRAKING = get_benchmark("braking")


def braking_rows(lead_speeds, multipliers, lead_decel=9.0, blend=0.0):
    """(x0, e, h, blend) of braking rows started directly at the given lead speeds.

    The ego starts at 50 m/s, still above its stop ramp after 6 s of full
    braking, so the lead's speed decides where the stop ramp is first read.
    """
    lead = np.asarray(lead_speeds, dtype=float)
    batch = len(lead)
    x0 = np.stack([np.full(batch, 50.0), np.full(batch, 50.0), lead], axis=1)
    e = np.stack([x0[:, 0], np.full(batch, 30.0), np.full(batch, lead_decel)], axis=1)
    h = BRAKING.base_dt * np.asarray(multipliers, dtype=float)
    return x0, e, h, np.full(batch, blend)


def first_step_reading_the_state(stage_states):
    """The first loop step with a stage speed below the stop ramp, from the reference's stages."""
    for k, stages in enumerate(stage_states):
        if not (stages[..., 1:] / sim._BRK_SPEED_RAMP >= 1.0).all():
            return k
    return None


# The lead, braking at 9 m/s^2 from v0 at h = 0.01 s, has its lowest stage
# speed of step j, v0 - 0.09 (j + 1), below the 0.1 m/s ramp first at
# j = (v0 - 0.1) / 0.09 - 0.5. At 1 m/s^2 and h = 0.07 s the 85 full steps
# end 0.05 s short of 6 s, and a lead at 6.075 m/s reaches the ramp only in
# the remainder step. In "mixed-tails" the rows at 7.3 and 32 times the base
# step have finished their full steps, and take steps of size 0, before the
# 1 m/s^2 lead at 1.255 m/s reaches the ramp at step 115.
BLOCK_PATH_CASES = {
    "step-0": (braking_rows([0.05, 30.0], [1, 1]), 0),
    "mid-block": (braking_rows([9.145], [1]), 100),
    "block-64": (braking_rows([5.905, 20.0, 30.0], [1, 1, 1]), 64),
    "block-128": (braking_rows([11.665, 20.0], [1, 1]), 128),
    "remainder": (braking_rows([6.075], [7], lead_decel=1.0), 85),
    "never": (braking_rows([50.0, 12.0], [1, 1], lead_decel=1.0), None),
    "mixed-tails": (
        braking_rows([1.255, 50.0, 50.0, 50.0], [1, 2.5, 7.3, 32], lead_decel=1.0, blend=0.4),
        115,
    ),
    "corners": (
        (
            BRAKING.backend.initial_state(
                np.array([[5.0, 10.0, 1.0], [5.0, 35.0, 9.0], [100.0, 35.0, 1.0]])
            ),
            np.array([[5.0, 10.0, 1.0], [5.0, 35.0, 9.0], [100.0, 35.0, 1.0]]),
            np.full(3, 32 * BRAKING.base_dt),
            np.full(3, 0.7),
        ),
        7,
    ),
    "signed-zero-nan": (
        (
            np.vstack([SIGNED_ZERO_NAN_STATES, [[50.0, 40.0, 40.0]]]),
            np.tile([50.0, 30.0, 5.0], (6, 1)),
            np.full(6, BRAKING.base_dt),
            np.full(6, 0.2),
        ),
        0,
    ),
}


@pytest.mark.parametrize("case", BLOCK_PATH_CASES)
def test_block_quadrature_matches_the_textbook_rk4_bit_for_bit(case):
    (x0, e, h, blend), entry = BLOCK_PATH_CASES[case]
    grid = BRAKING.grid_times()
    stage_states = []
    expected, expected_steps = ref_integrate_to_grid(
        BRAKING.backend, x0, e, h, blend, BRAKING.duration, grid, stage_states=stage_states
    )
    assert first_step_reading_the_state(stage_states) == entry
    if case == "corners":  # the coarse steps overshoot the stop: speeds change sign
        assert (expected[:, 1:] < 0.0).any()
    if case == "mixed-tails":  # the rows' full steps end apart
        assert len(set(expected_steps.tolist())) == len(h)
    out, steps = sim._integrate_to_grid(BRAKING.backend, x0, e, h, blend, BRAKING.duration, grid)
    assert out.tobytes() == expected.tobytes()
    assert steps.tolist() == expected_steps.tolist()


@pytest.mark.parametrize("case", ["never", "mid-block", "block-64", "block-128", "remainder"])
def test_saturated_steps_make_no_rhs_calls(case):
    # The steps before the first one that reads the state are block
    # quadrature; the block that holds it is the last that asks drive_only.
    (x0, e, h, blend), entry = BLOCK_PATH_CASES[case]
    calls = dict.fromkeys(["drive", "rhs", "quad", "drive_only"], 0)
    model = counting_model(BRAKING.backend, calls)
    sim._integrate_to_grid(model, x0, e, h, blend, BRAKING.duration, BRAKING.grid_times())
    loop_steps = int(np.floor(BRAKING.duration / h + 1e-9).max()) + 1
    blocks = -(-loop_steps // sim._DRIVE_BLOCK)
    if entry is None:
        assert calls["rhs"] == 0 and calls["drive_only"] == blocks
    else:
        assert calls["rhs"] == 4 * (loop_steps - entry)
        assert calls["drive_only"] == entry // sim._DRIVE_BLOCK + 1
    if case == "block-128":  # block 2 keeps no step; blocks 3 to 9 step directly
        assert calls["drive_only"] == 3 and blocks == 10


@settings(max_examples=40, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.one_of(st.floats(0.0, 40.0), st.sampled_from([0.1, 0.05, -0.0])),
            st.one_of(st.floats(0.0, 40.0), st.sampled_from([0.1, 0.05, -0.0])),
            st.floats(1.0, 9.0),
            st.floats(1.0, 32.0),
            st.floats(0.0, 1.0),
        ),
        min_size=1,
        max_size=70,
    )
)
def test_block_quadrature_matches_the_textbook_rk4_on_random_rows(rows):
    ego, lead, decel, multiplier, blend = (np.array(column) for column in zip(*rows))
    x0 = np.stack([np.full(len(rows), 40.0), ego, lead], axis=1)
    e = np.stack([x0[:, 0], np.full(len(rows), 30.0), decel], axis=1)
    h = BRAKING.base_dt * multiplier
    grid = BRAKING.grid_times()
    expected, _ = ref_integrate_to_grid(BRAKING.backend, x0, e, h, blend, BRAKING.duration, grid)
    out, _ = sim._integrate_to_grid(BRAKING.backend, x0, e, h, blend, BRAKING.duration, grid)
    assert out.tobytes() == expected.tobytes()


OSCILLATOR = get_benchmark("oscillator")

# Oscillator velocities whose cube is a signed zero, underflows (5e-324 and
# 1e-110) or overflows (1e103), and a NaN.
SPECIAL_VELOCITIES = [0.0, -0.0, 5e-324, -5e-324, 1e-110, -1e-110, 1e103, -1e103, np.nan]


@pytest.mark.parametrize("blends", ["all-zero", "mixed"])
@pytest.mark.parametrize("position", [0.0, 0.5])
def test_oscillator_at_blend_zero_matches_the_textbook_rk4_bit_for_bit(blends, position):
    # A call whose rows are all at blend 0 binds the full model, c v^3; a
    # call with a blended row takes the blended step for every row.
    vel = np.array(SPECIAL_VELOCITIES * 2)
    batch = len(vel)
    x0 = np.stack([np.full(batch, position), vel], axis=1)
    drag = np.repeat([0.7, 0.0], len(SPECIAL_VELOCITIES))
    e = np.stack([x0[:, 0], np.zeros(batch), drag], axis=1)  # the step reads only the drag
    h = np.full(batch, OSCILLATOR.base_dt)
    blend = np.zeros(batch)
    if blends == "mixed":
        blend[1::2] = 0.5
    grid = OSCILLATOR.base_dt * np.arange(101)
    with np.errstate(all="ignore"):
        expected, _ = ref_integrate_to_grid(OSCILLATOR.backend, x0, e, h, blend, 0.1, grid)
        out, _ = sim._integrate_to_grid(OSCILLATOR.backend, x0, e, h, blend, 0.1, grid)
    finite = np.isfinite(expected).all(axis=(1, 2))
    assert finite.tolist() == [abs(v) < 1e100 for v in vel]
    assert out.tobytes() == expected.tobytes()


@settings(max_examples=40, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.one_of(st.floats(-2.0, 2.0), st.sampled_from([0.0, -0.0])),
            st.one_of(st.floats(-2.0, 2.0), st.sampled_from(SPECIAL_VELOCITIES)),
            st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0])),
            st.one_of(st.floats(1.0, 32.0), st.sampled_from([1.0, 32.0])),
            st.floats(0.0, 1.0),
        ),
        min_size=1,
        max_size=70,
    ),
    blends=st.sampled_from(["all-zero", "mixed"]),
    base_step=st.booleans(),
    n_samples=st.one_of(st.none(), st.integers(1, 201)),
)
def test_oscillator_matches_the_textbook_rk4_on_random_rows(rows, blends, base_step, n_samples):
    # Over 0.2 s, four blocks of steps at the base step. With base_step every
    # row is at the base step, and the call keeps one block of history.
    pos, vel, drag, multiplier, blend = (np.array(column) for column in zip(*rows))
    if blends == "all-zero":
        blend[:] = 0.0
    else:
        blend[::2] = 0.0
    if base_step:
        multiplier[:] = 1.0
    x0 = np.stack([pos, vel], axis=1)
    e = np.stack([pos, np.zeros(len(rows)), drag], axis=1)  # the step reads only the drag
    h = OSCILLATOR.base_dt * multiplier
    grid = OSCILLATOR.base_dt * np.arange(201)
    with np.errstate(all="ignore"):
        expected, _ = ref_integrate_to_grid(
            OSCILLATOR.backend, x0, e, h, blend, 0.2, grid, n_samples=n_samples
        )
        out, _ = sim._integrate_to_grid(OSCILLATOR.backend, x0, e, h, blend, 0.2, grid, n_samples)
    assert out.tobytes() == expected.tobytes()


# The samples of two 64-row calls of a benchmark, at max fidelity with
# ``high`` set and at a lower fidelity, hashed by a fresh interpreter.
HASHES = """
import hashlib
import numpy as np
from safeval.core import sample_uniform
from safeval.sim import get_benchmark, simulate_batch_multi_f
spec = get_benchmark({sim_id!r})
e_rows = np.array([c.as_array() for c in sample_uniform(spec.environment_space, 64, 3)])
for f, high in (((1.0, 1.0, 1.0), True), ({low_f!r}, False)):
    samples, _ = simulate_batch_multi_f(spec, e_rows, np.tile(f, (64, 1)), range(64), [high] * 64)
    print(hashlib.sha256(samples.tobytes()).hexdigest())
"""
OSCILLATOR_HASHES = HASHES.format(sim_id="oscillator", low_f=(0.5, 0.5, 1.0))
# Every row at blend 0: a blended braking row takes np.exp.
BRAKING_HASHES = HASHES.format(sim_id="braking", low_f=(0.5, 1.0, 1.0))
AVX512_DISPATCH = ("X86_V4", "AVX512_ICL", "AVX512_SPR")


def assert_hashes_do_not_depend_on_simd_dispatch(script):
    def hashes(**env):
        env = dict(os.environ, PYTHONPATH=str(Path(sim.__file__).parents[1]), **env)
        return subprocess.run([sys.executable, "-c", script], env=env, check=True,
                              capture_output=True, text=True).stdout.split()

    plain = hashes()
    assert len(plain) == 2
    disabled = " ".join(name for name in AVX512_DISPATCH if __cpu_features__[name])
    assert hashes(NPY_DISABLE_CPU_FEATURES=disabled) == plain


@pytest.mark.skipif(not __cpu_features__["AVX512F"], reason="needs AVX-512 to switch off")
def test_oscillator_bytes_do_not_depend_on_simd_dispatch():
    # The oscillator's step adds, subtracts and multiplies only: NumPy rounds
    # those the same on every SIMD path, unlike its power, exp and log.
    assert_hashes_do_not_depend_on_simd_dispatch(OSCILLATOR_HASHES)


@pytest.mark.skipif(not __cpu_features__["AVX512F"], reason="needs AVX-512 to switch off")
def test_braking_blend_zero_bytes_do_not_depend_on_simd_dispatch():
    # At blend 0 the braking step and its drive divide, clip, multiply, add
    # and subtract only; the divide is correctly rounded on every SIMD path.
    assert_hashes_do_not_depend_on_simd_dispatch(BRAKING_HASHES)


def test_braking_drive_at_blend_zero_is_the_blended_formula_at_blend_zero():
    # Steps straddle the reaction time, one exactly at 0.6 s; the ego's factor
    # before it is -0.0. Speeds above the stop ramp make the reference's
    # derivatives the drive's factors.
    times = np.array([0.0, 0.3, np.nextafter(0.6, 0.0), 0.6, np.nextafter(0.6, 1.0), 5.99])
    batch = 3
    t = np.repeat(times[:, None], batch, axis=1)
    e = np.tile([50.0, 20.0, 5.0], (batch, 1))
    factors = sim._brk_drive(t, e.T.copy(), np.zeros(batch))
    x = np.tile([50.0, 20.0, 20.0], (batch, 1))
    expected = np.stack([ref_brk_rhs(tj, x, e, np.zeros(batch))[:, 1:].T for tj in t])
    assert factors.tobytes() == expected.tobytes()
    assert np.signbit(factors[:3, 0]).all() and (factors[:3, 0] == 0.0).all()
    assert (factors[3:, 0] == -sim._BRK_EGO_DECEL).all()


class CountedArray(np.ndarray):
    """An array that counts the ufunc calls it takes part in and the assignments into it.

    ``scalars`` logs each input of those calls that is not an array (a NumPy
    or Python scalar), as the ufunc's name and the input's type.
    """

    calls = 0
    assignments = 0
    scalars = []

    def __setitem__(self, key, value):
        CountedArray.assignments += 1
        super().__setitem__(key, value)

    def __array_ufunc__(self, ufunc, method, *inputs, out=(), **kwargs):
        CountedArray.calls += 1
        CountedArray.scalars += [
            f"{ufunc.__name__}({type(a).__name__})" for a in inputs if not isinstance(a, np.ndarray)
        ]

        def plain(a):
            return a.view(np.ndarray) if isinstance(a, CountedArray) else a

        if out:
            kwargs["out"] = tuple(plain(o) for o in out)
        result = getattr(ufunc, method)(*(plain(a) for a in inputs), **kwargs)
        if out:
            return out[0] if len(out) == 1 else out
        return result.view(CountedArray) if isinstance(result, np.ndarray) else result


# NumPy ufunc calls per RK4 step; the oscillator's cube is two multiplies
# per stage. No step assigns into an integrator buffer: the oscillator's
# velocity row is its own position derivative, not a copy of it. No step
# passes a scalar operand, which NumPy converts on every call.
@pytest.mark.parametrize(
    "sim_id, per_step, blend",
    [("braking", 22, 0.5), ("oscillator", 38, 0.5), ("oscillator", 26, 0.0)],
    ids=["braking-22", "oscillator-38", "oscillator-26-blend-0"],
)
def test_numpy_calls_per_rk4_step(sim_id, per_step, blend, monkeypatch):
    spec = get_benchmark(sim_id)
    backend = spec.backend
    # Every buffer the integrator allocates counts the ufunc calls made on it.
    counting_np = types.SimpleNamespace(**vars(np))
    counting_np.empty = lambda *args, **kwargs: np.empty(*args, **kwargs).view(CountedArray)
    monkeypatch.setattr(sim, "np", counting_np)
    e_rows = np.array([c.as_array() for c in sample_uniform(spec.environment_space, 4, 9)])
    x0 = backend.initial_state(e_rows)
    if backend.drive_only:  # the speeds start inside the stop ramp: every step reads them
        x0[:, 1:] = 0.05

    def calls(loop_steps):
        duration = (loop_steps - 1) * spec.base_dt
        grid = spec.base_dt * np.arange(loop_steps)
        h = np.full(4, spec.base_dt)
        before = CountedArray.calls, CountedArray.assignments
        CountedArray.scalars = []
        sim._integrate_to_grid(backend, x0, e_rows, h, np.full(4, blend), duration, grid)
        return (CountedArray.calls - before[0], CountedArray.assignments - before[1],
                Counter(CountedArray.scalars))

    # Both runs take two blocks of steps, so only the step count differs.
    assert -(-101 // sim._DRIVE_BLOCK) == -(-121 // sim._DRIVE_BLOCK)
    (ufuncs_121, assigned_121, scalars_121), (ufuncs_101, assigned_101, scalars_101) = (
        calls(121), calls(101)
    )
    assert ufuncs_121 - ufuncs_101 == 20 * per_step
    assert assigned_121 - assigned_101 == 0
    assert scalars_121 - scalars_101 == Counter()


@pytest.mark.parametrize("sim_id", ["oscillator", "braking"])
def test_integrator_memory_is_history_and_output_plus_a_little(sim_id):
    spec = get_benchmark(sim_id)
    backend = spec.backend
    batch = 64
    e_rows = np.array([c.as_array() for c in sample_uniform(spec.environment_space, batch, 8)])
    h = np.full(batch, spec.base_dt)
    x0 = backend.initial_state(e_rows)
    grid = spec.grid_times()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        out, _ = sim._integrate_to_grid(
            backend, x0, e_rows, h, np.zeros(batch), spec.duration, grid
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    state_dim = x0.shape[1]
    history = (spec.steps + 1) * state_dim * batch * 8
    assert out.nbytes == len(grid) * state_dim * batch * 8
    assert peak - before <= history + out.nbytes + 2**20


def test_stop_ramp_matches_clip_at_signed_zero_and_nan():
    # v_ego = -0.0 and NaN reach the ramp; np.clip keeps -0.0 and NaN as they are.
    x = np.array([[1.0, -0.0, 0.05], [1.0, np.nan, 2.0], [1.0, -1.0, 0.1], [1.0, 0.0, -0.0]])
    e = np.tile([50.0, 20.0, 5.0], (4, 1))
    drive = sim._brk_drive(np.full((1, 4), 1.0), e.T.copy(), np.full(4, 0.3))[0]
    out = np.empty((3, 4))
    speeds = x.T[1:].copy()
    sim._brk_gap_rate(speeds, out[:1])
    (step,) = sim._brk_rhs(e.T.copy(), np.full(4, 0.3))([(speeds, out[1:])])
    step(drive)
    expected = ref_brk_rhs(np.full(4, 1.0), x, e, np.full(4, 0.3))
    assert out.T.tobytes() == expected.tobytes()


def test_drive_only_is_where_the_step_writes_the_drive_unchanged():
    ramp = sim._BRK_SPEED_RAMP
    near = ramp + np.arange(-2000, 2001) * np.spacing(ramp)
    rng = np.random.default_rng(3)
    special = [np.nan, -0.0, 0.0, np.inf, -np.inf, -ramp, 2 * ramp]
    speeds = np.concatenate([near, rng.random(4000) * 0.3, rng.random(4000) * 40, special])
    speeds = speeds[: len(speeds) // 2 * 2].reshape(2, -1)
    drive_only = sim._brk_drive_only(speeds)
    assert drive_only.tolist() == (speeds / ramp >= 1.0).tolist()
    drive = np.random.default_rng(4).standard_normal(speeds.shape)
    out = np.empty_like(speeds)
    bind = sim._brk_rhs(np.zeros((3, speeds.shape[1])), np.zeros(speeds.shape[1]))
    (step,) = bind([(speeds, out)])
    step(drive)
    assert out[drive_only].tobytes() == drive[drive_only].tobytes()
    assert (out[~drive_only] != drive[~drive_only]).any()


class UfuncLog(np.ndarray):
    """An array that logs the ufuncs it takes part in and runs them on plain arrays."""

    log: list = []

    def __array_ufunc__(self, ufunc, method, *inputs, out=(), **kwargs):
        UfuncLog.log.append(ufunc)

        def plain(a):
            return a.view(np.ndarray) if isinstance(a, UfuncLog) else a

        if out:
            kwargs["out"] = tuple(plain(o) for o in out)
        getattr(ufunc, method)(*(plain(a) for a in inputs), **kwargs)
        return out[0] if out else None


def test_stop_ramp_calls_the_ufunc_that_ndarray_clip_dispatches():
    UfuncLog.log = []
    np.zeros(3).view(UfuncLog).clip(0.0, 1.0, out=np.empty(3).view(UfuncLog))
    (dispatched,) = UfuncLog.log
    assert isinstance(dispatched, np.ufunc) and dispatched is sim._clip

    UfuncLog.log = []
    e = np.tile([50.0, 20.0, 5.0], (4, 1)).T.copy()
    drive = sim._brk_drive(np.full((1, 4), 1.0), e, np.full(4, 0.3))[0]
    speeds = np.array([[0.05, -0.0, np.nan, 2.0], [0.1, 1.0, 0.0, -0.0]])
    (step,) = sim._brk_rhs(e, np.full(4, 0.3))([(speeds, np.empty((2, 4)).view(UfuncLog))])
    step(drive)
    assert UfuncLog.log == [np.divide, dispatched, np.multiply]


@pytest.mark.parametrize("drive_only", [None, lambda x: np.ones(x.shape, bool)])
def test_stage_sum_keeps_signed_zeros(drive_only):
    # Four -0.0 stages sum to -0.0, so a state at -0.0 stays there; a reduce
    # that starts from +0.0 would move it to +0.0. Row 0 is a quadrature row.
    # With a drive_only that holds everywhere, every step is block quadrature
    # of the -0.0 drive terms.
    def drive(t, e, blend):
        return np.full((len(t), 2, t.shape[1]), -0.0)

    def rhs(e, blend):
        return lambda stages: [lambda d, stage=stage: stage[1].fill(-0.0) for stage in stages]

    def quad(x, out):
        out.fill(-0.0)

    model = sim.OdeBenchmark(
        drive, rhs, initial_state=None, quad_rows=1, quad=quad, drive_only=drive_only
    )
    x0 = np.array([[-0.0, -0.0, 1.0], [1.0, -0.0, -0.0]])
    grid = 0.1 * np.arange(11)
    out, _ = sim._integrate_to_grid(
        model, x0, np.zeros((2, 1)), np.full(2, 0.1), np.zeros(2), 1.0, grid
    )
    assert out.tobytes() == np.repeat(x0[:, :, None], len(grid), axis=2).tobytes()
