"""The RK4 integrator against the plain textbook formulation, byte for byte.

``_integrate_to_grid`` reuses buffers, evaluates the terms that do not
depend on the state once per block of steps, sums the stages with one
reduce and integrates the quadrature rows (the braking gap) after each block
of steps. The reference below is the direct formulation it replaced: one
``_rk4_step`` per step that calls a right-hand side returning a fresh
``np.stack`` of all the derivatives, the gap's included, four times, with
the time and environment terms computed inside it. Both must give the same
bits.
"""

import dataclasses
import tracemalloc
import types

import numpy as np
import pytest

from safeval import sim
from safeval.core import sample_uniform
from safeval.sim import get_benchmark, simulate_batch_multi_f


def ref_osc_rhs(t, x, e, blend):
    pos = x[:, 0]
    vel = x[:, 1]
    c = e[:, 2]
    drag = c * ((1.0 - blend) * vel**3 + blend * vel)
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


def ref_rk4_step(rhs, t, x, h, e, blend):
    hc = h[:, None]
    k1 = rhs(t, x, e, blend)
    k2 = rhs(t + 0.5 * h, x + 0.5 * hc * k1, e, blend)
    k3 = rhs(t + 0.5 * h, x + 0.5 * hc * k2, e, blend)
    k4 = rhs(t + h, x + hc * k3, e, blend)
    return x + (hc / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def ref_integrate_to_grid(model, x0, e, h, blend, duration, grid):
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
        x = ref_rk4_step(rhs, t, x, hk, e, blend)
        t = t + hk
        hist[k + 1] = x
    hist[max_full + 1] = ref_rk4_step(rhs, t, x, remainder, e, blend)

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
    return out, full_steps + (remainder > 0.0)


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


@pytest.mark.parametrize("sim_id, quad_rows", [("braking", 1), ("oscillator", 0)])
def test_two_drive_calls_per_block_and_four_rhs_calls_per_step(sim_id, quad_rows):
    spec = get_benchmark(sim_id)
    backend = spec.backend
    assert backend.quad_rows == quad_rows
    calls = {"drive": 0, "rhs": 0, "quad": 0}

    def drive(t, e, blend):
        calls["drive"] += 1
        return backend.drive(t, e, blend)

    def rhs(x, e, d, out):
        calls["rhs"] += 1
        backend.rhs(x, e, d, out)

    def quad(x, out):
        calls["quad"] += 1
        backend.quad(x, out)

    model = dataclasses.replace(backend, drive=drive, rhs=rhs, quad=quad)
    e_rows = np.array([c.as_array() for c in sample_uniform(spec.environment_space, 3, 6)])
    h = spec.base_dt * np.array([1.0, 7.3, 32.0])
    h = np.minimum(h, spec.duration)
    x0 = backend.initial_state(e_rows)
    sim._integrate_to_grid(
        model, x0, e_rows, h, np.full(3, 0.5), spec.duration, spec.grid_times()
    )
    loop_steps = int(np.floor(spec.duration / h + 1e-9).max()) + 1  # the remainder step counts
    blocks = -(-loop_steps // sim._DRIVE_BLOCK)
    quad_calls = blocks if quad_rows else 0
    assert calls == {"drive": 2 * blocks, "rhs": 4 * loop_steps, "quad": quad_calls}


class CountedArray(np.ndarray):
    """An array that counts the ufunc calls it takes part in."""

    calls = 0

    def __array_ufunc__(self, ufunc, method, *inputs, out=(), **kwargs):
        CountedArray.calls += 1

        def plain(a):
            return a.view(np.ndarray) if isinstance(a, CountedArray) else a

        if out:
            kwargs["out"] = tuple(plain(o) for o in out)
        result = getattr(ufunc, method)(*(plain(a) for a in inputs), **kwargs)
        if out:
            return out[0] if len(out) == 1 else out
        return result.view(CountedArray) if isinstance(result, np.ndarray) else result


# NumPy ufunc calls per RK4 step. Each oscillator step also copies the
# velocity into its derivative four times by assignment, which is not a
# ufunc call: 42 NumPy calls in all.
@pytest.mark.parametrize("sim_id, per_step", [("braking", 22), ("oscillator", 38)])
def test_numpy_calls_per_rk4_step(sim_id, per_step, monkeypatch):
    spec = get_benchmark(sim_id)
    backend = spec.backend
    # Every buffer the integrator allocates counts the ufunc calls made on it.
    counting_np = types.SimpleNamespace(**vars(np))
    counting_np.empty = lambda *args, **kwargs: np.empty(*args, **kwargs).view(CountedArray)
    monkeypatch.setattr(sim, "np", counting_np)
    e_rows = np.array([c.as_array() for c in sample_uniform(spec.environment_space, 4, 9)])
    x0 = backend.initial_state(e_rows)

    def calls(loop_steps):
        duration = (loop_steps - 1) * spec.base_dt
        grid = spec.base_dt * np.arange(loop_steps)
        h = np.full(4, spec.base_dt)
        before = CountedArray.calls
        sim._integrate_to_grid(backend, x0, e_rows, h, np.full(4, 0.5), duration, grid)
        return CountedArray.calls - before

    # Both runs take two blocks of steps, so only the step count differs.
    assert -(-101 // sim._DRIVE_BLOCK) == -(-121 // sim._DRIVE_BLOCK)
    assert calls(121) - calls(101) == 20 * per_step


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
    sim._brk_rhs(speeds, e.T.copy(), drive, out[1:])
    expected = ref_brk_rhs(np.full(4, 1.0), x, e, np.full(4, 0.3))
    assert out.T.tobytes() == expected.tobytes()


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
    sim._brk_rhs(speeds, e, drive, np.empty((2, 4)).view(UfuncLog))
    assert UfuncLog.log == [np.divide, dispatched, np.multiply]


def test_stage_sum_keeps_signed_zeros():
    # Four -0.0 stages sum to -0.0, so a state at -0.0 stays there; a reduce
    # that starts from +0.0 would move it to +0.0. Row 0 is a quadrature row.
    def drive(t, e, blend):
        return [None] * len(t)

    def rhs(x, e, d, out):
        out.fill(-0.0)

    def quad(x, out):
        out.fill(-0.0)

    model = sim.OdeBenchmark(drive, rhs, initial_state=None, quad_rows=1, quad=quad)
    x0 = np.array([[-0.0, -0.0, 1.0], [1.0, -0.0, -0.0]])
    grid = 0.1 * np.arange(11)
    out, _ = sim._integrate_to_grid(
        model, x0, np.zeros((2, 1)), np.full(2, 0.1), np.zeros(2), 1.0, grid
    )
    assert out.tobytes() == np.repeat(x0[:, :, None], len(grid), axis=2).tobytes()
