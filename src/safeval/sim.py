"""Multi-fidelity simulator abstraction and built-in benchmark systems.

A simulator is described by a :class:`SimulatorSpec`, which carries the
backend that runs it. The high-fidelity path is deterministic and noise-free;
the low-fidelity path degrades it along three orthogonal knobs (all stored
normalized in [0, 1], where 1 always means highest fidelity):

* ``dt_multiplier`` -- integration step enlarged up to 32x and the result
  linearly resampled onto the base grid,
* ``model_blend``   -- blend from the full dynamics model toward a
  simplified one,
* ``noise_scale``   -- seeded additive Gaussian observation noise. A row's
  noise is its scale times a draw keyed by its seed alone, so the rows of a
  call that share a seed share one draw.

At the all-ones fidelity setting the low-fidelity path runs the exact same
integrator configuration as the high-fidelity path, so the two agree
bit-for-bit.

Two benchmark systems ship with the package:

* ``oscillator`` -- damped nonlinear oscillator x'' = -w^2 x - c v^3 with
  w = 2 rad/s, integrated by RK4 at dt = 1e-3 s over 6 s. The low-fidelity
  model blend replaces the cubic drag with linear drag c*v.
* ``braking``    -- ego-vehicle emergency-braking scenario. Lead and ego
  start at the same speed; the lead brakes at a configurable rate, the ego
  reacts after a 0.6 s delay with 8 m/s^2 braking. The low-fidelity model
  blend adds a first-order brake-actuation lag. The spec of record is
  "G[0,6](gap > 0)" and a crash region exists at small gap / high speed /
  strong lead braking.

External simulators plug in through an executable adapter: per row the
adapter program receives one JSON request ``{"e": [...], "f": [...]|null,
"seed": int, "duration": float, "dt": float}`` on stdin and must print a
JSON trajectory ``{"start_time": float, "dt": float, "channels": [...],
"samples": [[...], ...]}`` on stdout, sampled on exactly the requested grid,
with JSON numbers only and no other field (``start_time`` may be left out).
A ``null``, ``NaN`` or ``Infinity`` sample marks the row diverged. The request
always covers the whole duration; a caller that wants fewer gets the reply cut.

Every simulation goes through one dispatch over rows of (environment,
fidelity, seed, high flag), which hands all of them to the spec's backend
in one ``run`` call: ``simulate_batch`` (one setting) and
``simulate_batch_multi_f`` (one per row) adapt their arguments to it, and
``simulate_high``/``simulate_low`` are one-row ``simulate_batch`` calls.
Only the dispatch checks environments: before any row runs, a row outside
the space or holding NaN raises, naming the row and the simulator.
A call may ask for only the first ``n_samples`` samples of the grid, as the
falsifier does for the samples its spec reads; they are those of a full
call bit for bit, a row is diverged when one of them is not finite, and
the ODE benchmarks integrate each row only as far as they need. The
dispatch books each call's rows and integration steps, split by their
high flags, to every :func:`tally` open in the calling context; there is no
process-wide counter.

The built-in benchmarks run on one batched RK4 integrator. Each splits its
dynamics into a right-hand side, evaluated four times per step, and a drive
of the terms that do not depend on the state (time, environment, model
blend), evaluated once per block of steps on all the block's times at once;
the block's times are summed in the order a step-by-step loop would sum
them, so the result does not depend on the block size. State rows that no
derivative reads (the braking gap) are quadrature rows: the step loop
advances only the other, dynamic rows and keeps their stage states, and
after each block of steps the quadrature rows are integrated from those in
a few block-wide calls, each step's increment added onto the previous value
in step order, so every row gets the bits of a step-by-step RK4. Steps whose
derivatives do not read the state (braking speeds above the stop ramp) are
integrated the same way; the loop runs only from the first step that reads
it. The right-hand side is bound once per call, to operands shaped like
the state and to the call's blend: a call whose rows are all at blend 0
binds the full model without the blend arithmetic. A model may lay out the
rows of a stage: the oscillator's (cube, x, v, a) makes the velocity row
its own position derivative, and one multiply gives both acceleration
terms. A braking step makes 22 NumPy calls, an oscillator step 26 at blend
0 and 38 otherwise, all straight to the ufuncs (the braking ramp's ``clip``
included), with array operands only, and none a row copy. A call whose
rows are all at the base step keeps one block of step history and copies
each block out.
"""

from __future__ import annotations

import json
import subprocess
from collections import Counter
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Protocol, Sequence, runtime_checkable

import numpy as np

from .core import (
    Checked,
    EnvironmentConfig,
    EnvironmentSpace,
    FidelitySetting,
    FidelitySpace,
    InvalidArgumentError,
    Reading,
    Seed,
    SimulationDivergedError,
    Trajectory,
    _field_kwargs,
    rng_from_seed,
    split_seed,
)

__all__ = [
    "KnobMap",
    "FidelityMapping",
    "SimulatorSpec",
    "tally",
    "AdapterProtocolError",
    "SimulatorBackend",
    "OdeBenchmark",
    "simulate_high",
    "simulate_low",
    "simulate_batch",
    "simulate_batch_multi_f",
    "builtin_benchmarks",
    "get_benchmark",
    "external_simulator_spec",
]


class AdapterProtocolError(RuntimeError):
    """An external simulator adapter violated the JSON exchange contract."""


@dataclass(frozen=True)
class KnobMap:
    """Affine map of one fidelity knob from normalized [0,1] to physical units.

    ``at_min`` is the physical value at knob 0 (lowest fidelity), ``at_max``
    at knob 1 (highest fidelity). The map must be strictly monotone.
    """

    name: str
    at_min: float
    at_max: float

    def __post_init__(self) -> None:
        if self.at_min == self.at_max:
            raise InvalidArgumentError(f"knob {self.name!r} map must be monotone")

    def physical(self, v: np.ndarray | float) -> np.ndarray | float:
        return self.at_min + v * (self.at_max - self.at_min)


@dataclass(frozen=True)
class FidelityMapping:
    """Per-knob affine maps between normalized fidelity values and physical knobs."""

    knobs: tuple[KnobMap, ...]
    noise_knob: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "knobs", tuple(self.knobs))
        if self.noise_knob is not None and not 0 <= self.noise_knob < len(self.knobs):
            raise InvalidArgumentError("noise_knob index out of range")

    @property
    def dimension(self) -> int:
        return len(self.knobs)

    def to_physical(self, values: Sequence[float]) -> np.ndarray:
        v = np.asarray(values, dtype=float)
        if v.shape != (self.dimension,):
            raise InvalidArgumentError(
                f"expected {self.dimension} knob values, got shape {v.shape}"
            )
        return np.array([k.physical(v[i]) for i, k in enumerate(self.knobs)])

    def noise_scale(self, values: Sequence[float]) -> float:
        if self.noise_knob is None:
            return 0.0
        return float(self.knobs[self.noise_knob].physical(float(values[self.noise_knob])))


def identity_mapping(dimension: int) -> FidelityMapping:
    """Mapping for simulators whose knobs are already physical in [0, 1]."""
    return FidelityMapping(
        knobs=tuple(KnobMap(f"f{i}", 0.0, 1.0) for i in range(dimension)),
        noise_knob=None,
    )


@runtime_checkable
class SimulatorBackend(Protocol):
    """What runs a simulator's rows; a :class:`SimulatorSpec` carries one."""

    def run(
        self,
        spec: SimulatorSpec,
        e_values: np.ndarray,
        f_rows: np.ndarray,
        seeds: Sequence[Seed],
        high: np.ndarray,
        n_samples: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Return ((batch, channels, n_samples) samples, per-row integration steps).

        Row i runs environment ``e_values[i]`` with seed ``seeds[i]`` at the
        normalized fidelity row ``f_rows[i]``, or on the high-fidelity path
        where ``high[i]`` is set, ignoring its fidelity row. Its samples are
        the first ``n_samples`` of the grid, bit for bit those of a call with
        ``n_samples = spec.steps``, so a backend may stop a row once it has
        them. Implementations may emit non-finite samples for diverged rows;
        callers handle those per row.
        """
        ...


@dataclass(frozen=True)
class SimulatorSpec(Checked):
    """Identity, static description and backend of one simulator pair (high/low)."""

    id: str
    environment_space: EnvironmentSpace
    fidelity_space: FidelitySpace
    channels: tuple[str, ...]
    base_dt: float = field(metadata={"gt": 0})
    duration: float
    fidelity_mapping: FidelityMapping
    backend: SimulatorBackend
    safety_spec: str | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.duration < 10 * self.base_dt:
            raise InvalidArgumentError("duration must be at least 10 * base_dt")
        if self.fidelity_mapping.dimension != self.fidelity_space.dimension:
            raise InvalidArgumentError("fidelity mapping dimension mismatch")

    @property
    def steps(self) -> int:
        return int(round(self.duration / self.base_dt)) + 1

    def grid_times(self) -> np.ndarray:
        return self.base_dt * np.arange(self.steps)


# The tallies open in the current context, innermost last. A thread starts
# with an empty context, so concurrent runs never book each other's rows.
_TALLIES: ContextVar[tuple[Counter, ...]] = ContextVar("safeval_tallies", default=())


@contextmanager
def tally() -> Iterator[Counter]:
    """Count the simulations run in this context while the block is open.

    Yields a ``Counter`` of ``high_calls``, ``low_calls``, ``high_steps`` and
    ``low_steps``: simulated rows and their integration steps, split by the
    rows' high flags. Tallies nest; every open one books each call.
    """
    counts = Counter(high_calls=0, low_calls=0, high_steps=0, low_steps=0)
    token = _TALLIES.set((*_TALLIES.get(), counts))
    try:
        yield counts
    finally:
        _TALLIES.reset(token)


# ---------------------------------------------------------------------------
# Shared RK4 integrator (batched, per-item step size)
# ---------------------------------------------------------------------------

# Right-hand side contract. A state is stored variable-major, shape (S, B):
# each state variable is one contiguous row over the batch, which keeps every
# NumPy call on a row or a block of rows contiguous. Its rows are of two
# kinds. The leading ``quad_rows`` rows are quadrature rows: no derivative
# reads them (the braking gap, whose rate is v_lead - v_ego), so they are
# integrated after the step loop from the stored stage states, in the manner
# of the quadrature variables of SUNDIALS' CVODES. The other D = S -
# quad_rows rows are the dynamic rows that the step loop advances. The terms
# that do not depend on the state are split off so that they run once per
# block of steps instead of four times per step:
#
# * ``drive(t, e, blend)`` with t (n, B), e (d_e, B) and blend (B,) returns
#   the terms that depend only on time, the environment and the model blend,
#   at n time points at once: a sequence whose entry j holds the terms at
#   times t[j] and is handed to the step as it is. An entry is an array, a
#   tuple of arrays, or None for a step that carries no such terms. The
#   integrator calls it twice per block of steps, on the steps' start and end
#   times and on their midpoints.
# * ``rhs(e, blend)`` with e (d_e, B) and blend (B,) binds the right-hand
#   side to one call's batch and returns ``bind(stages)``. The binder
#   shapes the step's operands once, like the state, so that no per-step
#   call broadcasts a scalar or allocates a temporary, and a call whose rows
#   are all at blend 0 may bind the full model without the blend arithmetic.
#   ``bind`` takes the buffers of one RK4 stage of every step of a block
#   and returns one ``step(drive)`` per buffer, with its views made once.
#   ``step`` reads the stage's state rows, writes every element of its
#   derivative rows that is not a state row, and returns nothing. It may
#   write scratch rows; it must not modify the state rows, e or drive.
# * ``stage_layout`` lays out a stage buffer. By default (None) it is a
#   pair of (D, B) arrays, the state rows and the derivative rows: a step's
#   four states are one contiguous block, and the four derivatives are one
#   block that all the steps share. With (rows, first state row, first
#   derivative row) it is (rows, B), the D state rows and the D derivative
#   rows each consecutive and the other rows scratch. A derivative row may
#   then be a state row, where dx/dt is another state variable as it stands
#   (the oscillator's (4, 1, 2): cube, x, v, a), and a scratch row may sit
#   next to a state row, so that one call covers both. The stage sum
#   doubles k2 and k3 in place with one call over the rows from k2 through
#   k3, stage 3's leading rows included, which spends the stage states: a
#   model with a layout has no quadrature rows.
# * ``quad(x, out)`` with x (..., D, B), dynamic-row states at any number of
#   points, writes the quadrature rows' derivatives at those points into
#   ``out`` (..., quad_rows, B). They may depend on nothing else. The
#   integrator calls it once per block of steps, on all of the block's stage
#   states at once.
# * ``drive_only(x)``, optional, with x (..., D, B) returns a bool array of
#   x's shape, True where ``step`` writes the drive's term unchanged, bit for
#   bit: there the derivative does not read the state (braking's speeds at
#   or above the stop ramp). A model with it has a drive that returns one
#   (n, D, B) array. Until a block holds a stage state that is not
#   drive-only, the integrator takes its steps as quadrature too (see
#   ``_integrate_to_grid``) and makes no step call.
#
# All of them must be elementwise per batch item.
DriveFn = Callable[[np.ndarray, np.ndarray, np.ndarray], Sequence[Any]]
StepFn = Callable[[Any], None]
BindFn = Callable[[Any], Sequence[StepFn]]
RhsFn = Callable[[np.ndarray, np.ndarray], BindFn]
QuadFn = Callable[[np.ndarray, np.ndarray], None]

# Loop steps per drive evaluation: large enough to spread the drive's
# per-call cost, small enough that its (block, B) arrays stay small.
_DRIVE_BLOCK = 64

# The factor of the stage doublings. The step loop's doubling multiplies by
# an array of twos: every per-step call takes array operands only, since on
# NumPy 2.4 a (2, 64) divide by a NumPy scalar costs 0.62 us, as by a
# Python float, and by a 0-d array 0.43 us.
_TWO = np.float64(2.0)


class _UfuncProbe(np.ndarray):
    """An array whose every ufunc call returns the ufunc instead of running it."""

    def __array_ufunc__(self, ufunc: np.ufunc, method: str, *inputs: Any, **kwargs: Any) -> Any:
        return ufunc


# The ufunc that ``ndarray.clip`` dispatches to when given both bounds
# (``numpy._core.umath.clip`` on NumPy 2, ``numpy.core.umath.clip`` before),
# captured through the public override protocol. Calling it directly skips
# the method's Python wrapper and gives the same bits, -0.0 and NaN
# included, which ``np.minimum``/``np.maximum`` would not.
_clip = np.zeros(1).view(_UfuncProbe).clip(0.0, 1.0)


def _integrate_to_grid(
    model: OdeBenchmark,
    x0: np.ndarray,
    e: np.ndarray,
    h: np.ndarray,
    blend: np.ndarray,
    duration: float,
    grid: np.ndarray,
    n_samples: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate each batch item with its own step size and resample onto ``grid``.

    ``model`` supplies ``drive``, ``rhs``, ``quad_rows``, ``quad`` and
    ``drive_only`` as in the contract above. ``x0`` is (B, S) and ``e`` is
    (B, d_e); the model's functions see both variable-major.
    Returns the resampled (B, S, len(grid)) samples and each item's
    integration step count. Items whose step equals the grid spacing are
    taken verbatim (no resampling), which makes the maximum-fidelity path
    bit-identical to the high-fidelity one. The final partial step is
    truncated to land exactly on ``duration``, so trajectories vary
    continuously with the step size; items that have finished their full
    steps take steps of size 0 until the longest item is done. Every
    operation is elementwise per item, so an item's result does not depend
    on which other items share its batch.

    With ``n_samples`` set, only the first ``n_samples`` grid points are
    resampled, and each item is integrated only up to the first knot of its
    full-run knots (every h, then ``duration``) at or past the last of them:
    the loop runs the full run's first steps, so the samples are the first
    ``n_samples`` of a full run bit for bit. The step counts are then those
    of the steps taken, which for an item whose knot was reached earlier
    than the batch's last include its steps past that knot.
    """
    batch, state_dim = x0.shape
    n_quad = model.quad_rows
    dyn = state_dim - n_quad
    base_dt = float(grid[1] - grid[0])
    full_steps = np.floor(duration / h + 1e-9).astype(int)
    remainder = duration - full_steps * h
    remainder = np.where(remainder > 1e-12 * max(duration, 1.0), remainder, 0.0)
    max_full = int(full_steps.max())
    n_grid = len(grid) if n_samples is None else n_samples
    n_knots = full_steps + 1 + (remainder > 0.0)
    knot_times: dict[float, np.ndarray] = {}
    h_of = h.tolist()

    def knots(i: int) -> np.ndarray:
        # Knot times depend on h alone: every h, then the duration.
        knots_t = knot_times.get(h_of[i])
        if knots_t is None:
            knots_t = knot_times[h_of[i]] = h_of[i] * np.arange(n_knots[i])
            knots_t[full_steps[i] + 1 :] = duration
        return knots_t

    # Each item needs its knots up to the first at or past the last grid
    # point kept, and the loop runs until every item has its knot: knot k
    # takes k steps, and an item's last knot the whole loop, as in a full
    # run, whose last step is the remainder.
    last_knot, n_loop = n_knots - 1, max_full + 1
    if n_grid < len(grid):
        needed = [np.searchsorted(knots(i), grid[n_grid - 1]) for i in range(batch)]
        last_knot = np.minimum(needed, last_knot)
        n_loop = int(np.where(last_knot == n_knots - 1, n_loop, last_knot).max())

    drive, drive_only = model.drive, model.drive_only
    e = np.ascontiguousarray(e.T)
    bind = model.rhs(e, blend)
    # Rows at the base step are copied out of the history verbatim; each
    # has len(grid) - 1 full steps, so the loop reaches all its samples.
    # When every row is one, the history holds one block, its start state
    # in row 0, and each block is copied out while it is in cache.
    n_slots = min(n_loop, _DRIVE_BLOCK)
    verbatim = (h == base_dt) & (full_steps == len(grid) - 1)
    one_block = bool(verbatim.all())
    hist = np.empty((n_slots + 1 if one_block else n_loop + 1, state_dim, batch))
    hist[0] = x0.T
    hist_quad = hist[:, :n_quad]
    hist_dyn = hist[:, n_quad:]
    if one_block:
        out = np.empty((batch, state_dim, n_grid))
        out_steps = out.transpose(2, 1, 0)
        out_steps[0] = hist[0]
    xs = np.empty((dyn, batch))
    # A slot per step of a block holds its four stage buffers, laid out as
    # the contract above says. Step j starts from slot j's first stage state
    # and writes the next one into slot j + 1's; one more slot takes the
    # state after the block. Each slot's views are made once per call;
    # iterating over an array's leading axis makes them in one C loop.
    # ``doubled`` is the contiguous rows of k2 and k3.
    layout = model.stage_layout
    if layout is None:  # the steps share one block of derivatives
        stage_x = np.empty((n_slots + 1, 4, dyn, batch))
        ks = np.empty((4, dyn, batch))
        k_of = [[k] * n_slots for k in ks]
        doubled, ks_of = [ks[1:3]] * n_slots, [ks] * n_slots
        two = np.full((2, dyn, batch), _TWO)
    else:
        rows, state_at, deriv_at = layout
        stages = np.empty((n_slots + 1, 4, rows, batch))
        stage_x = stages[:, :, state_at : state_at + dyn]
        stage_k = stages[:n_slots, :, deriv_at : deriv_at + dyn]
        k_of, ks_of = [list(stage_k[:, s]) for s in range(4)], list(stage_k)
        flat = stages.reshape(n_slots + 1, 4 * rows, batch)
        doubled = list(flat[:n_slots, rows + deriv_at : 2 * rows + deriv_at + dyn])
        two = np.full((rows + dyn, batch), _TWO)
    stage_x[0, 0] = hist_dyn[0]
    x_of = [list(stage_x[:, s]) for s in range(4)]
    steps_of = [
        bind(list(zip(x_of[s], k_of[s])) if layout is None else stages[:n_slots, s])
        for s in range(4)
    ]
    slots = list(zip(*steps_of, *x_of, *k_of[:3], doubled, ks_of, x_of[0][1:]))
    quad_ks = np.empty((_DRIVE_BLOCK, 4, n_quad, batch)) if n_quad else None
    # (h, h/2, h/6) of every loop step, each shaped (D, B) like the state so
    # that no per-step call broadcasts. The step sizes change only at the
    # first step, where some item's full steps end, and at the final
    # remainder step (k == max_full); ``size_of`` gives each step's row.
    changes = sorted({0, *full_steps.tolist()})
    step_sizes = np.empty((len(changes), 3, dyn, batch))
    for row, k in zip(step_sizes, changes):
        hk = remainder if k == max_full else np.where(k < full_steps, h, 0.0)
        row[0], row[1], row[2] = hk, 0.5 * hk, hk / 6.0
    size_of = np.searchsorted(changes, np.arange(max_full + 1), side="right") - 1
    size_views = [tuple(row) for row in step_sizes]
    sizes = [size_views[row] for row in size_of[:n_loop].tolist()]
    # Per-step calls go to locally bound ufuncs and pass ``out`` positionally,
    # which skips a global lookup and keyword parsing on each of them.
    multiply, add, add_reduce = np.multiply, np.add, np.add.reduce
    saturated = drive_only is not None
    t = np.zeros(batch)
    for first in range(0, n_loop, _DRIVE_BLOCK):
        block = sizes[first : first + _DRIVE_BLOCK]
        n = len(block)
        at = 0 if one_block else first  # the block's start row in hist
        # (h, h/2, h/6) of the block's steps, (n, 3, 1, B), for block-wide calls.
        block_h = step_sizes[size_of[first : first + n], :, :1]
        # Start and end times of the block's steps, summed left to right as
        # a step-by-step t + h would sum them.
        times = np.add.accumulate(np.concatenate(([t], block_h[:, 0, 0])))
        d_ends = drive(times, e, blend)
        d_mids = drive(times[:-1] + block_h[:, 1, 0], e, blend)
        taken = 0
        if saturated:
            # Every step as if its four stage states were drive-only (k1 =
            # d_start, k2 = k3 = d_mid, k4 = d_end): the loop's combine of
            # those stages, accumulated onto the block's start state in step
            # order, and the stage states formed as the loop forms them. The
            # steps before the first one with a stage state that is not
            # drive-only have the loop's bits; the loop steps from there, and
            # a block that keeps fewer than all its steps ends the shortcut.
            sk = stage_x[:n]
            sk[:, 0], sk[:, 3] = d_ends[:-1], d_ends[1:]
            sk[:, 1] = sk[:, 2] = multiply(d_mids, _TWO)
            rows = hist_dyn[at : at + n + 1]
            add_reduce(sk, axis=1, out=rows[1:], initial=-0.0)
            rows[1:] *= block_h[:, 2]
            np.add.accumulate(rows, axis=0, out=rows)
            for stage, size, k in ((1, 1, d_ends[:-1]), (2, 1, d_mids), (3, 0, d_mids)):
                multiply(block_h[:, size], k, sk[:, stage])
                sk[:, stage] += rows[:-1]
            sk[:, 0] = rows[:-1]
            kept = drive_only(sk).all(axis=(1, 2, 3))
            taken = n if kept.all() else int(kept.argmin())
            saturated = taken == n
        rest = (block, slots, d_ends, d_mids, d_ends[1:])
        steps = zip(*(seq[taken:] for seq in rest))
        for (hk, half_h, sixth_h), slot, d_start, d_mid, d_end in steps:
            f1, f2, f3, f4, x, x2, x3, x4, k1, k2, k3, k2_k3, ks, x_next = slot
            f1(d_start)
            multiply(half_h, k1, x2)
            add(x2, x, x2)
            f2(d_mid)
            multiply(half_h, k2, x3)
            add(x3, x, x3)
            f3(d_mid)
            multiply(hk, k3, x4)
            add(x4, x, x4)
            f4(d_end)
            # x + h/6 * (k1 + 2 k2 + 2 k3 + k4). The reduce over the stage
            # axis adds the stages left to right onto -0.0, which leaves
            # every value, a signed zero included, as k1 + k2 + k3 + k4 would.
            multiply(k2_k3, two, k2_k3)
            add_reduce(ks, axis=0, out=xs, initial=-0.0)
            multiply(xs, sixth_h, xs)
            add(x, xs, x_next)
        hist_dyn[at + taken + 1 : at + n + 1] = stage_x[taken + 1 : n + 1, 0]
        if n_quad:
            # The same combine for the quadrature rows, at all of the block's
            # stage states at once; the accumulate then adds each step's
            # increment onto the previous value, left to right as the loop
            # would, so the rows get the bits a per-step update gives them.
            qk = quad_ks[:n]
            model.quad(stage_x[:n], qk)
            qk[:, 1:3] *= _TWO
            rows = hist_quad[at : at + n + 1]
            np.add.reduce(qk, axis=1, out=rows[1:], initial=-0.0)
            rows[1:] *= block_h[:, 2]
            np.add.accumulate(rows, axis=0, out=rows)
        stage_x[0, 0] = hist_dyn[at + n]
        if one_block:
            on_grid = min(n, n_grid - 1 - first)  # the block's steps that end on a kept sample
            out_steps[first + 1 : first + 1 + on_grid] = hist[1 : 1 + on_grid]
            hist[0] = hist[n]
        t = times[-1]

    grid = grid[:n_grid]
    if not one_block:
        # Made after the loop: made before it, the output cost a 144-row
        # call with a full history about 240 more page faults.
        out = np.empty((batch, state_dim, n_grid))
        if verbatim.any():  # then hist holds at least n_grid steps
            np.copyto(out.transpose(2, 1, 0), hist[:n_grid], where=verbatim)
    # A row whose full steps end last has its knots in consecutive history
    # rows; the others skip their h = 0 steps to the remainder knot. Knots
    # past the first at or after the last grid point change no sample.
    for i in np.flatnonzero(~verbatim):
        fi, k = int(full_steps[i]), int(last_knot[i])
        knots_x = hist[: k + 1, :, i]
        if fi < max_full and k > fi:
            knots_x = np.vstack([hist[: fi + 1, :, i], hist[max_full + 1, :, i]])
        knots_t = knots(i)[: k + 1]
        for s in range(state_dim):
            out[i, s] = np.interp(grid, knots_t, knots_x[:, s])
    if n_loop > max_full:  # every item took its remainder step
        return out, full_steps + (remainder > 0.0)
    return out, np.minimum(full_steps, n_loop)


@dataclass(frozen=True)
class OdeBenchmark:
    """ODE-defined benchmark executed by the shared RK4 integrator.

    Fidelity knobs are interpreted positionally as (dt multiplier, model
    blend, noise scale); trailing knobs may be absent. The leading
    ``quad_rows`` state rows are quadrature rows with derivatives ``quad``;
    ``drive_only`` marks the states whose derivative is the drive's term;
    ``stage_layout`` places the rows of one stage (see the right-hand side
    contract above).
    """

    drive: DriveFn
    rhs: RhsFn
    initial_state: Callable[[np.ndarray], np.ndarray]
    quad_rows: int = 0
    quad: QuadFn | None = None
    drive_only: Callable[[np.ndarray], np.ndarray] | None = None
    stage_layout: tuple[int, int, int] | None = None

    def _knob_arrays(
        self, spec: SimulatorSpec, f_rows: np.ndarray, batch: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        phys = [k.physical(f_rows[:, i]) for i, k in enumerate(spec.fidelity_mapping.knobs)]
        h = np.minimum(spec.base_dt * np.maximum(phys[0], 1.0), spec.duration)
        blend = np.clip(phys[1], 0.0, 1.0) if len(phys) > 1 else np.zeros(batch)
        sigma = np.maximum(phys[2], 0.0) if len(phys) > 2 else np.zeros(batch)
        return h, blend, sigma

    def run(
        self,
        spec: SimulatorSpec,
        e_values: np.ndarray,
        f_rows: np.ndarray,
        seeds: Sequence[Seed],
        high: np.ndarray,
        n_samples: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        """All rows in one integrator call; see :class:`SimulatorBackend`."""
        batch = e_values.shape[0]
        h, blend, sigma = self._knob_arrays(spec, f_rows, batch)
        h = np.where(high, spec.base_dt, h)
        blend = np.where(high, 0.0, blend)
        sigma = np.where(high, 0.0, sigma)
        x0 = self.initial_state(e_values)
        samples, steps = _integrate_to_grid(
            self, x0, e_values, h, blend, spec.duration, spec.grid_times(), n_samples
        )
        # A row's noise is drawn from its seed alone, so rows that share a
        # seed (the falsifier's common random numbers) share one draw. It is
        # drawn for the whole grid and cut, so a prefix gets a prefix's bits.
        noisy_rows: dict[Seed, list[int]] = {}
        for i in np.flatnonzero(sigma > 0.0):
            noisy_rows.setdefault(seeds[i], []).append(i)
        for seed, rows in noisy_rows.items():
            rng = rng_from_seed(split_seed(seed, "obs-noise", spec.id))
            z = rng.standard_normal((samples.shape[1], spec.steps))[:, :n_samples]
            for i in rows:
                samples[i] += sigma[i] * z
        return samples, steps


@dataclass(frozen=True)
class _AdapterConfig(Checked):
    """An external simulator's description; see :func:`external_simulator_spec`."""

    id: str
    adapter: str
    environment: EnvironmentSpace
    fidelity_dimension: int
    channels: tuple[str, ...]
    base_dt: float
    duration: float
    safety_spec: str | None = None


@dataclass(frozen=True)
class _AdapterReply(Checked):
    """One adapter reply; a null, NaN or infinite sample marks the row diverged."""

    dt: float
    channels: tuple[str, ...]
    samples: tuple[tuple[Reading | None, ...], ...]
    start_time: float = 0.0


@dataclass(frozen=True)
class _AdapterBackend:
    """Runs an external simulator executable via the JSON stdin/stdout protocol.

    One process per row, in row order; a row flagged high sends ``"f": null``.
    Each request asks for the whole duration; the reply is checked whole and
    then cut to its first ``n_samples`` samples.
    """

    command: str

    def run(
        self,
        spec: SimulatorSpec,
        e_values: np.ndarray,
        f_rows: np.ndarray,
        seeds: Sequence[Seed],
        high: np.ndarray,
        n_samples: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        batch = e_values.shape[0]
        out = np.empty((batch, len(spec.channels), n_samples))
        for i in range(batch):
            request = {
                "e": [float(v) for v in e_values[i]],
                "f": None if high[i] else [float(v) for v in f_rows[i]],
                "seed": int(seeds[i]),
                "duration": spec.duration,
                "dt": spec.base_dt,
            }
            try:
                proc = subprocess.run(
                    [self.command],
                    input=json.dumps(request).encode(),
                    stdout=subprocess.PIPE,
                    stderr=subprocess.PIPE,
                    timeout=300,
                )
            except OSError as exc:
                raise AdapterProtocolError(f"cannot execute adapter {self.command!r}: {exc}")
            except subprocess.TimeoutExpired as exc:
                raise AdapterProtocolError(
                    f"adapter {self.command!r} timed out after {exc.timeout} s"
                ) from exc
            if proc.returncode != 0:
                raise AdapterProtocolError(
                    f"adapter exited with status {proc.returncode}: "
                    f"{proc.stderr.decode(errors='replace')[:500]}"
                )
            try:
                reply = json.loads(proc.stdout.decode())
            except (ValueError, UnicodeDecodeError) as exc:
                raise AdapterProtocolError(f"adapter produced invalid JSON: {exc}")
            out[i] = _reply_samples(spec, reply)[:, :n_samples]
        return out, np.full(batch, spec.steps)


def _reply_samples(spec: SimulatorSpec, reply: Any) -> np.ndarray:
    """The (channels, steps) samples of one parsed adapter reply, checked against ``spec``.

    Every way the reply can break the protocol raises :class:`AdapterProtocolError`.
    """
    try:
        reply = _AdapterReply(**_field_kwargs(_AdapterReply, "reply", reply))
    except InvalidArgumentError as exc:
        raise AdapterProtocolError(f"adapter reply: {exc}") from None
    if reply.channels != spec.channels:
        raise AdapterProtocolError(f"adapter channels {reply.channels} != {spec.channels}")
    if not abs(reply.dt - spec.base_dt) <= 1e-12:
        raise AdapterProtocolError(f"adapter dt {reply.dt} != requested dt {spec.base_dt}")
    shape = (len(spec.channels), spec.steps)
    if len(reply.samples) != shape[0] or any(len(row) != shape[1] for row in reply.samples):
        raise AdapterProtocolError(f"adapter samples are not {shape[0]} rows of {shape[1]}")
    return np.array(reply.samples, dtype=float)


# ---------------------------------------------------------------------------
# Public simulation entry points
# ---------------------------------------------------------------------------


def _env_rows(spec: SimulatorSpec, e_values: np.ndarray, seeds: Sequence[Seed]) -> np.ndarray:
    """``e_values`` as a (batch, dim) float array, checked against the space and seeds."""
    space = spec.environment_space
    try:
        e_values = np.asarray(e_values, dtype=float)
    except ValueError:  # rows of different lengths
        e_values = np.empty(0)
    if e_values.ndim != 2 or e_values.shape[1] != space.dimension:
        raise InvalidArgumentError(f"e_values must have shape (batch, {space.dimension})")
    if len(seeds) != e_values.shape[0]:
        raise InvalidArgumentError("one seed per batch item required")
    inside = (e_values >= space.lower_array() - 1e-12) & (e_values <= space.upper_array() + 1e-12)
    bad = np.flatnonzero(~inside.all(axis=1))
    if bad.size:
        raise InvalidArgumentError(
            f"environment row {bad[0]}, {tuple(e_values[bad[0]].tolist())}, is out-of-bounds "
            f"or NaN for the space of simulator {spec.id!r}"
        )
    return e_values


def _simulate(
    spec: SimulatorSpec,
    e_values: np.ndarray,
    f_rows: np.ndarray,
    seeds: Sequence[Seed],
    high: Sequence[bool] | np.ndarray,
    n_samples: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The one simulator dispatch: check the rows, run them, book them.

    All rows go to ``spec.backend.run`` in one call. Rows flagged in
    ``high`` take the high-fidelity path and are booked to the open tallies
    as high-fidelity calls; their fidelity rows are ignored. ``n_samples``
    keeps the first that many samples of the grid (all if None); a row is
    ``ok`` when those are finite, and the steps booked are those the
    backend took.
    """
    e_values = _env_rows(spec, e_values, seeds)
    f_rows = np.asarray(f_rows, dtype=float)
    batch = e_values.shape[0]
    if batch != f_rows.shape[0]:
        raise InvalidArgumentError("e_values and f_rows must have the same batch size")
    if f_rows.ndim != 2 or f_rows.shape[1] != spec.fidelity_space.dimension:
        raise InvalidArgumentError(
            f"f_rows must have shape (batch, {spec.fidelity_space.dimension})"
        )
    if not np.all((f_rows >= -1e-12) & (f_rows <= 1.0 + 1e-12)):
        raise InvalidArgumentError("fidelity rows must lie in [0, 1] and not be NaN")
    high = np.asarray(high, dtype=bool)
    if high.shape != (batch,):
        raise InvalidArgumentError("high must hold one flag per batch item")
    if n_samples is None:
        n_samples = spec.steps
    if not 1 <= n_samples <= spec.steps:
        raise InvalidArgumentError(f"n_samples must lie in [1, {spec.steps}], got {n_samples}")
    samples, steps = spec.backend.run(spec, e_values, f_rows, list(seeds), high, n_samples)
    ok = np.isfinite(samples).all(axis=(1, 2))
    tallies = _TALLIES.get()
    if tallies:
        booking = {
            "high_calls": int(high.sum()),
            "low_calls": int((~high).sum()),
            "high_steps": int(steps[high].sum()),
            "low_steps": int(steps[~high].sum()),
        }
        for counts in tallies:
            counts.update(booking)
    return samples, ok


def simulate_batch(
    spec: SimulatorSpec,
    e_values: np.ndarray,
    f: FidelitySetting | None,
    seeds: Sequence[Seed],
) -> tuple[np.ndarray, np.ndarray]:
    """Simulate many environment points at one fidelity setting.

    Returns ``(samples, ok)`` where ``samples`` has shape
    (batch, channels, steps) and ``ok[i]`` is False for items that diverged
    (non-finite output). ``f=None`` selects the high-fidelity path.
    """
    if f is not None and f.space.dimension != spec.fidelity_space.dimension:
        raise InvalidArgumentError("fidelity setting dimension mismatch")
    f_vec = np.ones(spec.fidelity_space.dimension) if f is None else f.as_array()
    f_rows = np.broadcast_to(f_vec, (len(seeds), len(f_vec)))
    return _simulate(spec, e_values, f_rows, seeds, np.full(len(seeds), f is None))


def simulate_batch_multi_f(
    spec: SimulatorSpec,
    e_values: np.ndarray,
    f_rows: np.ndarray,
    seeds: Sequence[Seed],
    high: Sequence[bool] | np.ndarray | None = None,
    n_samples: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Like :func:`simulate_batch` but with one fidelity setting per item.

    ``high`` optionally flags items that take the high-fidelity path, as
    ``simulate_batch`` with ``f=None`` would run them. ``n_samples``
    optionally keeps only the first that many samples of each row, bit for
    bit those of a full call; see :func:`_simulate`.
    """
    if high is None:
        high = np.zeros(len(seeds), dtype=bool)
    return _simulate(spec, e_values, f_rows, seeds, high, n_samples)


def _diverged(spec: SimulatorSpec, e: EnvironmentConfig) -> SimulationDivergedError:
    return SimulationDivergedError(
        f"simulator {spec.id!r} produced non-finite samples at e={e.values}"
    )


def simulate_low(
    spec: SimulatorSpec, e: EnvironmentConfig, f: FidelitySetting | None, seed: Seed
) -> Trajectory:
    """Trajectory of one config under fidelity setting ``f`` on the base grid.

    A one-row :func:`simulate_batch` call; ``f=None`` selects the
    high-fidelity path. Raises :class:`SimulationDivergedError` if the row
    diverged.
    """
    samples, ok = simulate_batch(spec, e.as_array()[None, :], f, [seed])
    if not ok[0]:
        raise _diverged(spec, e)
    return Trajectory(0.0, spec.base_dt, spec.channels, samples[0])


def simulate_high(spec: SimulatorSpec, e: EnvironmentConfig, seed: Seed) -> Trajectory:
    """Ground-truth trajectory at the base grid; deterministic and noise-free."""
    return simulate_low(spec, e, None, seed)


# ---------------------------------------------------------------------------
# Built-in benchmarks
# ---------------------------------------------------------------------------

_OSC_OMEGA = 2.0  # rad/s
_OSC_NEG_OMEGA_SQ = np.float64(-(_OSC_OMEGA**2))

_BRK_REACTION_TIME = 0.6  # s before the ego vehicle starts braking
_BRK_EGO_DECEL = 8.0  # m/s^2 ego braking strength
_BRK_BRAKE_LAG = 0.8  # s first-order actuation lag of the simplified model
_BRK_SPEED_RAMP = np.float64(0.1)  # m/s width of the smooth stop ramp


def _osc_drive(t: np.ndarray, e: np.ndarray, blend: np.ndarray) -> list[None]:
    # The oscillator's step reads no time: its drive carries no terms.
    return [None] * len(t)


def _osc_rhs(e: np.ndarray, blend: np.ndarray) -> BindFn:
    # A stage is laid out (cube, x, v, a): its state is rows 1:3 and its
    # derivative rows 2:4, so dx/dt is the v row itself, and one multiply of
    # rows 0:2 by (c, -w^2) gives c * cube and -w^2 x, in a scratch pair
    # that every stage shares. The cube is (v*v)*v: two multiplies cost the
    # same whatever v's sign and round the same on every SIMD path, and
    # np.power does neither. The blended drag is c (cubic_w v^3 + linear_w
    # v), its linear term made in the a row. A call whose rows are all at
    # blend 0 takes -w^2 x - c (v*v)*v: for every finite v, 1.0 * (v*v)*v +
    # 0.0 * v is (v*v)*v bit for bit, a signed zero, a subnormal and an
    # overflowed cube included, since 0.0 * v carries v's sign, and a NaN
    # keeps its payload. The two differ only at v = +-inf, NaN against
    # +-inf, on a row that is non-finite either way.
    batch = e.shape[1]
    coef = np.stack([e[2], np.full(batch, _OSC_NEG_OMEGA_SQ)])
    pair = np.empty((2, batch))
    drag, spring = pair
    blended = bool(blend.any())
    cubic_w, linear_w = 1.0 - blend, blend
    multiply, add, subtract = np.multiply, np.add, np.subtract

    def bind_one(
        cube: np.ndarray, vel: np.ndarray, acc: np.ndarray, cube_x: np.ndarray
    ) -> StepFn:
        def step(drive: None) -> None:
            multiply(vel, vel, cube)
            multiply(cube, vel, cube)
            if blended:
                multiply(cubic_w, cube, cube)
                multiply(linear_w, vel, acc)
                add(cube, acc, cube)
            multiply(cube_x, coef, pair)
            subtract(spring, drag, acc)

        return step

    def bind(stages: np.ndarray) -> list[StepFn]:
        return list(map(bind_one, stages[:, 0], stages[:, 2], stages[:, 3], stages[:, 0:2]))

    return bind


def _osc_init(e: np.ndarray) -> np.ndarray:
    return e[:, 0:2].copy()


def _brk_drive(t: np.ndarray, e: np.ndarray, blend: np.ndarray) -> np.ndarray:
    # Row j of the (n, 2, B) result holds the factors of the two speed ramps
    # at times t[j]. The ego's is its deceleration command: -0.0 until the
    # reaction time, then full braking, lagged by the simplified model's
    # actuation. The lead's is its constant deceleration -e[2]. With every
    # row at blend 0 the actuation 1 - 0 * exp(.) is exactly 1.0, so the
    # command is -8 * braking_on as it stands, -0.0 before the reaction time.
    factors = np.empty((len(t), 2, t.shape[1]))
    braking_on = (t >= _BRK_REACTION_TIME).astype(float)
    ego = np.multiply(-_BRK_EGO_DECEL, braking_on, out=factors[:, 0])
    if blend.any():
        after_reaction = np.maximum(t - _BRK_REACTION_TIME, 0.0)
        ego *= 1.0 - blend * np.exp(-after_reaction / _BRK_BRAKE_LAG)
    factors[:, 1] = -e[2]
    return factors


def _brk_rhs(e: np.ndarray, blend: np.ndarray) -> BindFn:
    # A stage buffer is the default pair of the speeds and their rates.
    # Smooth stop ramps of both speeds, clipped to [0, 1] and scaled by their
    # factors from ``_brk_drive``. The ramp width and the clip bounds are 0-d
    # arrays: NumPy-scalar bounds cost the clip 1.34-1.50 us a call on a
    # (2, 64) array, 0-d ones 0.87 us, with the same bits; full-shape bounds
    # take another clip loop, which turns a -0.0 ramp into +0.0.
    ramp, lo, hi = np.array(_BRK_SPEED_RAMP), np.array(0.0), np.array(1.0)
    divide, clip, multiply = np.divide, _clip, np.multiply

    def bind_one(x: np.ndarray, out: np.ndarray) -> StepFn:
        def step(drive: np.ndarray) -> None:
            divide(x, ramp, out)
            clip(out, lo, hi, out)
            multiply(out, drive, out)

        return step

    def bind(stages: Sequence[tuple[np.ndarray, np.ndarray]]) -> list[StepFn]:
        return [bind_one(x, out) for x, out in stages]

    return bind


def _brk_drive_only(x: np.ndarray) -> np.ndarray:
    # Where x / 0.1 >= 1.0 the ramp's clip is 1.0 and the step writes 1.0 * drive;
    # division is monotone, and the double below 0.1 divides to under 1.0.
    return x >= _BRK_SPEED_RAMP


def _brk_gap_rate(x: np.ndarray, out: np.ndarray) -> None:
    # The gap closes at v_lead - v_ego.
    np.subtract(x[..., 1, :], x[..., 0, :], out=out[..., 0, :])


def _brk_init(e: np.ndarray) -> np.ndarray:
    # State (gap, v_ego, v_lead); lead starts at the ego's speed.
    return np.stack([e[:, 0], e[:, 1], e[:, 1]], axis=1)


def _benchmark_mapping() -> FidelityMapping:
    return FidelityMapping(
        knobs=(
            KnobMap("dt_multiplier", at_min=32.0, at_max=1.0),
            KnobMap("model_blend", at_min=1.0, at_max=0.0),
            KnobMap("noise_scale", at_min=0.1, at_max=0.0),
        ),
        noise_knob=2,
    )


_BENCHMARK_FIDELITY_SPACE = FidelitySpace(
    dimension=3, knob_names=("dt_multiplier", "model_blend", "noise_scale")
)

OSCILLATOR = SimulatorSpec(
    id="oscillator",
    environment_space=EnvironmentSpace(
        lower=(-2.0, -2.0, 0.0), upper=(2.0, 2.0, 1.0), names=("x0", "v0", "drag")
    ),
    fidelity_space=_BENCHMARK_FIDELITY_SPACE,
    channels=("x", "v"),
    base_dt=1e-3,
    duration=6.0,
    fidelity_mapping=_benchmark_mapping(),
    backend=OdeBenchmark(
        drive=_osc_drive, rhs=_osc_rhs, initial_state=_osc_init, stage_layout=(4, 1, 2)
    ),
    safety_spec="G[0,6](x > -1.9)",
)

BRAKING = SimulatorSpec(
    id="braking",
    environment_space=EnvironmentSpace(
        lower=(5.0, 10.0, 1.0),
        upper=(100.0, 35.0, 9.0),
        names=("initial_gap", "ego_speed", "lead_decel"),
    ),
    fidelity_space=_BENCHMARK_FIDELITY_SPACE,
    channels=("gap", "v_ego", "v_lead"),
    base_dt=0.01,
    duration=6.0,
    fidelity_mapping=_benchmark_mapping(),
    backend=OdeBenchmark(
        drive=_brk_drive,
        rhs=_brk_rhs,
        initial_state=_brk_init,
        quad_rows=1,
        quad=_brk_gap_rate,
        drive_only=_brk_drive_only,
    ),
    safety_spec="G[0,6](gap > 0)",
)


def builtin_benchmarks() -> list[SimulatorSpec]:
    """The two self-contained benchmark systems shipped with the package."""
    return [OSCILLATOR, BRAKING]


def get_benchmark(sim_id: str) -> SimulatorSpec:
    for spec in builtin_benchmarks():
        if spec.id == sim_id:
            return spec
    raise InvalidArgumentError(
        f"unknown simulator {sim_id!r}; built-ins: "
        f"{[s.id for s in builtin_benchmarks()]}"
    )


def external_simulator_spec(description: dict[str, Any]) -> SimulatorSpec:
    """Describe an external simulator reachable through the adapter protocol.

    ``description`` is a campaign config's ``simulator`` object, each field
    checked by type: ``{"id", "adapter", "environment": {"lower", "upper",
    "names"}, "fidelity_dimension", "channels", "base_dt", "duration", "safety_spec"}``.
    """
    ext = _AdapterConfig(**_field_kwargs(_AdapterConfig, "external simulator config", description))
    return SimulatorSpec(
        id=ext.id,
        environment_space=ext.environment,
        fidelity_space=FidelitySpace(dimension=ext.fidelity_dimension),
        channels=ext.channels,
        base_dt=float(ext.base_dt),
        duration=float(ext.duration),
        fidelity_mapping=identity_mapping(ext.fidelity_dimension),
        backend=_AdapterBackend(ext.adapter),
        safety_spec=ext.safety_spec,
    )
