"""Shared fixtures: benchmark handles and synthetic analytic simulators.

The synthetic simulators emit a single constant channel ``y(t) = fn(e, f)``;
with the spec ``G[0,1](y > 0)`` their robustness is exactly ``fn(e, f)``,
which gives the optimizer and estimator tests closed-form oracles.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from safeval import sim
from safeval.core import EnvironmentSpace, FidelitySpace
from safeval.sim import SimulatorSpec, identity_mapping
from safeval.stl import parse_spec


class ConstantChannelBackend:
    """Backend whose trajectory is the constant fn(e, f) on the base grid.

    ``f`` is the row's fidelity row, or None for a row on the high-fidelity path.
    """

    def __init__(self, fn):
        self.fn = fn

    def run(self, spec, e_values, f_rows, seeds, high, n_samples):
        batch = e_values.shape[0]
        out = np.empty((batch, 1, n_samples))
        for i in range(batch):
            out[i, 0, :] = float(self.fn(e_values[i], None if high[i] else f_rows[i]))
        return out, np.full(batch, spec.steps)


def make_synthetic(sim_id, fn, lower, upper, fidelity_dim=1):
    return SimulatorSpec(
        id=sim_id,
        environment_space=EnvironmentSpace(lower=lower, upper=upper),
        fidelity_space=FidelitySpace(dimension=fidelity_dim),
        channels=("y",),
        base_dt=0.1,
        duration=1.0,
        fidelity_mapping=identity_mapping(fidelity_dim),
        backend=ConstantChannelBackend(fn),
        safety_spec="G[0,1](y > 0)",
    )


def replace_braking_backend(monkeypatch, wrapper):
    """Run the built-in braking simulator on ``wrapper(its backend)``, also where it
    is resolved by name, for the rest of the test; returns the wrapped spec."""
    braking = sim.BRAKING
    monkeypatch.setattr(
        sim, "BRAKING", dataclasses.replace(braking, backend=wrapper(braking.backend))
    )
    return sim.BRAKING


SYNTH_PHI = parse_spec("G[0,1](y > 0)")

QUAD_CENTER = np.array([0.6, 0.35])


@pytest.fixture(scope="session")
def synth_phi():
    return SYNTH_PHI


@pytest.fixture(scope="session")
def quad_robustness_spec():
    """rho(e; f) = ||e - e0||^2 - 0.01, minimized at e0 with value -0.01."""
    return make_synthetic(
        "synth-quad-rho",
        lambda e, f: float(np.sum((e - QUAD_CENTER) ** 2) - 0.01),
        lower=(0.0, 0.0),
        upper=(1.0, 1.0),
    )


@pytest.fixture(scope="session")
def linear_env_spec():
    """rho(e; f) = 3 e (1-D environment)."""
    return make_synthetic("synth-lin-env", lambda e, f: 3.0 * float(e[0]), (0.0,), (1.0,))


@pytest.fixture(scope="session")
def constant_rho_spec():
    return make_synthetic("synth-const-rho", lambda e, f: 0.7, (0.0,), (1.0,))


@pytest.fixture(scope="session")
def linear_fid_spec():
    """rho(e; f) = 3 f (1-D fidelity)."""
    return make_synthetic(
        "synth-lin-fid",
        lambda e, f: 0.5 if f is None else 3.0 * float(np.atleast_1d(f)[0]),
        (0.0,),
        (1.0,),
    )


@pytest.fixture(scope="session")
def quad_sens_spec():
    """rho(e; f) = ||e||^2 + f^2; the falsifier drives e toward the origin."""
    return make_synthetic(
        "synth-quad-sens",
        lambda e, f: float(np.sum(e**2)) + (0.0 if f is None else float(np.atleast_1d(f)[0]) ** 2),
        lower=(-1.0, -1.0),
        upper=(1.0, 1.0),
    )


@pytest.fixture(scope="session")
def linear_sens_spec():
    """rho(e; f) = ||e||^2 + 0.7 f."""
    return make_synthetic(
        "synth-lin-sens",
        lambda e, f: float(np.sum(e**2)) + (0.0 if f is None else 0.7 * float(np.atleast_1d(f)[0])),
        lower=(-1.0, -1.0),
        upper=(1.0, 1.0),
    )


@pytest.fixture(scope="session")
def quad_loss_spec():
    """High path emits 0, low path emits (f - 0.3): aggregate loss = (f - 0.3)^2."""
    return make_synthetic(
        "synth-quad-loss",
        lambda e, f: 0.0 if f is None else float(np.atleast_1d(f)[0]) - 0.3,
        (0.0,),
        (1.0,),
    )


@pytest.fixture(scope="session")
def diverging_spec():
    """Low-fidelity path diverges (NaN) everywhere; high path is fine."""
    return make_synthetic(
        "synth-diverging",
        lambda e, f: 1.0 if f is None else float("nan"),
        (0.0,),
        (1.0,),
    )


@pytest.fixture(scope="session")
def braking():
    from safeval.sim import get_benchmark

    return get_benchmark("braking")


@pytest.fixture(scope="session")
def oscillator():
    from safeval.sim import get_benchmark

    return get_benchmark("oscillator")


@pytest.fixture(scope="session")
def braking_phi(braking):
    return parse_spec(braking.safety_spec)
