"""Tests of the benchmark itself: ``python3 -m pytest -q bench/test_bench.py``."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

# As in run.py: one BLAS thread, set before numpy loads. Otherwise the BLAS
# pool's threads spin for a while after import, and the kernel's check for
# other busy threads of this process rightly reports them.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
import pytest  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
from kernel import KernelClock  # noqa: E402
from timing import normalised_ops  # noqa: E402
from tracing import Tracer  # noqa: E402


def test_normalisation_divides_by_mean_of_neighbouring_kernels():
    assert normalised_ops([(3.0, 1.0, 2.0), (1.0, 0.5, 0.5)]) == [2.0, 2.0]
    # A machine running uniformly twice as slow reads the same.
    fast = normalised_ops([(1.2, 0.1, 0.1)])
    slow = normalised_ops([(2.4, 0.2, 0.2)])
    assert fast == pytest.approx(slow)
    with pytest.raises(ValueError):
        normalised_ops([(1.0, 0.0, 1.0)])


def test_kernel_is_deterministic_and_undisturbed():
    clock = KernelClock()
    clock.measure()
    clock.measure()
    assert clock.disturbed == 0
    assert len(clock.times) == 2 and all(t > 0 for t in clock.times)


def test_kernel_allocates_nothing_large():
    # Its big arrays are made once at import, so they cannot set peak_rss_mb.
    from kernel import reference_kernel

    tracemalloc.start()
    try:
        reference_kernel()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_closed_form_braking_tracks_the_simulator():
    from safeval.sim import get_benchmark, simulate_batch

    spec = get_benchmark("braking")
    rng = np.random.default_rng(3)
    lo, hi = np.array(checks.BRK_LOWER), np.array(checks.BRK_UPPER)
    configs = lo + rng.random((200, 3)) * (hi - lo)
    samples, ok = simulate_batch(spec, configs, None, [0] * len(configs))
    assert ok.all()
    simulated = samples[:, spec.channels.index("gap"), :].min(axis=1)
    expected = np.array([checks.braking_min_gap(*c) for c in configs])
    assert np.max(np.abs(simulated - expected)) <= checks.BRK_GAP_TOLERANCE_M
    assert np.all((simulated < 0) == (expected < 0))


def test_scalar_rk4_reproduces_the_oscillator():
    from safeval.sim import get_benchmark, simulate_batch

    spec = get_benchmark("oscillator")
    e = np.array([[1.3, -0.7, 0.4]])
    samples, _ = simulate_batch(spec, e, None, [0])
    ours = np.array(checks.oscillator_positions(1.3, -0.7, 0.4))
    assert np.max(np.abs(samples[0, 0] - ours)) <= 1e-12


def test_tracer_restores_every_binding_and_accounts_for_all_time():
    import importlib

    falsify_mod = importlib.import_module("safeval.falsify")
    sim = importlib.import_module("safeval.sim")
    stl = importlib.import_module("safeval.stl")
    originals = (falsify_mod.simulate_batch, falsify_mod.robustness, falsify_mod.falsify)

    tracer = Tracer()
    assert not tracer.absent
    tracer.install()
    assert falsify_mod.simulate_batch is not originals[0]
    spec = sim.get_benchmark("braking")
    with tracer.op():
        falsify_mod.falsify(spec, stl.parse_spec("G[0,6](gap > 0)"),
                            spec.fidelity_space.max_fidelity(),
                            falsify_mod.FalsifyBudget(max_evaluations=128), 5)
    tracer.uninstall()
    assert (falsify_mod.simulate_batch, falsify_mod.robustness, falsify_mod.falsify) == originals

    m = tracer.metrics()
    assert m["sim.calls"] == 2 and m["sim.rows"] == 128 and m["stl.calls"] == 128
    assert m["falsify.generations"] == 2 and m["core.trajectories"] == 128
    layers = m["sim.self_s"] + m["stl.self_s"] + m["falsify.self_s"]
    assert layers + m["bench.unattributed_s"] == pytest.approx(m["bench.traced_op_s"])


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["falsify-braking", "falsify-oscillator-nested", "campaign-braking"])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 2
    names = set(result["metrics"])
    if trace:
        assert {"sim.self_s", "stl.calls", "bench.trace_overhead"} <= names
    else:
        assert names == {"setup_s", "op_p50", "peak_rss_mb"}
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "falsify-braking", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
