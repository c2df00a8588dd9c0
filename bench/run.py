"""Benchmark runner: one workload, timed in reference-kernel units.

Usage, from the repository root::

    python3 bench/run.py --workload falsify-braking --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics
are the end-to-end ones (``setup_s``, ``op_p50``, ``peak_rss_mb``); with
``--trace 1`` they are the per-layer ones, taken from traced ops that
alternate with untraced ops in the same run. See README.md.
"""

from __future__ import annotations

import os

# Pin BLAS threads to one before numpy is imported, here and in the set-up
# probes (which inherit the environment).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 60


def _import_program() -> None:
    """Put the checkout's own ``src`` first on the path; refuse any other copy."""
    if not (SRC / "safeval" / "__init__.py").is_file():
        raise SystemExit(f"error: no program sources at {SRC / 'safeval'}")
    sys.path.insert(0, str(SRC))
    import safeval

    if Path(safeval.__file__).resolve().parent != (SRC / "safeval").resolve():
        raise SystemExit(f"error: imported safeval from {safeval.__file__}, not {SRC}")


def _setup_probe(workload: str, seed: int, smoke: bool) -> int:
    """Child side of ``setup_s``: build the workload and its first op input, then report."""
    _import_program()
    from workloads import make_workload

    w = make_workload(workload, smoke)
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=OUT_DIR))
    try:
        w.make_input(seed, 0, workdir)
        print(time.monotonic(), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def _setup_seconds(workload: str, seed: int, smoke: bool) -> float:
    """One ``setup_s`` sample: a fresh process from start until its first op is ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)] + (["--smoke"] if smoke else [])
    start = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"error: set-up probe exited with {proc.returncode}")
    return float(proc.stdout.split()[-1]) - start


class OpLog:
    """Counts ops and records why any failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def run_checked(self, workload, op) -> tuple[object, float]:
        """Run and time one op; returns (output, seconds), output None if it raised."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = workload.run(op)
        except Exception as exc:  # an op that raises counts as failed, the run goes on
            elapsed = time.perf_counter() - start
            self._fail(f"op raised {type(exc).__name__}: {exc}")
            return None, elapsed
        return out, time.perf_counter() - start

    def check(self, workload, op, out) -> bool:
        """Run the op's independent checks; False if it raised or failed one."""
        if out is None:
            return False
        problems = workload.check(op, out)
        if problems:
            self._fail("; ".join(problems))
        return not problems

    def _fail(self, message: str) -> None:
        self.failed += 1
        print(f"op {self.attempted} failed: {message}", file=sys.stderr)


def run(args: argparse.Namespace) -> dict:
    _import_program()
    from kernel import KernelClock
    from timing import normalised_ops
    from tracing import LAYER_METRICS, Tracer
    from workloads import make_workload

    workload = make_workload(args.workload, args.smoke)
    tracer = Tracer() if args.trace else None
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=OUT_DIR))
    log = OpLog()
    clock = KernelClock()
    reproducible = True
    plain: list[tuple[float, float, float]] = []  # (op s, kernel s before, kernel s after)
    traced: list[tuple[float, float, float]] = []
    try:
        # Untimed warm-up op (lazy set-up, caches); the campaign repeats it
        # and compares every output byte.
        op = workload.make_input(args.seed, 0, workdir)
        out, _ = log.run_checked(workload, op)
        log.check(workload, op, out)
        if workload.repeat_check:
            first = None if out is None else workload.fingerprint(op, out)
            workload.cleanup(op)
            op = workload.make_input(args.seed, 0, workdir)
            out, _ = log.run_checked(workload, op)
            log.check(workload, op, out)
            reproducible = out is not None and workload.fingerprint(op, out) == first
            if not reproducible:
                print("repeated op differs byte for byte", file=sys.stderr)
        workload.cleanup(op)

        # Set-up probes are spread over the timed window, between ops, so
        # their median samples the machine's drift as the ops do. The window
        # is extended by the time they take.
        probes = 0 if tracer is not None else 1 if args.smoke else SETUP_PROBES
        probe_at = [args.seconds * j / probes for j in range(probes)]
        setup_samples: list[float] = []
        index = 1
        start = time.perf_counter()
        deadline = start + args.seconds
        before = None
        while True:
            if probe_at and time.perf_counter() - start >= probe_at[0]:
                probe_at.pop(0)
                t0 = time.perf_counter()
                setup_samples.append(_setup_seconds(args.workload, args.seed, args.smoke))
                deadline += time.perf_counter() - t0
                before = None
            if before is None:
                before = clock.measure()
            op = workload.make_input(args.seed, index, workdir)
            is_traced = tracer is not None and index % 2 == 0
            if is_traced:
                tracer.install()
                with tracer.op():
                    out, seconds = log.run_checked(workload, op)
                tracer.uninstall()
            else:
                out, seconds = log.run_checked(workload, op)
            after = clock.measure()
            # Only ops that passed their checks are timed: a failed op's time
            # says nothing about the program's speed.
            if log.check(workload, op, out):
                (traced if is_traced else plain).append((seconds, before, after))
            workload.cleanup(op)
            before = after
            index += 1
            # A traced run ends only after at least one traced op (index 2).
            if time.perf_counter() >= deadline and not probe_at and (tracer is None or index > 2):
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    if clock.disturbed:
        raise SystemExit(
            f"error: other threads or children of this process used CPU during "
            f"{clock.disturbed} kernel run(s); the timings are void"
        )
    if not plain or (tracer is not None and not traced):
        raise SystemExit("error: no op passed its checks, so there is no time to report")
    ratios = normalised_ops(plain)
    metrics: dict[str, tuple[float | None, str]] = {}
    if tracer is None:
        metrics["setup_s"] = (statistics.median(setup_samples), "s")
        metrics["op_p50"] = (statistics.median(ratios), "ref")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    else:
        traced_ratios = normalised_ops(traced)
        layer = tracer.metrics()
        for name, unit in LAYER_METRICS.items():
            metrics[name] = (layer[name], unit)
        metrics["bench.op_p50_s"] = (statistics.median([s for s, _, _ in plain]), "s")
        metrics["bench.kernel_s"] = (statistics.median(clock.times), "s")
        metrics["bench.traced_op_s"] = (layer["bench.traced_op_s"], "s")
        metrics["bench.unattributed_s"] = (layer["bench.unattributed_s"], "s")
        metrics["bench.trace_overhead"] = (
            statistics.median(traced_ratios) - statistics.median(ratios), "ref")
        tracer.write(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl")
        if tracer.absent:
            print(f"absent wrap points: {sorted(tracer.absent)}", file=sys.stderr)
    return {
        "correct": reproducible,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny ops, one set-up probe")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        return _setup_probe(args.workload, args.seed, args.smoke)
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
