"""Fixed reference kernel that every op time is divided by.

Shared virtual machines drift: on the 2-vCPU VM this benchmark was written
on, the same falsification loop ran 30-50% faster or slower from one minute
to the next. Timing a fixed piece of work right beside each op and
reporting op time in units of that work cancels much of the drift. The
kernel is this file's own code, never the program's, so it does the same
work on every commit.

It mixes the three kinds of work the program does, in roughly equal
shares, so that a slowdown of the machine in any one of them shows in the
kernel as it does in the ops:

* small-array numpy arithmetic in a Python loop (the batched RK4 steps);
* a pure-interpreter sweep (the STL monotonic-deque window sweep);
* passes over an array of a few MB (trajectory histories and resampling).
"""

from __future__ import annotations

import math
import resource
import time
from collections import deque

import numpy as np

_SMALL_STEPS = 800  # Python-loop iterations over a (64, 3) state
_SWEEP_LEN = 44_000  # floats in the interpreter sweep
_SWEEP_WINDOW = 500
_BIG_ROWS = 512  # (512, 1024) float64 = 4 MiB
_BIG_COLS = 1024
_BIG_PASSES = 7


def _small_array_loop() -> float:
    x = np.linspace(0.5, 1.5, 192).reshape(64, 3)
    rate = np.linspace(1.0, 9.0, 64)
    for k in range(_SMALL_STEPS):
        on = 1.0 if k > 60 else 0.0
        ramp = np.clip(x[:, 1] / 0.1, 0.0, 1.0)
        lead = np.clip(x[:, 2] / 0.1, 0.0, 1.0)
        d = np.stack([x[:, 2] - x[:, 1], -8.0 * on * ramp, -rate * lead * 1e-3], axis=1)
        x = x + 1e-3 * d
    return float(x.sum())


# The kernel's big inputs and buffers are made once, here, and reused by
# every run: their memory is a fixed part of ``peak_rss_mb`` on every
# workload, and the kernel allocates nothing large while it runs, so the
# peak over a run is set by the program's ops, not by the kernel.
_SWEEP_VALUES = [math.sin(0.37 * i) + 1e-4 * i for i in range(_SWEEP_LEN)]
_BIG_A = np.linspace(0.0, 1.0, _BIG_ROWS * _BIG_COLS).reshape(_BIG_ROWS, _BIG_COLS)
_BIG_B = np.empty_like(_BIG_A)
_BIG_T = np.empty_like(_BIG_A)


def _interpreter_sweep() -> float:
    vals = _SWEEP_VALUES
    out = [0.0] * _SWEEP_LEN
    dq: deque[int] = deque()
    for k in range(_SWEEP_LEN - 1, -1, -1):
        while dq and vals[dq[-1]] <= vals[k]:
            dq.pop()
        dq.append(k)
        if dq[0] > k + _SWEEP_WINDOW:
            dq.popleft()
        out[k] = vals[dq[0]]
    return sum(out)


def _memory_passes() -> float:
    a, b, t = _BIG_A, _BIG_B, _BIG_T
    total = 0.0
    for p in range(_BIG_PASSES):
        np.multiply(a, 1.0 + 1e-3 * p, out=b)
        if p % 2:
            # A transposing copy into the fixed buffer, then the add.
            np.copyto(t.reshape(_BIG_COLS, _BIG_ROWS), a.T)
            np.add(b, t, out=b)
        else:
            np.add(b, a, out=b)
        total += float(b[:, :: 7].sum())
    return total


def reference_kernel() -> float:
    """Run the fixed kernel once and return a checksum of its results."""
    return _small_array_loop() + _interpreter_sweep() + _memory_passes()


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


class KernelClock:
    """Times the kernel and checks that nothing else of ours used CPU meanwhile.

    While the kernel runs, the CPU time of this process beyond the calling
    thread (other threads of ours) plus CPU time of reaped children must be
    negligible; otherwise a busy background pool would slow the kernel and
    flatter every ratio. Violations are counted in ``disturbed``.
    """

    def __init__(self) -> None:
        self.times: list[float] = []
        self.disturbed = 0
        self.checksum: float | None = None

    def measure(self) -> float:
        cpu0, thr0, ch0 = time.process_time(), time.thread_time(), _children_cpu()
        t0 = time.perf_counter()
        checksum = reference_kernel()
        wall = time.perf_counter() - t0
        other = (time.process_time() - cpu0) - (time.thread_time() - thr0)
        other += _children_cpu() - ch0
        if other > max(1e-3, 0.02 * wall):
            self.disturbed += 1
        if self.checksum is None:
            self.checksum = checksum
        elif checksum != self.checksum:
            raise RuntimeError("reference kernel is not deterministic")
        self.times.append(wall)
        return wall
