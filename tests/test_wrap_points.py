"""Every function the benchmark tracer wraps still exists.

``bench/tracing.py`` accounts for a run layer by layer by rebinding named
functions of the package. A wrap point that a refactor renames or removes
is reported as absent at run time, and every metric of its layer then
reads null; this test catches that before a benchmark run does.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_wrap_point_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.WRAP_POINTS
    assert tracing.Tracer().absent == set()
