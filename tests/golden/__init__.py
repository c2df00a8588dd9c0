"""Golden outputs: the files a fixed set of CLI runs writes, recorded once.

The set is the acceptance-09 campaign config at master seeds 2024, 7 and 123
(``joint``, ``analyze``, ``report --format md`` and ``report --format csv``,
plus ``events.jsonl`` with its timestamps dropped), ``joint`` alone on the
same config at seed 7 with ``counterexample_cap`` 8, so that it evicts 12 of
its 20 counterexamples, ``tune-fidelity`` for both built-in simulators (2
tasks x 3 parameters, 8 iterations, seed 7), and ``falsify`` for both
simulators (budget 256, seed 5) at max fidelity and at 0.5,0.5,0.5.

The bytes depend on the NumPy build and the CPU features it dispatches on,
so the recording keeps a fingerprint of both in ``fingerprint.json``.
Record the set again, from the repository root, with::

    PYTHONPATH=src python -m tests.golden --record
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
from pathlib import Path

import numpy as np
from numpy._core._multiarray_umath import __cpu_features__

from safeval.cli import main

HERE = Path(__file__).resolve().parent
FILES = HERE / "files"
FINGERPRINT = HERE / "fingerprint.json"

ACCEPTANCE_09 = dict(
    simulator="braking",
    task_count=2,
    params_per_task=3,
    outer_iterations=20,
    falsify_budget=dict(max_evaluations=192, population=64, stop_tolerance=0.0, samples_per_eval=1),
    budget_policy=dict(base_budget=192, scale=0.0),
    analysis_pairs=24,
)
CAMPAIGNS = {f"campaign-{seed}": {**ACCEPTANCE_09, "master_seed": seed} for seed in (2024, 7, 123)}
# Run through ``joint`` only: a cap under its 20 counterexamples makes it evict.
EVICTION = {"campaign-7-cap-8": {**ACCEPTANCE_09, "master_seed": 7, "counterexample_cap": 8}}
SIMULATORS = ("braking", "oscillator")
FALSIFY_FIDELITIES = {"max": None, "half": "0.5,0.5,0.5"}


def fingerprint() -> dict:
    """The NumPy version and the CPU features its kernels may dispatch on."""
    return {
        "numpy": np.__version__,
        "cpu_features": sorted(name for name, on in __cpu_features__.items() if on),
    }


def _run(*argv: str) -> str:
    """Run the CLI on ``argv``; its standard output. Any exit but 0 is an error."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(list(argv))
    if code != 0:
        raise RuntimeError(f"safeval {' '.join(argv)} exited {code}")
    return stdout.getvalue()


def _strip_timestamps(events: Path) -> None:
    lines = []
    for line in events.read_text().splitlines():
        record = json.loads(line)
        del record["timestamp"]
        lines.append(json.dumps(record, sort_keys=True) + "\n")
    events.write_text("".join(lines))


def generate(out: Path) -> None:
    """Write the golden set under ``out``, one directory per run."""
    for name, settings in {**CAMPAIGNS, **EVICTION}.items():
        case = out / name
        case.mkdir(parents=True)
        config = out / f"{name}.config.json"
        config.write_text(json.dumps(settings))
        _run("joint", "--config", str(config), "--out", str(case))
        if name in CAMPAIGNS:
            _run("analyze", "--config", str(config), "--out", str(case))
            result = str(case / "result.json")
            (case / "report.md").write_text(_run("report", "--result", result, "--format", "md"))
            _run("report", "--result", result, "--format", "csv", "--out", str(case))
        config.unlink()
        _strip_timestamps(case / "events.jsonl")
    for sim in SIMULATORS:
        _run("tune-fidelity", "--sim", sim, "--tasks", "2", "--per-task", "3", "--iters", "8",
             "--seed", "7", "--out", str(out / f"tune-{sim}"))
        for label, fidelity in FALSIFY_FIDELITIES.items():
            argv = ["falsify", "--sim", sim, "--budget", "256", "--seed", "5",
                    "--out", str(out / f"falsify-{sim}-{label}")]
            _run(*argv, *(["--fidelity", fidelity] if fidelity else []))


def files(root: Path) -> list[str]:
    """The relative paths of every file under ``root``, sorted."""
    return sorted(str(p.relative_to(root)) for p in root.rglob("*") if p.is_file())


def record() -> None:
    """Replace the recorded set and its fingerprint with this build's."""
    shutil.rmtree(FILES, ignore_errors=True)
    generate(FILES)
    FINGERPRINT.write_text(json.dumps(fingerprint(), indent=2) + "\n")
