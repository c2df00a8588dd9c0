"""Every name a safeval module exports resolves, so that a star-import works.

A name left in ``__all__`` after its definition moved or was removed breaks
``from safeval.<module> import *`` with an ``AttributeError``.
"""

import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import safeval

MODULES = ["safeval"] + [f"safeval.{m.name}" for m in pkgutil.iter_modules(safeval.__path__)]

# What ``from safeval import *`` yields: the package's public names and its
# eight submodules, ``falsify`` among them as the function of that name.
PACKAGE_NAMES = [
    "BetaSchedule", "CampaignConfig", "CampaignResult", "ConvergenceReport",
    "EnvironmentConfig", "EnvironmentSpace", "FalsificationResult", "FalsifyBudget",
    "FidelityOptResult", "FidelitySetting", "FidelitySpace", "GpKernel", "GpState",
    "InvalidArgumentError", "LipschitzEstimate", "RegretTrace", "SafetySpec",
    "SampleComplexityPlan", "Seed", "SensitivityReport", "SimulatorSpec", "Task", "Trajectory",
    "aggregate_loss", "analysis", "bo", "builtin_benchmarks", "campaign", "convergence_report",
    "core", "estimate_lipschitz_env", "estimate_lipschitz_fidelity", "estimate_lipschitz_loss",
    "falsify", "falsify_many", "format_spec", "get_benchmark", "gp_posterior",
    "gp_ucb_minimize", "hoeffding_n", "load_result", "loss", "mse_loss", "optimize_fidelity",
    "parse_spec", "regret_growth_fit", "report", "rng_from_seed", "robustness", "run_joint",
    "sample_complexity_plan", "sample_tasks", "sample_uniform", "save_result", "sensitivity",
    "sim", "simulate_high", "simulate_low", "split_seed", "stl", "total_samples",
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= set(namespace)


def test_package_star_import_yields_the_pinned_names():
    namespace: dict = {}
    exec("from safeval import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PACKAGE_NAMES
    assert sorted(safeval.__all__) == PACKAGE_NAMES
    assert set(PACKAGE_NAMES) <= set(dir(safeval))


# Run in a fresh interpreter: this test process has every module loaded already.
FOOTPRINT = """
import json, sys, types
import safeval, safeval.sim, safeval.stl, safeval.falsify
outer = ["safeval.loss", "safeval.bo", "safeval.analysis", "safeval.campaign", "safeval.cli",
         "logging"]
loaded = [m for m in outer if m in sys.modules]
print(json.dumps({
    "loaded": loaded,
    "run_joint": safeval.run_joint is safeval.campaign.run_joint,
    "aggregate_loss": safeval.aggregate_loss is sys.modules["safeval.loss"].aggregate_loss,
    "GpState": safeval.GpState is sys.modules["safeval.bo"].GpState,
    "falsify_function": isinstance(safeval.falsify, types.FunctionType),
    "falsify_module": isinstance(sys.modules["safeval.falsify"], types.ModuleType)
    and sys.modules["safeval.falsify"].falsify is safeval.falsify,
}))
"""


def test_inner_loop_import_leaves_the_outer_loop_unloaded():
    env = dict(os.environ, PYTHONPATH=str(Path(safeval.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", FOOTPRINT], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert json.loads(out) == {
        "loaded": [], "run_joint": True, "aggregate_loss": True, "GpState": True,
        "falsify_function": True, "falsify_module": True,
    }


def imported_but_unused(source: str) -> list[str]:
    """Names that ``source`` imports and never reads; a name in ``__all__`` counts as read."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= {e.value for e in ast.walk(node.value) if isinstance(e, ast.Constant)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in read)


def test_imported_but_unused_finds_unread_names():
    source = "from __future__ import annotations\nimport os, sys\nfrom a import b, c as d\n"
    assert imported_but_unused(source + "print(sys, d)\n") == ["b (line 3)", "os (line 2)"]


# The package's __init__ imports names to re-export them, so it is exempt.
@pytest.mark.parametrize(
    "path",
    sorted(p for p in Path(safeval.__file__).parent.glob("*.py") if p.name != "__init__.py"),
    ids=lambda p: p.name,
)
def test_no_module_imports_a_name_it_never_uses(path):
    assert imported_but_unused(path.read_text()) == []


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """Private top-level functions and classes of ``sources`` (module name to text) that no
    source reads anywhere but in their own definition, or that their module also imports:
    then one copy shadows the other."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        imported = {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
        }
        defined += [
            (module, node.name, node.name in imported)
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_")
            and not node.name.endswith("__")  # a module hook such as __getattr__
        ]
        read |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        read |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    return sorted(f"{m}.{name}" for m, name, shadowed in defined if shadowed or name not in read)


def test_unreferenced_private_names_finds_orphans_and_shadowed_copies():
    sources = {
        "a": "def _f(): pass\ndef _g(): pass\nclass _C: pass\n",
        "b": "from .a import _g\ndef _g(): pass\n_g()\n_C()\n",
    }
    assert unreferenced_private_names(sources) == ["a._f", "b._g"]


def test_every_private_helper_is_used():
    package = Path(safeval.__file__).parent
    sources = {path.stem: path.read_text() for path in sorted(package.glob("*.py"))}
    assert unreferenced_private_names(sources) == []
