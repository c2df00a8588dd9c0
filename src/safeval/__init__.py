"""safeval: joint falsification and simulator-fidelity optimization.

An inner loop searches bounded environment spaces for configurations that
violate a quantitative safety specification; an outer GP-LCB loop tunes
simulator fidelity knobs to minimize the discrepancy between low- and
high-fidelity trajectories; an analysis suite estimates the smoothness,
sensitivity, and sample-complexity quantities that justify the procedure.

``import safeval`` loads only the inner loop: the names of ``core``, ``stl``,
``sim`` and ``falsify`` are bound at import. The names of ``loss``, ``bo``,
``analysis`` and ``campaign``, and those four modules, load on first use
(PEP 562), so a falsification never imports the outer loop.
"""

from .core import (
    EnvironmentConfig,
    EnvironmentSpace,
    FidelitySetting,
    FidelitySpace,
    InvalidArgumentError,
    Seed,
    Task,
    Trajectory,
    rng_from_seed,
    sample_uniform,
    split_seed,
)
from .stl import SafetySpec, format_spec, parse_spec, robustness
from .sim import (
    SimulatorSpec,
    builtin_benchmarks,
    get_benchmark,
    simulate_high,
    simulate_low,
)
from .falsify import FalsificationResult, FalsifyBudget, falsify, falsify_many

__version__ = "0.1.0"

# Each name that loads on first use, the four modules' own names among them,
# and the module that defines it.
_LAZY = {name: module for module, names in {
    "loss": "aggregate_loss mse_loss",
    "bo": "BetaSchedule FidelityOptResult GpKernel GpState RegretTrace gp_posterior"
          " gp_ucb_minimize regret_growth_fit",
    "analysis": "ConvergenceReport LipschitzEstimate SampleComplexityPlan SensitivityReport"
                " convergence_report estimate_lipschitz_env estimate_lipschitz_fidelity"
                " estimate_lipschitz_loss hoeffding_n sample_complexity_plan sensitivity"
                " total_samples",
    "campaign": "CampaignConfig CampaignResult load_result optimize_fidelity report"
                " run_joint sample_tasks save_result",
}.items() for name in [module, *names.split()]}

__all__ = sorted([name for name in globals() if not name.startswith("_")] + list(_LAZY))


def __getattr__(name: str) -> object:
    """Import the module behind a name of ``_LAZY`` on first use, and keep the name."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = importlib.import_module(f".{_LAZY[name]}", __name__)
    if name != _LAZY[name]:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
