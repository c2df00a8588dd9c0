"""safeval: joint falsification and simulator-fidelity optimization.

An inner loop searches bounded environment spaces for configurations that
violate a quantitative safety specification; an outer GP-LCB loop tunes
simulator fidelity knobs to minimize the discrepancy between low- and
high-fidelity trajectories; an analysis suite estimates the smoothness,
sensitivity, and sample-complexity quantities that justify the procedure.
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
from .loss import aggregate_loss, mse_loss
from .falsify import FalsificationResult, FalsifyBudget, falsify, falsify_many
from .bo import (
    BetaSchedule,
    FidelityOptResult,
    GpKernel,
    GpState,
    RegretTrace,
    gp_posterior,
    gp_ucb_minimize,
    regret_growth_fit,
)
from .analysis import (
    ConvergenceReport,
    LipschitzEstimate,
    SampleComplexityPlan,
    SensitivityReport,
    convergence_report,
    estimate_lipschitz_env,
    estimate_lipschitz_fidelity,
    estimate_lipschitz_loss,
    hoeffding_n,
    sample_complexity_plan,
    sensitivity,
    total_samples,
)
from .campaign import (
    CampaignConfig,
    CampaignResult,
    load_result,
    optimize_fidelity,
    report,
    run_joint,
    sample_tasks,
    save_result,
)

__version__ = "0.1.0"
