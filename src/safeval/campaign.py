"""Joint nested-optimization driver, persistence, and reporting.

One campaign iteration selects a fidelity setting with the outer GP-LCB
loop, runs the inner falsifier at that setting with a budget scaled by the
GP's predictive uncertainty (exploration-weighted inner effort), evaluates
the aggregate high/low discrepancy over the sampled tasks plus every
counterexample found so far, and feeds the loss back into the GP. Events
stream to a JSONL log (the only place timestamps appear); the final result
is a single schema-versioned JSON document whose bytes depend only on the
configuration and master seed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Any, Iterable, Sequence

import numpy as np

from .analysis import (
    ConvergenceReport,
    LipschitzEstimate,
    RowPlan,
    SampleComplexityPlan,
    _force_noise_off,
    convergence_report,
    lipschitz_env_plan,
    lipschitz_fidelity_plan,
    lipschitz_loss_plan,
    run_plans,
    sample_complexity_plan,
)
from .bo import BetaSchedule, FidelityOptResult, UcbMinimizer, gp_ucb_minimize
from .core import (
    MAX_COUNT,
    Checked,
    EnvironmentConfig,
    ExtendedFloat,
    FidelitySetting,
    InvalidArgumentError,
    NumericalFailureError,
    SchemaVersionError,
    Seed,
    Task,
    _field_kwargs,
    sample_uniform,
    split_seed,
)
from .falsify import FalsificationFailedError, FalsifyBudget, check_horizon, falsify
from .loss import LOSS_FAILURES, aggregate_loss, check_task_weights
from .sim import (
    SimulatorSpec,
    _diverged,
    external_simulator_spec,
    get_benchmark,
    simulate_batch,
    tally,
)
from .stl import SafetySpec, parse_spec

__all__ = [
    "SCHEMA_VERSION",
    "AdaptiveBudgetPolicy",
    "CampaignConfig",
    "IterationRecord",
    "CounterexampleRecord",
    "CampaignAnalysis",
    "CampaignResult",
    "resolve_simulator",
    "sample_tasks",
    "campaign_inputs",
    "analysis_summary",
    "optimize_fidelity",
    "run_joint",
    "write_json",
    "save_result",
    "load_result",
    "report",
]

SCHEMA_VERSION = 1

# Task weights are relative, so a bound costs nothing; it keeps each
# weighted MSE far from float overflow.
MAX_TASK_WEIGHT = 1e6
_WEIGHTS_ERROR = f"task_weights must map task ids to numbers from 0 to {MAX_TASK_WEIGHT:g}"


@dataclass(frozen=True)
class AdaptiveBudgetPolicy(Checked):
    """Exploration-weighted inner-loop budgets.

    The inner falsifier at iteration t receives
    ``round(base_budget * (1 + scale * sigma_t / sigma_ref))`` evaluations,
    where ``sigma_ref`` is the largest predictive stddev seen so far
    (floored at ``sigma_threshold``). Budgets are nondecreasing in
    ``sigma_t`` and never fall below the falsifier's population size.
    """

    base_budget: int = field(default=256, metadata={"ge": 4, "le": MAX_COUNT})
    scale: float = field(default=1.0, metadata={"ge": 0, "le": MAX_COUNT})
    sigma_threshold: float = field(default=1e-3, metadata={"gt": 0})

    def budget_at(self, sigma: float, sigma_ref: float, minimum: int) -> int:
        ref = max(sigma_ref, self.sigma_threshold)
        frac = max(float(sigma), 0.0) / ref
        budget = int(round(self.base_budget * (1.0 + self.scale * frac)))
        return max(budget, minimum)


@dataclass(frozen=True)
class CampaignConfig(Checked):
    """Everything a joint campaign needs; JSON-serializable and validated.

    ``params_per_task`` is either one count shared by every task or a list
    with one count per task.
    """

    simulator: str | dict[str, Any]
    task_count: int = field(metadata={"ge": 1, "le": MAX_COUNT})
    params_per_task: int | tuple[int, ...] = field(metadata={"ge": 1, "le": MAX_COUNT})
    outer_iterations: int = field(metadata={"ge": 1})
    master_seed: Seed
    safety_spec: str | None = None
    falsify_budget: FalsifyBudget = field(
        default_factory=lambda: FalsifyBudget(max_evaluations=256)
    )
    beta_schedule: BetaSchedule = field(default_factory=BetaSchedule)
    budget_policy: AdaptiveBudgetPolicy = field(default_factory=AdaptiveBudgetPolicy)
    counterexample_cap: int = field(default=32, metadata={"ge": 1})
    task_weights: dict[str, float] | None = field(
        default=None, metadata={"ge": 0, "le": MAX_TASK_WEIGHT, "error": _WEIGHTS_ERROR}
    )
    analysis_pairs: int = field(default=40, metadata={"ge": 10, "le": MAX_COUNT})
    analysis_epsilon: float = field(default=0.1, metadata={"gt": 0})
    analysis_delta: float = field(default=0.05, metadata={"gt": 0, "le": 2})
    convergence_window: int = field(default=5, metadata={"ge": 2})
    convergence_tol: float = 1e-6
    output_dir: str | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if isinstance(self.params_per_task, tuple) and len(self.params_per_task) != self.task_count:
            raise InvalidArgumentError("params_per_task list must have one entry per task")

    def to_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "CampaignConfig":
        return cls(**_field_kwargs(cls, "campaign config", data))

    @classmethod
    def from_json_file(cls, path: str | Path) -> "CampaignConfig":
        return cls.from_dict(_read_json_file(path, "config"))


def _read_json_file(path: str | Path, what: str) -> Any:
    """The JSON document in file ``path``; raises a usage error if it cannot be read or parsed."""
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidArgumentError(f"cannot read {what} file {path}: {exc}") from exc
    try:
        return json.loads(raw)
    except json.JSONDecodeError as exc:
        raise InvalidArgumentError(
            f"{what} file {path} is not valid JSON at byte offset {exc.pos}: {exc.msg}"
        ) from exc


def write_json(path: Path, data: dict[str, Any]) -> None:
    """Write JSON output file ``path``: sorted keys, indent 2 and a final newline."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, sort_keys=True, indent=2) + "\n")


def resolve_simulator(simulator: str | dict[str, Any]) -> SimulatorSpec:
    """Turn a config's simulator field into a SimulatorSpec.

    Strings name built-in benchmarks; objects describe an external adapter,
    see :func:`safeval.sim.external_simulator_spec`.
    """
    if isinstance(simulator, str):
        return get_benchmark(simulator)
    return external_simulator_spec(simulator)


@dataclass(frozen=True)
class IterationRecord(Checked):
    t: int
    fidelity: tuple[float, ...]
    sigma: float
    inner_budget: int
    inner_evaluations: int
    inner_iterations: int
    inner_sim_calls: int
    # A falsifier scores a diverged candidate +inf, and a failed loss is +inf.
    inner_trace: tuple[ExtendedFloat, ...]
    e_star: tuple[float, ...] | None
    rho_star: ExtendedFloat | None
    counterexample_found: bool
    falsification_failed: bool
    loss: ExtendedFloat
    loss_mean: ExtendedFloat
    pair_count: int
    high_calls: int
    low_calls: int
    regret: ExtendedFloat
    cumulative_regret: ExtendedFloat


@dataclass(frozen=True)
class CounterexampleRecord(Checked):
    values: tuple[float, ...]
    robustness: float
    found_at: int


@dataclass(frozen=True)
class CampaignAnalysis(Checked):
    """A campaign's analysis estimates, run at the environment ``probe_config``."""

    lipschitz_env: LipschitzEstimate
    lipschitz_fidelity: LipschitzEstimate
    lipschitz_loss: LipschitzEstimate
    sample_plan: SampleComplexityPlan
    probe_config: tuple[float, ...]


@dataclass(frozen=True)
class CampaignResult(Checked):
    config: CampaignConfig
    best_fidelity: tuple[float, ...]
    best_loss: float
    iterations: tuple[IterationRecord, ...]
    counterexamples: tuple[CounterexampleRecord, ...]
    regret_reference: float
    regret_reference_is_proxy: bool
    totals: dict[str, int]
    analysis: CampaignAnalysis
    convergence: dict[str, ConvergenceReport]
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self) -> None:
        super().__post_init__()
        try:
            knobs = resolve_simulator(self.config.simulator).fidelity_space.dimension
        except InvalidArgumentError as exc:
            raise InvalidArgumentError(f"config: {exc}") from None
        if len(self.best_fidelity) != knobs:
            raise InvalidArgumentError(
                f"best_fidelity has {len(self.best_fidelity)} values for {knobs} fidelity knobs"
            )

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "CampaignResult":
        if not isinstance(data, dict):
            raise InvalidArgumentError(f"result must be a JSON object, got {type(data).__name__}")
        version = data.get("schema_version")
        if version != SCHEMA_VERSION:
            raise SchemaVersionError(
                f"result schema version {version!r} is not supported; this build "
                f"reads version {SCHEMA_VERSION}"
            )
        unknown = set(data) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise SchemaVersionError(
                f"result contains unknown fields {sorted(unknown)}; it was likely "
                f"written by a newer schema than version {SCHEMA_VERSION}"
            )
        return cls(**_field_kwargs(cls, "result", data))


def save_result(result: CampaignResult, path: str | Path) -> None:
    # Tuples stay tuples: ``json.dumps`` writes them as arrays.
    write_json(Path(path), dataclasses.asdict(result))


def load_result(path: str | Path) -> CampaignResult:
    return CampaignResult.from_dict(_read_json_file(path, "result"))


class _EventLog:
    """Append-only JSONL event stream; the sole home of wall-clock timestamps."""

    def __init__(self, path: Path | None):
        self._fh: IO[str] | None = None
        if path is not None:
            path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = path.open("w")

    def emit(self, event: str, **payload: Any) -> None:
        if self._fh is None:
            return
        record = {"event": event, "timestamp": time.time(), **payload}
        self._fh.write(json.dumps(record, sort_keys=True) + "\n")
        self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def sample_tasks(
    spec: SimulatorSpec, count: int, params_per_task: int | tuple[int, ...], seed: Seed
) -> list[Task]:
    """Sample ``count`` tasks with uniform parameter configs each.

    ``params_per_task`` is a shared count or a per-task list of counts.
    """
    if isinstance(params_per_task, (list, tuple)):
        if len(params_per_task) != count:
            raise InvalidArgumentError("params_per_task list must have one entry per task")
        per_task = [int(m) for m in params_per_task]
    else:
        per_task = [int(params_per_task)] * count
    tasks = []
    for i in range(count):
        params = sample_uniform(
            spec.environment_space, per_task[i], split_seed(seed, "task", i)
        )
        tasks.append(
            Task(id=f"task-{i}", parameter_space=spec.environment_space, sampled_params=tuple(params))
        )
    return tasks


def analysis_summary(
    spec: SimulatorSpec,
    phi: SafetySpec,
    tasks: Sequence[Task],
    config: CampaignConfig,
    f_probe: FidelitySetting,
    e_probe: EnvironmentConfig,
    K1: int,
    sensitivity: RowPlan | None = None,
) -> dict[str, Any]:
    """The three Lipschitz estimates and the sample plan, as records under their keys.

    The environment estimate runs at ``f_probe``, the fidelity estimate at
    ``e_probe`` and the loss estimate over ``tasks``, all three in one
    simulator call; the plan takes ``K1`` inner evaluations per outer
    iteration. A ``sensitivity`` plan (see :func:`analysis.sensitivity_plan`)
    rides last in the same call, and its report is added as "sensitivity",
    so a divergence in its stencil is reported after the estimates' own.
    """
    pairs, seed = config.analysis_pairs, config.master_seed
    plans = {
        "lipschitz_env": lipschitz_env_plan(spec, phi, f_probe, pairs, split_seed(seed, "lip-env")),
        "lipschitz_fidelity": lipschitz_fidelity_plan(
            spec, phi, e_probe, pairs, split_seed(seed, "lip-fid")
        ),
        "lipschitz_loss": lipschitz_loss_plan(spec, tasks, pairs, split_seed(seed, "lip-loss")),
    }
    if sensitivity is not None:
        plans["sensitivity"] = sensitivity
    summary = dict(zip(plans, run_plans(spec, list(plans.values()))))
    summary["sample_plan"] = sample_complexity_plan(
        epsilon=config.analysis_epsilon,
        delta=config.analysis_delta,
        lipschitz=summary["lipschitz_env"].constant,
        K1=K1,
        K2=config.outer_iterations,
        lipschitz_alt=summary["lipschitz_loss"].constant,
    )
    return summary


def campaign_inputs(config: CampaignConfig) -> tuple[SimulatorSpec, str, SafetySpec, list[Task]]:
    """The simulator, safety-spec text, parsed spec and sampled tasks of ``config``.

    The spec text is the config's own, else the simulator's spec of record;
    a usage error when there is neither, when it reads past the simulator's
    duration, or when the task weights name a task that was not sampled.
    """
    spec = resolve_simulator(config.simulator)
    spec_text = config.safety_spec or spec.safety_spec
    if not spec_text:
        raise InvalidArgumentError(
            f"simulator {spec.id!r} has no safety spec of record; set safety_spec"
        )
    phi = parse_spec(spec_text)
    check_horizon(spec, phi)
    tasks = sample_tasks(spec, config.task_count, config.params_per_task, config.master_seed)
    check_task_weights(config.task_weights, tasks)
    return spec, spec_text, phi, tasks


def optimize_fidelity(
    spec: SimulatorSpec,
    tasks: Sequence[Task],
    T: int,
    seed: Seed,
) -> FidelityOptResult:
    """Tune fidelity settings to minimize the aggregate high/low discrepancy.

    The outer loop of :func:`run_joint` without its inner falsifier: the
    loss is scored over ``tasks`` only, its pairs seeded under "loss-eval".
    """
    if not tasks:
        raise InvalidArgumentError("optimize_fidelity needs at least one task")
    high_cache: dict = {}

    def objective(x: np.ndarray, t: int) -> float:
        f = spec.fidelity_space.setting(np.clip(x, 0.0, 1.0))
        try:
            result = aggregate_loss(
                spec,
                f,
                tasks,
                seed=split_seed(seed, "loss-eval"),
                high_cache=high_cache,
            )
        except LOSS_FAILURES:  # failed evaluation: record +inf; observe() logs it
            return math.inf
        return result.total

    return gp_ucb_minimize(
        objective,
        dimension=spec.fidelity_space.dimension,
        iterations=T,
        seed=split_seed(seed, "bo"),
        fidelity_space=spec.fidelity_space,
    )


def run_joint(config: CampaignConfig, output_dir: str | Path | None = None) -> CampaignResult:
    """Run the full nested campaign described by ``config``.

    Persists ``events.jsonl`` (streaming, crash-tolerant) and
    ``result.json`` under the output directory when one is given either
    here or in the config. Rerunning with the same config and master seed
    reproduces ``result.json`` byte for byte. The simulations are counted
    by tallies open in the calling context only, so campaigns run in other
    threads do not disturb the totals. A failure once the log is open ends
    it with an ``error`` event and writes ``result.partial.json``.
    """
    out = Path(output_dir) if output_dir is not None else (
        Path(config.output_dir) if config.output_dir else None
    )
    spec, _, phi, tasks = campaign_inputs(config)
    events = _EventLog(out / "events.jsonl" if out else None)
    raw_records: list[dict[str, Any]] = []
    try:
        events.emit("start", simulator=spec.id, outer_iterations=config.outer_iterations)
        optimizer = UcbMinimizer(
            dimension=spec.fidelity_space.dimension,
            seed=split_seed(config.master_seed, "bo"),
            schedule=config.beta_schedule,
        )
        counterexamples: list[CounterexampleRecord] = []
        sigma_ref = 0.0
        totals: Counter[str] = Counter()

        with tally() as grand:
            # Fidelity-independent ground-truth runs, shared by every outer
            # iteration and seeded as aggregate_loss seeds each pair. The cache
            # gains each counterexample's run in the first iteration scoring it.
            loss_seed = split_seed(config.master_seed, "loss")
            keys = [(task.id, j) for task in tasks for j in range(len(task.sampled_params))]
            cfgs = [cfg for task in tasks for cfg in task.sampled_params]
            with tally() as setup:
                samples, ok = simulate_batch(
                    spec,
                    np.array([cfg.as_array() for cfg in cfgs]),
                    None,
                    [split_seed(loss_seed, task_id, j) for task_id, j in keys],
                )
            if not ok.all():
                raise _diverged(spec, cfgs[int(np.flatnonzero(~ok)[0])])
            high_cache = {
                (task_id, cfg.values): row for (task_id, _), cfg, row in zip(keys, cfgs, samples)
            }
            totals["setup_high_calls"] = setup["high_calls"]

            for t in range(1, config.outer_iterations + 1):
                f_vec = optimizer.suggest(t)
                f = spec.fidelity_space.setting(np.clip(f_vec, 0.0, 1.0))
                _, sigma = optimizer.posterior(f_vec)
                sigma_ref = max(sigma_ref, sigma)
                inner_budget = config.budget_policy.budget_at(
                    sigma, sigma_ref, minimum=config.falsify_budget.population
                )
                budget = dataclasses.replace(config.falsify_budget, max_evaluations=inner_budget)

                inner_result = None
                with tally() as inner, contextlib.suppress(FalsificationFailedError):
                    inner_result = falsify(
                        spec, phi, f, budget, split_seed(config.master_seed, "falsify", t)
                    )
                totals["inner_low_calls"] += inner["low_calls"]

                found = inner_result is not None and inner_result.counterexample_found
                if found:
                    counterexamples.append(
                        CounterexampleRecord(
                            values=inner_result.best_config.values,
                            robustness=inner_result.best_robustness,
                            found_at=t,
                        )
                    )
                    if len(counterexamples) > config.counterexample_cap:
                        worst = max(
                            range(len(counterexamples)), key=lambda i: counterexamples[i].robustness
                        )
                        counterexamples.pop(worst)

                extra_configs = [
                    spec.environment_space.config(c.values) for c in counterexamples
                ]
                with tally() as loss:
                    try:
                        agg = aggregate_loss(
                            spec,
                            f,
                            tasks,
                            extra_configs=extra_configs,
                            seed=loss_seed,
                            weights=config.task_weights,
                            high_cache=high_cache,
                        )
                        loss_total, loss_mean, pair_count = agg.total, agg.mean, agg.pair_count
                    except LOSS_FAILURES as exc:
                        loss_total, loss_mean, pair_count = math.inf, math.inf, 0
                        events.emit("loss_failure", t=t, message=str(exc))
                totals["loss_high_calls"] += loss["high_calls"]
                totals["loss_low_calls"] += loss["low_calls"]

                optimizer.observe(f_vec, loss_total)

                raw = {
                    "t": t,
                    "fidelity": f.values,
                    "sigma": sigma,
                    "inner_budget": inner_budget,
                    "inner_evaluations": 0 if inner_result is None else inner_result.evaluations_used,
                    "inner_iterations": 0 if inner_result is None else inner_result.iterations,
                    "inner_sim_calls": inner["low_calls"],
                    "inner_trace": () if inner_result is None else inner_result.trace,
                    "e_star": None if inner_result is None else inner_result.best_config.values,
                    "rho_star": None if inner_result is None else inner_result.best_robustness,
                    "counterexample_found": found,
                    "falsification_failed": inner_result is None,
                    "loss": loss_total,
                    "loss_mean": loss_mean,
                    "pair_count": pair_count,
                    "high_calls": inner["high_calls"] + loss["high_calls"],
                    "low_calls": inner["low_calls"] + loss["low_calls"],
                }
                raw_records.append(raw)
                events.emit("iteration", **raw)

            # Regret against the best observed loss (proxy; the true optimum is unknown).
            try:
                regret, best_f, best_loss = optimizer.trace(None, spec.fidelity_space)
            except NumericalFailureError:
                raise FalsificationFailedError("every outer loss evaluation failed") from None
            records = [
                IterationRecord(**raw, regret=r_t, cumulative_regret=r_cum)
                for raw, r_t, r_cum in zip(raw_records, regret.instantaneous, regret.cumulative)
            ]

            # Analysis summary at desk scale; estimates run on the noise-free face
            # of the fidelity box so they are deterministic.
            probe_f = _force_noise_off(spec, best_f.as_array()[None])[0]
            if counterexamples:
                probe_values = min(counterexamples, key=lambda c: c.robustness).values
            else:
                lo, hi = spec.environment_space.lower_array(), spec.environment_space.upper_array()
                probe_values = tuple((lo + hi) / 2.0)
            mean_evals = sum(r.inner_evaluations for r in records) / len(records)
            with tally() as probes:
                summary = analysis_summary(
                    spec,
                    phi,
                    tasks,
                    config,
                    spec.fidelity_space.setting(probe_f),
                    spec.environment_space.config(probe_values),
                    K1=max(1, round(mean_evals)),
                )
            analysis = CampaignAnalysis(**summary, probe_config=probe_values)
            totals["analysis_high_calls"] = probes["high_calls"]
            totals["analysis_low_calls"] = probes["low_calls"]

        inner_last = next((r.inner_trace for r in reversed(records) if not r.falsification_failed), ())
        convergence = {
            key: convergence_report(
                trace, min(config.convergence_window, len(trace)), config.convergence_tol
            )
            for key, trace in (("outer", regret.losses), ("inner_last", inner_last))
            if len(trace) >= 2
        }

        result = CampaignResult(
            config=config,
            best_fidelity=best_f.values,
            best_loss=best_loss,
            iterations=tuple(records),
            counterexamples=tuple(counterexamples),
            regret_reference=regret.reference,
            regret_reference_is_proxy=regret.reference_is_proxy,
            totals={**grand, **totals},
            analysis=analysis,
            convergence=convergence,
        )
        if out is not None:
            save_result(result, out / "result.json")
        events.emit("finish", best_loss=best_loss)
    except Exception as exc:
        events.emit("error", message=f"{type(exc).__name__}: {exc}")
        if out is not None:
            partial = {
                "schema_version": SCHEMA_VERSION,
                "completed": False,
                "config": config.to_dict(),
                "iterations": raw_records,
            }
            write_json(out / "result.partial.json", partial)
        raise
    finally:
        events.close()
    return result


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def _fmt(x: float | None) -> str:
    if x is None:
        return "-"
    if isinstance(x, float) and not math.isfinite(x):
        return "inf" if x > 0 else "-inf"
    return f"{x:.6g}"


def _markdown_report(result: CampaignResult) -> str:
    lines: list[str] = []
    cfg = result.config
    sim_name = cfg.simulator if isinstance(cfg.simulator, str) else cfg.simulator.get("id", "?")
    lines.append("# Campaign report")
    lines.append("")
    lines.append(f"- simulator: `{sim_name}`")
    lines.append(f"- outer iterations: {cfg.outer_iterations}")
    lines.append(f"- master seed: {cfg.master_seed}")
    lines.append(f"- best fidelity: {list(result.best_fidelity)}")
    lines.append(f"- best aggregate loss: {_fmt(result.best_loss)}")
    lines.append(
        f"- regret reference: {_fmt(result.regret_reference)}"
        f"{' (best-observed proxy)' if result.regret_reference_is_proxy else ''}"
    )
    lines.append(f"- counterexamples found: {len(result.counterexamples)}")
    lines.append("")
    lines.append("## Iterations")
    lines.append("")
    lines.append("| t | fidelity | loss | rho* | cx | inner evals | r_t | R_T |")
    lines.append("|---|----------|------|------|----|-------------|-----|-----|")
    for rec in result.iterations:
        fid = ", ".join(f"{v:.3f}" for v in rec.fidelity)
        lines.append(
            f"| {rec.t} | ({fid}) | {_fmt(rec.loss)} | {_fmt(rec.rho_star)} | "
            f"{'yes' if rec.counterexample_found else 'no'} | {rec.inner_evaluations} | "
            f"{_fmt(rec.regret)} | {_fmt(rec.cumulative_regret)} |"
        )
    lines.append("")
    lines.append("## Counterexamples")
    lines.append("")
    if result.counterexamples:
        lines.append("| found at | config | robustness |")
        lines.append("|----------|--------|------------|")
        for c in result.counterexamples:
            vals = ", ".join(f"{v:.4f}" for v in c.values)
            lines.append(f"| {c.found_at} | ({vals}) | {_fmt(c.robustness)} |")
    else:
        lines.append("No counterexamples were found within the budget.")
    lines.append("")
    lines.append("## Analysis estimates")
    lines.append("")
    for key in ("lipschitz_env", "lipschitz_fidelity", "lipschitz_loss"):
        est = getattr(result.analysis, key)
        lines.append(f"- {key}: constant {_fmt(est.constant)} over {est.pairs_used} pairs")
    plan = result.analysis.sample_plan
    lines.append(
        f"- sample plan: n = {plan.n_per_iteration} per iteration, "
        f"K1 = {plan.K1}, K2 = {plan.K2}, N = {plan.total_samples} "
        f"(eps = {plan.epsilon}, delta = {plan.delta})"
    )
    failures = [r.t for r in result.iterations if r.falsification_failed]
    if failures:
        lines.append("")
        lines.append(f"Falsification failed (recorded without penalty) at iterations: {failures}")
    lines.append("")
    lines.append("## Simulator call totals")
    lines.append("")
    for key in sorted(result.totals):
        lines.append(f"- {key}: {result.totals[key]}")
    lines.append("")
    return "\n".join(lines)


def regret_csv(
    dim: int, rows: Iterable[tuple[int, Sequence[float], float, float, float]]
) -> str:
    """``regret.csv``: a line per outer iteration of (t, fidelity, loss, r_t, R_T).

    Written by ``safeval report --format csv`` and ``safeval tune-fidelity``.
    """
    lines = [",".join(["t"] + [f"f_{k}" for k in range(dim)] + ["loss", "r_t", "R_T"])]
    for t, fidelity, loss, r_t, r_cum in rows:
        lines.append(",".join([str(t), *map(repr, fidelity), repr(loss), repr(r_t), repr(r_cum)]))
    return "\n".join(lines) + "\n"


def _csv_report(result: CampaignResult) -> dict[str, str]:
    regret_rows = (
        (rec.t, rec.fidelity, rec.loss, rec.regret, rec.cumulative_regret)
        for rec in result.iterations
    )
    inner_rows = ["t,generation,best_robustness"]
    for rec in result.iterations:
        for g, value in enumerate(rec.inner_trace):
            inner_rows.append(f"{rec.t},{g},{value!r}")
    return {
        "regret.csv": regret_csv(len(result.best_fidelity), regret_rows),
        "inner_traces.csv": "\n".join(inner_rows) + "\n",
    }


def report(result: CampaignResult, format: str = "markdown") -> str | dict[str, str]:
    """Render a campaign result: one markdown document or a bundle of CSVs."""
    if format in ("markdown", "md"):
        return _markdown_report(result)
    if format == "csv":
        return _csv_report(result)
    raise InvalidArgumentError(f"unknown report format {format!r}; use 'markdown' or 'csv'")
