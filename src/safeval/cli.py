"""Command-line interface.

Subcommands::

    safeval falsify --sim <id> --spec <str> --fidelity <csv> --budget <int>
                    --seed <int> --out <dir> [--require-counterexample]
    safeval tune-fidelity --sim <id> --tasks <int> --per-task <int>
                    --iters <int> --seed <int> --out <dir>
    safeval joint --config <file> --out <dir>
    safeval analyze --config <file> --out <dir>
    safeval report --result <file> --format <md|csv> [--out <dir>]

Exit codes: 0 success, 1 invalid input, 2 runtime failure, 3 no
counterexample found within budget while --require-counterexample is set.
Rerunning any command with the same seed on the same NumPy build and CPU
features reproduces its output files byte for byte (wall-clock timestamps
appear only in the campaign event log); oscillator simulations give the
same bytes whatever the CPU features.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .analysis import sensitivity_plan
from .campaign import (
    CampaignConfig,
    analysis_summary,
    campaign_inputs,
    load_result,
    optimize_fidelity,
    regret_csv,
    report,
    run_joint,
    sample_tasks,
    write_json,
)
from .core import MAX_COUNT, InvalidArgumentError, SchemaVersionError, split_seed
from .falsify import FalsifyBudget, falsify
from .sim import get_benchmark
from .stl import SpecEvaluationError, SpecSyntaxError, parse_spec

USAGE_ERROR = 1
RUNTIME_ERROR = 2
NO_COUNTEREXAMPLE = 3

_INPUT_ERRORS = (
    InvalidArgumentError,
    SpecSyntaxError,
    SpecEvaluationError,
    SchemaVersionError,
    FileNotFoundError,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 1 on usage errors, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _out_dir(path: str) -> Path:
    """``--out`` as a Path; raises a usage error unless it is or can become a directory."""
    out = Path(path)
    existing = next(p for p in (out, *out.parents) if p.exists())
    if not existing.is_dir():
        raise InvalidArgumentError(f"--out {path}: {existing} exists and is not a directory")
    return out


def _cmd_falsify(args: argparse.Namespace) -> int:
    out = _out_dir(args.out)
    spec = get_benchmark(args.sim)
    spec_text = args.spec or spec.safety_spec
    if not spec_text:
        raise InvalidArgumentError("--spec is required for this simulator")
    phi = parse_spec(spec_text)
    values = [1.0] * spec.fidelity_space.dimension
    if args.fidelity:
        try:
            values = [float(v) for v in args.fidelity.split(",")]
        except ValueError:
            raise InvalidArgumentError(
                f"--fidelity must be comma-separated numbers, got {args.fidelity!r}"
            ) from None
    f = spec.fidelity_space.setting(values)
    budget = FalsifyBudget(max_evaluations=args.budget)
    result = falsify(spec, phi, f, budget, args.seed)
    payload = {
        "simulator": spec.id,
        "safety_spec": spec_text,
        "fidelity": list(f.values),
        "budget": args.budget,
        "seed": args.seed,
        "best_config": list(result.best_config.values),
        "best_robustness": result.best_robustness,
        "counterexample_found": result.counterexample_found,
        "evaluations_used": result.evaluations_used,
        "iterations": result.iterations,
        "trace": list(result.trace),
    }
    write_json(out / "falsify.json", payload)
    print(
        f"best robustness {result.best_robustness:.6g} at {list(result.best_config.values)} "
        f"({'counterexample' if result.counterexample_found else 'no counterexample'})"
    )
    if args.require_counterexample and not result.counterexample_found:
        return NO_COUNTEREXAMPLE
    return 0


def _cmd_tune_fidelity(args: argparse.Namespace) -> int:
    for flag, count in (("--tasks", args.tasks), ("--per-task", args.per_task)):
        if not 1 <= count <= MAX_COUNT:  # the bound of a config's counts
            raise InvalidArgumentError(f"{flag} must lie in [1, {MAX_COUNT}]")
    out = _out_dir(args.out)
    spec = get_benchmark(args.sim)
    tasks = sample_tasks(spec, args.tasks, args.per_task, args.seed)
    result = optimize_fidelity(spec, tasks, args.iters, args.seed)
    payload = {
        "simulator": spec.id,
        "tasks": args.tasks,
        "per_task": args.per_task,
        "iterations": result.iterations,
        "seed": args.seed,
        "best_fidelity": list(result.best_fidelity.values),
        "best_loss": result.best_loss,
        "regret_reference": result.regret.reference,
        "regret_reference_is_proxy": result.regret.reference_is_proxy,
        "losses": list(result.regret.losses),
    }
    write_json(out / "fidelity.json", payload)
    trace = result.regret
    rows = zip(
        range(1, len(trace) + 1),
        trace.fidelities,
        trace.losses,
        trace.instantaneous,
        trace.cumulative,
    )
    (out / "regret.csv").write_text(regret_csv(len(result.best_fidelity.values), rows))
    print(f"best fidelity {list(result.best_fidelity.values)} with loss {result.best_loss:.6g}")
    return 0


def _cmd_joint(args: argparse.Namespace) -> int:
    out = _out_dir(args.out)
    config = CampaignConfig.from_json_file(args.config)
    result = run_joint(config, output_dir=out)
    print(
        f"campaign finished: best fidelity {list(result.best_fidelity)} "
        f"loss {result.best_loss:.6g}, {len(result.counterexamples)} counterexample(s)"
    )
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    out = _out_dir(args.out)
    config = CampaignConfig.from_json_file(args.config)
    spec, spec_text, phi, tasks = campaign_inputs(config)
    seed = config.master_seed
    f_max = spec.fidelity_space.max_fidelity()
    lo = spec.environment_space.lower_array()
    hi = spec.environment_space.upper_array()
    center = spec.environment_space.config((lo + hi) / 2.0)
    # The sensitivity search runs first; its stencil then shares the one
    # simulator call of the Lipschitz estimates.
    sens = sensitivity_plan(
        spec, phi, f_max, 1e-3, config.falsify_budget, split_seed(seed, "sens"), repeats=3
    )
    summary = analysis_summary(
        spec, phi, tasks, config, f_max, center, K1=config.falsify_budget.max_evaluations,
        sensitivity=sens,
    )
    payload = {"simulator": spec.id, "safety_spec": spec_text, "master_seed": seed}
    payload.update((key, dataclasses.asdict(record)) for key, record in summary.items())
    write_json(out / "analysis.json", payload)
    print(
        f"Lipschitz estimates: env {summary['lipschitz_env'].constant:.4g}, "
        f"fidelity {summary['lipschitz_fidelity'].constant:.4g}, "
        f"loss {summary['lipschitz_loss'].constant:.4g}; "
        f"Hoeffding n = {summary['sample_plan'].n_per_iteration}"
    )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    result = load_result(args.result)
    if args.format in ("md", "markdown"):
        sys.stdout.write(report(result, "markdown"))
        return 0
    documents = report(result, "csv")
    out_dir = _out_dir(args.out) if args.out else Path(args.result).parent
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, text in sorted(documents.items()):
        (out_dir / name).write_text(text)
        print(str(out_dir / name))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="safeval", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("falsify", help="search for a safety-spec counterexample")
    p.add_argument("--sim", required=True, help="built-in simulator id")
    p.add_argument("--spec", default=None, help="safety spec text (default: spec of record)")
    p.add_argument("--fidelity", default=None, help="comma-separated fidelity values in [0,1]")
    p.add_argument("--budget", type=int, required=True, help="evaluation budget")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--require-counterexample", action="store_true")
    p.set_defaults(func=_cmd_falsify)

    p = sub.add_parser("tune-fidelity", help="optimize fidelity settings over sampled tasks")
    p.add_argument("--sim", required=True)
    p.add_argument("--tasks", type=int, required=True)
    p.add_argument("--per-task", type=int, required=True)
    p.add_argument("--iters", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_tune_fidelity)

    p = sub.add_parser("joint", help="run the full nested campaign")
    p.add_argument("--config", required=True, help="campaign config JSON file")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_joint)

    p = sub.add_parser("analyze", help="emit Lipschitz/sensitivity/sample-plan estimates")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("report", help="render a campaign result")
    p.add_argument("--result", required=True)
    p.add_argument("--format", choices=("md", "markdown", "csv"), default="md")
    p.add_argument("--out", default=None, help="directory for CSV bundles")
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except Exception as exc:  # runtime failures
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return RUNTIME_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
