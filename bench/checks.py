"""Output checks computed apart from the program.

Nothing here calls into the code under test to produce an expected value,
and nothing compares against a stored copy of earlier output: the braking
reference is closed-form kinematics, the oscillator reference is a scalar
RK4 with brute-force STL windows, and the campaign checks are properties the
method must have. Each check returns a list of problems; empty means pass.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path
from typing import Any

import numpy as np

# Braking scenario as documented by the program: lead and ego start at the
# same speed, the lead brakes at a constant rate, the ego brakes at 8 m/s^2
# after a 0.6 s reaction time. Sampled every 0.01 s over 6 s.
BRK_REACTION_S = 0.6
BRK_EGO_DECEL = 8.0
BRK_DT = 0.01
BRK_DURATION = 6.0
BRK_LOWER = (5.0, 10.0, 1.0)
BRK_UPPER = (100.0, 35.0, 9.0)
# Largest closed-form vs simulator gap seen over 2000 random configs was
# 0.058 m (the simulator's 0.1 m/s stop ramp); allow a little more.
BRK_GAP_TOLERANCE_M = 0.1

# Oscillator x'' = -4 x - c v^3, RK4 at 1e-3 s over 6 s.
OSC_OMEGA_SQ = 4.0
OSC_DT = 1e-3
OSC_STEPS = 6000
OSC_ROBUSTNESS_TOLERANCE = 1e-9


def braking_min_gap(gap0: float, speed: float, lead_decel: float) -> float:
    """Smallest sampled gap of ``G[0,6](gap > 0)`` from constant-deceleration kinematics."""
    t = BRK_DT * np.arange(int(round(BRK_DURATION / BRK_DT)) + 1)
    lead_stop = speed / lead_decel
    x_lead = np.where(
        t < lead_stop, speed * t - 0.5 * lead_decel * t * t, speed * speed / (2.0 * lead_decel)
    )
    tb = np.maximum(t - BRK_REACTION_S, 0.0)
    ego_stop = speed / BRK_EGO_DECEL
    x_ego = speed * np.minimum(t, BRK_REACTION_S) + np.where(
        tb < ego_stop, speed * tb - 0.5 * BRK_EGO_DECEL * tb * tb, speed * speed / (2.0 * BRK_EGO_DECEL)
    )
    return float(np.min(gap0 + x_lead - x_ego))


def _falsify_common(result: Any, budget: int) -> list[str]:
    problems = []
    if result.evaluations_used != budget:
        problems.append(f"evaluations_used {result.evaluations_used} != budget {budget}")
    trace = list(result.trace)
    if any(b > a for a, b in zip(trace, trace[1:])):
        problems.append("best-so-far trace increases")
    if trace and trace[-1] != result.best_robustness:
        problems.append("trace does not end at the best robustness")
    return problems


def check_braking(result: Any, budget: int) -> list[str]:
    problems = _falsify_common(result, budget)
    if not result.counterexample_found:
        problems.append("no counterexample found")
    gap0, speed, decel = (float(v) for v in result.best_config.values)
    if not all(lo <= v <= hi for v, lo, hi in zip((gap0, speed, decel), BRK_LOWER, BRK_UPPER)):
        problems.append(f"best config {result.best_config.values} outside the box")
    expected = braking_min_gap(gap0, speed, decel)
    if abs(expected - result.best_robustness) > BRK_GAP_TOLERANCE_M:
        problems.append(
            f"robustness {result.best_robustness:.6g} vs closed-form min gap {expected:.6g}"
        )
    if (expected < 0.0) != (result.best_robustness < 0.0):
        problems.append("closed-form and simulated robustness disagree in sign")
    return problems


def oscillator_positions(x0: float, v0: float, drag: float) -> list[float]:
    """Positions of the max-fidelity oscillator by a scalar RK4, one per sample."""

    def rhs(p: float, v: float) -> tuple[float, float]:
        return v, -OSC_OMEGA_SQ * p - drag * v**3

    h = OSC_DT
    p, v = x0, v0
    out = [p]
    for _ in range(OSC_STEPS):
        k1p, k1v = rhs(p, v)
        k2p, k2v = rhs(p + 0.5 * h * k1p, v + 0.5 * h * k1v)
        k3p, k3v = rhs(p + 0.5 * h * k2p, v + 0.5 * h * k2v)
        k4p, k4v = rhs(p + h * k3p, v + h * k3v)
        p = p + (h / 6.0) * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
        v = v + (h / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        out.append(p)
    return out


def nested_robustness(x: list[float], threshold: float, outer_s: float, inner_s: float) -> float:
    """``G[0,outer](F[0,inner](x > threshold))`` at time 0 by brute-force windows."""
    signal = np.asarray(x) - threshold
    outer = int(round(outer_s / OSC_DT))
    inner = int(round(inner_s / OSC_DT))
    windows = np.lib.stride_tricks.sliding_window_view(signal, inner + 1)[: outer + 1]
    return float(windows.max(axis=1).min())


def check_oscillator(result: Any, budget: int) -> list[str]:
    problems = _falsify_common(result, budget)
    x0, v0, drag = (float(v) for v in result.best_config.values)
    expected = nested_robustness(oscillator_positions(x0, v0, drag), -1.9, 3.0, 2.0)
    if abs(expected - result.best_robustness) > OSC_ROBUSTNESS_TOLERANCE:
        problems.append(
            f"robustness {result.best_robustness!r} vs scalar re-integration {expected!r}"
        )
    return problems


def _iteration_rows(report_md: str) -> int:
    section = report_md.split("## Iterations", 1)[-1].split("\n## ", 1)[0]
    return sum(1 for line in section.splitlines() if re.match(r"^\| \d+ \|", line))


def check_campaign(config: dict, result_path: Path, analysis_path: Path, report_md: str) -> list[str]:
    problems = []
    text = result_path.read_text()
    result = json.loads(text)
    analysis = json.loads(analysis_path.read_text())
    iterations = result["iterations"]
    spe = config["falsify_budget"]["samples_per_eval"]

    if len(iterations) != config["outer_iterations"]:
        problems.append(f"{len(iterations)} iterations, expected {config['outer_iterations']}")
    for it in iterations:
        if not (math.isfinite(it["loss"]) and it["loss"] >= 0.0):
            problems.append(f"iteration {it['t']} has loss {it['loss']}")
        if it["inner_sim_calls"] != it["inner_evaluations"] * spe:
            problems.append(f"iteration {it['t']}: inner sims != evaluations x samples_per_eval")
    inner_total = sum(it["inner_evaluations"] for it in iterations) * spe
    if result["totals"]["inner_low_calls"] != inner_total:
        problems.append(
            f"inner_low_calls {result['totals']['inner_low_calls']} != {inner_total}"
        )
    for cx in result["counterexamples"]:
        inside = all(lo <= v <= hi for v, lo, hi in zip(cx["values"], BRK_LOWER, BRK_UPPER))
        if not inside or not cx["robustness"] < 0.0:
            problems.append(f"counterexample {cx['values']} ({cx['robustness']}) invalid")

    eps, delta = config["analysis_epsilon"], config["analysis_delta"]
    plan = analysis["sample_plan"]
    lip = max(analysis["lipschitz_env"]["constant"], analysis["lipschitz_loss"]["constant"])
    n = math.ceil((2.0 * lip * lip / (eps * eps)) * math.log(2.0 / delta))
    if plan["lipschitz"] != lip or plan["n_per_iteration"] != n:
        problems.append(f"Hoeffding n {plan['n_per_iteration']} (L={plan['lipschitz']}) != {n}")
    k1 = config["falsify_budget"]["max_evaluations"]
    k2 = config["outer_iterations"]
    if plan["total_samples"] != n * k1 * k2:
        problems.append(f"total samples {plan['total_samples']} != n*K1*K2 = {n * k1 * k2}")

    rows = _iteration_rows(report_md)
    if rows != len(iterations):
        problems.append(f"report has {rows} iteration rows for {len(iterations)} iterations")
    return problems
