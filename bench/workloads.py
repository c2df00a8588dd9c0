"""The three workloads: per-op inputs, the timed call, and the checks.

Each is a closed loop: one process, one caller thread, each op issued when
the previous one returns. Per-op seeds derive from the workload seed, so a
run repeats exactly; every op gets a fresh seed, so a cache kept across ops
cannot flatter a result. Program entry points are looked up on their
modules at call time, so the traced run's wrappers are seen.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import shutil
from pathlib import Path
from typing import Any

import checks


def op_seed(workload: str, seed: int, index: int) -> int:
    """64-bit seed of op ``index`` of a run, independent of the program's own hashing."""
    digest = hashlib.blake2b(f"{workload}/{seed}/{index}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little") >> 1


class FalsifyWorkload:
    """One ``falsify`` call per op at max fidelity, population 64."""

    repeat_check = False

    def __init__(self, name: str, sim_id: str, spec_text: str, budget: int, check: Any):
        self.name, self.budget, self._check = name, budget, check
        sim = importlib.import_module("safeval.sim")
        stl = importlib.import_module("safeval.stl")
        falsify_mod = importlib.import_module("safeval.falsify")
        self.spec = sim.get_benchmark(sim_id)
        self.phi = stl.parse_spec(spec_text)
        self.f_max = self.spec.fidelity_space.max_fidelity()
        self.budget_obj = falsify_mod.FalsifyBudget(max_evaluations=budget, population=64)

    def make_input(self, seed: int, index: int, workdir: Path) -> int:
        return op_seed(self.name, seed, index)

    def run(self, op: int) -> Any:
        falsify = importlib.import_module("safeval.falsify").falsify
        return falsify(self.spec, self.phi, self.f_max, self.budget_obj, op)

    def check(self, op: int, out: Any) -> list[str]:
        return self._check(out, self.budget)

    def cleanup(self, op: int) -> None:
        pass


class CampaignWorkload:
    """``safeval joint``, then ``analyze``, then ``report --format md``, in process."""

    name = "campaign-braking"
    repeat_check = True

    def __init__(self, outer_iterations: int, analysis_pairs: int):
        self.outer_iterations = outer_iterations
        self.analysis_pairs = analysis_pairs
        importlib.import_module("safeval.cli")

    def make_input(self, seed: int, index: int, workdir: Path) -> dict:
        op_dir = workdir / f"op-{index}"
        op_dir.mkdir(parents=True, exist_ok=True)
        # Acceptance-09 shape: 2 tasks x 3 parameters, inner budget 192 at
        # population 64, budget scale 0, 24 analysis pairs. Four outer
        # iterations are the optimiser's warm-start Latin-hypercube points,
        # which always include exactly one near-full-resolution step size;
        # later GP-LCB picks make an op's cost depend on its seed (see README).
        config = {
            "simulator": "braking",
            "task_count": 2,
            "params_per_task": 3,
            "outer_iterations": self.outer_iterations,
            "master_seed": op_seed(self.name, seed, index),
            "falsify_budget": {"max_evaluations": 192, "population": 64, "elite_fraction": 0.25,
                               "stop_tolerance": 0.0, "samples_per_eval": 1},
            "budget_policy": {"base_budget": 192, "scale": 0.0, "sigma_threshold": 1e-3},
            "analysis_pairs": self.analysis_pairs,
            "analysis_epsilon": 0.1,
            "analysis_delta": 0.05,
        }
        (op_dir / "config.json").write_text(json.dumps(config))
        return {"dir": op_dir, "config": config}

    def run(self, op: dict) -> dict:
        main = importlib.import_module("safeval.cli").main
        d = op["dir"]
        cfg = str(d / "config.json")
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [main(["joint", "--config", cfg, "--out", str(d / "joint")]),
                     main(["analyze", "--config", cfg, "--out", str(d / "analysis")])]
        report = io.StringIO()
        with contextlib.redirect_stdout(report):
            codes.append(main(["report", "--result", str(d / "joint" / "result.json"), "--format", "md"]))
        return {"codes": codes, "report": report.getvalue()}

    def check(self, op: dict, out: dict) -> list[str]:
        if out["codes"] != [0, 0, 0]:
            return [f"CLI exit codes {out['codes']}"]
        d = op["dir"]
        result_path = d / "joint" / "result.json"
        problems = checks.check_campaign(
            op["config"], result_path, d / "analysis" / "analysis.json", out["report"]
        )
        campaign = importlib.import_module("safeval.campaign")
        copy = d / "result.copy.json"
        campaign.save_result(campaign.load_result(result_path), copy)
        if copy.read_bytes() != result_path.read_bytes():
            problems.append("result.json does not round-trip through load and save")
        return problems

    def fingerprint(self, op: dict, out: dict) -> tuple[bytes, bytes, str]:
        d = op["dir"]
        return ((d / "joint" / "result.json").read_bytes(),
                (d / "analysis" / "analysis.json").read_bytes(), out["report"])

    def cleanup(self, op: dict) -> None:
        shutil.rmtree(op["dir"], ignore_errors=True)


WORKLOADS = ("falsify-braking", "falsify-oscillator-nested", "campaign-braking")


def make_workload(name: str, smoke: bool) -> Any:
    """Build a workload; ``smoke`` shrinks the ops for a quick self-test."""
    if name == "falsify-braking":
        return FalsifyWorkload(name, "braking", "G[0,6](gap > 0)", 192 if smoke else 640,
                               checks.check_braking)
    if name == "falsify-oscillator-nested":
        return FalsifyWorkload(name, "oscillator", "G[0,3](F[0,2](x > -1.9))", 64,
                               checks.check_oscillator)
    if name == "campaign-braking":
        return CampaignWorkload(outer_iterations=1 if smoke else 4,
                                analysis_pairs=10 if smoke else 24)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
