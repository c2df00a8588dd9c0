import copy
import dataclasses
import json
import re

import numpy as np
import pytest

from safeval import sim
from safeval.analysis import sensitivity
from safeval.campaign import CampaignConfig, analysis_summary, sample_tasks
from safeval.cli import main
from safeval.core import split_seed
from safeval.sim import tally
from safeval.stl import parse_spec
from tests.conftest import replace_braking_backend


def read_stripped_events(path):
    return [
        {k: v for k, v in json.loads(line).items() if k != "timestamp"}
        for line in path.read_text().splitlines()
    ]


# A well-formed external simulator whose adapter does not exist: a config
# using it passes validation and fails only when it runs.
GHOST_SIM = {
    "id": "ghost-sim",
    "adapter": "missing-binary",
    "environment": {"lower": [0.0], "upper": [1.0], "names": ["x"]},
    "fidelity_dimension": 1,
    "channels": ["y"],
    "base_dt": 0.1,
    "duration": 2.0,
    "safety_spec": "G[0,2](y > 0)",
}


def tiny_config_file(tmp_path, **overrides):
    base = dict(
        simulator="braking",
        task_count=1,
        params_per_task=2,
        outer_iterations=3,
        master_seed=5,
        falsify_budget=dict(
            max_evaluations=128,
            population=64,
            elite_fraction=0.25,
            stop_tolerance=0.0,
            samples_per_eval=1,
        ),
        budget_policy=dict(base_budget=128, scale=0.0, sigma_threshold=1e-3),
        analysis_pairs=12,
    )
    base.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(base))
    return path


class TestFalsifyCommand:
    def test_writes_result_and_exits_zero(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(
            [
                "falsify",
                "--sim",
                "braking",
                "--budget",
                "256",
                "--seed",
                "1",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        payload = json.loads((out / "falsify.json").read_text())
        assert payload["counterexample_found"] is True
        assert payload["evaluations_used"] <= 256
        assert "counterexample" in capsys.readouterr().out

    def test_deterministic_output_bytes(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert (
                main(
                    ["falsify", "--sim", "braking", "--budget", "128", "--seed", "9", "--out", str(out)]
                )
                == 0
            )
            outs.append((out / "falsify.json").read_bytes())
        assert outs[0] == outs[1]

    def test_require_counterexample_exit_code(self, tmp_path):
        # A spec that always holds on the oscillator: no counterexample.
        code = main(
            [
                "falsify",
                "--sim",
                "oscillator",
                "--spec",
                "G[0,6](x > -999)",
                "--budget",
                "64",
                "--seed",
                "0",
                "--out",
                str(tmp_path / "safe"),
                "--require-counterexample",
            ]
        )
        assert code == 3

    def test_unknown_simulator_is_usage_error(self, tmp_path):
        code = main(
            ["falsify", "--sim", "warpdrive", "--budget", "64", "--out", str(tmp_path)]
        )
        assert code == 1

    def test_bad_flag_is_usage_error(self):
        assert main(["falsify", "--nope"]) == 1

    def test_bad_spec_is_usage_error(self, tmp_path):
        code = main(
            [
                "falsify",
                "--sim",
                "braking",
                "--spec",
                "G[0,(gap>",
                "--budget",
                "64",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 1


class TestTuneFidelityCommand:
    def test_writes_json_and_csv(self, tmp_path):
        out = tmp_path / "tune"
        code = main(
            [
                "tune-fidelity",
                "--sim",
                "braking",
                "--tasks",
                "1",
                "--per-task",
                "2",
                "--iters",
                "4",
                "--seed",
                "2",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        payload = json.loads((out / "fidelity.json").read_text())
        assert len(payload["losses"]) == 4
        lines = (out / "regret.csv").read_text().strip().splitlines()
        assert lines[0].startswith("t,f_0")
        assert len(lines) == 5


class TestJointCommand:
    def test_runs_and_is_deterministic(self, tmp_path):
        cfg = tiny_config_file(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["joint", "--config", str(cfg), "--out", str(out_a)]) == 0
        assert main(["joint", "--config", str(cfg), "--out", str(out_b)]) == 0
        assert (out_a / "result.json").read_bytes() == (out_b / "result.json").read_bytes()
        assert read_stripped_events(out_a / "events.jsonl") == read_stripped_events(
            out_b / "events.jsonl"
        )

    @pytest.mark.parametrize(
        "overrides",
        [
            {"falsify_budget": {"max_evaluations": 128, "wormhole": 1}},
            {"falsify_budget": {"population": 64}},
            {"falsify_budget": {"max_evaluations": "128"}},
            {"falsify_budget": [128]},
            {"beta_schedule": {"delta": 0.1, "wormhole": 1}},
            {"beta_schedule": {"grid_size": 64.0}},
            {"budget_policy": {"scale": "1"}},
            {"task_count": "2"},
            {"counterexample_cap": 2.0},
            {"params_per_task": "2"},
            {"params_per_task": ["2"]},
            {"task_weights": {"task-0": "heavy"}},
            {"task_weights": {"task-7": 2.0}},
            {"convergence_window": 1},
            {"convergence_tol": float("nan")},
            {"analysis_epsilon": float("inf")},
            {"budget_policy": {"scale": float("nan")}},
            {"budget_policy": {"sigma_threshold": float("inf")}},
            {"budget_policy": {"scale": 10**400}},
            {"falsify_budget": {"max_evaluations": 128, "elite_fraction": float("nan")}},
            {"beta_schedule": {"delta": float("nan")}},
            {"simulator": {**GHOST_SIM, "duration": float("inf")}},
            {"safety_spec": 5},
            {"output_dir": 5},
            {"simulator": {**GHOST_SIM, "environment": {}}},
            {"simulator": {**GHOST_SIM, "environment": [0, 1]}},
            {"simulator": {**GHOST_SIM, "environment": {"lower": [0.0], "upper": "1"}}},
            {"simulator": {**GHOST_SIM, "fidelity_dimension": "two"}},
            {"simulator": {**GHOST_SIM, "channels": "gap"}},
            {"simulator": {**GHOST_SIM, "base_dt": "0.1"}},
            {"simulator": {**GHOST_SIM, "adapter": 7}},
            {"simulator": {**GHOST_SIM, "wormhole": 1}},
            {"simulator": [GHOST_SIM]},
        ],
        ids=lambda overrides: json.dumps(overrides),
    )
    def test_malformed_config_is_usage_error(self, tmp_path, capsys, overrides):
        cfg = tiny_config_file(tmp_path, outer_iterations=1, **overrides)
        assert main(["joint", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("command", ["joint", "analyze"])
    def test_unknown_weight_key_fails_before_any_simulation(self, tmp_path, capsys, command):
        cfg = tiny_config_file(tmp_path, task_weights={"task-0": 2.0, "task-7": 2.0})
        out = tmp_path / "out"
        with tally() as counts:
            assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: weights name tasks that do not exist: ['task-7']\n"
        assert not any(counts.values())
        assert not (out / "events.jsonl").exists()
        assert not (out / "result.partial.json").exists()

    @pytest.mark.parametrize("command", ["joint", "analyze"])
    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"analysis_epsilon": 0}, "analysis_epsilon must be > 0"),
            ({"analysis_epsilon": -0.1}, "analysis_epsilon must be > 0"),
            ({"analysis_delta": 0}, "analysis_delta must lie in (0, 2]"),
            ({"analysis_delta": 2.5}, "analysis_delta must lie in (0, 2]"),
            ({"safety_spec": "G[0,7](gap > 0)"},
             "spec horizon 7 s exceeds simulator duration 6 s"),
            ({"task_count": 2**63}, "task_count must lie in [1, 1000000]"),
            ({"params_per_task": 2**63}, "params_per_task must lie in [1, 1000000]"),
            ({"analysis_pairs": 2**63}, "analysis_pairs must lie in [10, 1000000]"),
            ({"beta_schedule": {"grid_size": 2**63}},
             "beta_schedule: grid_size must lie in [1, 1000000]"),
            ({"budget_policy": {"scale": 1e308}}, "budget_policy: scale must lie in [0, 1000000]"),
            ({"budget_policy": {"base_budget": 10**400}},
             "budget_policy: base_budget must lie in [4, 1000000]"),
            ({"falsify_budget": {"max_evaluations": 2**63, "population": 2**63}},
             "falsify_budget: population must lie in [4, 1000000]"),
        ],
        ids=[
            "epsilon-0", "epsilon-negative", "delta-0", "delta-2.5", "horizon", "task-count",
            "params-per-task", "analysis-pairs", "grid-size", "scale", "base-budget", "population",
        ],
    )
    def test_bad_analysis_range_or_horizon_fails_before_any_simulation(
        self, tmp_path, capsys, command, overrides, message
    ):
        cfg = tiny_config_file(tmp_path, **overrides)
        out = tmp_path / "out"
        with tally() as counts:
            assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not any(counts.values())
        assert not (out / "events.jsonl").exists()

    @pytest.mark.parametrize("command", ["joint", "analyze"])
    @pytest.mark.parametrize(
        "overrides",
        [{"analysis_epsilon": 1e-8}, {"analysis_epsilon": 1e-170}, {"analysis_delta": 1e-320}],
        ids=["epsilon-1e-8", "epsilon-1e-170", "delta-1e-320"],
    )
    def test_epsilon_or_delta_without_a_64_bit_plan_fails_after_the_estimates(
        self, tmp_path, capsys, command, overrides
    ):
        # The plan's size depends on the measured Lipschitz constants, so the
        # estimates run first; the error names epsilon, delta and the constant.
        cfg = tiny_config_file(tmp_path, outer_iterations=1, **overrides)
        with tally() as counts:
            assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        epsilon = overrides.get("analysis_epsilon", 0.1)
        delta = overrides.get("analysis_delta", 0.05)
        assert re.fullmatch(
            rf"error: the sample plan for epsilon {epsilon!r}, delta {delta!r} and Lipschitz "
            r"constant \S+ needs more than 2\*\*63 - 1 samples\n",
            capsys.readouterr().err,
        )
        assert counts["low_calls"] + counts["high_calls"] > 0

    @pytest.mark.parametrize("weight", [float("nan"), float("inf"), -1, 10**400, 1e308, 1e6 * 1.5])
    def test_bad_weight_value_fails_before_any_simulation(self, tmp_path, capsys, weight):
        cfg = tiny_config_file(tmp_path, task_weights={"task-0": weight})
        out = tmp_path / "out"
        with tally() as counts:
            assert main(["joint", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: task_weights must map task ids to numbers from 0 to 1e+06\n"
        )
        assert not any(counts.values())
        assert not out.exists()

    def test_missing_config_file(self, tmp_path):
        assert main(["joint", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 1

    def test_runtime_failure_exit_code(self, tmp_path):
        # A structurally valid config whose external adapter cannot execute
        # fails at runtime, not at argument validation.
        config = {
            "simulator": {**GHOST_SIM, "adapter": str(tmp_path / "missing-binary")},
            "task_count": 1,
            "params_per_task": 1,
            "outer_iterations": 1,
            "master_seed": 0,
        }
        cfg = tmp_path / "ghost.json"
        cfg.write_text(json.dumps(config))
        assert main(["joint", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2


class TestAnalyzeCommand:
    def test_writes_analysis_json(self, tmp_path):
        cfg = tiny_config_file(tmp_path)
        out = tmp_path / "analysis"
        assert main(["analyze", "--config", str(cfg), "--out", str(out)]) == 0
        payload = json.loads((out / "analysis.json").read_text())
        assert payload["lipschitz_env"]["constant"] > 0
        assert payload["sample_plan"]["total_samples"] == (
            payload["sample_plan"]["n_per_iteration"] * 128 * 3
        )

    def test_deterministic(self, tmp_path):
        cfg = tiny_config_file(tmp_path)
        blobs = []
        for name in ("x", "y"):
            out = tmp_path / name
            assert main(["analyze", "--config", str(cfg), "--out", str(out)]) == 0
            blobs.append((out / "analysis.json").read_bytes())
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize("command", ["analyze", "joint"])
    def test_external_simulator_without_a_spec_is_usage_error(self, tmp_path, capsys, command):
        # Both commands take a config's inputs the same way and refuse alike.
        ghost = {k: v for k, v in GHOST_SIM.items() if k != "safety_spec"}
        cfg = tiny_config_file(tmp_path, simulator=ghost)
        with tally() as counts:
            assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            "error: simulator 'ghost-sim' has no safety spec of record; set safety_spec\n"
        )
        assert not any(counts.values())


ACCEPTANCE_09 = dict(
    simulator="braking",
    task_count=2,
    params_per_task=3,
    outer_iterations=20,
    master_seed=2024,
    falsify_budget=dict(max_evaluations=192, population=64, stop_tolerance=0.0, samples_per_eval=1),
    budget_policy=dict(base_budget=192, scale=0.0),
    analysis_pairs=24,
)


class DivergeLowRows:
    """Braking, with the samples of every low-fidelity row whose ``diverges`` flag is set made NaN."""

    def __init__(self, inner, diverges):
        self.inner, self.diverges = inner, diverges

    def run(self, spec, e_values, f_rows, seeds, high, n_samples):
        samples, steps = self.inner.run(spec, e_values, f_rows, seeds, high, n_samples)
        samples[~high & self.diverges(f_rows)] = np.nan
        return samples, steps


class TestAnalyzeCalls:
    def test_stencil_rides_in_the_estimates_call(self, tmp_path, monkeypatch):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(ACCEPTANCE_09))
        calls = []
        real = sim._simulate

        def counting(spec, e_values, f_rows, seeds, high, n_samples=None):
            calls.append(len(seeds))
            return real(spec, e_values, f_rows, seeds, high, n_samples)

        monkeypatch.setattr(sim, "_simulate", counting)
        assert main(["analyze", "--config", str(cfg), "--out", str(tmp_path / "ana")]) == 0
        # Three generations of the sensitivity search, then one call: 144
        # Lipschitz rows (48 each) and the 6 stencil rows 3 times over.
        assert calls == [64, 64, 64, 3 * 48 + 6 * 3]
        monkeypatch.undo()

        # The same bytes as the estimates and the sensitivity run apart.
        config = CampaignConfig.from_dict(ACCEPTANCE_09)
        spec = sim.get_benchmark("braking")
        phi = parse_spec(spec.safety_spec)
        tasks = sample_tasks(spec, 2, 3, 2024)
        f_max = spec.fidelity_space.max_fidelity()
        lo, hi = spec.environment_space.lower_array(), spec.environment_space.upper_array()
        center = spec.environment_space.config((lo + hi) / 2.0)
        sens = sensitivity(
            spec, phi, f_max, 1e-3, config.falsify_budget, split_seed(2024, "sens"), repeats=3
        )
        expected = {
            "simulator": "braking",
            "safety_spec": spec.safety_spec,
            "master_seed": 2024,
            "sensitivity": dataclasses.asdict(sens),
            **{
                key: dataclasses.asdict(record)
                for key, record in analysis_summary(
                    spec, phi, tasks, config, f_max, center, K1=192
                ).items()
            },
        }
        text = (tmp_path / "ana" / "analysis.json").read_text()
        assert text == json.dumps(expected, sort_keys=True, indent=2) + "\n"

    def test_sensitivity_search_fails_before_the_estimates(self, tmp_path, monkeypatch, capsys):
        # Every low-fidelity row diverges, so the search and the estimates
        # would both fail; the search runs first and its error is reported.
        replace_braking_backend(
            monkeypatch, lambda real: DivergeLowRows(real, lambda f: np.ones(len(f), bool))
        )
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(ACCEPTANCE_09))
        assert main(["analyze", "--config", str(cfg), "--out", str(tmp_path / "ana")]) == 2
        assert "runtime failure: FalsificationFailedError" in capsys.readouterr().err
        assert not (tmp_path / "ana" / "analysis.json").exists()

    def test_estimate_errors_come_before_the_stencil_error(self, tmp_path, monkeypatch, capsys):
        # Rows below full fidelity diverge: the search at full fidelity
        # succeeds, then the fidelity estimate's rows and the stencil's both
        # diverge in the one call. The estimates reduce first, so the error
        # names the estimate's probe point, not the counterexample.
        replace_braking_backend(
            monkeypatch, lambda real: DivergeLowRows(real, lambda f: (f < 1.0).any(axis=1))
        )
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(ACCEPTANCE_09))
        assert main(["analyze", "--config", str(cfg), "--out", str(tmp_path / "ana")]) == 2
        assert capsys.readouterr().err == (
            "runtime failure: SimulationDivergedError: "
            "simulation diverged during estimation at e=[52.5, 22.5, 5.0]\n"
        )


class TestReportCommand:
    @pytest.fixture()
    def result_file(self, tmp_path):
        cfg = tiny_config_file(tmp_path)
        out = tmp_path / "camp"
        assert main(["joint", "--config", str(cfg), "--out", str(out)]) == 0
        return out / "result.json"

    def test_markdown_to_stdout(self, result_file, capsys):
        assert main(["report", "--result", str(result_file), "--format", "md"]) == 0
        text = capsys.readouterr().out
        assert "# Campaign report" in text
        assert "## Iterations" in text

    def test_csv_bundle_written(self, result_file, tmp_path, capsys):
        out = tmp_path / "csv"
        assert main(
            ["report", "--result", str(result_file), "--format", "csv", "--out", str(out)]
        ) == 0
        assert (out / "regret.csv").exists()
        assert (out / "inner_traces.csv").exists()

    def test_missing_result_is_usage_error(self, tmp_path):
        assert main(["report", "--result", str(tmp_path / "ghost.json")]) == 1


@pytest.fixture(scope="module")
def campaign_result_document(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("campaign")
    out = tmp_path / "camp"
    assert main(["joint", "--config", str(tiny_config_file(tmp_path)), "--out", str(out)]) == 0
    return json.loads((out / "result.json").read_text())


# A document given as (EDITED, fields) is a real campaign result with those fields
# replaced; a dotted name such as "iterations.0.loss" names a field inside it, and
# the error message must give that record's position, "iterations[0]".
EDITED = "campaign result with"
# Path arguments: a directory, a file that is not UTF-8, an existing regular
# file, and a valid campaign config.
DIRECTORY, NOT_UTF8, REGULAR_FILE, CONFIG = "<dir>", "<not-utf8>", "<file>", "<config>"
FALSIFY = ["falsify", "--sim", "braking", "--budget", "64"]


@pytest.mark.parametrize(
    "argv, document",
    [
        (["falsify", "--sim", "braking", "--budget", "64", "--fidelity", "a,b,c"], None),
        (["falsify", "--sim", "braking", "--budget", "64", "--fidelity", "0.5,,0.5"], None),
        (["falsify", "--sim", "braking", "--budget", "64", "--fidelity", "0.5,0.5"], None),
        (["report"], [1, 2]),
        (["report"], {"schema_version": 1}),
        (["report"], "result"),
        (["report"], (EDITED, {"iterations": 3})),
        (["report"], (EDITED, {"iterations": [{}]})),
        (["report"], (EDITED, {"counterexamples": [{}]})),
        (["report"], (EDITED, {"iterations.0.fidelity": 5})),
        (["report"], (EDITED, {"iterations.0.loss": "x"})),
        (["report"], (EDITED, {"iterations.0.inner_trace": None})),
        (["report"], (EDITED, {"counterexamples.0.values": 3})),
        (["report"], (EDITED, {"best_fidelity": 3})),
        (["report"], (EDITED, {"best_loss": "x"})),
        (["report"], (EDITED, {"totals": [1]})),
        (["report"], (EDITED, {"analysis": {}})),
        (["report"], (EDITED, {"analysis.probe_config": "abc"})),
        (["report"], (EDITED, {"analysis.wormhole": 1})),
        (["report"], (EDITED, {"config.simulator": "x"})),
        (["report"], (EDITED, {"best_fidelity": []})),
        (["report"], (EDITED, {"convergence.outer": "zzz"})),
        (["joint", "--config", DIRECTORY], None),
        (["joint", "--config", NOT_UTF8], None),
        (["analyze", "--config", DIRECTORY], None),
        (["analyze", "--config", NOT_UTF8], None),
        (["report", "--result", DIRECTORY], None),
        (["report", "--result", NOT_UTF8], None),
        ([*FALSIFY, "--out", REGULAR_FILE], None),
        ([*FALSIFY, "--out", f"{REGULAR_FILE}/sub"], None),
        (["joint", "--config", CONFIG, "--out", REGULAR_FILE], None),
        (["analyze", "--config", CONFIG, "--out", REGULAR_FILE], None),
        (["report", "--format", "csv", "--out", REGULAR_FILE], (EDITED, {})),
        ([*FALSIFY, "--spec", "G[0,6](gap > \u00b2)"], None),
    ],
    ids=lambda value: json.dumps(value),
)
def test_malformed_input_is_usage_error(tmp_path, capsys, request, argv, document):
    positions = []
    if isinstance(document, tuple):
        edits = document[1]
        document = copy.deepcopy(request.getfixturevalue("campaign_result_document"))
        for name, value in edits.items():
            *parents, last = name.split(".")
            target = document
            for key in parents:
                target = target[int(key) if isinstance(target, list) else key]
            target[last] = value
            if parents:
                positions.append(parents[0] + "".join(f"[{key}]" for key in parents[1:]))
    (tmp_path / "not-utf8.json").write_bytes(b'{"simulator": "\xff"}')
    (tmp_path / "file").write_text("")
    paths = {
        DIRECTORY: tmp_path,
        NOT_UTF8: tmp_path / "not-utf8.json",
        REGULAR_FILE: tmp_path / "file",
        CONFIG: tiny_config_file(tmp_path),
    }
    for key, path in paths.items():
        argv = [arg.replace(key, str(path)) for arg in argv]
    if document is not None:
        path = tmp_path / "result.json"
        path.write_text(json.dumps(document))
        argv = argv + ["--result", str(path)]
    elif "--out" not in argv:
        argv = argv + ["--out", str(tmp_path / "out")]
    with tally() as counts:
        assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert all(position in err for position in positions), err
    assert not any(counts.values())


@pytest.mark.parametrize(
    "argv, reason",
    [
        (["falsify", "--sim", "braking", "--out", "o"],
         "the following arguments are required: --budget"),
        (["tune-fidelity", "--sim", "braking", "--tasks", "two", "--per-task", "1",
          "--iters", "1", "--out", "o"],
         "argument --tasks: invalid int value: 'two'"),
        (["report", "--result", "r.json", "--format", "pdf"],
         "argument --format: invalid choice: 'pdf' (choose from 'md', 'markdown', 'csv')"),
    ],
)
def test_usage_error_says_what_is_wrong(capsys, argv, reason):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage: safeval {argv[0]} ")
    assert err.endswith(f"\nerror: {reason}\n")
