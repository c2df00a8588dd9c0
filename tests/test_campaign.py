import json
import math
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safeval.campaign import (
    AdaptiveBudgetPolicy,
    CampaignConfig,
    load_result,
    report,
    resolve_simulator,
    run_joint,
    sample_tasks,
    save_result,
)
from safeval.core import (
    InvalidArgumentError,
    SchemaVersionError,
    SimulationDivergedError,
    latin_hypercube_unit,
    split_seed,
)
from safeval.falsify import FalsificationFailedError, FalsifyBudget
from tests.conftest import replace_braking_backend


class LowRowsDivergeAt:
    """A backend whose low-fidelity rows at the given environment points diverge."""

    def __init__(self, inner, points):
        self.inner, self.points = inner, {tuple(p) for p in points}

    def run(self, spec, e_values, f_rows, seeds, high, n_samples):
        samples, steps = self.inner.run(spec, e_values, f_rows, seeds, high, n_samples)
        samples[~high & [tuple(e) in self.points for e in e_values]] = np.nan
        return samples, steps


def tiny_config(**overrides):
    base = dict(
        simulator="braking",
        task_count=2,
        params_per_task=2,
        outer_iterations=4,
        master_seed=17,
        falsify_budget=FalsifyBudget(max_evaluations=128, population=64),
        budget_policy=AdaptiveBudgetPolicy(base_budget=128, scale=0.5),
        analysis_pairs=12,
    )
    base.update(overrides)
    return CampaignConfig(**base)


@pytest.fixture(scope="module")
def tiny_result(tmp_path_factory):
    out = tmp_path_factory.mktemp("campaign")
    cfg = tiny_config()
    return run_joint(cfg, output_dir=out), out, cfg


@pytest.fixture()
def event_logs(monkeypatch):
    """Every event log that a campaign opens during the test, to check that it was closed."""
    import safeval.campaign as campaign_mod

    logs = []

    class RecordedLog(campaign_mod._EventLog):
        def __init__(self, path):
            super().__init__(path)
            logs.append(self)

    monkeypatch.setattr(campaign_mod, "_EventLog", RecordedLog)
    return logs


def read_events(out):
    return [json.loads(line) for line in (out / "events.jsonl").read_text().splitlines()]


def assert_partial_holds_every_iteration(out, events):
    partial = json.loads((out / "result.partial.json").read_text())
    assert partial["completed"] is False
    assert partial["iterations"] == [
        {k: v for k, v in e.items() if k not in ("event", "timestamp")}
        for e in events if e["event"] == "iteration"
    ]


class TestBudgetPolicy:
    @given(
        sigma=st.floats(0.0, 5.0),
        bump=st.floats(0.0, 2.0),
        ref=st.floats(0.01, 5.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_nondecreasing_in_sigma(self, sigma, bump, ref):
        policy = AdaptiveBudgetPolicy(base_budget=100, scale=1.5)
        low = policy.budget_at(sigma, ref, minimum=4)
        high = policy.budget_at(sigma + bump, ref, minimum=4)
        assert high >= low

    def test_respects_minimum(self):
        policy = AdaptiveBudgetPolicy(base_budget=4, scale=0.0)
        assert policy.budget_at(0.0, 1.0, minimum=64) == 64

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            AdaptiveBudgetPolicy(base_budget=0)
        with pytest.raises(InvalidArgumentError):
            AdaptiveBudgetPolicy(scale=-1.0)


class TestConfig:
    def test_round_trip(self):
        cfg = tiny_config()
        again = CampaignConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_task_weights_round_trip(self):
        cfg = tiny_config(task_weights={"task-0": 2.0, "task-1": 0.5})
        again = CampaignConfig.from_dict(cfg.to_dict())
        assert again.task_weights == {"task-0": 2.0, "task-1": 0.5}

    def test_unknown_field_rejected(self):
        data = tiny_config().to_dict()
        data["wormhole"] = True
        with pytest.raises(InvalidArgumentError):
            CampaignConfig.from_dict(data)

    def test_analysis_ranges_include_their_closed_ends(self):
        # The ranges are hoeffding_n's: delta = 2 is allowed, epsilon has no upper end.
        cfg = tiny_config(analysis_epsilon=1e9, analysis_delta=2.0)
        assert (cfg.analysis_epsilon, cfg.analysis_delta) == (1e9, 2.0)

    def test_from_json_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(tiny_config().to_dict()))
        cfg = CampaignConfig.from_json_file(path)
        assert cfg == tiny_config()

    def test_bad_json_reports_offset(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"simulator": "braking", ')
        with pytest.raises(InvalidArgumentError) as err:
            CampaignConfig.from_json_file(path)
        assert "byte offset" in str(err.value)

    def test_resolve_builtin(self):
        assert resolve_simulator("braking").id == "braking"
        with pytest.raises(InvalidArgumentError):
            resolve_simulator("warpdrive")


class TestSampleTasks:
    def test_counts_and_determinism(self, braking):
        tasks = sample_tasks(braking, 3, 4, seed=5)
        assert [t.id for t in tasks] == ["task-0", "task-1", "task-2"]
        assert all(len(t.sampled_params) == 4 for t in tasks)
        again = sample_tasks(braking, 3, 4, seed=5)
        assert tasks == again

    def test_per_task_counts(self, braking):
        tasks = sample_tasks(braking, 3, (1, 2, 5), seed=5)
        assert [len(t.sampled_params) for t in tasks] == [1, 2, 5]
        with pytest.raises(InvalidArgumentError):
            sample_tasks(braking, 2, (1, 2, 3), seed=5)

    def test_config_accepts_per_task_list(self):
        cfg = tiny_config(task_count=2, params_per_task=[1, 3])
        assert cfg.params_per_task == (1, 3)
        assert CampaignConfig.from_dict(cfg.to_dict()) == cfg
        with pytest.raises(InvalidArgumentError):
            tiny_config(task_count=2, params_per_task=[1, 2, 3])


class TestRunJoint:
    def test_record_count_and_invariants(self, tiny_result):
        result, out, cfg = tiny_result
        assert len(result.iterations) == cfg.outer_iterations
        cums = [r.cumulative_regret for r in result.iterations]
        assert all(b >= a - 1e-12 for a, b in zip(cums, cums[1:]))
        assert all(r.regret >= -1e-12 for r in result.iterations)
        assert result.best_loss == min(r.loss for r in result.iterations)
        assert result.regret_reference_is_proxy

    def test_call_conservation(self, tiny_result):
        result, _, _ = tiny_result
        t = result.totals
        assert t["high_calls"] == (
            t["setup_high_calls"] + t["loss_high_calls"] + t["analysis_high_calls"]
        )
        assert t["low_calls"] == (
            t["inner_low_calls"] + t["loss_low_calls"] + t["analysis_low_calls"]
        )
        assert t["inner_low_calls"] == sum(r.inner_sim_calls for r in result.iterations)
        assert t["loss_high_calls"] + t["loss_low_calls"] == sum(
            r.high_calls + r.low_calls - r.inner_sim_calls for r in result.iterations
        )

    def test_counterexample_set_grows_monotonically(self, tiny_result):
        result, _, _ = tiny_result
        found_at = [c.found_at for c in result.counterexamples]
        assert found_at == sorted(found_at)
        seen = 0
        for rec in result.iterations:
            if rec.counterexample_found:
                seen += 1
        assert len(result.counterexamples) == seen

    def test_adaptive_budget_floor(self, tiny_result):
        result, _, cfg = tiny_result
        for rec in result.iterations:
            assert rec.inner_budget >= cfg.falsify_budget.population
            assert rec.inner_evaluations <= rec.inner_budget

    def test_files_written(self, tiny_result):
        _, out, _ = tiny_result
        assert (out / "result.json").exists()
        assert (out / "events.jsonl").exists()
        events = [json.loads(line) for line in (out / "events.jsonl").read_text().splitlines()]
        kinds = [e["event"] for e in events]
        assert kinds[0] == "start"
        assert kinds[-1] == "finish"
        assert all("timestamp" in e for e in events)

    def test_partial_results_flushed_on_unrecoverable_error(
        self, tmp_path, monkeypatch, event_logs
    ):
        import safeval.campaign as campaign_mod

        real_falsify = campaign_mod.falsify
        calls = {"n": 0}

        def exploding(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 2:
                raise RuntimeError("synthetic hard failure")
            return real_falsify(*args, **kwargs)

        monkeypatch.setattr(campaign_mod, "falsify", exploding)
        with pytest.raises(RuntimeError):
            run_joint(tiny_config(), output_dir=tmp_path)
        events = read_events(tmp_path)
        assert [e["event"] for e in events] == ["start", "iteration", "error"]
        assert events[-1]["message"] == "RuntimeError: synthetic hard failure"
        assert_partial_holds_every_iteration(tmp_path, events)
        assert [log._fh for log in event_logs] == [None]

    def test_analysis_failure_leaves_every_iteration_and_a_closed_log(
        self, tmp_path, monkeypatch, event_logs
    ):
        # Searches of 64 rows and losses of at most 6 leave the analysis call
        # (144 rows at 24 pairs) as the only one over 100 rows.
        class LargeCallsDiverge:
            def __init__(self, inner):
                self.inner = inner

            def run(self, spec, e_values, f_rows, seeds, high, n_samples):
                samples, steps = self.inner.run(spec, e_values, f_rows, seeds, high, n_samples)
                if len(seeds) > 100:
                    samples[:] = np.nan
                return samples, steps

        replace_braking_backend(monkeypatch, LargeCallsDiverge)
        config = tiny_config(
            outer_iterations=2,
            falsify_budget=FalsifyBudget(max_evaluations=64, population=64),
            budget_policy=AdaptiveBudgetPolicy(base_budget=64, scale=0.0),
            analysis_pairs=24,
        )
        with pytest.raises(SimulationDivergedError, match="during estimation"):
            run_joint(config, output_dir=tmp_path)
        events = read_events(tmp_path)
        assert [e["event"] for e in events] == ["start", "iteration", "iteration", "error"]
        assert events[-1]["message"].startswith("SimulationDivergedError: ")
        assert_partial_holds_every_iteration(tmp_path, events)
        assert [log._fh for log in event_logs] == [None]

    def test_unwritable_result_leaves_every_iteration_and_a_closed_log(self, tmp_path, event_logs):
        (tmp_path / "result.json").mkdir()
        with pytest.raises(IsADirectoryError):
            run_joint(tiny_config(outer_iterations=2), output_dir=tmp_path)
        events = read_events(tmp_path)
        assert [e["event"] for e in events] == ["start", "iteration", "iteration", "error"]
        assert events[-1]["message"].startswith("IsADirectoryError: ")
        assert_partial_holds_every_iteration(tmp_path, events)
        assert [log._fh for log in event_logs] == [None]

    def test_failed_search_books_the_paired_rows(self, monkeypatch):
        # Every row of iteration 1's exploration generation 4 diverges. That
        # generation shares its simulator call with CEM generation 5, so the
        # iteration books 6 x 32 inner rows, where a call per generation would
        # have stopped at 5 x 32.
        config = tiny_config(
            task_count=1,
            outer_iterations=1,
            falsify_budget=FalsifyBudget(max_evaluations=192, population=32),
            budget_policy=AdaptiveBudgetPolicy(base_budget=192, scale=0.0),
        )
        space = resolve_simulator("braking").environment_space
        lo, hi = space.lower_array(), space.upper_array()
        seed = split_seed(config.master_seed, "falsify", 1)
        points = lo + latin_hypercube_unit(3, 32, split_seed(seed, "lhs", 4)) * (hi - lo)
        replace_braking_backend(monkeypatch, lambda real: LowRowsDivergeAt(real, points))
        (record,) = run_joint(config).iterations
        assert record.falsification_failed
        assert record.inner_sim_calls == 6 * 32

    def test_every_loss_failing_raises_and_logs_the_error(
        self, tmp_path, monkeypatch, event_logs, caplog
    ):
        # Every low-fidelity row diverges: each search fails and each loss is
        # +inf, so no iteration has a loss to pick the best fidelity from.
        class LowRowsDiverge:
            def __init__(self, inner):
                self.inner = inner

            def run(self, spec, e_values, f_rows, seeds, high, n_samples):
                samples, steps = self.inner.run(spec, e_values, f_rows, seeds, high, n_samples)
                samples[~high] = np.nan
                return samples, steps

        replace_braking_backend(monkeypatch, LowRowsDiverge)
        with pytest.raises(FalsificationFailedError, match="^every outer loss evaluation failed$"):
            run_joint(tiny_config(outer_iterations=2), output_dir=tmp_path)
        events = read_events(tmp_path)
        kinds = [e["event"] for e in events]
        assert kinds == ["start"] + ["loss_failure", "iteration"] * 2 + ["error"]
        assert all(e["falsification_failed"] and e["loss"] == float("inf")
                   for e in events if e["event"] == "iteration")
        assert events[-1]["message"] == (
            "FalsificationFailedError: every outer loss evaluation failed"
        )
        assert not (tmp_path / "result.json").exists()
        assert_partial_holds_every_iteration(tmp_path, events)
        assert [log._fh for log in event_logs] == [None]
        # Each failed point is logged with its coordinates as plain numbers.
        failed = [r.getMessage() for r in caplog.records if "failed; excluded" in r.getMessage()]
        assert len(failed) == 2
        assert not any("np.float64" in message for message in failed)

    def test_deterministic_result_bytes(self, tiny_result, tmp_path):
        result, out, cfg = tiny_result
        rerun = run_joint(cfg, output_dir=tmp_path)
        assert (tmp_path / "result.json").read_bytes() == (out / "result.json").read_bytes()
        # events differ only in their timestamp fields
        strip = lambda p: [
            {k: v for k, v in json.loads(line).items() if k != "timestamp"}
            for line in p.read_text().splitlines()
        ]
        assert strip(tmp_path / "events.jsonl") == strip(out / "events.jsonl")

    def test_interleaved_campaigns_report_their_own_calls(self, monkeypatch):
        # Two campaigns in two threads take turns at a barrier before every
        # simulator call, so their calls interleave. Each counts only its own.
        config = tiny_config(outer_iterations=3)
        solo = run_joint(config)
        barrier = threading.Barrier(2, timeout=60)

        class TakingTurns:
            def __init__(self, inner):
                self.inner = inner

            def run(self, spec, e_values, f_rows, seeds, high, n_samples):
                barrier.wait()
                return self.inner.run(spec, e_values, f_rows, seeds, high, n_samples)

        replace_braking_backend(monkeypatch, TakingTurns)
        with ThreadPoolExecutor(max_workers=2) as pool:
            runs = [pool.submit(run_joint, config) for _ in range(2)]
            results = [run.result(timeout=120) for run in runs]
        counts = lambda r: [(i.inner_sim_calls, i.high_calls, i.low_calls) for i in r.iterations]
        for result in results:
            assert result.totals == solo.totals
            assert counts(result) == counts(solo)
            assert result == solo


class TestPersistence:
    def test_round_trip(self, tiny_result, tmp_path):
        result, _, _ = tiny_result
        path = tmp_path / "copy.json"
        save_result(result, path)
        loaded = load_result(path)
        assert loaded == result
        save_result(loaded, tmp_path / "copy2.json")
        assert (tmp_path / "copy.json").read_bytes() == (tmp_path / "copy2.json").read_bytes()

    def test_round_trip_of_a_failed_loss(self, tmp_path, monkeypatch):
        # A failed loss is written as Infinity in four fields of its iteration,
        # the only numbers a result may hold that are not finite.
        import safeval.campaign as campaign_mod

        real_loss = campaign_mod.aggregate_loss
        calls = {"n": 0}

        def failing_first(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise SimulationDivergedError("synthetic divergence")
            return real_loss(*args, **kwargs)

        monkeypatch.setattr(campaign_mod, "aggregate_loss", failing_first)
        result = run_joint(tiny_config(outer_iterations=3), output_dir=tmp_path)
        first = result.iterations[0]
        failed = [first.loss, first.loss_mean, first.regret, first.cumulative_regret]
        assert failed == [math.inf] * 4
        assert '"loss": Infinity' in (tmp_path / "result.json").read_text()
        loaded = load_result(tmp_path / "result.json")
        assert loaded == result
        save_result(loaded, tmp_path / "copy.json")
        assert (tmp_path / "copy.json").read_bytes() == (tmp_path / "result.json").read_bytes()
        md = report(loaded, "markdown")
        assert "| 1 | (" in md and "| inf |" in md
        regret_rows = report(loaded, "csv")["regret.csv"].splitlines()
        assert regret_rows[1].endswith(",inf,inf,inf")

    def test_truncated_file_reports_offset(self, tiny_result, tmp_path):
        result, out, _ = tiny_result
        raw = (out / "result.json").read_text()
        path = tmp_path / "truncated.json"
        path.write_text(raw[: len(raw) // 2])
        with pytest.raises(InvalidArgumentError) as err:
            load_result(path)
        assert "byte offset" in str(err.value)

    def test_unknown_field_rejected_with_guidance(self, tiny_result, tmp_path):
        result, out, _ = tiny_result
        data = json.loads((out / "result.json").read_text())
        data["from_the_future"] = 1
        path = tmp_path / "next.json"
        path.write_text(json.dumps(data))
        with pytest.raises(SchemaVersionError) as err:
            load_result(path)
        assert "newer schema" in str(err.value)

    def test_wrong_version_rejected(self, tiny_result, tmp_path):
        result, out, _ = tiny_result
        data = json.loads((out / "result.json").read_text())
        data["schema_version"] = 99
        path = tmp_path / "v99.json"
        path.write_text(json.dumps(data))
        with pytest.raises(SchemaVersionError):
            load_result(path)


class TestReport:
    def test_markdown_iteration_rows(self, tiny_result):
        result, _, cfg = tiny_result
        md = report(result, "markdown")
        section = md.split("## Iterations")[1].split("##")[0]
        rows = [
            line
            for line in section.splitlines()
            if line.startswith("| ") and line.split("|")[1].strip().isdigit()
        ]
        assert len(rows) == cfg.outer_iterations

    def test_csv_regret_nondecreasing(self, tiny_result):
        result, _, _ = tiny_result
        csvs = report(result, "csv")
        lines = csvs["regret.csv"].strip().splitlines()
        header = lines[0].split(",")
        r_index = header.index("R_T")
        values = [float(line.split(",")[r_index]) for line in lines[1:]]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_csv_matches_json_totals(self, tiny_result):
        result, _, _ = tiny_result
        csvs = report(result, "csv")
        lines = csvs["regret.csv"].strip().splitlines()
        header = lines[0].split(",")
        loss_idx = header.index("loss")
        csv_losses = [float(line.split(",")[loss_idx]) for line in lines[1:]]
        assert csv_losses == [r.loss for r in result.iterations]
        assert float(lines[-1].split(",")[header.index("R_T")]) == pytest.approx(
            result.iterations[-1].cumulative_regret
        )
        inner = csvs["inner_traces.csv"].strip().splitlines()[1:]
        assert len(inner) == sum(len(r.inner_trace) for r in result.iterations)

    def test_unknown_format(self, tiny_result):
        result, _, _ = tiny_result
        with pytest.raises(InvalidArgumentError):
            report(result, "pdf")


@pytest.mark.parametrize("master_seed", [2024, 7])
def test_counterexample_high_runs_simulated_once_across_evictions(master_seed):
    # A thin failure region and a small cap: counterexamples are evicted, so
    # the survivors change places in the extras list between iterations.
    config = CampaignConfig(
        simulator="braking",
        task_count=2,
        params_per_task=3,
        outer_iterations=20,
        master_seed=master_seed,
        safety_spec="G[0,6](gap > -20)",
        counterexample_cap=3,
        falsify_budget=FalsifyBudget(
            max_evaluations=192, population=64, stop_tolerance=0.0, samples_per_eval=1
        ),
        budget_policy=AdaptiveBudgetPolicy(base_budget=192, scale=0.0),
        analysis_pairs=10,
    )
    result = run_joint(config)
    assert sum(r.counterexample_found for r in result.iterations) > config.counterexample_cap
    kept: list[tuple[tuple[float, ...], float]] = []
    scored: set[tuple[float, ...]] = set()
    for rec in result.iterations:
        if rec.counterexample_found:
            kept.append((rec.e_star, rec.rho_star))
            if len(kept) > config.counterexample_cap:
                kept.pop(max(range(len(kept)), key=lambda i: kept[i][1]))
        new = {values for values, _ in kept} - scored
        assert rec.high_calls == len(new), f"t={rec.t}"
        if math.isfinite(rec.loss):
            scored |= new
    assert [c.values for c in result.counterexamples] == [values for values, _ in kept]


def test_eviction_keeps_the_latest_of_equal_counterexamples(monkeypatch):
    # Every row's gap is -1, so every search finds rho = -1 and each eviction
    # is a tie between the kept counterexample and the new one.
    class GapAlwaysNegative:
        def __init__(self, inner):
            self.inner = inner

        def run(self, spec, e_values, f_rows, seeds, high, n_samples):
            samples, steps = self.inner.run(spec, e_values, f_rows, seeds, high, n_samples)
            samples[:, spec.channels.index("gap")] = -1.0
            return samples, steps

    replace_braking_backend(monkeypatch, GapAlwaysNegative)
    result = run_joint(tiny_config(outer_iterations=3, counterexample_cap=1))
    assert [r.rho_star for r in result.iterations] == [-1.0] * 3
    assert [c.found_at for c in result.counterexamples] == [3]
