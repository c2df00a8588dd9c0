"""Per-layer spans recorded from outside the program.

The traced run replaces the names each caller module looks up (for
example ``simulate_batch`` as bound in ``safeval.falsify``, or
``aggregate_loss`` as bound in ``safeval.campaign``) with wrappers that
record a span: name, layer, start, end and parent. Spans stay in memory and
are written out when the run ends. A span's self time is its duration minus
the durations of its direct children; the op's own root span collects what
no layer claims (``bench.unattributed_s``).

Modules are resolved with :func:`importlib.import_module`, because the
package re-exports some functions under their submodule's name
(``safeval.falsify`` as an attribute is the function, not the module). A
wrap point that no longer exists is reported as absent, and every metric of
its layer reads ``None``, rather than failing the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator


def _arg(args: tuple, kwargs: dict, index: int, name: str) -> Any:
    return args[index] if len(args) > index else kwargs.get(name)


def _sim_batch_attrs(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"rows": len(result[1]), "high": _arg(args, kwargs, 2, "f") is None}


def _sim_multi_attrs(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"rows": len(result[1]), "high": False}


def _falsify_attrs(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"generations": result.iterations}


def _loss_attrs(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"pairs": result.pair_count}


def _campaign_attrs(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"loss_failures": sum(1 for r in result.iterations if r.loss == float("inf"))}


# (layer, module, attribute or Class.method, attribute extractor)
WRAP_POINTS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("sim", "safeval.sim", "simulate_batch", _sim_batch_attrs),
    ("sim", "safeval.sim", "simulate_batch_multi_f", _sim_multi_attrs),
    ("sim", "safeval.sim", "simulate_high", None),
    ("sim", "safeval.sim", "simulate_low", None),
    ("stl", "safeval.stl", "robustness", None),
    ("falsify", "safeval.falsify", "falsify", _falsify_attrs),
    ("loss", "safeval.loss", "aggregate_loss", _loss_attrs),
    ("loss", "safeval.loss", "mse_loss", None),
    ("analysis", "safeval.analysis", "estimate_lipschitz_env", None),
    ("analysis", "safeval.analysis", "estimate_lipschitz_fidelity", None),
    ("analysis", "safeval.analysis", "estimate_lipschitz_loss", None),
    ("analysis", "safeval.analysis", "sensitivity", None),
    ("analysis", "safeval.analysis", "sample_complexity_plan", None),
    ("analysis", "safeval.analysis", "convergence_report", None),
    ("bo", "safeval.bo", "UcbMinimizer.suggest", None),
    ("bo", "safeval.bo", "UcbMinimizer.posterior", None),
    ("bo", "safeval.bo", "gp_posterior", None),
    ("bo", "safeval.bo", "gp_posterior_many", None),
    ("campaign", "safeval.campaign", "run_joint", _campaign_attrs),
    ("campaign", "safeval.campaign", "sample_tasks", None),
    ("campaign", "safeval.campaign", "save_result", None),
    ("campaign", "safeval.campaign", "load_result", None),
    ("campaign", "safeval.campaign", "report", None),
    ("cli", "safeval.cli", "main", None),
)
# Counted, not timed: one Trajectory per __post_init__ call.
TRAJECTORY_POINT = ("core", "safeval.core", "Trajectory.__post_init__")

SIM_BATCH_NAMES = ("simulate_batch", "simulate_batch_multi_f")
POSTERIOR_NAMES = ("UcbMinimizer.posterior", "gp_posterior", "gp_posterior_many")

# Every per-layer metric with its unit; bench.* come from run.py itself.
LAYER_METRICS: dict[str, str] = {
    "sim.calls": "count",
    "sim.rows": "count",
    "sim.rows_per_call_p50": "count",
    "sim.self_s": "s",
    "sim.us_per_row": "us",
    "stl.calls": "count",
    "stl.self_s": "s",
    "stl.us_per_call": "us",
    "falsify.calls": "count",
    "falsify.generations": "count",
    "falsify.self_s": "s",
    "core.trajectories": "count",
    "loss.aggregate_calls": "count",
    "loss.aggregate_s": "s",
    "loss.self_s": "s",
    "loss.mse_calls": "count",
    "loss.high_rows": "count",
    "loss.low_rows": "count",
    "loss.high_reuse": "ratio",
    "analysis.calls": "count",
    "analysis.s": "s",
    "analysis.self_s": "s",
    "bo.suggest_calls": "count",
    "bo.suggest_s": "s",
    "bo.posterior_s": "s",
    "bo.self_s": "s",
    "campaign.self_s": "s",
    "campaign.loss_failures": "count",
    "cli.self_s": "s",
}


class Span:
    __slots__ = ("id", "parent", "layer", "name", "start", "end", "attrs")

    def __init__(self, sid: int, parent: int | None, layer: str, name: str, start: float):
        self.id, self.parent, self.layer, self.name = sid, parent, layer, name
        self.start, self.end, self.attrs = start, start, {}

    @property
    def duration(self) -> float:
        return self.end - self.start


def _resolve(module: str, qualname: str) -> tuple[Any, str, Any] | None:
    """(owner, attribute, original) for a wrap point, or None if it is gone."""
    try:
        mod = importlib.import_module(module)
    except ImportError:
        return None
    owner: Any = mod
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    return (owner, attr, original) if callable(original) else None


class Tracer:
    """Installs wrappers for the traced ops and turns their spans into metrics."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.trajectories = 0
        self.ops = 0
        self._stack: list[Span] = []
        self._undo: list[tuple[Any, str, Any]] = []
        self.absent = self._find_absent()

    @staticmethod
    def _find_absent() -> set[str]:
        points = [(m, q) for _, m, q, _ in WRAP_POINTS] + [TRAJECTORY_POINT[1:]]
        return {f"{m}:{q}" for m, q in points if _resolve(m, q) is None}

    def absent_layers(self) -> set[str]:
        layers = {layer for layer, m, q, _ in WRAP_POINTS if f"{m}:{q}" in self.absent}
        if ":".join(TRAJECTORY_POINT[1:]) in self.absent:
            layers.add("core")
        return layers

    # -- recording ---------------------------------------------------------

    def _enter(self, layer: str, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, layer, name, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _exit(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def op(self) -> Iterator[None]:
        """Root span of one traced op."""
        span = self._enter("bench", "bench.op")
        try:
            yield
        finally:
            self._exit(span)
            self.ops += 1

    def _wrapper(self, layer: str, name: str, fn: Callable, attrs: Callable | None) -> Callable:
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            span = self._enter(layer, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(span)
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            return result

        return traced

    def _counter(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def counted(*args: Any, **kwargs: Any) -> Any:
            self.trajectories += 1
            return fn(*args, **kwargs)

        return counted

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        loaded = [m for n, m in list(sys.modules.items()) if n == "safeval" or n.startswith("safeval.")]
        for layer, module, qualname, attrs in WRAP_POINTS:
            found = _resolve(module, qualname)
            if found is None:
                continue
            owner, attr, original = found
            wrapper = self._wrapper(layer, qualname, original, attrs)
            if isinstance(owner, type):
                self._replace(owner, attr, original, wrapper)
                continue
            for mod in loaded:  # every binding of the function, in every caller
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, name, original, wrapper)
        found = _resolve(*TRAJECTORY_POINT[1:])
        if found is not None:
            owner, attr, original = found
            self._replace(owner, attr, original, self._counter(original))

    def _replace(self, owner: Any, attr: str, original: Any, wrapper: Any) -> None:
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- reporting ---------------------------------------------------------

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for s in self.spans:
                record = {"id": s.id, "parent": s.parent, "layer": s.layer, "name": s.name,
                          "start": s.start, "end": s.end, **s.attrs}
                fh.write(json.dumps(record) + "\n")

    def metrics(self) -> dict[str, float | None]:
        """Per-op means of the per-layer metrics over the traced ops."""
        n = max(self.ops, 1)
        child_time: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.duration
        self_time: Counter[str] = Counter()
        for s in self.spans:
            self_time[s.layer] += s.duration - child_time[s.id]

        def outermost(names: tuple[str, ...]) -> float:
            total = 0.0
            for s in self.spans:
                if s.name in names and not self._has_ancestor(s, lambda a: a.name in names):
                    total += s.duration
            return total

        def named(*names: str) -> list[Span]:
            return [s for s in self.spans if s.name in names]

        sim_calls = named(*SIM_BATCH_NAMES)
        rows = [s.attrs.get("rows", 0) for s in sim_calls]
        loss_high = loss_low = 0
        for s in sim_calls:
            if self._nearest_other_layer(s) == "loss":
                if s.attrs.get("high"):
                    loss_high += s.attrs.get("rows", 0)
                else:
                    loss_low += s.attrs.get("rows", 0)
        pairs = sum(s.attrs.get("pairs", 0) for s in named("aggregate_loss"))
        stl_calls = len(named("robustness"))
        analysis_names = tuple(q for layer, _, q, _ in WRAP_POINTS if layer == "analysis")

        values: dict[str, float] = {
            "sim.calls": len(sim_calls) / n,
            "sim.rows": sum(rows) / n,
            "sim.rows_per_call_p50": statistics.median(rows) if rows else 0.0,
            "sim.self_s": self_time["sim"] / n,
            "sim.us_per_row": 1e6 * self_time["sim"] / sum(rows) if rows and sum(rows) else 0.0,
            "stl.calls": stl_calls / n,
            "stl.self_s": self_time["stl"] / n,
            "stl.us_per_call": 1e6 * self_time["stl"] / stl_calls if stl_calls else 0.0,
            "falsify.calls": len(named("falsify")) / n,
            "falsify.generations": sum(s.attrs.get("generations", 0) for s in named("falsify")) / n,
            "falsify.self_s": self_time["falsify"] / n,
            "core.trajectories": self.trajectories / n,
            "loss.aggregate_calls": len(named("aggregate_loss")) / n,
            "loss.aggregate_s": outermost(("aggregate_loss",)) / n,
            "loss.self_s": self_time["loss"] / n,
            "loss.mse_calls": len(named("mse_loss")) / n,
            "loss.high_rows": loss_high / n,
            "loss.low_rows": loss_low / n,
            "loss.high_reuse": (pairs - loss_high) / pairs if pairs else 0.0,
            "analysis.calls": len(named(*analysis_names)) / n,
            "analysis.s": outermost(analysis_names) / n,
            "analysis.self_s": self_time["analysis"] / n,
            "bo.suggest_calls": len(named("UcbMinimizer.suggest")) / n,
            "bo.suggest_s": outermost(("UcbMinimizer.suggest",)) / n,
            "bo.posterior_s": outermost(POSTERIOR_NAMES) / n,
            "bo.self_s": self_time["bo"] / n,
            "campaign.self_s": self_time["campaign"] / n,
            "campaign.loss_failures": sum(s.attrs.get("loss_failures", 0) for s in named("run_joint")) / n,
            "cli.self_s": self_time["cli"] / n,
            "bench.unattributed_s": self_time["bench"] / n,
            "bench.traced_op_s": sum(s.duration for s in named("bench.op")) / n,
        }
        layers_self = sum(v for k, v in self_time.items() if k != "bench") / n
        if abs(layers_self + values["bench.unattributed_s"] - values["bench.traced_op_s"]) > 1e-9 * n:
            raise RuntimeError("layer self times do not sum to the traced op time")
        gone = self.absent_layers()
        return {k: (None if k.split(".")[0] in gone else v) for k, v in values.items()}

    def _parent(self, span: Span) -> Span | None:
        return None if span.parent is None else self.spans[span.parent]

    def _has_ancestor(self, span: Span, pred: Callable[[Span], bool]) -> bool:
        a = self._parent(span)
        while a is not None:
            if pred(a):
                return True
            a = self._parent(a)
        return False

    def _nearest_other_layer(self, span: Span) -> str | None:
        a = self._parent(span)
        while a is not None and a.layer == span.layer:
            a = self._parent(a)
        return None if a is None else a.layer
