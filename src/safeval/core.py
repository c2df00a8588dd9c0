"""Shared domain types, bounded search spaces, and seeded sampling.

Every value type in this module is immutable, so instances can be shared
freely across parallel workers. All randomness in the project flows through
the counter-based Philox generator (:func:`rng_from_seed`); seeds are plain
64-bit unsigned integers and sub-seeds are derived with :func:`split_seed`,
which hashes a (seed, path) pair so derived streams never collide. Given the
same seed, every sampling operation here is byte-identical across runs.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import math
import operator
import reprlib
import sys
import types
import typing
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, NewType, Sequence, Union

import numpy as np

__all__ = [
    "Seed",
    "split_seed",
    "rng_from_seed",
    "InvalidArgumentError",
    "SimulationDivergedError",
    "FalsificationFailedError",
    "NumericalFailureError",
    "SchemaVersionError",
    "ExtendedFloat",
    "Reading",
    "check_fields",
    "Checked",
    "EnvironmentSpace",
    "EnvironmentConfig",
    "FidelitySpace",
    "FidelitySetting",
    "Trajectory",
    "Task",
    "sample_uniform",
    "latin_hypercube_unit",
]

# Seeds are 64-bit unsigned integers; any other integer, a NumPy one
# included, is reduced mod 2**64, and a non-integer is rejected.
Seed = int


class InvalidArgumentError(ValueError):
    """A caller violated an operation's precondition."""


class SimulationDivergedError(RuntimeError):
    """A simulation produced a non-finite state."""


class FalsificationFailedError(RuntimeError):
    """The falsifier could not produce any usable evaluation."""


class NumericalFailureError(RuntimeError):
    """A linear-algebra routine failed beyond recovery (e.g. non-PD kernel)."""


class SchemaVersionError(ValueError):
    """A persisted document does not match the supported schema version."""


# A ``float`` field that may also hold an infinity, as a failed evaluation's
# loss does; every other ``float`` field must be finite. Neither may be NaN.
ExtendedFloat = NewType("ExtendedFloat", float)
# A simulator's sample, which may also be NaN or infinite where it diverged.
Reading = NewType("Reading", float)
# The bound of a count that sizes an array of simulated rows: 10**6 rows of
# the smallest built-in trajectory take 14 GB, so more is a slip, not a plan.
MAX_COUNT = 10**6

_LARGEST = sys.float_info.max
_WORDS = {int: "an integer", float: "a finite number", ExtendedFloat: "a number", str: "a string"}
_WORDS.update({Reading: "a number", bool: "a boolean", type(None): "null", tuple: "an array"})
_WORDS[dict] = "an object"


class _Mismatch(Exception):
    """A value does not have the type its annotation names."""


def _field_kwargs(cls: type, what: str, data: Any) -> dict[str, Any]:
    """``data`` as keyword arguments for dataclass ``cls``; names every unknown or missing field."""
    if not isinstance(data, dict):
        raise InvalidArgumentError(f"{what} must be a JSON object, got {type(data).__name__}")
    fields = dataclasses.fields(cls)
    unknown = set(data) - {f.name for f in fields}
    if unknown:
        raise InvalidArgumentError(f"unknown {what} fields: {sorted(unknown)}")
    missing = [
        f.name
        for f in fields
        if f.name not in data
        and f.default is dataclasses.MISSING
        and f.default_factory is dataclasses.MISSING
    ]
    if missing:
        raise InvalidArgumentError(f"{what} missing fields: {missing}")
    return dict(data)


# The bound keys of field metadata, each with its sign and its bracket in a range.
_BOUND_KEYS = {"ge": (">=", "["), "gt": (">", "("), "le": ("<=", "]"), "lt": ("<", ")")}


def _bounds(f: dataclasses.Field) -> tuple[list[tuple[Callable, Any]], str] | None:
    """Field ``f``'s declared bounds as (comparison, bound) pairs, and their message."""
    keys = [key for key in _BOUND_KEYS if key in f.metadata]
    if not keys:
        return None
    low, high = keys[0], keys[-1]
    text = f"{f.name} must be {_BOUND_KEYS[low][0]} {f.metadata[low]}"
    if low != high:
        left, right = _BOUND_KEYS[low][1], _BOUND_KEYS[high][1]
        text = f"{f.name} must lie in {left}{f.metadata[low]}, {f.metadata[high]}{right}"
    tests = [(getattr(operator, key), f.metadata[key]) for key in keys]
    return tests, f.metadata.get("error", text)


@functools.cache
def _field_hints(cls: type) -> tuple[tuple[dataclasses.Field, Any, Any], ...]:
    hints = typing.get_type_hints(cls)
    return tuple((f, hints[f.name], _bounds(f)) for f in dataclasses.fields(cls))


def _numbers(value: Any) -> Iterator[Any]:
    """The numbers in a conformed value: itself, or its tuple elements and dict values."""
    if isinstance(value, (tuple, dict)):
        for item in value.values() if isinstance(value, dict) else value:
            yield from _numbers(item)
    elif value is not None:
        yield value


def _conform(hint: Any, value: Any, name: str) -> Any:
    """``value`` in the form ``hint`` names; raises :class:`_Mismatch` if it has another type.

    JSON arrays become tuples and JSON objects nested dataclasses, built
    through their constructors so that their own checks run. ``name`` is
    the value's position, such as ``iterations[0]``; a nested record's
    errors start with it.
    """
    if hint is Any:
        return value
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (Union, types.UnionType):
        for arm in args:
            try:
                return _conform(arm, value, name)
            except _Mismatch:
                pass
    elif origin is tuple:
        if isinstance(value, (list, tuple)):
            arms = args[:1] * len(value) if args[-1] is Ellipsis else args
            if len(arms) == len(value):
                return tuple(
                    _conform(arm, v, f"{name}[{i}]") for i, (arm, v) in enumerate(zip(arms, value))
                )
    elif origin is dict:
        if isinstance(value, dict) and all(isinstance(k, str) for k in value):
            return {k: _conform(args[1], v, f"{name}[{k!r}]") for k, v in value.items()}
    elif dataclasses.is_dataclass(hint):
        if isinstance(value, hint):
            return value
        kwargs = _field_kwargs(hint, name, value)
        try:
            return hint(**kwargs)
        except InvalidArgumentError as exc:
            raise InvalidArgumentError(f"{name}: {exc}") from None
    elif hint in (int, float, ExtendedFloat, Reading):
        kinds = (int, np.integer) if hint is int else (int, float, np.integer, np.floating)
        if isinstance(value, kinds) and not isinstance(value, (bool, np.bool_)) and (
            hint is int
            or abs(value) <= _LARGEST
            or isinstance(value, (float, np.floating))
            and (hint is Reading or hint is ExtendedFloat and math.isinf(value))
        ):
            return value
    elif isinstance(value, hint):
        return value
    raise _Mismatch


def _describe(hint: Any) -> str:
    if typing.get_origin(hint) in (Union, types.UnionType):
        return " or ".join(map(_describe, typing.get_args(hint)))
    return _WORDS.get(typing.get_origin(hint) or hint, "an object")  # a dataclass


def check_fields(obj: object) -> None:
    """Check each field of dataclass ``obj`` against its annotation and bounds; raise at a misfit.

    Records read from JSON hold whatever the file held until this runs;
    without it a string in a number field surfaces as a ``TypeError``. The
    annotations understood are ``int`` (``Seed``), ``float`` (finite),
    :data:`ExtendedFloat`, :data:`Reading`, ``str``, ``bool``, ``X | None``,
    tuples (JSON arrays, stored as tuples), ``dict[str, X]``, ``Any`` and
    dataclasses (JSON objects, built into instances). Booleans never count
    as numbers, and no number may be NaN (Python's ``json`` reads ``NaN``
    and ``Infinity``), except in a :data:`Reading`, or, where a float is
    due, an integer too large to convert.

    A field may declare bounds in its metadata under ``ge``, ``gt``, ``le``
    and ``lt``, as in ``field(default=256, metadata={"ge": 4})``; right
    after its type, every number it holds (tuple elements and dict values
    included) is checked against them. A broken bound reads ``"base_budget
    must be >= 4"``, or ``"analysis_delta must lie in (0, 2]"`` for two.
    A field's ``"error"`` metadata, if set, replaces either message. Fields
    are checked in declaration order.
    """
    for f, hint, bounds in _field_hints(type(obj)):
        value = getattr(obj, f.name)
        try:
            conformed = _conform(hint, value, f.name)
        except _Mismatch:
            default = f"{f.name} must be {_describe(hint)}, got {reprlib.repr(value)}"
            raise InvalidArgumentError(f.metadata.get("error", default)) from None
        if conformed is not value:
            object.__setattr__(obj, f.name, conformed)
        if bounds is not None:
            tests, message = bounds
            if not all(test(v, bound) for v in _numbers(conformed) for test, bound in tests):
                raise InvalidArgumentError(message)


class Checked:
    """Base of records whose fields :func:`check_fields` checks when one is made."""

    def __post_init__(self) -> None:
        check_fields(self)


def _seed_key(seed: Seed) -> int:
    # Reduced as a Python int: a NumPy integer's % 2**64 overflows. A float
    # is rejected, not truncated to another seed's stream.
    try:
        return operator.index(seed) % 2**64
    except TypeError:
        raise InvalidArgumentError(f"seed must be an integer, got {seed!r}") from None


def split_seed(seed: Seed, *path: str | int) -> Seed:
    """Derive a child seed from ``seed`` and a label path.

    Uses BLAKE2b over the parent seed and the path components, so distinct
    paths give independent streams and the mapping is stable across
    platforms and runs.
    """
    h = hashlib.blake2b(digest_size=8)
    h.update(_seed_key(seed).to_bytes(8, "little"))
    for part in path:
        h.update(str(part).encode("utf-8"))
        h.update(b"\x00")
    return int.from_bytes(h.digest(), "little")


def rng_from_seed(seed: Seed) -> np.random.Generator:
    """Project-wide PRNG: counter-based Philox keyed by a 64-bit seed."""
    return np.random.Generator(np.random.Philox(key=_seed_key(seed)))


def _outside(rows: np.ndarray, lower: Any, upper: Any) -> np.ndarray:
    """Indices of the (batch, dim) ``rows`` outside the box [``lower``, ``upper``].

    A row is inside when each value lies within 1e-12 of the bounds; NaN lies outside.
    """
    lower, upper = np.asarray(lower, dtype=float), np.asarray(upper, dtype=float)
    inside = (rows >= lower - 1e-12) & (rows <= upper + 1e-12)
    return np.flatnonzero(~inside.all(axis=1))


def _as_float_tuple(values: Iterable[float]) -> tuple[float, ...]:
    return tuple(float(v) for v in values)


@dataclass(frozen=True)
class EnvironmentSpace(Checked):
    """Axis-aligned box of admissible environment configurations."""

    lower: tuple[float, ...]
    upper: tuple[float, ...]
    names: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        super().__post_init__()
        if len(self.lower) != len(self.upper):
            raise InvalidArgumentError("lower and upper bounds differ in length")
        if len(self.lower) < 1:
            raise InvalidArgumentError("environment space needs dimension >= 1")
        for lo, hi in zip(self.lower, self.upper):
            if not lo < hi:
                raise InvalidArgumentError(f"lower bound {lo} must be < upper bound {hi}")
        if self.names and len(self.names) != len(self.lower):
            raise InvalidArgumentError("names must match dimension")
        if not self.names:
            object.__setattr__(
                self, "names", tuple(f"e{i}" for i in range(len(self.lower)))
            )

    @property
    def dimension(self) -> int:
        return len(self.lower)

    def lower_array(self) -> np.ndarray:
        return np.asarray(self.lower, dtype=float)

    def upper_array(self) -> np.ndarray:
        return np.asarray(self.upper, dtype=float)

    def contains(self, values: Sequence[float]) -> bool:
        v = np.asarray(values, dtype=float)
        return v.shape == (self.dimension,) and not _outside(v[None], self.lower, self.upper).size

    def config(self, values: Sequence[float]) -> "EnvironmentConfig":
        return EnvironmentConfig(values=_as_float_tuple(values), space=self)


@dataclass(frozen=True)
class EnvironmentConfig:
    """A single point in an :class:`EnvironmentSpace`."""

    values: tuple[float, ...]
    space: EnvironmentSpace

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _as_float_tuple(self.values))
        if len(self.values) != self.space.dimension:
            raise InvalidArgumentError(
                f"config has {len(self.values)} values for a "
                f"{self.space.dimension}-dimensional space"
            )
        if not self.space.contains(self.values):
            raise InvalidArgumentError(f"config {self.values} outside space bounds")

    @property
    def names(self) -> tuple[str, ...]:
        return self.space.names

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)


@dataclass(frozen=True)
class FidelitySpace(Checked):
    """Normalized [0, 1]^d box of simulator fidelity knobs.

    Knob value 1 always means highest fidelity. The mapping from normalized
    knobs to physical simulator quantities lives with the simulator
    (see ``sim.FidelityMapping``).
    """

    dimension: int = field(metadata={"ge": 1})
    knob_names: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.knob_names and len(self.knob_names) != self.dimension:
            raise InvalidArgumentError("knob_names must match dimension")
        if not self.knob_names:
            object.__setattr__(
                self, "knob_names", tuple(f"f{i}" for i in range(self.dimension))
            )

    def contains(self, values: Sequence[float]) -> bool:
        v = np.asarray(values, dtype=float)
        return v.shape == (self.dimension,) and not _outside(v[None], 0.0, 1.0).size

    def setting(self, values: Sequence[float]) -> "FidelitySetting":
        return FidelitySetting(values=_as_float_tuple(values), space=self)

    def max_fidelity(self) -> "FidelitySetting":
        return self.setting((1.0,) * self.dimension)


@dataclass(frozen=True)
class FidelitySetting:
    """A point in a :class:`FidelitySpace`; all components in [0, 1]."""

    values: tuple[float, ...]
    space: FidelitySpace

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _as_float_tuple(self.values))
        if len(self.values) != self.space.dimension:
            raise InvalidArgumentError(
                f"setting has {len(self.values)} values for a "
                f"{self.space.dimension}-dimensional fidelity space"
            )
        if not self.space.contains(self.values):
            raise InvalidArgumentError(f"fidelity values {self.values} outside [0,1]")

    @property
    def names(self) -> tuple[str, ...]:
        return self.space.knob_names

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)

    def distance(self, other: "FidelitySetting") -> float:
        return float(np.linalg.norm(self.as_array() - other.as_array()))


@dataclass(frozen=True, eq=False)
class Trajectory(Checked):
    """Finite-horizon, uniformly sampled multichannel signal.

    ``samples`` has shape (channels, steps). ``duration`` is derived as
    (steps - 1) * dt and all samples must be finite.
    """

    start_time: float
    dt: float = field(metadata={"gt": 0})
    channels: tuple[str, ...]
    samples: np.ndarray

    def __post_init__(self) -> None:
        super().__post_init__()
        arr = np.asarray(self.samples, dtype=float)
        if arr.ndim != 2:
            raise InvalidArgumentError("samples must be a 2-D (channel x step) array")
        if arr.shape[0] != len(self.channels):
            raise InvalidArgumentError(
                f"{arr.shape[0]} sample rows for {len(self.channels)} channels"
            )
        if arr.shape[1] < 2:
            raise InvalidArgumentError("trajectory needs at least 2 samples")
        if not np.all(np.isfinite(arr)):
            raise SimulationDivergedError("trajectory contains non-finite samples")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)

    @property
    def steps(self) -> int:
        return int(self.samples.shape[1])

    @property
    def duration(self) -> float:
        return (self.steps - 1) * self.dt

    @property
    def end_time(self) -> float:
        return self.start_time + self.duration

    def times(self) -> np.ndarray:
        return self.start_time + self.dt * np.arange(self.steps)

    def channel(self, name: str) -> np.ndarray:
        try:
            idx = self.channels.index(name)
        except ValueError:
            raise InvalidArgumentError(
                f"unknown channel {name!r}; trajectory has {self.channels}"
            ) from None
        return self.samples[idx]


@dataclass(frozen=True)
class Task:
    """A named task with its parameter space and sampled configurations."""

    id: str
    parameter_space: EnvironmentSpace
    sampled_params: tuple[EnvironmentConfig, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "sampled_params", tuple(self.sampled_params))
        if len(self.sampled_params) < 1:
            raise InvalidArgumentError(f"task {self.id!r} needs at least one parameter")
        for p in self.sampled_params:
            if not self.parameter_space.contains(p.values):
                raise InvalidArgumentError(
                    f"task {self.id!r} parameter {p.values} outside its space"
                )


def sample_uniform(space: EnvironmentSpace, count: int, seed: Seed) -> list[EnvironmentConfig]:
    """Draw ``count`` independent uniform points from ``space``.

    Deterministic given ``seed``; raises for ``count < 1``.
    """
    if count < 1:
        raise InvalidArgumentError("count must be >= 1")
    rng = rng_from_seed(seed)
    lo = space.lower_array()
    hi = space.upper_array()
    pts = lo + rng.random((count, space.dimension)) * (hi - lo)
    return [space.config(row) for row in pts]


def latin_hypercube_unit(dimension: int, count: int, seed: Seed) -> np.ndarray:
    """Latin hypercube sample on [0, 1]^dimension as a (count, dimension) array.

    Each dimension is split into ``count`` equal strata and receives exactly
    one point per stratum, placed uniformly inside it.
    """
    if count < 1:
        raise InvalidArgumentError("count must be >= 1")
    if dimension < 1:
        raise InvalidArgumentError("dimension must be >= 1")
    rng = rng_from_seed(seed)
    out = np.empty((count, dimension))
    for d in range(dimension):
        perm = rng.permutation(count)
        out[:, d] = (perm + rng.random(count)) / count
    return out
