"""Quantitative safety-specification language and robustness monitor.

Specs are boolean/temporal formulas over named trajectory channels with the
standard min/max quantitative semantics evaluated on sampled time points
(no interpolation between samples):

    rho(x > c)      = x(t) - c
    rho(x < c)      = c - x(t)
    rho(!phi)       = -rho(phi)
    rho(phi & psi)  = min(rho(phi), rho(psi))
    rho(phi | psi)  = max(rho(phi), rho(psi))
    rho(G[a,b] phi) = min over samples in [t+a, t+b] of rho(phi)
    rho(F[a,b] phi) = max over samples in [t+a, t+b] of rho(phi)

A positive robustness value means the trajectory satisfies the spec, a
negative value means it violates it. Interval endpoints are clipped onto the
sample grid by rounding inward, and windows are truncated at the trajectory
horizon rather than extrapolated.

The one evaluator, :func:`robustness_batch`, is one recursive walk over a
(batch, channels, steps) sample array that returns one value per row. Each
node yields its signal at only the first m samples, m = 1 at the root; a
temporal node asks its child for m + b/dt samples, so the outermost window
reduces only itself, and no sample past the first :func:`samples_read` is
read. Windows are reduced by log-doubling passes of min/max (van Herk 1992;
Gil & Werman 1993) that sweep the child's signal in place: each pass is one
ufunc call over the buffer's rows laid end to end, and the last one writes
the window extrema back into that buffer for the parent to sweep or combine
in turn. ``!`` negates, and ``&`` and ``|`` combine, in place in their first
operand's buffer, so the walk holds one signal buffer per chain of temporal
operators and never writes the samples it is given. Only where a window runs
past the last sample is the signal copied, padded with the operation's
identity (+inf for min, -inf for max), which gives windows clipped at the
end and empty windows their usual values.

Grammar accepted by :func:`parse_spec` (whitespace insignificant)::

    formula := or_expr
    or_expr := and_expr ( '|' and_expr )*
    and_expr := unary ( '&' unary )*
    unary   := '!' unary
             | 'G' '[' number ',' number ']' '(' formula ')'
             | 'F' '[' number ',' number ']' '(' formula ')'
             | '(' formula ')'
             | predicate
    predicate := identifier ('>' | '<') number
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .core import InvalidArgumentError, Trajectory

__all__ = [
    "SafetySpec",
    "Predicate",
    "Not",
    "And",
    "Or",
    "Globally",
    "Eventually",
    "RobustnessValue",
    "SpecSyntaxError",
    "SpecEvaluationError",
    "parse_spec",
    "format_spec",
    "robustness",
    "robustness_batch",
    "horizon",
    "samples_read",
]

# Signed satisfaction margin, in the units of the predicates' channels.
RobustnessValue = float


class SpecSyntaxError(ValueError):
    """Raised on malformed spec text, with position information."""

    def __init__(self, message: str, text: str, offset: int):
        line = text.count("\n", 0, offset) + 1
        col = offset - (text.rfind("\n", 0, offset) + 1) + 1
        super().__init__(f"{message} at offset {offset} (line {line}, column {col})")
        self.offset = offset
        self.line = line
        self.column = col


class SpecEvaluationError(ValueError):
    """Raised when a well-formed spec cannot be evaluated on a trajectory."""


@dataclass(frozen=True)
class Predicate:
    channel: str
    comparator: str  # ">" or "<"
    threshold: float

    def __post_init__(self) -> None:
        if self.comparator not in (">", "<"):
            raise InvalidArgumentError(f"comparator must be '>' or '<', got {self.comparator!r}")
        object.__setattr__(self, "threshold", float(self.threshold))


@dataclass(frozen=True)
class Not:
    sub: "SafetySpec"


@dataclass(frozen=True)
class And:
    args: tuple["SafetySpec", ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "args", tuple(self.args))
        if len(self.args) < 2:
            raise InvalidArgumentError("And needs at least two arguments")


@dataclass(frozen=True)
class Or:
    args: tuple["SafetySpec", ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "args", tuple(self.args))
        if len(self.args) < 2:
            raise InvalidArgumentError("Or needs at least two arguments")


def _check_interval(interval: tuple[float, float]) -> tuple[float, float]:
    a, b = float(interval[0]), float(interval[1])
    if not (0.0 <= a <= b):
        raise InvalidArgumentError(f"interval must satisfy 0 <= a <= b, got [{a}, {b}]")
    return (a, b)


@dataclass(frozen=True)
class Globally:
    interval: tuple[float, float]
    sub: "SafetySpec"

    def __post_init__(self) -> None:
        object.__setattr__(self, "interval", _check_interval(self.interval))


@dataclass(frozen=True)
class Eventually:
    interval: tuple[float, float]
    sub: "SafetySpec"

    def __post_init__(self) -> None:
        object.__setattr__(self, "interval", _check_interval(self.interval))


SafetySpec = Union[Predicate, Not, And, Or, Globally, Eventually]


def _lookahead(spec: SafetySpec, span: Callable[[tuple[float, float]], float]) -> float:
    """Largest sum of ``span(interval)`` over the temporal nodes on one root-to-predicate path."""
    if isinstance(spec, Predicate):
        return 0.0
    if isinstance(spec, Not):
        return _lookahead(spec.sub, span)
    if isinstance(spec, (And, Or)):
        return max(_lookahead(a, span) for a in spec.args)
    if isinstance(spec, (Globally, Eventually)):
        return span(spec.interval) + _lookahead(spec.sub, span)
    raise TypeError(f"not a spec node: {spec!r}")


def horizon(spec: SafetySpec) -> float:
    """Largest lookahead (seconds) the spec needs past its evaluation time."""
    return _lookahead(spec, lambda interval: interval[1])


def samples_read(spec: SafetySpec, dt: float) -> int:
    """How many leading samples at spacing ``dt`` the robustness at the start reads.

    That is every sample the evaluation walk asks for, and enough that the
    trajectory covers :func:`horizon` by the reach check of the evaluator
    (an interval end off the grid reads one sample less than it needs to
    cover). Robustness and errors on the first ``samples_read`` samples of
    a trajectory are those on the whole of it.
    """
    read = 1 + int(_lookahead(spec, lambda interval: _window_offsets(interval, dt)[1]))
    reach = horizon(spec)
    cover = max(int(np.ceil(reach / dt)), 0)
    while reach > cover * dt + 1e-9:
        cover += 1
    while cover > 0 and reach <= (cover - 1) * dt + 1e-9:
        cover -= 1
    return max(read, cover + 1)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


# Tokens, matched at the next non-space character. \d is a Unicode decimal digit
# (str.isdecimal) and \w is str.isalnum() or "_"; a name must also start with a
# letter or "_", and an exponent counts only with digits after it.
_SPACE = re.compile(r"\s*")
_NUMBER = re.compile(r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_NAME = re.compile(r"\w+")


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def peek(self) -> str:
        """Skip spaces; the next character, or "" at the end."""
        self.pos = _SPACE.match(self.text, self.pos).end()
        return self.text[self.pos : self.pos + 1]

    def expected(self, what: str) -> SpecSyntaxError:
        found = repr(self.peek()) if self.peek() else "end of input"
        return SpecSyntaxError(f"expected {what}, found {found}", self.text, self.pos)

    def expect(self, ch: str) -> None:
        if self.peek() != ch:
            raise self.expected(repr(ch))
        self.pos += 1

    def scan(self, pattern: re.Pattern[str], what: str) -> str:
        self.peek()
        match = pattern.match(self.text, self.pos)
        if match is None:
            raise self.expected(what)
        self.pos = match.end()
        return match.group()

    def formula(self) -> SafetySpec:
        # A partial adds no Python frame, so a spec may nest as deep as before.
        return self.chain("|", Or, functools.partial(self.chain, "&", And, self.unary))

    def chain(self, op: str, node: type, operand: Callable[[], SafetySpec]) -> SafetySpec:
        """One or more ``operand``s joined by ``op``; two or more become a ``node``."""
        args = [operand()]
        while self.peek() == op:
            self.pos += 1
            args.append(operand())
        return args[0] if len(args) == 1 else node(tuple(args))

    def unary(self) -> SafetySpec:
        ch = self.peek()
        if ch == "!":
            self.pos += 1
            return Not(self.unary())
        if ch == "(":
            self.pos += 1
            inner = self.formula()
            self.expect(")")
            return inner
        if ch == "":
            raise SpecSyntaxError("unexpected end of input", self.text, self.pos)
        if not (ch.isalpha() or ch == "_"):
            raise self.expected("an identifier")
        start = self.pos
        name = self.scan(_NAME, "an identifier")
        if name in ("G", "F") and self.peek() == "[":
            self.pos += 1
            a = float(self.scan(_NUMBER, "a number"))
            self.expect(",")
            b = float(self.scan(_NUMBER, "a number"))
            self.expect("]")
            self.expect("(")
            inner = self.formula()
            self.expect(")")
            if a < 0 or a > b:
                raise SpecSyntaxError(
                    f"interval [{a:g},{b:g}] must satisfy 0 <= a <= b", self.text, start
                )
            node = Globally if name == "G" else Eventually
            return node((a, b), inner)
        # plain predicate: identifier comparator number
        op = self.peek()
        if op not in (">", "<"):
            raise self.expected("'>' or '<' after channel name")
        self.pos += 1
        return Predicate(name, op, float(self.scan(_NUMBER, "a number")))


def parse_spec(text: str) -> SafetySpec:
    """Parse spec text into an AST; see the module docstring for the grammar."""
    if not text or not text.strip():
        raise InvalidArgumentError("spec text must be nonempty")
    p = _Parser(text)
    node = p.formula()
    if p.peek():
        raise SpecSyntaxError(f"unexpected trailing input {text[p.pos:]!r}", text, p.pos)
    return node


def _fmt_num(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


def format_spec(spec: SafetySpec) -> str:
    """Pretty-print a spec; ``parse_spec(format_spec(s)) == s``."""
    if isinstance(spec, Predicate):
        return f"{spec.channel} {spec.comparator} {_fmt_num(spec.threshold)}"
    if isinstance(spec, Not):
        return f"!({format_spec(spec.sub)})"
    if isinstance(spec, And):
        return " & ".join(f"({format_spec(a)})" for a in spec.args)
    if isinstance(spec, Or):
        return " | ".join(f"({format_spec(a)})" for a in spec.args)
    if isinstance(spec, Globally):
        a, b = spec.interval
        return f"G[{_fmt_num(a)},{_fmt_num(b)}]({format_spec(spec.sub)})"
    if isinstance(spec, Eventually):
        a, b = spec.interval
        return f"F[{_fmt_num(a)},{_fmt_num(b)}]({format_spec(spec.sub)})"
    raise TypeError(f"not a spec node: {spec!r}")


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def _window_offsets(interval: tuple[float, float], dt: float) -> tuple[int, int]:
    # Round inward onto the sample grid, with a small tolerance so that
    # grid-aligned endpoints are not lost to float representation error.
    a, b = interval
    lo = int(np.ceil(a / dt - 1e-9))
    hi = int(np.floor(b / dt + 1e-9))
    return lo, hi


def _sliding(y: np.ndarray, lo: int, hi: int, m: int, take_max: bool) -> np.ndarray:
    """out[:, k] = extremum of y[:, k+lo : k+hi+1] for k < m, windows clipped at the end.

    The sweep overwrites ``y`` (its columns must be at a unit stride) and
    ``out`` is a view of it. Columns past the end of ``y`` read as the
    operation's identity, in a padded copy. Every pass is one ufunc call on
    the rows laid end to end: after the pass with shift s each position
    holds the extremum of the 2s samples from it on, and one overlapping
    pass then covers the window. A position reads only positions at or
    after itself, so numpy overwrites in place without a temporary; a value
    that runs into the next row reaches only positions that no output reads,
    since every output's window ends inside its own row. Ties keep the
    leftmost sample, as numpy's min/max return their second argument.

    When ``y`` is a view of a wider buffer (an inner window's output), its rows
    are first compacted in place, so that the passes sweep only the columns
    ``y`` holds: one forward 1-D copy per row from row 1 on, each into columns
    no later row reads. One 2-D copy would overlap its source, and numpy would
    buffer all of it.
    """
    op = np.maximum if take_max else np.minimum
    pad = m + hi - y.shape[1]
    if pad > 0:
        fill = np.full((y.shape[0], pad), -np.inf if take_max else np.inf)
        y = np.concatenate([y, fill], axis=1)
    rows, cols = y.shape
    stride = y.strides[0] // y.itemsize
    # A 1-D view from y's first element to its last, dead columns included.
    size = (rows - 1) * stride + cols if rows else 0
    buf = np.lib.stride_tricks.as_strided(y, (size,), (y.itemsize,))
    if stride > cols:
        # Move each row up against the one before it, so no pass sweeps a dead column.
        for r in range(1, rows):
            buf[r * cols : (r + 1) * cols] = buf[r * stride : r * stride + cols]
    # The rows laid end to end.
    n = rows * cols
    flat = buf[:n]
    width, s = hi - lo + 1, 1
    while 2 * s <= width:
        op(flat[lo + s :], flat[lo : n - s], out=flat[lo : n - s])
        s *= 2
    d = lo + width - s
    op(flat[d:], flat[lo : n - d + lo], out=flat[: n - d])
    return flat.reshape(rows, cols)[:, :m]


def _margin(p: Predicate, x: np.ndarray) -> np.ndarray:
    return x - p.threshold if p.comparator == ">" else p.threshold - x


def _signal(node: SafetySpec, m: int, samples: np.ndarray, channels: tuple[str, ...],
            dt: float, empty: list[str]) -> np.ndarray:
    """The signal of ``node`` at the first ``m`` samples of every row, shape (batch, m).

    The result is the caller's to overwrite: a fresh array, or a view of one
    with its columns at a unit stride, sharing memory with nothing else.
    ``samples`` is only read.

    A predicate's signal is its margin. An interval with no sample point
    yields NaN and is recorded in ``empty``, so that the caller can rank it
    after the other errors.
    """
    rest = (samples, channels, dt, empty)
    if isinstance(node, Predicate):
        if node.channel not in channels:
            raise InvalidArgumentError(
                f"unknown channel {node.channel!r}; trajectory has {channels}"
            )
        # A fresh array, in C order so that its rows lie end to end.
        return np.ascontiguousarray(_margin(node, samples[:, channels.index(node.channel), :m]))
    if isinstance(node, Not):
        y = _signal(node.sub, m, *rest)
        return np.negative(y, out=y)
    if isinstance(node, (And, Or)):
        op = np.minimum if isinstance(node, And) else np.maximum
        y = _signal(node.args[0], m, *rest)
        for a in node.args[1:]:
            op(y, _signal(a, m, *rest), out=y)
        return y
    if isinstance(node, (Globally, Eventually)):
        lo, hi = _window_offsets(node.interval, dt)
        inner = _signal(node.sub, min(m + hi, samples.shape[2]), *rest)
        if lo > hi:
            a, b = node.interval
            empty.append(f"interval [{a:g},{b:g}] contains no sample points at dt={dt:g}")
            return np.full((samples.shape[0], m), np.nan)
        return _sliding(inner, lo, hi, m, isinstance(node, Eventually))
    raise TypeError(f"not a spec node: {node!r}")


def robustness_batch(spec: SafetySpec, samples: np.ndarray, channels: Sequence[str],
                     dt: float) -> np.ndarray:
    """Robustness at the start time of every row of a (batch, channels, steps) array.

    Errors rank as in a check-first evaluator: an unknown channel anywhere
    (:class:`InvalidArgumentError`), then a reach past the trajectory
    duration, the first interval with no sample point and a non-finite
    value (each a :class:`SpecEvaluationError`).
    """
    samples = np.asarray(samples, dtype=float)
    empty: list[str] = []
    # A copy, so that the values do not keep the signal buffer they came from alive.
    values = _signal(spec, 1, samples, tuple(channels), dt, empty)[:, 0].copy()
    reach, duration = horizon(spec), (samples.shape[2] - 1) * dt
    if reach > duration + 1e-9:
        raise SpecEvaluationError(
            f"spec needs {reach:g} s of signal but the trajectory lasts {duration:g} s"
        )
    if empty:
        raise SpecEvaluationError(empty[0])
    if not np.isfinite(values).all():
        raise SpecEvaluationError("robustness evaluated to a non-finite value")
    return values


def robustness(spec: SafetySpec, trajectory: Trajectory) -> RobustnessValue:
    """Robustness of ``spec`` at the trajectory's start, positive iff it holds."""
    t = trajectory
    return float(robustness_batch(spec, t.samples[None], t.channels, t.dt)[0])

