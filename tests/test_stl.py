import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safeval.core import InvalidArgumentError, Trajectory
from safeval.stl import (
    And,
    Eventually,
    Globally,
    Not,
    Or,
    Predicate,
    SpecEvaluationError,
    SpecSyntaxError,
    format_spec,
    horizon,
    parse_spec,
    robustness,
    robustness_batch,
    samples_read,
)


def traj(values, dt=0.1, channels=("x",)):
    arr = np.atleast_2d(np.asarray(values, dtype=float))
    return Trajectory(0.0, dt, channels, arr)


# The parser's answer to each spec: its AST, or the error's type, exact message and
# offset. Covers digits of other scripts, '\xb2' (a digit to str.isdigit but no
# decimal digit), partial numbers and every kind of syntax error.
PARSED_SPECS = [
    ("G[0,5](dist > 0)", Globally((0.0, 5.0), Predicate("dist", ">", 0.0))),
    ("F[0, 2](v < 1)", Eventually((0.0, 2.0), Predicate("v", "<", 1.0))),
    ("x > 0 & !(y < 1) | z > 2",
     Or((And((Predicate("x", ">", 0.0), Not(Predicate("y", "<", 1.0)))),
         Predicate("z", ">", 2.0)))),
    ("!!(x > 0)", Not(Not(Predicate("x", ">", 0.0)))),
    ("x > \u0661\u0662", Predicate("x", ">", 12.0)),
    ("G[\u0660,\u0666](x > 0)", Globally((0.0, 6.0), Predicate("x", ">", 0.0))),
    ("x > \u0661.\u0665e\u0662", Predicate("x", ">", 150.0)),
    ("x\xb2 > 0", Predicate("x\xb2", ">", 0.0)),
    ("_x1 > 0", Predicate("_x1", ">", 0.0)),
    ("\xe9t\xe9 < 3", Predicate("\xe9t\xe9", "<", 3.0)),
    ("x > 1e3", Predicate("x", ">", 1000.0)),
    ("x > 1E-2", Predicate("x", ">", 0.01)),
    ("x > +3", Predicate("x", ">", 3.0)),
    ("x > -0", Predicate("x", ">", -0.0)),
    ("x > .5", Predicate("x", ">", 0.5)),
    ("x > 5.", Predicate("x", ">", 5.0)),
    ("G [0,1](x>0)", Globally((0.0, 1.0), Predicate("x", ">", 0.0))),
    ("G > 0", Predicate("G", ">", 0.0)),
    ("F<1", Predicate("F", "<", 1.0)),
    (" x > 0 ", Predicate("x", ">", 0.0)),
    ("\xa0x > 0\xa0", Predicate("x", ">", 0.0)),
]

REJECTED_SPECS = [
    ("x > \xb2", SpecSyntaxError,
     "expected a number, found '\xb2' at offset 4 (line 1, column 5)", 4),
    ("\xb2 > 0", SpecSyntaxError,
     "expected an identifier, found '\xb2' at offset 0 (line 1, column 1)", 0),
    ("1x > 0", SpecSyntaxError,
     "expected an identifier, found '1' at offset 0 (line 1, column 1)", 0),
    ("x > -", SpecSyntaxError,
     "expected a number, found '-' at offset 4 (line 1, column 5)", 4),
    ("x > +", SpecSyntaxError,
     "expected a number, found '+' at offset 4 (line 1, column 5)", 4),
    ("x > -.", SpecSyntaxError,
     "expected a number, found '-' at offset 4 (line 1, column 5)", 4),
    ("x > 1e", SpecSyntaxError,
     "unexpected trailing input 'e' at offset 5 (line 1, column 6)", 5),
    ("x > 1e+", SpecSyntaxError,
     "unexpected trailing input 'e+' at offset 5 (line 1, column 6)", 5),
    ("x > .", SpecSyntaxError,
     "expected a number, found '.' at offset 4 (line 1, column 5)", 4),
    ("x > 5.3.1", SpecSyntaxError,
     "unexpected trailing input '.1' at offset 7 (line 1, column 8)", 7),
    ("G[0,1(x>0)", SpecSyntaxError,
     "expected ']', found '(' at offset 5 (line 1, column 6)", 5),
    ("G[0,1](x>0", SpecSyntaxError,
     "expected ')', found end of input at offset 10 (line 1, column 11)", 10),
    ("(x > 0", SpecSyntaxError,
     "expected ')', found end of input at offset 6 (line 1, column 7)", 6),
    ("G[0,(x>", SpecSyntaxError,
     "expected a number, found '(' at offset 4 (line 1, column 5)", 4),
    ("G[3,1](x > 0)", SpecSyntaxError,
     "interval [3,1] must satisfy 0 <= a <= b at offset 0 (line 1, column 1)", 0),
    ("G[-1,1](x > 0)", SpecSyntaxError,
     "interval [-1,1] must satisfy 0 <= a <= b at offset 0 (line 1, column 1)", 0),
    ("x 0", SpecSyntaxError,
     "expected '>' or '<' after channel name, found '0' at offset 2 (line 1, column 3)", 2),
    ("x", SpecSyntaxError,
     "expected '>' or '<' after channel name, found end of input"
     " at offset 1 (line 1, column 2)", 1),
    ("x >= 0", SpecSyntaxError,
     "expected a number, found '=' at offset 3 (line 1, column 4)", 3),
    ("x > 0 &", SpecSyntaxError,
     "unexpected end of input at offset 7 (line 1, column 8)", 7),
    ("x > 0 | | y > 0", SpecSyntaxError,
     "expected an identifier, found '|' at offset 8 (line 1, column 9)", 8),
    ("x > 0 )", SpecSyntaxError,
     "unexpected trailing input ')' at offset 6 (line 1, column 7)", 6),
    ("", InvalidArgumentError, "spec text must be nonempty", None),
    ("   ", InvalidArgumentError, "spec text must be nonempty", None),
    ("\t\n", InvalidArgumentError, "spec text must be nonempty", None),
    ("x\n>\n0 y", SpecSyntaxError,
     "unexpected trailing input 'y' at offset 6 (line 3, column 3)", 6),
    ("G[0,1]x > 0", SpecSyntaxError,
     "expected '(', found 'x' at offset 6 (line 1, column 7)", 6),
    ("G[0 1](x > 0)", SpecSyntaxError,
     "expected ',', found '1' at offset 4 (line 1, column 5)", 4),
    ("()", SpecSyntaxError,
     "expected an identifier, found ')' at offset 1 (line 1, column 2)", 1),
    ("x > 1_0", SpecSyntaxError,
     "unexpected trailing input '_0' at offset 5 (line 1, column 6)", 5),
]


class TestParse:
    def test_globally_predicate(self):
        node = parse_spec("G[0,5](dist > 0)")
        assert node == Globally((0.0, 5.0), Predicate("dist", ">", 0.0))

    def test_eventually(self):
        node = parse_spec("F[0,2](v < 1)")
        assert node == Eventually((0.0, 2.0), Predicate("v", "<", 1.0))

    def test_boolean_connectives(self):
        node = parse_spec("x > 0 & !(y < 1) | z > 2")
        assert isinstance(node, Or)
        assert isinstance(node.args[0], And)
        assert node.args[0].args[1] == Not(Predicate("y", "<", 1.0))

    def test_syntax_error_position(self):
        with pytest.raises(SpecSyntaxError) as err:
            parse_spec("G[0,(x>")
        assert err.value.offset == 4  # points at the '('

    def test_numbers_take_decimal_digits_of_any_script(self):
        assert parse_spec("G[0,6](gap > \u0661\u0662)") == parse_spec("G[0,6](gap > 12)")
        # A superscript two is a digit to str.isdigit, but no decimal digit.
        with pytest.raises(SpecSyntaxError) as err:
            parse_spec("G[0,6](gap > \u00b2)")
        assert err.value.offset == 13

    def test_empty_rejected(self):
        with pytest.raises(InvalidArgumentError):
            parse_spec("   ")

    def test_trailing_garbage(self):
        with pytest.raises(SpecSyntaxError):
            parse_spec("x > 0 )")

    def test_bad_interval(self):
        with pytest.raises(SpecSyntaxError):
            parse_spec("G[3,1](x > 0)")

    @pytest.mark.parametrize("text, expected", PARSED_SPECS)
    def test_parsed_spec_table(self, text, expected):
        # repr tells -0.0 from 0.0.
        assert repr(parse_spec(text)) == repr(expected)

    @pytest.mark.parametrize("text, error, message, offset", REJECTED_SPECS)
    def test_rejected_spec_table(self, text, error, message, offset):
        with pytest.raises(error) as err:
            parse_spec(text)
        assert type(err.value) is error
        assert str(err.value) == message
        assert getattr(err.value, "offset", None) == offset


def predicates():
    return st.builds(
        Predicate,
        channel=st.sampled_from(["a", "b"]),
        comparator=st.sampled_from([">", "<"]),
        threshold=st.floats(-2.0, 2.0, allow_nan=False),
    )


def intervals():
    # Grid-aligned endpoints keep every window nonempty at dt = 0.1.
    ends = st.sampled_from([0.0, 0.1, 0.2, 0.3])
    return st.tuples(ends, ends).map(lambda ab: (min(ab), max(ab)))


def formulas(depth=2):
    if depth == 0:
        return predicates()
    sub = formulas(depth - 1)
    return st.one_of(
        predicates(),
        st.builds(Not, sub),
        st.builds(lambda a, b: And((a, b)), sub, sub),
        st.builds(lambda a, b: Or((a, b)), sub, sub),
        st.builds(lambda iv, s: Globally(iv, s), intervals(), sub),
        st.builds(lambda iv, s: Eventually(iv, s), intervals(), sub),
    )


def random_traj(data):
    n = data.draw(st.integers(12, 25))
    rows = [
        [data.draw(st.floats(-3.0, 3.0, allow_nan=False)) for _ in range(n)] for _ in range(2)
    ]
    return Trajectory(0.0, 0.1, ("a", "b"), np.array(rows))


class TestRoundTrip:
    @given(spec=formulas())
    @settings(max_examples=150, deadline=None)
    def test_parse_format_round_trip(self, spec):
        assert parse_spec(format_spec(spec)) == spec


class TestRobustness:
    def test_globally_min_semantics(self):
        t = traj([0.5, 0.3, 0.9, 0.4])
        assert robustness(parse_spec("G[0,0.3](x > 0)"), t) == pytest.approx(0.3)

    def test_eventually_on_ramp(self):
        # x(t) = t sampled on [0, 2]: F[0,2](x > 1) attains max(t - 1) = 1.
        ts = np.arange(0.0, 2.0 + 1e-12, 0.01)
        t = traj(ts, dt=0.01)
        assert robustness(parse_spec("F[0,2](x > 1)"), t) == pytest.approx(1.0)

    def test_braking_crash_matches_dense_grid_oracle(self, braking, braking_phi):
        from safeval.sim import simulate_high

        crash = braking.environment_space.config((5.0, 35.0, 9.0))
        tr = simulate_high(braking, crash, seed=0)
        value = robustness(braking_phi, tr)
        assert value < 0
        # Oracle: re-evaluate the min over a 10x denser linear resampling.
        gap = tr.channel("gap")
        times = tr.times()
        dense_t = np.linspace(times[0], times[-1], (len(times) - 1) * 10 + 1)
        dense_gap = np.interp(dense_t, times, gap)
        assert value == pytest.approx(float(dense_gap.min()), abs=1e-9)

    def test_unknown_channel(self):
        with pytest.raises(InvalidArgumentError):
            robustness(parse_spec("G[0,0.2](nope > 0)"), traj([1.0, 1.0, 1.0]))

    def test_interval_exceeding_duration(self):
        with pytest.raises(SpecEvaluationError):
            robustness(parse_spec("G[0,9](x > 0)"), traj([1.0, 1.0, 1.0]))

    def test_nested_horizon_exceeding_duration(self):
        t = traj(np.ones(11))  # duration 1.0
        with pytest.raises(SpecEvaluationError):
            robustness(parse_spec("G[0,0.8](F[0,0.8](x > 0))"), t)

    def test_nested_temporal(self):
        # G[0,0.2](F[0,0.2](x > 0)): anchors 0..2 see peaks 1.0, 0.5, 0.5.
        t = traj([1.0, -1.0, 0.5, -1.0, 0.25])
        value = robustness(parse_spec("G[0,0.2](F[0,0.2](x > 0))"), t)
        assert value == pytest.approx(0.5)

    def test_empty_window_rejected(self):
        t = traj(np.ones(11))
        with pytest.raises(SpecEvaluationError):
            robustness(Globally((0.131, 0.169), Predicate("x", ">", 0.0)), t)

    def test_horizon(self):
        spec = parse_spec("G[0,0.5](F[0.1,0.2](x > 0))")
        assert horizon(spec) == pytest.approx(0.7)


class TestProperties:
    @given(data=st.data(), spec=formulas())
    @settings(max_examples=150, deadline=None)
    def test_sign_consistency_with_boolean_monitor(self, data, spec):
        t = random_traj(data)
        rho = robustness(spec, t)
        if abs(rho) < 1e-9:
            return  # boundary ties are unordered by design
        assert (rho > 0) == reference_holds(spec, t.samples, t.channels, t.dt)

    @given(data=st.data(), a=formulas(1), b=formulas(1))
    @settings(max_examples=100, deadline=None)
    def test_de_morgan_exact(self, data, a, b):
        t = random_traj(data)
        lhs = robustness(Not(And((a, b))), t)
        rhs = robustness(Or((Not(a), Not(b))), t)
        assert lhs == rhs

    @given(data=st.data(), delta=st.floats(1e-6, 2.0))
    @settings(max_examples=100, deadline=None)
    def test_shift_monotonicity(self, data, delta):
        # Positive fragment (no negation, only '>' predicates): raising a
        # channel uniformly never decreases the formula's robustness, and
        # raises a bare predicate by exactly delta.
        def positive(depth):
            if depth == 0:
                return st.builds(
                    Predicate,
                    channel=st.sampled_from(["a", "b"]),
                    comparator=st.just(">"),
                    threshold=st.floats(-2.0, 2.0),
                )
            sub = positive(depth - 1)
            return st.one_of(
                sub,
                st.builds(lambda x, y: And((x, y)), sub, sub),
                st.builds(lambda x, y: Or((x, y)), sub, sub),
                st.builds(lambda iv, s: Globally(iv, s), intervals(), sub),
                st.builds(lambda iv, s: Eventually(iv, s), intervals(), sub),
            )

        spec = data.draw(positive(2))
        t = random_traj(data)
        shifted = Trajectory(
            t.start_time, t.dt, t.channels, t.samples + np.array([[delta], [0.0]])
        )
        assert robustness(spec, shifted) >= robustness(spec, t) - 1e-12

        pred = Predicate("a", ">", 0.5)
        assert robustness(pred, shifted) - robustness(pred, t) == pytest.approx(delta, abs=1e-12)


def reference_rho(spec, x, channels, dt, k=0):
    """Brute-force robustness at anchor ``k``: every window sliced explicitly."""
    if isinstance(spec, Predicate):
        v = x[channels.index(spec.channel), k]
        return v - spec.threshold if spec.comparator == ">" else spec.threshold - v
    if isinstance(spec, Not):
        return -reference_rho(spec.sub, x, channels, dt, k)
    if isinstance(spec, (And, Or)):
        values = [reference_rho(a, x, channels, dt, k) for a in spec.args]
        return min(values) if isinstance(spec, And) else max(values)
    lo = int(np.ceil(spec.interval[0] / dt - 1e-9))
    hi = int(np.floor(spec.interval[1] / dt + 1e-9))
    window = [reference_rho(spec.sub, x, channels, dt, j)
              for j in range(k + lo, min(k + hi, x.shape[1] - 1) + 1)]
    if isinstance(spec, Globally):
        return min(window, default=np.inf)
    return max(window, default=-np.inf)


def reference_holds(spec, x, channels, dt, k=0):
    """Brute-force boolean verdict at anchor ``k`` (strict comparisons)."""
    if isinstance(spec, Predicate):
        v = x[channels.index(spec.channel), k]
        return bool(v > spec.threshold if spec.comparator == ">" else v < spec.threshold)
    if isinstance(spec, Not):
        return not reference_holds(spec.sub, x, channels, dt, k)
    if isinstance(spec, (And, Or)):
        verdicts = [reference_holds(a, x, channels, dt, k) for a in spec.args]
        return all(verdicts) if isinstance(spec, And) else any(verdicts)
    lo = int(np.ceil(spec.interval[0] / dt - 1e-9))
    hi = int(np.floor(spec.interval[1] / dt + 1e-9))
    window = [reference_holds(spec.sub, x, channels, dt, j)
              for j in range(k + lo, min(k + hi, x.shape[1] - 1) + 1)]
    return all(window) if isinstance(spec, Globally) else any(window)


def tied_batch(data, spec, dt=0.1):
    """Random (batch, 2, steps) samples on a 0.1 grid, as short as the spec allows."""
    need = max(2, int(round(horizon(spec) / dt)) + 1)
    steps = data.draw(st.integers(need, need + 3))
    batch = data.draw(st.integers(1, 5))
    values = st.floats(-3.0, 3.0, allow_nan=False).map(lambda v: round(v, 1) + 0.0)
    flat = data.draw(st.lists(values, min_size=batch * 2 * steps, max_size=batch * 2 * steps))
    return np.array(flat).reshape(batch, 2, steps)


class TestBatchedEvaluator:
    @given(data=st.data(), spec=formulas())
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force_and_per_row(self, data, spec):
        samples = tied_batch(data, spec)
        values = robustness_batch(spec, samples, ("a", "b"), 0.1)
        assert values.shape == (samples.shape[0],)
        for row, value in zip(samples, values):
            assert value == reference_rho(spec, row, ("a", "b"), 0.1)
            assert value == robustness(spec, Trajectory(0.0, 0.1, ("a", "b"), row))

    def test_windows_clipped_at_the_end_and_empty(self):
        from safeval.stl import _sliding

        # Distinct rows, with extremes at both ends of some: a value that leaked
        # into the next row's windows would change that row's answer.
        inf = np.inf
        y = np.array([
            [3.0, -1.0, 4.0, 1.0, -5.0, 9.0, 2.0],
            [-inf, 0.5, -2.0, 7.0, 6.0, -3.0, inf],
            [inf, 8.0, -inf, -4.0, 2.5, 1.0, -6.0],
            [-7.0, -7.5, 0.0, 3.5, inf, -1.5, -inf],
        ])
        n = y.shape[1]
        for lo, hi in [(0, 0), (0, 2), (1, 3), (2, 6), (0, 9), (5, 8), (8, 10)]:
            for take_max in (False, True):
                got = _sliding(y.copy(), lo, hi, n, take_max)
                for r in range(y.shape[0]):
                    for k in range(n):
                        window = y[r, k + lo : min(k + hi, n - 1) + 1]
                        if window.size:
                            want = window.max() if take_max else window.min()
                        else:
                            want = -np.inf if take_max else np.inf
                        assert got[r, k] == want, (lo, hi, take_max, r, k)

    @pytest.mark.parametrize("text, reaches_past_the_end", [
        ("!(a > 0.1)", False),
        ("a > 0 & !(b < 1) & a < 2", False),
        ("a > 0 | b < 1", False),
        ("G[0,0.5](F[0,0.3](a > 0) | !(b < 1))", False),
        ("F[0.2,0.4](G[0.1,0.3](a > -1) & b < 2)", False),
        # An outer window over an inner one's (4, m) view of a buffer 15
        # columns wide, m at most 5: the outer sweep first moves those rows
        # together in place, the second spec twice, its last move onto
        # columns that overlap each row's own.
        ("F[0,0.2](G[0,1.2](a > 0))", False),
        ("G[0,0.3](F[0,0.1](G[0,1](a > 0) | !(b < 0.5)))", False),
        ("G[0,0.9](F[0.5,0.8](a > 0))", True),
    ])
    def test_evaluation_leaves_the_samples_unchanged(self, text, reaches_past_the_end):
        spec = parse_spec(text)
        samples = np.random.default_rng(5).normal(size=(4, 2, 16))
        samples[0, 0, :2] = -0.0
        before = samples.tobytes()
        if reaches_past_the_end:
            with pytest.raises(SpecEvaluationError, match="needs"):
                robustness_batch(spec, samples, ("a", "b"), 0.1)
        else:
            values = robustness_batch(spec, samples, ("a", "b"), 0.1)
            for row, value in zip(samples, values):
                assert value == reference_rho(spec, row, ("a", "b"), 0.1)
            # Rows laid out in any order give the same values.
            assert np.array_equal(robustness_batch(spec, np.asfortranarray(samples),
                                                   ("a", "b"), 0.1), values)
        assert samples.tobytes() == before

    def test_nested_windows_are_swept_in_the_leaf_buffer(self):
        # The leaf's (64, 5001) margins are the only large buffer: F and then G
        # sweep it in place, and the root copies out its 64 values. The bound is
        # that buffer, the root's output and 8 KiB for views and small objects.
        import tracemalloc

        spec = parse_spec("G[0,3](F[0,2](x > -1.9))")
        samples = np.random.default_rng(7).normal(size=(64, 2, 5001))
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            values = robustness_batch(spec, samples, ("x", "y"), 1e-3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert values.shape == (64,)
        assert peak - before <= 64 * 5001 * 8 + 64 * 8 + 8192

    def test_evaluation_leaves_no_reference_cycles(self):
        # A cycle would keep each sample batch alive until the cyclic
        # collector happens to run, which numpy-heavy loops rarely trigger.
        import gc

        spec = parse_spec("G[0,1](F[0,0.5](a > 0) | !(b < 2))")
        samples = np.ones((4, 2, 31))
        gc.collect()
        gc.disable()
        try:
            robustness_batch(spec, samples, ("a", "b"), 0.1)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_batch_errors(self):
        samples = np.ones((3, 2, 11))
        with pytest.raises(InvalidArgumentError):
            robustness_batch(parse_spec("G[0,0.2](nope > 0)"), samples, ("a", "b"), 0.1)
        with pytest.raises(SpecEvaluationError):
            robustness_batch(parse_spec("G[0,2](a > 0)"), samples, ("a", "b"), 0.1)
        with pytest.raises(SpecEvaluationError, match="no sample points"):
            robustness_batch(parse_spec("G[0.13,0.17](a > 0)"), samples, ("a", "b"), 0.1)
        # An unknown channel outranks an empty interval met earlier in the walk.
        with pytest.raises(InvalidArgumentError):
            robustness_batch(parse_spec("G[0.13,0.17](a > 0) & nope > 0"), samples, ("a", "b"), 0.1)
        samples[1, 0, 0] = np.inf
        with pytest.raises(SpecEvaluationError):
            robustness_batch(parse_spec("a > 0"), samples, ("a", "b"), 0.1)


class TestSamplesRead:
    CASES = [
        ("x > 0", 0.1, 1),
        ("G[0,6](x > 0)", 0.01, 601),
        ("G[0,3](F[0,2](x > -1.9))", 1e-3, 5001),
        ("G[0,2.0005](x > 0)", 0.01, 202),  # the window reads 201; the reach needs one more
        ("F[0.05,0.3](G[0,0.1](x > 0)) | x > 2", 0.1, 5),
        ("!(G[0,0.2](x > 0)) & F[0,0.35](G[0.1,0.2](x < 1))", 0.1, 7),  # reads 6, reaches 0.55 s
        ("G[0.15,0.15](x > 0)", 0.1, 3),  # an empty window still reaches 0.15 s
    ]

    @pytest.mark.parametrize("text, dt, expected", CASES)
    def test_count_and_prefix_evaluation(self, text, dt, expected):
        spec = parse_spec(text)
        m = samples_read(spec, dt)
        assert m == expected

        def evaluate(samples):
            try:
                return robustness_batch(spec, samples, ("x",), dt).tolist()
            except SpecEvaluationError as exc:
                return str(exc)

        samples = np.random.default_rng(m).normal(size=(4, 1, m + 7))
        assert evaluate(samples[:, :, :m]) == evaluate(samples)

    def test_interval_end_off_the_grid_needs_the_covering_sample(self):
        spec = parse_spec("G[0,2.0005](x > 0)")
        samples = np.ones((1, 1, 202))
        assert robustness_batch(spec, samples, ("x",), 0.01).tolist() == [1.0]
        with pytest.raises(SpecEvaluationError, match="needs 2.0005 s"):
            robustness_batch(spec, samples[:, :, :201], ("x",), 0.01)
