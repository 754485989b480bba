import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sigstream import tensor_algebra
from sigstream.development import DevelopmentResult, UnitaryPolicy
from sigstream.errors import DimensionMismatchError, DomainError, OutOfDepthError
from sigstream.learn import ClassificationReport
from sigstream.lie_algebra import LieCoordinates, _expand_lyndon, _prefix_plan
from sigstream.logode import LinearSystem, LogOdeSchedule
from sigstream.streams import PartitionDistanceReport, Stream, signature
from sigstream.tensor_algebra import (
    EMPTY_WORD,
    GradeNorms,
    TruncatedTensor,
    Word,
    _prefix_fold,
    chen_fold,
    coeff_map,
    from_json_dict,
    grade_norms,
    inner,
    shuffle,
    shuffle_inner,
    tensor_exp,
    tensor_log,
    tensor_mul,
    to_json_dict,
    words_of_degree,
)

from oracles import fraction_exp_log, riemann_iterated_integrals, shuffle_by_interleaving


def letter(i, d, depth):
    vec = np.zeros(d)
    vec[i - 1] = 1.0
    return TruncatedTensor.from_level1(vec, depth)


def random_tensor(rng, d, depth, scale=1.0):
    levels = [scale * rng.standard_normal(d**k) for k in range(depth + 1)]
    return TruncatedTensor(d, depth, levels)


def max_abs_diff(a, b):
    return max(float(np.abs(x - y).max()) for x, y in zip(a.levels, b.levels))


class TestProduct:
    def test_unit_plus_letter_bilinearity(self):
        d, n = 2, 2
        one = TruncatedTensor.unit(d, n)
        a = one + letter(1, d, n)
        b = one + letter(2, d, n)
        prod = tensor_mul(a, b)
        assert inner(EMPTY_WORD, prod) == 1.0
        assert inner(Word((1,)), prod) == 1.0
        assert inner(Word((2,)), prod) == 1.0
        assert inner(Word((1, 2)), prod) == 1.0
        assert inner(Word((2, 1)), prod) == 0.0
        assert inner(Word((1, 1)), prod) == 0.0

    def test_identity_law(self):
        rng = np.random.default_rng(0)
        a = random_tensor(rng, 3, 4)
        one = TruncatedTensor.unit(3, 4)
        assert max_abs_diff(tensor_mul(one, a), a) == 0.0
        assert max_abs_diff(tensor_mul(a, one), a) == 0.0

    def test_two_segment_exponentials(self):
        # exp(e1) exp(e2) at N=2, hand expansion
        s = tensor_mul(tensor_exp(letter(1, 2, 2)), tensor_exp(letter(2, 2, 2)))
        assert inner(Word((1, 2)), s) == pytest.approx(1.0, abs=1e-15)
        assert inner(Word((2, 1)), s) == pytest.approx(0.0, abs=1e-15)
        assert inner(Word((1, 1)), s) == pytest.approx(0.5, abs=1e-15)
        assert inner(Word((2, 2)), s) == pytest.approx(0.5, abs=1e-15)

    def test_two_segment_vs_riemann_oracle(self):
        # brute-force iterated integrals of the path 0 -> e1 -> e1+e2
        oracle = riemann_iterated_integrals(
            [[0, 0], [1, 0], [1, 1]], depth=3, substeps=10_000
        )
        s = tensor_mul(tensor_exp(letter(1, 2, 3)), tensor_exp(letter(2, 2, 3)))
        for k in range(4):
            assert np.abs(s.levels[k] - oracle[k]).max() < 1e-8

    def test_associativity_random(self):
        rng = np.random.default_rng(7)
        for d, n in [(2, 6), (3, 4), (4, 3)]:
            a, b, c = (random_tensor(rng, d, n) for _ in range(3))
            left = tensor_mul(tensor_mul(a, b), c)
            right = tensor_mul(a, tensor_mul(b, c))
            scale = max(np.abs(x).max() for x in left.levels)
            assert max_abs_diff(left, right) <= 1e-12 * scale

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            tensor_mul(TruncatedTensor.unit(2, 3), TruncatedTensor.unit(3, 3))

    def test_mixed_depth_promotes_to_minimum(self):
        rng = np.random.default_rng(1)
        a = random_tensor(rng, 2, 5)
        b = random_tensor(rng, 2, 3)
        prod = tensor_mul(a, b)
        assert prod.depth == 3


class TestExpLog:
    def test_exp_zero(self):
        z = TruncatedTensor.zeros(2, 4)
        e = tensor_exp(z)
        assert max_abs_diff(e, TruncatedTensor.unit(2, 4)) == 0.0

    def test_exp_scalar_series(self):
        c = 0.7
        e = tensor_exp(TruncatedTensor.from_level1([c], 6))
        for k in range(7):
            assert e.levels[k][0] == pytest.approx(
                c**k / math.factorial(k), rel=1e-14
            )

    def test_exp_bracket_truncates(self):
        # exp([e1,e2]) at N=2: the bracket squared exceeds depth 2
        bracket = TruncatedTensor(2, 2, [[0.0], [0.0, 0.0], [0.0, 1.0, -1.0, 0.0]])
        e = tensor_exp(bracket)
        assert inner(EMPTY_WORD, e) == 1.0
        assert np.allclose(e.levels[1], 0.0)
        assert np.allclose(e.levels[2], [0.0, 1.0, -1.0, 0.0])

    def test_exp_requires_zero_scalar(self):
        with pytest.raises(DomainError):
            tensor_exp(TruncatedTensor.unit(2, 2))

    def test_log_identity(self):
        out = tensor_log(TruncatedTensor.unit(3, 4))
        assert all(not lvl.any() for lvl in out.levels)

    def test_log_scalar_inverse(self):
        c = -1.3
        for depth in (2, 5, 8):
            log = tensor_log(tensor_exp(TruncatedTensor.from_level1([c], depth)))
            assert log.levels[1][0] == pytest.approx(c, rel=1e-13)
            for k in range(2, depth + 1):
                assert abs(log.levels[k][0]) < 1e-12

    def test_log_two_segment_level2(self):
        s = tensor_mul(tensor_exp(letter(1, 2, 2)), tensor_exp(letter(2, 2, 2)))
        log = tensor_log(s)
        assert np.allclose(log.levels[2], [0.0, 0.5, -0.5, 0.0], atol=1e-15)

    @pytest.mark.parametrize("seed", range(24))
    def test_exp_and_log_match_exact_series(self, seed):
        # dyadic entries are exact in floats, so only the series' own rounding remains
        rng = np.random.default_rng(seed)
        d, depth = int(rng.integers(1, 4)), int(rng.integers(1, 5))
        levels = [rng.integers(-8, 9, d**k) / 16 for k in range(depth + 1)]
        for fn, head, log in ((tensor_exp, 0.0, False), (tensor_log, 1.0, True)):
            levels[0] = np.array([head])
            got = np.concatenate(fn(TruncatedTensor(d, depth, levels)).levels)
            exact = fraction_exp_log(levels, d, depth, log)
            err = max(abs(Fraction(float(g)) - e) for g, e in zip(got, exact))
            assert err <= 1e-15 * max(abs(e) for e in exact)

    def test_log_requires_unit_scalar(self):
        with pytest.raises(DomainError):
            tensor_log(TruncatedTensor.zeros(2, 2))

    def test_round_trips_random(self):
        rng = np.random.default_rng(11)
        for d, n in [(2, 6), (3, 4), (4, 3)]:
            b = TruncatedTensor(
                d, n, [[0.0]] + [0.5 * rng.standard_normal(d**k) for k in range(1, n + 1)]
            )
            back = tensor_log(tensor_exp(b))
            scale = max(1e-30, max(np.abs(x).max() for x in b.levels))
            assert max_abs_diff(back, b) <= 1e-10 * scale

            a = TruncatedTensor(
                d, n, [[1.0]] + [0.3 * rng.standard_normal(d**k) for k in range(1, n + 1)]
            )
            back2 = tensor_exp(tensor_log(a))
            scale2 = max(np.abs(x).max() for x in a.levels)
            assert max_abs_diff(back2, a) <= 1e-10 * scale2


@st.composite
def fold_inputs(draw):
    """Running levels S (batch, d^k) and two runs of increments (batch, steps, d)."""
    d = draw(st.integers(1, 3))
    depth = draw(st.integers(1, 4))
    batch = draw(st.integers(1, 3))
    values = st.floats(-1.0, 1.0, allow_nan=False)
    levels = [draw(arrays(float, (batch, d**k), elements=values)) for k in range(depth + 1)]
    a, b = (
        draw(arrays(float, (batch, draw(st.integers(0, 6)), d), elements=values))
        for _ in range(2)
    )
    return levels, a, b


def close_levels(got, want):
    scale = max(1.0, max(float(np.abs(lvl).max()) for lvl in want))
    return all(np.abs(g - w).max() <= 1e-12 * scale for g, w in zip(got, want))


class TestChenFold:
    @settings(max_examples=60, deadline=None)
    @given(fold_inputs())
    def test_matches_product_of_segment_exponentials(self, inputs):
        levels, inc, _ = inputs
        batch, _, d = inc.shape
        depth = len(levels) - 1
        got = chen_fold(levels, inc)
        for row in range(batch):
            want = TruncatedTensor(d, depth, [lvl[row] for lvl in levels])
            for x in inc[row]:
                want = tensor_mul(want, tensor_exp(TruncatedTensor.from_level1(x, depth)))
            assert close_levels([lvl[row] for lvl in got], want.levels)

    @settings(max_examples=60, deadline=None)
    @given(fold_inputs())
    def test_folding_twice_equals_folding_the_concatenation(self, inputs):
        levels, a, b = inputs
        twice = chen_fold(chen_fold(levels, a), b)
        once = chen_fold(levels, np.concatenate([a, b], axis=1))
        assert close_levels(twice, once)

    @settings(max_examples=60, deadline=None)
    @given(fold_inputs())
    def test_many_chunks_match_one(self, inputs):
        levels, a, b = inputs
        inc = np.concatenate([a, b], axis=1)
        whole = chen_fold(levels, inc)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tensor_algebra, "_CACHE_ELEMENTS", 1)  # one step per chunk
            chunked = chen_fold(levels, inc)
        assert close_levels(chunked, whole)


@st.composite
def prefix_fold_inputs(draw):
    """Dimension, depth and increments (paths, steps, d) whose trailing steps are
    zeroed on some paths, as the Monte Carlo loop zeroes them after an exit."""
    d = draw(st.integers(1, 3))
    depth = draw(st.integers(1, 5))
    paths = draw(st.integers(1, 4))
    steps = draw(st.integers(0, 8))
    values = st.floats(-1.0, 1.0, allow_nan=False)
    inc = draw(arrays(float, (paths, steps, d), elements=values))
    stop = draw(st.lists(st.integers(0, steps), min_size=paths, max_size=paths))
    inc[np.arange(steps)[None, :] >= np.array(stop)[:, None]] = 0.0
    return d, depth, inc


class TestPrefixFold:
    @pytest.mark.parametrize("d, depth, size", [(2, 3, 6), (2, 4, 10), (4, 4, 99), (4, 6, 1065)])
    def test_closure_sizes(self, d, depth, size):
        assert sum(letters.shape[1] for letters in _prefix_plan(d, depth).letters[1:]) == size

    @settings(max_examples=80, deadline=None)
    @given(prefix_fold_inputs(), st.data())
    def test_expansion_equals_chen_fold(self, inputs, data):
        d, depth, inc = inputs
        paths, steps, _ = inc.shape
        unit = [np.ones((paths, 1))] + [np.zeros((paths, d**k)) for k in range(1, depth + 1)]
        want = chen_fold(unit, inc)[1:]
        plan = _prefix_plan(d, depth)
        levels = [np.zeros((letters.shape[1], paths)) for letters in plan.letters[1:]]
        cut = data.draw(st.integers(0, steps))  # fold in two blocks
        for piece in (inc[:, :cut], inc[:, cut:]):
            levels = _prefix_fold(plan, levels, np.ascontiguousarray(piece.transpose(1, 2, 0)))
        got = _expand_lyndon(plan, levels)
        scale = max(float(np.abs(lvl).max()) for lvl in want) or 1.0
        for g, w in zip(got, want):
            assert np.abs(g.T - w).max() <= 1e-12 * scale
        zero = [np.zeros_like(lvl) for lvl in levels]
        steps_first = np.ascontiguousarray(inc.transpose(1, 2, 0))
        whole = _prefix_fold(plan, zero, steps_first)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tensor_algebra, "_CHUNK_ELEMENTS", 1)  # one path per chunk
            chunked = _prefix_fold(plan, zero, steps_first)
        for c, w in zip(chunked, whole):
            assert np.abs(c - w).max(initial=0.0) <= 1e-12 * scale


@st.composite
def nilpotent_mats(draw):
    """Depth N and strictly upper-triangular M_1..M_d of size N + 1.

    N + 1 is the largest size at which truncation at depth N loses nothing,
    and the one where the order of non-commuting factors shows most often.
    """
    d = draw(st.integers(1, 3))
    depth = draw(st.integers(1, 4))
    m = depth + 1
    values = st.floats(-1.0, 1.0, allow_nan=False)
    return depth, np.triu(draw(arrays(float, (d, m, m), elements=values)), k=1)


def assert_close_matrices(got, want):
    assert np.abs(got - want).max() <= 1e-12 * max(1.0, float(np.abs(want).max()))


class TestRepresent:
    """_represent is the algebra map e_j -> M_j; with M_j strictly upper-triangular
    of size m <= N + 1 every word longer than N maps to zero, so truncation is exact."""

    @settings(max_examples=60, deadline=None)
    @given(nilpotent_mats(), st.data())
    def test_multiplicative(self, case, data):
        depth, mats = case
        d = mats.shape[0]
        values = st.floats(-1.0, 1.0, allow_nan=False)
        a, b = (
            TruncatedTensor(
                d, depth, [data.draw(arrays(float, d**k, elements=values)) for k in range(depth + 1)]
            )
            for _ in range(2)
        )
        rep = tensor_algebra._represent
        assert_close_matrices(rep(tensor_mul(a, b), mats), rep(a, mats) @ rep(b, mats))

    @settings(max_examples=100, deadline=None)
    @given(nilpotent_mats(), st.data())
    def test_signature_maps_to_product_of_segment_exponentials(self, case, data):
        depth, mats = case
        d, m = mats.shape[0], mats.shape[1]
        n = data.draw(st.integers(1, 6))
        points = data.draw(arrays(float, (n, d), elements=st.floats(-1.0, 1.0)))
        stream = Stream(np.arange(n, dtype=float), points)
        want = np.eye(m)
        for x in stream.increments():
            want = want @ scipy.linalg.expm(np.tensordot(x, mats, axes=(0, 0)))
        got = tensor_algebra._represent(signature(stream, depth), mats)
        assert_close_matrices(got, want)


class TestInner:
    def test_empty_word_of_signature(self):
        e = tensor_exp(letter(1, 2, 3))
        assert inner(EMPTY_WORD, e) == 1.0

    def test_single_letter(self):
        c = 2.25
        e = tensor_exp(TruncatedTensor.from_level1([c, 0.0], 3))
        assert inner(Word((1,)), e) == pytest.approx(c)

    def test_out_of_depth(self):
        with pytest.raises(OutOfDepthError):
            inner(Word((1, 1, 1)), TruncatedTensor.unit(2, 2))


class TestShuffle:
    def test_base_case(self):
        out = shuffle(Word((1,)), Word((2,)))
        assert out == {Word((1, 2)): 1, Word((2, 1)): 1}

    def test_unit_law(self):
        assert shuffle(Word((1,)), EMPTY_WORD) == {Word((1,)): 1}

    def test_multiplicity(self):
        assert shuffle(Word((1, 1)), Word((1,))) == {Word((1, 1, 1)): 3}

    def test_against_interleaving_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            u = tuple(rng.integers(1, 4, size=rng.integers(0, 4)))
            v = tuple(rng.integers(1, 4, size=rng.integers(1, 4)))
            got = {w.letters: m for w, m in shuffle(Word(u), Word(v)).items()}
            assert got == shuffle_by_interleaving(u, v)

    def test_commutative_exact(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            u = Word(tuple(rng.integers(1, 4, size=3)))
            v = Word(tuple(rng.integers(1, 4, size=2)))
            assert shuffle(u, v) == shuffle(v, u)

    def test_associative_exact(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            u = Word(tuple(rng.integers(1, 3, size=2)))
            v = Word(tuple(rng.integers(1, 3, size=2)))
            w = Word(tuple(rng.integers(1, 3, size=1)))

            def fold(first: dict, other: Word):
                acc = {}
                for word, mult in first.items():
                    for w2, m2 in shuffle(word, other).items():
                        acc[w2] = acc.get(w2, 0) + mult * m2
                return acc

            assert fold(shuffle(u, v), w) == fold(shuffle(v, w), u)

    def test_term_count(self):
        from math import comb

        for m, n in [(1, 1), (2, 3), (3, 3)]:
            u = Word(tuple([1] * m))
            v = Word(tuple([2] * n))
            total = sum(shuffle(u, v).values())
            assert total == comb(m + n, m)

    def test_grouplike_identity_on_product_of_exponentials(self):
        s = tensor_mul(tensor_exp(letter(1, 2, 4)), tensor_exp(letter(2, 2, 4)))
        for u_deg in range(0, 3):
            for v_deg in range(0, 3):
                for u in words_of_degree(2, u_deg):
                    for v in words_of_degree(2, v_deg):
                        lhs = inner(u, s) * inner(v, s)
                        rhs = shuffle_inner(u, v, s)
                        assert lhs == pytest.approx(rhs, abs=1e-12)


class TestGradeNorms:
    def test_zero(self):
        norms = grade_norms(TruncatedTensor.zeros(2, 3))
        assert np.all(norms.values == 0.0)

    def test_exponential_l1(self):
        c = -1.5
        e = tensor_exp(TruncatedTensor.from_level1([c], 5))
        norms = grade_norms(e, "l1")
        for k in range(6):
            assert norms.values[k] == pytest.approx(abs(c) ** k / math.factorial(k))

    def test_flavors(self):
        t = TruncatedTensor(2, 1, [[0.0], [3.0, -4.0]])
        assert grade_norms(t, "l1").values[1] == 7.0
        assert grade_norms(t, "l2").values[1] == 5.0
        assert grade_norms(t, "linf").values[1] == 4.0
        with pytest.raises(DomainError):
            grade_norms(t, "operator")


class TestJson:
    def test_round_trip(self):
        rng = np.random.default_rng(8)
        a = random_tensor(rng, 3, 3)
        b = from_json_dict(to_json_dict(a))
        assert max_abs_diff(a, b) == 0.0

    def test_word_rendering(self):
        a = tensor_exp(letter(1, 2, 2))
        cmap = coeff_map(a)
        assert cmap[""] == 1.0
        assert cmap["1"] == 1.0
        assert cmap["1,1"] == 0.5
        assert cmap["1,2"] == 0.0
        assert Word.from_string("1,2,2").letters == (1, 2, 2)


# every class that holds arrays: (name, the caller's array, construct from it, the array held)
ARRAY_HOLDERS = [
    ("Stream", [[0.0, 1.0], [1.0, 0.0]], lambda a: Stream([0.0, 1.0], a), lambda o: o.points),
    ("TruncatedTensor", [0.5, 0.25], lambda a: TruncatedTensor(2, 1, [[1.0], a]),
     lambda o: o.levels[1]),
    ("LieCoordinates", [0.5, 0.25], lambda a: LieCoordinates(2, 1, a), lambda o: o.values),
    ("LinearSystem", [[[0.0, 1.0], [2.0, 0.0]]], LinearSystem, lambda o: o.matrices),
    ("UnitaryPolicy", [[[1.0, 1j], [-1j, -1.0]]], UnitaryPolicy, lambda o: o.generators),
    ("DevelopmentResult", [[0.0, 1j], [1j, 0.0]], lambda a: DevelopmentResult(a, (0.0, 1.0)),
     lambda o: o.psi),
    ("LogOdeSchedule", np.linspace(0.0, 1.0, 5), lambda a: LogOdeSchedule(a, 2),
     lambda o: o.boundaries),
    ("GradeNorms", [1.0, 0.5], lambda a: GradeNorms("l1", a), lambda o: o.values),
    ("PartitionDistanceReport", [0.1, 0.2], lambda a: PartitionDistanceReport(2.0, (1, 2), a),
     lambda o: o.estimates),
    ("ClassificationReport", [[0.0, 0.0], [1.0, 1.0]],
     lambda a: ClassificationReport(1.0, 1.0, 1.0, a), lambda o: o.roc),
]


@pytest.mark.parametrize(
    "values, build, held", [h[1:] for h in ARRAY_HOLDERS], ids=[h[0] for h in ARRAY_HOLDERS]
)
def test_array_holders_keep_read_only_copies(values, build, held):
    given = np.array(values)
    obj = build(given)
    kept = held(obj).copy()
    assert given.flags.writeable  # the caller's array is not frozen in place
    given += 1.0
    assert np.array_equal(held(obj), kept)  # nor aliased
    assert not held(obj).flags.writeable


@pytest.mark.parametrize(
    "call, error, match",
    [
        (lambda: Word((1, 0)), DomainError, "letter must be an integer >= 1"),
        (lambda: Word((1, 3)).index(2), DomainError, "out of range"),
        (lambda: TruncatedTensor(2, 2, [[1.0], [0.0, 0.0]]), DimensionMismatchError, "3 levels"),
        (lambda: TruncatedTensor(2, 1, [[1.0], [0.0, 0.0, 0.0]]), DimensionMismatchError,
         "level 1 must hold 2"),
        (lambda: TruncatedTensor(0, 1), DomainError, "dim must be an integer >= 1"),
        (lambda: TruncatedTensor(2, 1).level(2), OutOfDepthError, "outside"),
        (lambda: TruncatedTensor(2, 1).truncated(2), OutOfDepthError, "cannot extend"),
        (lambda: TruncatedTensor(2, 1) + 1.0, TypeError, "expected TruncatedTensor"),
        (lambda: shuffle_inner(Word((1,)), Word((2,)), TruncatedTensor(2, 1)), OutOfDepthError,
         "exceeds depth"),
        (lambda: inner((1,), TruncatedTensor(2, 2)), DomainError, "word must be a Word"),
        (lambda: shuffle((1,), Word((2,))), DomainError, "u must be a Word"),
        (lambda: shuffle(Word((1,)), "2"), DomainError, "v must be a Word"),
        (lambda: shuffle_inner(Word((1,)), (2,), TruncatedTensor(2, 2)), DomainError,
         "v must be a Word"),
        (lambda: Word.from_string("1,a"), DomainError, "not a word .*'1,a'"),
        (lambda: Word.from_string("1,,2"), DomainError, "not a word .*'1,,2'"),
        (lambda: Word.from_string(12), DomainError, "text must be a str, got int"),
        (lambda: Word.from_string("1,0"), DomainError, "letter must be an integer >= 1"),
    ],
    ids=["letter-zero", "letter-over-dim", "level-count", "level-size", "dim-zero",
         "level-index", "extend", "add-non-tensor", "shuffle-depth", "inner-tuple-word",
         "shuffle-tuple-word", "shuffle-string-word", "shuffle-inner-tuple-word",
         "word-text-letter", "word-text-empty-letter", "word-text-int", "word-text-zero"],
)
def test_input_checks(call, error, match):
    with pytest.raises(error, match=match):
        call()
