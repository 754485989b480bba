import functools
import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sigstream import tensor_algebra
from sigstream.errors import DomainError, NotALieElementError, OutOfDepthError
from sigstream.learn import featurize_logsig
from sigstream.lie_algebra import (
    _LIE_ATOL,
    _LIE_RTOL,
    LieCoordinates,
    _level_expansion,
    _level_terms,
    _lie_coords,
    _scatter,
    _unit_triangular_inverse,
    bracket_expand,
    dynkin_check,
    lyndon_basis,
    render_bracketing,
    tensor_to_lie_coords,
    witt_dimension,
)
from sigstream.streams import (
    TRANSFORMS,
    Stream,
    _cut,
    _log_signature_rows,
    log_signature,
    restrict,
    signature,
)
from sigstream.tensor_algebra import TruncatedTensor, tensor_exp, tensor_log

from oracles import _polynomial_of, _standard_tree, exact_log_signature_lyndon, lyndon_words_brute


def random_stream(rng, d, n_samples, scale=1.0):
    times = np.sort(rng.uniform(0, 1, size=n_samples))
    times[0], times[-1] = 0.0, 1.0
    times = np.unique(times)
    points = scale * rng.standard_normal((times.size, d)).cumsum(axis=0)
    return Stream(times, points)


class TestBasis:
    def test_d2_depth3_words(self):
        words = [b.word.letters for b in lyndon_basis(2, 3)]
        assert words == [(1,), (2,), (1, 2), (1, 1, 2), (1, 2, 2)]
        per_degree = [sum(1 for w in words if len(w) == k) for k in (1, 2, 3)]
        assert per_degree == [2, 1, 2]

    def test_one_letter_alphabet(self):
        basis = lyndon_basis(1, 5)
        assert len(basis) == 1
        assert basis[0].word.letters == (1,)

    def test_d3_degree2_count(self):
        degree2 = [b for b in lyndon_basis(3, 2) if b.degree == 2]
        assert [b.word.letters for b in degree2] == [(1, 2), (1, 3), (2, 3)]
        assert witt_dimension(3, 2) == 3

    def test_against_rotation_minimality_oracle(self):
        for d, n in [(2, 6), (3, 4), (4, 3)]:
            got = [b.word.letters for b in lyndon_basis(d, n)]
            assert got == lyndon_words_brute(d, n)

    def test_witt_counts(self):
        for d in range(1, 5):
            basis = lyndon_basis(d, 6)
            for k in range(1, 7):
                count = sum(1 for b in basis if b.degree == k)
                assert count == witt_dimension(d, k), (d, k)

    def test_witt_dimension_needs_positive_sizes(self):
        for dim, degree in [(2, 0), (2, -1), (0, 3), (-1, 2)]:
            with pytest.raises(DomainError):
                witt_dimension(dim, degree)

    def test_standard_factorization_suffix_property(self):
        # the right factor must be the longest proper Lyndon suffix
        from oracles import is_lyndon

        for b in lyndon_basis(3, 5):
            if b.degree == 1:
                assert isinstance(b.bracketing, int)
                continue
            letters = b.word.letters

            def foliage(tree):
                if isinstance(tree, int):
                    return (tree,)
                return foliage(tree[0]) + foliage(tree[1])

            left, right = b.bracketing
            v = foliage(right)
            assert foliage(left) + v == letters
            assert is_lyndon(list(v))
            longest = max(
                (
                    letters[i:]
                    for i in range(1, len(letters))
                    if is_lyndon(list(letters[i:]))
                ),
                key=len,
            )
            assert v == longest

    def test_rendering(self):
        by_word = {b.word.letters: b for b in lyndon_basis(2, 3)}
        assert str(by_word[(1,)]) == "1"
        assert str(by_word[(1, 2)]) == "[1,2]"
        assert str(by_word[(1, 1, 2)]) == "[1,[1,2]]"
        assert render_bracketing(by_word[(1, 2, 2)].bracketing) == "[[1,2],2]"


class TestBracketExpand:
    def test_single_letter(self):
        t = bracket_expand(lyndon_basis(2, 1)[0], 2)
        assert np.allclose(t.levels[1], [1.0, 0.0])

    def test_degree_two(self):
        elem = next(b for b in lyndon_basis(2, 2) if b.degree == 2)
        t = bracket_expand(elem, 2)
        assert np.allclose(t.levels[2], [0.0, 1.0, -1.0, 0.0])

    def test_degree_three_golden(self):
        elem = next(b for b in lyndon_basis(2, 3) if b.word.letters == (1, 1, 2))
        t = bracket_expand(elem, 2)
        # [e1,[e1,e2]] = e112 - 2 e121 + e211
        expected = np.zeros(8)
        expected[0b001] = 1.0
        expected[0b010] = -2.0
        expected[0b100] = 1.0
        assert np.allclose(t.levels[3], expected)

    @pytest.mark.parametrize(
        "tree, depth, error",
        [(0, None, DomainError), ((1, 0), None, DomainError), (3, None, DomainError),
         ((1, 2), 1, OutOfDepthError), (True, None, DomainError), ((1, True), None, DomainError)],
        ids=["letter-zero", "nested-letter-zero", "letter-above-dim", "depth-below-degree",
             "bool-letter", "nested-bool-letter"],
    )
    def test_bad_input(self, tree, depth, error):
        with pytest.raises(error):
            bracket_expand(tree, 2, depth)

    def test_bool_letters_do_not_render(self):
        for tree in (True, (1, False)):
            with pytest.raises(DomainError):
                render_bracketing(tree)

    def test_numpy_letters_match_int_letters(self):
        for tree, as_int in ((np.int64(1), 1), ((1, np.int64(2)), (1, 2)),
                             ((np.int32(1), (1, np.uint8(2))), (1, (1, 2)))):
            got, want = bracket_expand(tree, 2, 4), bracket_expand(as_int, 2, 4)
            assert all(np.array_equal(a, b) for a, b in zip(got.levels, want.levels))
            assert render_bracketing(tree) == render_bracketing(as_int)


class TestCoordinates:
    def test_single_letter(self):
        t = TruncatedTensor(2, 2, [[0.0], [1.0, 0.0], np.zeros(4)])
        coords = tensor_to_lie_coords(t)
        assert coords.coeff("1") == 1.0
        assert coords.coeff("2") == 0.0
        assert coords.coeff("[1,2]") == 0.0

    def test_unit_square_levy_area(self):
        square = Stream(
            [0, 1, 2, 3, 4], [[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]]
        )
        coords = tensor_to_lie_coords(tensor_log(signature(square, 2)))
        assert coords.coeff("[1,2]") == pytest.approx(1.0, abs=1e-12)
        assert coords.coeff("1") == pytest.approx(0.0, abs=1e-12)

    def test_non_lie_rejected(self):
        t = TruncatedTensor(2, 2, [[0.0], [0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
        with pytest.raises(NotALieElementError) as err:
            tensor_to_lie_coords(t)
        assert err.value.level == 2

    def test_batch_names_first_failing_row_at_its_lowest_level(self):
        rng = np.random.default_rng(5)
        rows = [tensor_log(signature(random_stream(rng, 2, 6), 3)) for _ in range(3)]
        levels = [np.array([r.levels[k] for r in rows]) for k in range(4)]
        levels[3][1, 0] += 1.0  # row 1: the word 111 is not a Lie element
        levels[2][2, 1] += 1.0  # row 2: nor is 12, nor 111
        levels[3][2, 0] += 1.0
        for first_failing, want_level in ((1, 3), (2, 2)):
            single = TruncatedTensor(2, 3, [lvl[first_failing] for lvl in levels])
            with pytest.raises(NotALieElementError) as single_err:
                tensor_to_lie_coords(single)
            with pytest.raises(NotALieElementError) as batch_err:
                _lie_coords(levels, 2, 3)
            assert single_err.value.level == batch_err.value.level == want_level
            assert str(batch_err.value) == str(single_err.value)
            levels[3][1, 0] -= 1.0  # mend row 1; row 2 is then the first failing row

    @pytest.mark.filterwarnings("error")  # one NotALieElementError, no numpy warning first
    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e200])
    def test_non_finite_elements_are_rejected(self, bad):
        # NaN compares False with any tolerance, and an infinite norm certifies nothing
        clean = [np.zeros((1, 1)), np.array([[1.0, 0.0]]), np.array([[0.0, 0.5, -0.5, 0.0]])]
        bent = [lvl.copy() for lvl in clean]
        bent[2][0, 1:3] = [bad, -bad]  # inf - inf rebuilds to NaN; 1e200 squared overflows
        with pytest.raises(NotALieElementError) as err:
            tensor_to_lie_coords(TruncatedTensor(2, 2, [lvl[0] for lvl in bent]))
        assert err.value.level == 1
        with pytest.raises(NotALieElementError, match="not finite"):
            _lie_coords([np.vstack(pair) for pair in zip(clean, bent)], 2, 2)
        assert np.array_equal(_lie_coords(clean, 2, 2), [[1.0, 0.0, 0.5]])

    def test_log_signature_of_an_overflowing_stream_is_rejected(self):
        s = Stream([0.0, 1.0], [[1e308, -1e308], [-1e308, 1e308]])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NotALieElementError) as err:
                log_signature(s, 3)
        assert err.value.level is not None

    def test_nonzero_scalar_rejected(self):
        with pytest.raises(DomainError):
            tensor_to_lie_coords(TruncatedTensor.unit(2, 2))

    def test_round_trip_random_coordinates(self):
        rng = np.random.default_rng(21)
        for d, n in [(2, 5), (3, 4)]:
            lam = rng.standard_normal(len(lyndon_basis(d, n)))
            coords = LieCoordinates(d, n, lam)
            back = tensor_to_lie_coords(coords.to_tensor())
            assert np.abs(back.values - lam).max() <= 1e-10 * max(
                1.0, np.abs(lam).max()
            )

    def test_as_pairs(self):
        coords = LieCoordinates(2, 2, [1.0, 2.0, 3.0])
        assert coords.as_pairs() == [("1", 1.0), ("2", 2.0), ("[1,2]", 3.0)]

    def test_sizes_checked_and_counted(self):
        assert LieCoordinates(4, 6, np.zeros(964)).values.size == 964
        for dim, depth in [(2, 0), (0, 2), (-1, 1)]:
            with pytest.raises(DomainError):
                LieCoordinates(dim, depth, [])
        with pytest.raises(DomainError):
            LieCoordinates(2, 3, np.zeros(4))

    def test_coeff_lookup_does_not_keep_instances_alive(self):
        coords = LieCoordinates(2, 2, [1.0, 2.0, 3.0])
        assert coords.coeff((1, 2)) == coords.coeff("[1,2]") == 3.0
        ref = weakref.ref(coords)
        del coords
        gc.collect()
        assert ref() is None


class TestDynkin:
    def test_bracket_has_zero_residual(self):
        t = TruncatedTensor(2, 2, [[0.0], [0.0, 0.0], [0.0, 1.0, -1.0, 0.0]])
        residuals = dynkin_check(t)
        assert residuals[1] == pytest.approx(0.0, abs=1e-14)

    def test_non_lie_word_residual(self):
        # D(e1e2) = e12 - e21, so the residual is ||e12 - e21 - 2 e12|| = sqrt(2)
        t = TruncatedTensor(2, 2, [[0.0], [0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
        residuals = dynkin_check(t)
        assert residuals[1] == pytest.approx(np.sqrt(2.0), rel=1e-12)

    def test_log_signatures_are_lie(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            d = int(rng.integers(2, 4))
            s = random_stream(rng, d, 8, scale=0.4)
            log_sig = tensor_log(signature(s, 4))
            assert dynkin_check(log_sig).max() <= 1e-9

    def test_log_signature_roundtrip_consistency(self):
        rng = np.random.default_rng(41)
        s = random_stream(rng, 2, 10, scale=0.5)
        coords = log_signature(s, 4)
        direct = tensor_log(signature(s, 4))
        diff = coords.to_tensor() - direct
        assert max(np.abs(lvl).max() for lvl in diff.levels) < 1e-12


@functools.lru_cache(maxsize=None)
def least_squares(d, k):
    """(columns, pseudo-inverse): the degree-k Lyndon elements expanded into words by
    ``bracket_expand``, as dense columns, and their least-squares projection."""
    elements = [b for b in lyndon_basis(d, k) if b.degree == k]
    columns = np.array([bracket_expand(b, d).levels[k] for b in elements]).reshape(-1, d**k).T
    return columns, np.linalg.pinv(columns)


def least_squares_coords(levels, d, depth):
    return np.concatenate([least_squares(d, k)[1] @ levels[k] for k in range(1, depth + 1)])


@st.composite
def lie_elements(draw, min_depth=1, scales=(1e-3, 1.0, 1e3)):
    """Random Lyndon coordinates for d <= 4 letters and depth <= 5."""
    d = draw(st.integers(1, 4))
    depth = draw(st.integers(min_depth, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.uniform(-1.0, 1.0, len(lyndon_basis(d, depth)))
    return LieCoordinates(d, depth, draw(st.sampled_from(scales)) * values)


def assert_close(got, want, rtol):
    assert np.abs(got - want).max(initial=0.0) <= rtol * max(np.abs(want).max(initial=0.0), 1e-300)


class TestExactCoordinates:
    @settings(max_examples=60, deadline=None)
    @given(lie_elements())
    def test_lie_elements_match_least_squares(self, coords):
        t = coords.to_tensor()
        got = tensor_to_lie_coords(t).values
        assert_close(got, least_squares_coords(t.levels, coords.dim, coords.depth), 1e-12)
        assert_close(got, coords.values, 1e-12)

    @settings(max_examples=40, deadline=None)
    @given(lie_elements(scales=(1e-3, 0.3, 1.0)))
    def test_exp_log_round_trips_match_least_squares(self, coords):
        t = tensor_log(tensor_exp(coords.to_tensor()))
        got = tensor_to_lie_coords(t).values
        assert_close(got, least_squares_coords(t.levels, coords.dim, coords.depth), 1e-12)
        assert_close(got, coords.values, 1e-10)

    @settings(max_examples=60, deadline=None)
    @given(lie_elements(min_depth=2), st.data())
    def test_perturbed_elements_fail_at_the_same_lowest_level(self, coords, data):
        d, depth = coords.dim, coords.depth
        level = data.draw(st.integers(2, depth))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        levels = [lvl.copy() for lvl in coords.to_tensor().levels]
        columns, pinv = least_squares(d, level)
        outside = rng.standard_normal(d**level)
        outside -= columns @ (pinv @ outside)  # no part along the Lie elements
        assume(np.linalg.norm(outside) > 1e-6)
        size = np.sqrt(sum(float(lvl @ lvl) for lvl in levels))
        levels[level] += 1e-6 * (1.0 + size) * outside / np.linalg.norm(outside)
        for k in range(level + 1, depth + 1):  # higher levels may fail too
            levels[k] += data.draw(st.sampled_from([0.0, 1e-3])) * rng.standard_normal(d**k)
        t = TruncatedTensor(d, depth, levels)
        tolerance = _LIE_RTOL * np.sqrt(sum(float(lvl @ lvl) for lvl in t.levels)) + _LIE_ATOL
        residuals = [
            np.linalg.norm(t.levels[k] - least_squares(d, k)[0] @ (least_squares(d, k)[1] @ t.levels[k]))
            for k in range(1, depth + 1)
        ]
        lowest = 1 + next(i for i, r in enumerate(residuals) if r > tolerance)
        assert lowest == level
        with pytest.raises(NotALieElementError) as single:
            tensor_to_lie_coords(t)
        assert single.value.level == level
        batch = [np.stack([clean, lvl]) for clean, lvl in zip(coords.to_tensor().levels, levels)]
        with pytest.raises(NotALieElementError) as batched:
            _lie_coords(batch, d, depth)
        assert str(batched.value) == str(single.value)


@functools.lru_cache(maxsize=None)
def oracle_expansion(d, k):
    """The degree-k Lyndon elements as an integer (n_k, d^k) matrix, from the
    dict polynomials of ``oracles._polynomial_of``."""
    words = [w for w in lyndon_words_brute(d, k) if len(w) == k]
    matrix = np.zeros((len(words), d**k), dtype=np.int64)
    for r, w in enumerate(words):
        for letters, c in _polynomial_of(_standard_tree(w)).items():
            matrix[r, int(np.ravel_multi_index(np.array(letters) - 1, (d,) * k))] += c
    return matrix


class TestLevelTerms:
    CASES = [(d, k) for d in (1, 2, 3, 4) for k in range(1, 7)] + [(2, k) for k in (10, 11, 12)]

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(CASES), st.integers(1, 6), st.sampled_from([1, 50, 2**22]), st.data())
    def test_terms_and_scatter_match_the_oracle(self, case, rows, chunk, data):
        d, k = case
        matrix = oracle_expansion(d, k)
        _, element, word, coef = _level_terms(d, k)
        dense = np.zeros_like(matrix)
        dense[element, word] = coef
        assert np.array_equal(dense, matrix)
        key = element * d**k + word  # ordered by element, then word; no key twice
        assert np.all(np.diff(key) > 0) and np.all(coef != 0)
        # small integers: both sides are exact, so they agree bit for bit
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        coords = rng.integers(-9, 10, (rows, len(matrix))).astype(float)
        x = rng.integers(-9, 10, (rows, d**k)).astype(float)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tensor_algebra, "_CHUNK_ELEMENTS", chunk)  # slices of rows
            assert np.array_equal(_scatter(coords, element, word, coef, d**k), coords @ matrix)
            assert np.array_equal(_scatter(x, word, element, coef, len(matrix)), x @ matrix.T)


class TestTriangularBlock:
    CASES = [(d, k) for d in (1, 2, 3, 4) for k in range(1, 7)] + [(2, k) for k in range(7, 11)]

    @pytest.mark.parametrize("d, k", CASES)
    def test_lyndon_rows_block_is_unit_lower_triangular_and_integral(self, d, k):
        elements = [b for b in lyndon_basis(d, k) if b.degree == k]
        rows = [b.word.index(d) for b in elements]
        n = len(rows)
        # block[i, j]: coefficient of the i-th Lyndon word in the j-th element
        block = np.array([bracket_expand(b, d).levels[k][rows] for b in elements]).reshape(n, n).T
        assert np.array_equal(block, np.tril(block))
        assert np.array_equal(np.diagonal(block), np.ones(n))
        assert np.array_equal(block, np.rint(block))
        inverse = _unit_triangular_inverse(block)
        assert np.array_equal(block @ inverse, np.eye(n))
        solve = _level_expansion(d, k)
        if (d, k) != (2, 10):  # its gain passes _SOLVE_GAIN
            src, dst, coef, size = solve
            assert size == n and np.all(coef != 0)
            at = np.searchsorted(rows, src)  # the solve reads the Lyndon words only
            assert np.array_equal(np.asarray(rows)[at], src)
            dense = np.zeros((n, n))
            dense[at, dst] = coef
            assert np.array_equal(dense, inverse.T)
        _, element, word, coef = _level_terms(d, k)
        on_rows = np.isin(word, rows)
        from_terms = np.zeros((n, n))
        from_terms[element[on_rows], np.searchsorted(rows, word[on_rows])] = coef[on_rows]
        assert np.array_equal(from_terms, block.T)

    def test_too_large_triangle_fails_fast(self):
        with pytest.raises(DomainError, match="triangular inverse"):
            _level_expansion(8, 6)

    def test_inverse_checks_its_input(self):
        assert np.array_equal(_unit_triangular_inverse(np.array([[1.0, 0.0], [3.0, 1.0]])), [[1, 0], [-3, 1]])
        for bad in ([[1.0, 1.0], [0.0, 1.0]], [[2.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.5, 1.0]]):
            with pytest.raises(AssertionError):
                _unit_triangular_inverse(np.array(bad))
        with pytest.raises(DomainError, match="exact float range"):
            _unit_triangular_inverse(np.array([[1.0, 0.0], [2.0**53, 1.0]]))


class TestExactOracle:
    def test_unit_square(self):
        square = [(0, 0), (1, 0), (1, 1), (0, 1), (0, 0)]
        assert exact_log_signature_lyndon(square, 2) == [0, 0, 1]

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=2, max_size=6),
        st.integers(1, 4),
    )
    def test_integer_paths_match_rational_coordinates(self, vertices, depth):
        want = np.array([float(c) for c in exact_log_signature_lyndon(vertices, depth)])
        stream = Stream(np.arange(float(len(vertices))), np.array(vertices, dtype=float))
        got = log_signature(stream, depth).values
        assert np.abs(got - want).max() <= 1e-13 * max(1.0, np.abs(want).max())


def sampled_streams(rng, d, lengths):
    """Random streams of ``d`` coordinates, one per entry of ``lengths`` (sample counts)."""
    return [
        Stream(np.cumsum(rng.uniform(0.1, 1.0, m)), rng.standard_normal((m, d)).cumsum(axis=0))
        for m in lengths
    ]


class TestBatchInvariance:
    """A stream's log-signature depends on that stream alone: a row computed in a batch
    equals, bit for bit, the row of its stream signed on its own."""

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(1, 4), st.integers(1, 6), st.lists(st.integers(1, 70), min_size=1, max_size=40),
        st.integers(2, 9), st.integers(0, 2**32 - 1),
    )
    def test_feature_and_step_rows_equal_lone_log_signatures(self, d, depth, lengths, cuts, seed):
        rng = np.random.default_rng(seed)
        streams = sampled_streams(rng, d, lengths)
        for transform, apply in TRANSFORMS.items():
            dim = {"none": d, "time": d + 1, "leadlag": 2 * d}[transform]
            if dim**depth > 5**6:  # keep each example cheap
                continue
            rows = featurize_logsig(streams, depth, transform).X[:, 1:]
            for row, s in zip(rows, streams):
                assert np.array_equal(row, log_signature(apply(s), depth).values)
            # the log-ODE steps of the longest stream, cut as logode.solve cuts them
            s = apply(max(streams, key=lambda s: s.n_samples))
            if s.n_samples < 2:
                continue
            picks = np.concatenate([rng.uniform(*s.interval, cuts), rng.choice(s.times, cuts)])
            bounds = np.unique(np.concatenate([s.interval, picks]))
            _, points, index = _cut(s, bounds)
            steps = _log_signature_rows(points, index[:-1], index[1:], depth)
            for row, lo, hi in zip(steps, bounds[:-1], bounds[1:]):
                assert np.array_equal(row, log_signature(restrict(s, lo, hi), depth).values)

    def test_least_squares_rows_equal_lone_log_signatures(self):
        # (2, 10) is solved by least squares (see TestLeastSquaresLevels)
        streams = sampled_streams(np.random.default_rng(15), 2, range(2, 62, 2))
        rows = featurize_logsig(streams, 10).X[:, 1:]
        for row, s in zip(rows, streams):
            assert np.array_equal(row, log_signature(s, 10).values)


class TestColdSetUp:
    def test_cold_log_signature_peak_memory(self):
        # a dense n_k x d^k expansion at d = 4, N = 6 would take 22 MB
        s = random_stream(np.random.default_rng(8), 4, 20, scale=0.3)
        _level_expansion.cache_clear()
        _level_terms.cache_clear()
        tracemalloc.start()
        try:
            log_signature(s, 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48 * 2**20


class TestFiveLetterLevelSix:
    """(5, 6) has 2,580 Lyndon elements over 15,625 words, a dense expansion of 322 MB;
    its terms rebuild and check it without one."""

    def test_coordinates_round_trip_through_to_tensor(self):
        rng = np.random.default_rng(10)
        coords = LieCoordinates(5, 6, rng.uniform(-1.0, 1.0, len(lyndon_basis(5, 6))))
        t = coords.to_tensor()
        assert_close(tensor_to_lie_coords(t).values, coords.values, 1e-12)

    def test_log_signature_rebuilds_the_log(self):
        s = random_stream(np.random.default_rng(11), 5, 6, scale=0.3)
        log = tensor_log(signature(s, 6))
        rebuilt = log_signature(s, 6).to_tensor()
        for k in range(1, 7):
            assert_close(rebuilt.levels[k], log.levels[k], 1e-12)

    def test_perturbed_rows_fail_at_level_six(self):
        rng = np.random.default_rng(12)
        coords = LieCoordinates(5, 6, rng.uniform(-1.0, 1.0, len(lyndon_basis(5, 6))))
        clean = coords.to_tensor().levels
        bent = [lvl.copy() for lvl in clean]
        bent[6][0] += 1e-3  # word 111111 is not Lyndon, so the solve ignores it
        batch = [np.stack([a, b]) for a, b in zip(clean, bent)]
        with pytest.raises(NotALieElementError) as err:
            _lie_coords(batch, 5, 6)
        assert err.value.level == 6
        assert_close(_lie_coords([lvl[:1] for lvl in batch], 5, 6)[0], coords.values, 1e-12)


class TestLeastSquaresLevels:
    """From d = 2, k = 10, and at d = 3, k = 9, the triangular solve would multiply
    rounding error by more than ``_SOLVE_GAIN``, so those levels are solved by least
    squares."""

    def test_ill_conditioned_levels_switch(self):
        assert _level_expansion(2, 9) is not None
        assert _level_expansion(2, 10) is None
        assert _level_expansion(3, 8) is not None
        assert _level_expansion(3, 9) is None  # ||U^{-1}|| = 1.55e4

    def test_lie_elements_match_least_squares(self):
        rng = np.random.default_rng(13)
        coords = LieCoordinates(2, 12, rng.uniform(-1.0, 1.0, len(lyndon_basis(2, 12))))
        t = coords.to_tensor()
        got = tensor_to_lie_coords(t).values
        assert_close(got, least_squares_coords(t.levels, 2, 12), 1e-12)
        assert_close(got, coords.values, 1e-12)

    def test_degree_fourteen_log_signature(self):
        # a path whose level-14 log the triangular solve could not certify as Lie
        s = Stream(np.arange(4.0), np.array([[0.0, 0.0], [1.0, 0.5], [0.3, 1.0], [-1.0, 0.2]]))
        log = tensor_log(signature(s, 14))
        rebuilt = log_signature(s, 14).to_tensor()
        size = max(np.abs(lvl).max() for lvl in log.levels)
        for k in range(1, 15):
            assert np.abs(rebuilt.levels[k] - log.levels[k]).max() <= 1e-12 * size

    def test_rows_the_solve_pushes_past_the_tolerance_take_least_squares(self):
        rng = np.random.default_rng(11)
        s = Stream(np.arange(5.0), np.cumsum(rng.normal(size=(5, 2)), axis=0))
        t = tensor_log(signature(s, 9))
        tolerance = _LIE_RTOL * np.sqrt(sum(float(lvl @ lvl) for lvl in t.levels)) + _LIE_ATOL
        solved = _scatter(t.levels[9][None], *_level_expansion(2, 9))[0]
        assert np.linalg.norm(least_squares(2, 9)[0] @ solved - t.levels[9]) > tolerance
        # level 9 is redone; the levels below keep the solve's rounding, up to 2e-11 here
        top = -witt_dimension(2, 9)
        got = tensor_to_lie_coords(t).values[top:]
        assert_close(got, least_squares_coords(t.levels, 2, 9)[top:], 1e-12)

    def test_perturbed_rows_fail_at_their_level(self):
        rng = np.random.default_rng(14)
        coords = LieCoordinates(2, 12, rng.uniform(-1.0, 1.0, len(lyndon_basis(2, 12))))
        levels = [lvl.copy() for lvl in coords.to_tensor().levels]
        levels[11][0] += 1e-3
        with pytest.raises(NotALieElementError) as err:
            tensor_to_lie_coords(TruncatedTensor(2, 12, levels))
        assert err.value.level == 11


@pytest.mark.parametrize(
    "call, error, match",
    [
        (lambda: lyndon_basis(2, 0), DomainError, "positive"),
        (lambda: LieCoordinates(2, 2, np.zeros(3)).coeff((2, 1)), KeyError, "not a Lyndon"),
        (lambda: LieCoordinates(2, 2, np.zeros(3)).coeff(1.5), TypeError, "float"),
        (lambda: dynkin_check(TruncatedTensor(2, 2, [[1.0], np.zeros(2), np.zeros(4)])),
         DomainError, "zero level-0"),
    ],
    ids=["basis-depth", "coeff-key", "coeff-key-type", "dynkin-level-0"],
)
def test_input_checks(call, error, match):
    with pytest.raises(error, match=match):
        call()
