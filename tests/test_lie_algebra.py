import numpy as np
import pytest

from sigstream.errors import DomainError, NotALieElementError
from sigstream.lie_algebra import (
    LieCoordinates,
    _lie_coords,
    bracket_expand,
    dynkin_check,
    lyndon_basis,
    render_bracketing,
    tensor_to_lie_coords,
    witt_dimension,
)
from sigstream.streams import Stream, log_signature, signature
from sigstream.tensor_algebra import TruncatedTensor, tensor_log

from oracles import lyndon_words_brute


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
