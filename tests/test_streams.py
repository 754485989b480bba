import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigstream import streams as streams_module
from sigstream.errors import DimensionMismatchError, DomainError, StreamParseError
from sigstream.streams import (
    Stream,
    concat,
    dp_distance_estimate,
    ingest_csv,
    lead_lag,
    log_signature,
    restrict,
    reverse,
    signature,
    time_augment,
    write_csv,
)
from sigstream.streams import _cut, _signature_levels
from sigstream.tensor_algebra import (
    TruncatedTensor,
    Word,
    grade_norms,
    inner,
    shuffle_inner,
    tensor_mul,
    words_of_degree,
)

from oracles import (
    dp_distance_per_piece,
    p1_distance_exhaustive,
    riemann_iterated_integrals,
    shoelace_area,
)


def random_stream(rng, d, n_samples, scale=1.0):
    times = np.linspace(0.0, 1.0, n_samples)
    points = scale * rng.standard_normal((n_samples, d)).cumsum(axis=0)
    return Stream(times, points)


UNIT_SQUARE = Stream([0, 1, 2, 3, 4], [[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]])


class TestIngest:
    def test_small_file(self):
        s = ingest_csv(io.StringIO("t,x1\n0,0\n1,3\n"))
        assert s.dimension == 1
        assert s.increments()[0, 0] == 3.0

    def test_duplicate_timestamp_names_row(self):
        with pytest.raises(StreamParseError, match="row 3"):
            ingest_csv(io.StringIO("t,x1\n0,0\n0,1\n"))

    def test_ragged_row(self):
        with pytest.raises(StreamParseError, match="row 3"):
            ingest_csv(io.StringIO("t,x1,x2\n0,0,0\n1,2\n"))

    def test_non_numeric_cell(self):
        with pytest.raises(StreamParseError, match="row 2"):
            ingest_csv(io.StringIO("t,x1\n0,zero\n"))

    def test_bad_header(self):
        with pytest.raises(StreamParseError, match="row 1"):
            ingest_csv(io.StringIO("time,x1\n0,0\n"))

    def test_round_trip_500_rows(self, tmp_path):
        rng = np.random.default_rng(0)
        s = random_stream(rng, 4, 500)
        path = tmp_path / "stream.csv"
        write_csv(s, path)
        back = ingest_csv(path)
        assert back.dimension == 4
        assert back.n_samples == 500
        assert np.array_equal(back.times, s.times)
        assert np.array_equal(back.points, s.points)


class TestTransforms:
    def test_time_augment_constant_stream(self):
        s = Stream([0.0, 1.0, 2.0], [[5.0], [5.0], [5.0]])
        aug = time_augment(s)
        sig = signature(aug, 2)
        level1 = sig.levels[1]
        assert level1[0] == pytest.approx(2.0)  # time coordinate is dimension 0
        assert level1[1] == 0.0

    def test_lead_lag_levy_area(self):
        s = Stream([0.0, 1.0], [[0.0], [1.0]])
        ll = lead_lag(s)
        assert ll.dimension == 2
        assert ll.n_samples == 3
        # brute-force integration of the explicit 3-vertex path
        oracle = riemann_iterated_integrals(ll.points, depth=2, substeps=4000)
        sig = signature(ll, 2)
        assert np.abs(sig.levels[2] - oracle[2]).max() < 1e-6
        area = 0.5 * (inner(Word((1, 2)), sig) - inner(Word((2, 1)), sig))
        assert area == pytest.approx(0.5 * 1.0**2, abs=1e-12)

    def test_lead_lag_sample_doubling(self):
        rng = np.random.default_rng(1)
        s = random_stream(rng, 2, 7)
        ll = lead_lag(s)
        assert ll.n_samples == 2 * 7 - 1
        assert ll.dimension == 4

    def test_empty_increment_stream(self):
        s = Stream([0.0, 1.0], [[2.0], [2.0]])
        for transform in (time_augment, lead_lag):
            out = transform(s)
            sig = signature(out, 3)
            if transform is lead_lag:
                assert all(not lvl.any() for lvl in sig.levels[1:])
                assert inner(Word(()), sig) == 1.0


class TestSignature:
    def test_one_dimensional_series(self):
        c = 1.75
        s = Stream([0.0, 0.4, 1.0], [[0.0], [0.3 * c], [c]])
        sig = signature(s, 6)
        for k in range(7):
            assert sig.levels[k][0] == pytest.approx(c**k / math.factorial(k))

    def test_single_point_is_identity(self):
        s = Stream([0.0], [[1.0, 2.0]])
        sig = signature(s, 3)
        assert inner(Word(()), sig) == 1.0
        assert all(not lvl.any() for lvl in sig.levels[1:])
        assert sig.grouplike

    def test_two_segment_words(self):
        s = Stream([0, 1, 2], [[0, 0], [1, 0], [1, 1]])
        sig = signature(s, 2)
        assert inner(Word((1, 2)), sig) == pytest.approx(1.0, abs=1e-14)
        assert inner(Word((2, 1)), sig) == pytest.approx(0.0, abs=1e-14)

    def test_against_riemann_oracle(self):
        s = Stream([0, 1, 2], [[0, 0], [1, 0], [1, 1]])
        oracle = riemann_iterated_integrals(s.points, depth=4, substeps=10_000)
        sig = signature(s, 4)
        for k in range(5):
            assert np.abs(sig.levels[k] - oracle[k]).max() < 1e-8

    def test_unit_square(self):
        sig = signature(UNIT_SQUARE, 2)
        assert np.abs(sig.levels[1]).max() < 1e-14
        area = 0.5 * (inner(Word((1, 2)), sig) - inner(Word((2, 1)), sig))
        assert area == pytest.approx(shoelace_area(UNIT_SQUARE.points), abs=1e-13)

    def test_chen_identity_random(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            d = int(rng.integers(2, 5))
            n = int(rng.integers(2, 7))
            a = random_stream(rng, d, int(rng.integers(2, 12)), scale=0.5)
            b = random_stream(rng, d, int(rng.integers(2, 12)), scale=0.5)
            joint = signature(concat(a, b), n)
            product = tensor_mul(signature(a, n), signature(b, n))
            scale = max(np.abs(lvl).max() for lvl in joint.levels)
            err = max(
                np.abs(x - y).max() for x, y in zip(joint.levels, product.levels)
            )
            assert err <= 1e-12 * max(scale, 1.0)

    def test_reparameterisation_invariance(self):
        rng = np.random.default_rng(4)
        s = random_stream(rng, 3, 9, scale=0.7)
        # insert interpolated sample points: same image, different parameterisation
        mid = 0.5 * (s.times[:-1] + s.times[1:])
        times = np.sort(np.concatenate([s.times, mid]))
        points = np.vstack([s.value_at(t) for t in times])
        refined = Stream(np.linspace(0, 2, times.size), points)
        sig_a = signature(s, 5)
        sig_b = signature(refined, 5)
        scale = max(np.abs(lvl).max() for lvl in sig_a.levels)
        err = max(np.abs(x - y).max() for x, y in zip(sig_a.levels, sig_b.levels))
        assert err <= 1e-12 * max(scale, 1.0)

    def test_inverse(self):
        rng = np.random.default_rng(5)
        s = random_stream(rng, 3, 8, scale=0.6)
        prod = tensor_mul(signature(s, 4), signature(reverse(s), 4))
        assert abs(prod.levels[0][0] - 1.0) < 1e-12
        assert max(np.abs(lvl).max() for lvl in prod.levels[1:]) <= 1e-10

    def test_factorial_decay(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            s = random_stream(rng, 3, 10, scale=0.5)
            sig = signature(s, 6)
            length = s.total_variation("l1")
            norms = grade_norms(sig, "l1")
            for k in range(7):
                bound = length**k / math.factorial(k)
                assert norms.values[k] <= bound * (1 + 1e-12)

    def test_grouplike_shuffle_identity(self):
        rng = np.random.default_rng(7)
        s = random_stream(rng, 2, 6, scale=0.8)
        sig = signature(s, 4)
        for u_deg in range(0, 3):
            for v_deg in range(0, 3):
                for u in words_of_degree(2, u_deg):
                    for v in words_of_degree(2, v_deg):
                        lhs = inner(u, sig) * inner(v, sig)
                        rhs = shuffle_inner(u, v, sig)
                        assert lhs == pytest.approx(rhs, abs=1e-10)


class TestLogSignature:
    def test_straight_segment(self):
        s = Stream([0.0, 2.0], [[0.0, 0.0, 0.0], [0.5, -1.0, 2.0]])
        coords = log_signature(s, 3)
        assert coords.coeff("1") == pytest.approx(0.5)
        assert coords.coeff("2") == pytest.approx(-1.0)
        assert coords.coeff("3") == pytest.approx(2.0)
        higher = [v for b, v in zip(coords.basis, coords.values) if b.degree > 1]
        assert np.abs(higher).max() < 1e-14

    def test_unit_square(self):
        coords = log_signature(UNIT_SQUARE, 2)
        assert coords.coeff("[1,2]") == pytest.approx(1.0, abs=1e-12)
        assert abs(coords.coeff("1")) < 1e-13
        assert abs(coords.coeff("2")) < 1e-13

    def test_path_times_reversal_vanishes(self):
        rng = np.random.default_rng(8)
        s = random_stream(rng, 2, 7, scale=0.5)
        loop = concat(s, reverse(s))
        coords = log_signature(loop, 4)
        assert np.abs(coords.values).max() < 1e-10


class TestDpDistance:
    def test_zero_for_identical(self):
        rng = np.random.default_rng(9)
        s = random_stream(rng, 2, 9)
        report = dp_distance_estimate(s, s, p=1.5, max_level=4)
        assert np.all(report.estimates == 0.0)

    def test_monotone_estimates(self):
        rng = np.random.default_rng(10)
        a = random_stream(rng, 2, 9)
        b = random_stream(rng, 2, 9)
        for p in (1.0, 1.5, 2.0):
            report = dp_distance_estimate(a, b, p=p, max_level=5)
            assert np.all(np.diff(report.estimates) >= 0.0)

    def test_p1_matches_exhaustive_oracle(self):
        # vertices at dyadic times so that the level-6 dyadic partition refines them
        times = np.array([0.0, 1 / 8, 2 / 8, 4 / 8, 5 / 8, 6 / 8, 1.0])
        rng = np.random.default_rng(11)
        pts_a = rng.standard_normal((7, 2))
        pts_b = rng.standard_normal((7, 2))
        a, b = Stream(times, pts_a), Stream(times, pts_b)
        report = dp_distance_estimate(a, b, p=1.0, max_level=6)
        exact = p1_distance_exhaustive(times, pts_a, times, pts_b)
        assert report.estimates[-1] == pytest.approx(exact, abs=1e-9)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.5])
    def test_matches_per_piece_oracle(self, p):
        rng = np.random.default_rng(12)
        for n_a, n_b, level in ((9, 5, 4), (1, 7, 3), (17, 1, 5), (1, 1, 2), (3, 33, 6)):
            a = Stream(np.cumsum(rng.uniform(0.1, 1.0, n_a)), rng.standard_normal((n_a, 2)))
            b = Stream(np.cumsum(rng.uniform(0.1, 1.0, n_b)), rng.standard_normal((n_b, 2)))
            got = dp_distance_estimate(a, b, p=p, max_level=level).estimates
            want = dp_distance_per_piece(a.times, a.points, b.times, b.points, p, level)
            assert np.abs(got - want).max() <= 1e-12 * max(1.0, float(want.max()))

    def test_budget_checked_before_cutting(self, monkeypatch):
        a = Stream([0.0, 1.0, 2.0], [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])

        def no_cut(*args):
            raise AssertionError("cut before the budget check")

        monkeypatch.setattr(streams_module, "_COEFF_BUDGET", 2 * 2**3 * 7 - 1)  # d = 2, p = 2
        monkeypatch.setattr(streams_module, "_cut", no_cut)
        with pytest.raises(DomainError, match="budget"):
            dp_distance_estimate(a, a, p=2.0, max_level=3)
        with pytest.raises(DomainError, match="budget"):
            dp_distance_estimate(a, a, p=2.0, max_level=10**9)

    def test_p_below_one_rejected(self):
        s = Stream([0.0, 1.0], [[0.0], [1.0]])
        with pytest.raises(DomainError):
            dp_distance_estimate(s, s, p=0.5, max_level=2)

    def test_dimension_mismatch(self):
        a = Stream([0.0, 1.0], [[0.0], [1.0]])
        b = Stream([0.0, 1.0], [[0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(DimensionMismatchError):
            dp_distance_estimate(a, b, p=1.0, max_level=2)


class TestSurgery:
    def test_restrict_interpolates(self):
        s = Stream([0.0, 1.0], [[0.0, 0.0], [2.0, 4.0]])
        sub = restrict(s, 0.25, 0.75)
        assert np.allclose(sub.points[0], [0.5, 1.0])
        assert np.allclose(sub.points[-1], [1.5, 3.0])

    def test_restrict_to_an_instant(self):
        s = Stream([0.0, 1.0, 3.0], [[0.0, 0.0], [2.0, 4.0], [0.0, 1.0]])
        for t in (0.0, 0.5, 1.0, 2.0, 3.0):
            sub = restrict(s, t, t)
            assert sub.n_samples == 1 and sub.times[0] == t
            assert np.array_equal(sub.points[0], s.value_at(t))
            assert np.array_equal(np.concatenate(signature(sub, 3).levels), [1.0] + [0.0] * 14)
        assert np.array_equal(s.value_at(1.0), [2.0, 4.0])
        assert np.allclose(s.value_at(2.0), [1.0, 2.5])

    def test_concat_translates(self):
        a = Stream([0.0, 1.0], [[0.0], [1.0]])
        b = Stream([5.0, 6.0], [[7.0], [9.0]])
        joined = concat(a, b)
        assert joined.n_samples == 3
        assert np.allclose(joined.points[:, 0], [0.0, 1.0, 3.0])
        assert np.all(np.diff(joined.times) > 0)


@st.composite
def cut_streams(draw):
    """A stream in R^d, d <= 3, depth N <= 4, and 2-6 non-decreasing cut times
    inside its interval, some of them on sample times."""
    d = draw(st.integers(1, 3))
    depth = draw(st.integers(1, 4))
    n = draw(st.integers(1, 6))
    values = st.floats(-2.0, 2.0, allow_nan=False)
    points = draw(st.lists(st.lists(values, min_size=d, max_size=d), min_size=n, max_size=n))
    gaps = draw(st.lists(st.floats(0.1, 2.0), min_size=n, max_size=n))
    s = Stream(np.cumsum(gaps), points)
    t0, t1 = s.interval
    on_sample = st.sampled_from(list(s.times))
    between = st.floats(0.0, 1.0).map(lambda u: min(t0 + u * (t1 - t0), t1))
    cuts = draw(st.lists(st.one_of(on_sample, between), min_size=2, max_size=6))
    return s, sorted(cuts), depth


def assert_close(got, want):
    assert np.abs(got - want).max() <= 1e-12 * max(1.0, float(np.abs(want).max()))


class TestCut:
    @settings(max_examples=80, deadline=None)
    @given(cut_streams())
    def test_pieces_match_restricted_signatures(self, case):
        s, cuts, depth = case
        _, points, index = _cut(s, cuts)
        rows = np.hstack(_signature_levels(points, index[:-1], index[1:], depth))
        splits = np.cumsum([s.dimension**k for k in range(depth)])
        product = TruncatedTensor.unit(s.dimension, depth)
        for row, lo, hi in zip(rows, cuts[:-1], cuts[1:]):
            assert_close(row, np.concatenate(signature(restrict(s, lo, hi), depth).levels))
            piece = TruncatedTensor(s.dimension, depth, np.split(row, splits))
            product = tensor_mul(product, piece)
        whole = signature(restrict(s, cuts[0], cuts[-1]), depth)
        assert_close(np.concatenate(product.levels), np.concatenate(whole.levels))


LINE = Stream([0.0, 1.0], [[0.0], [1.0]])


@pytest.mark.parametrize(
    "call, error, match",
    [
        (lambda: Stream([0.0, 1.0], [[0.0, 0.0]]), DimensionMismatchError, "one point per timestamp"),
        (lambda: Stream([], np.zeros((0, 2))), DomainError, "at least one sample"),
        (lambda: Stream([0.0, 0.0], [[0.0], [1.0]]), DomainError, "strictly increasing"),
        (lambda: Stream([1.0, 0.0], [[0.0], [1.0]]), DomainError, "strictly increasing"),
        (lambda: LINE.total_variation("l3"), DomainError, "norm flavor"),
        (lambda: Stream([0.0], [[1.0, 2.0]]).total_variation("bogus"), DomainError,
         "norm flavor"),
        (lambda: LINE.value_at(2.0), DomainError, "outside stream interval"),
        (lambda: concat(LINE, UNIT_SQUARE), DimensionMismatchError, "concatenate"),
        (lambda: restrict(LINE, 0.5, 2.0), DomainError, "is not inside"),
        (lambda: dp_distance_estimate(LINE, LINE, p=2.0, max_level=0), DomainError, "max_level"),
        (lambda: ingest_csv(io.StringIO("")), StreamParseError, "empty file"),
        (lambda: ingest_csv(io.StringIO("t,x1\n")), StreamParseError, "no data rows"),
        # 2^32 x (1 + (2^32 - 1)) wraps around to 0 in int64
        (lambda: streams_module._check_budget(np.int64(2**32), np.int64(2**32 - 1), 1, "rows"),
         DomainError, "budget of"),
        (lambda: streams_module._check_budget(1, 1, 29, "rows"), DomainError, "depth limit"),
    ],
    ids=["shape", "no-samples", "repeated-time", "decreasing-time", "flavor",
         "flavor-one-sample", "value-at",
         "concat", "restrict", "dp-levels", "empty-csv", "header-only-csv", "budget-int64",
         "budget-depth"],
)
def test_input_checks(call, error, match):
    with pytest.raises(error, match=match):
        call()
