from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigstream import development
from sigstream.development import (
    UnitaryPolicy,
    develop,
    development_tail_bound,
    evaluate_signature,
    expected_development,
    random_policy,
    unitarity_defect,
)
from sigstream.errors import DimensionMismatchError, DomainError
from sigstream.streams import Stream, concat, reverse, signature

from oracles import develop_per_segment, expected_development_per_sample, expm


def random_stream(rng, d, n_samples, scale=1.0):
    times = np.linspace(0.0, 1.0, n_samples)
    points = scale * rng.standard_normal((n_samples, d)).cumsum(axis=0)
    return Stream(times, points)


class TestPolicy:
    def test_rejects_non_hermitian(self):
        bad = np.zeros((1, 2, 2), dtype=complex)
        bad[0, 0, 1] = 1.0
        with pytest.raises(DomainError, match="Hermitian"):
            UnitaryPolicy(bad)

    def test_rejects_trace(self):
        bad = np.eye(2, dtype=complex)[None, :, :]
        with pytest.raises(DomainError, match="traceless"):
            UnitaryPolicy(bad)

    def test_random_policy_valid(self):
        pol = random_policy(4, 3, seed=0)
        assert pol.size == 4
        assert pol.driver_dim == 3


class TestDevelop:
    def test_zero_increments(self):
        pol = random_policy(3, 2, seed=1)
        s = Stream([0.0, 1.0], [[0.0, 0.0], [0.0, 0.0]])
        res = develop(pol, s)
        assert np.abs(res.psi - np.eye(3)).max() < 1e-15

    def test_single_segment_matches_expm(self):
        pol = random_policy(2, 1, seed=2)
        c = 0.8
        s = Stream([0.0, 1.0], [[0.0], [c]])
        res = develop(pol, s)
        want = expm(1j * c * pol.generators[0])
        assert np.abs(res.psi - want).max() < 1e-12
        assert unitarity_defect(res.psi) < 1e-13

    def test_reversal_gives_identity(self):
        rng = np.random.default_rng(3)
        pol = random_policy(3, 2, seed=3)
        s = random_stream(rng, 2, 9)
        loop = concat(s, reverse(s))
        res = develop(pol, loop)
        assert np.abs(res.psi - np.eye(3)).max() < 1e-10

    def test_unitarity_random(self):
        rng = np.random.default_rng(4)
        for trial in range(10):
            pol = random_policy(int(rng.integers(2, 5)), 2, seed=100 + trial)
            s = random_stream(rng, 2, 12)
            assert unitarity_defect(develop(pol, s).psi) <= 1e-10

    def test_multiplicativity(self):
        rng = np.random.default_rng(5)
        for trial in range(10):
            pol = random_policy(3, 2, seed=200 + trial)
            a = random_stream(rng, 2, 7)
            b = random_stream(rng, 2, 7)
            lhs = develop(pol, concat(a, b)).psi
            rhs = develop(pol, a).psi @ develop(pol, b).psi
            assert np.abs(lhs - rhs).max() <= 1e-10

    def test_dimension_mismatch(self):
        pol = random_policy(2, 2, seed=6)
        s = Stream([0.0, 1.0], [[0.0], [1.0]])
        with pytest.raises(DimensionMismatchError):
            develop(pol, s)

    def test_truncated_linearity(self):
        # develop equals the signature evaluated in the matrix algebra,
        # up to the factorial tail at the truncation depth
        rng = np.random.default_rng(7)
        pol = random_policy(2, 2, seed=7)
        s = random_stream(rng, 2, 6, scale=0.1)
        depth = 8
        approx = evaluate_signature(pol, signature(s, depth))
        exact = develop(pol, s).psi
        bound = development_tail_bound(pol, s.total_variation("l1"), depth)
        assert np.linalg.norm(exact - approx, 2) <= bound + 1e-13


class TestExpectedDevelopment:
    def test_deterministic_sampler(self):
        pol = random_policy(2, 1, seed=8)
        s = Stream([0.0, 1.0], [[0.0], [0.5]])
        out = expected_development(pol, lambda rng: s, count=5, seed=0)
        assert np.abs(out.mean - develop(pol, s).psi).max() < 1e-14
        assert np.all(out.stderr < 1e-14)

    def test_mean_entries_bounded(self):
        pol = random_policy(3, 2, seed=9)
        rng_master = np.random.default_rng(9)

        def sampler(rng):
            return random_stream(rng, 2, 6)

        out = expected_development(pol, sampler, count=50, seed=1)
        assert np.abs(out.mean).max() <= 1.0 + 1e-12

    def test_symmetric_sampler_closed_form(self):
        # symmetric +/- single segment in d=1: mean is cos(c H1)
        pol = random_policy(3, 1, seed=10)
        c = 0.9

        def sampler(rng):
            sign = 1.0 if rng.uniform() < 0.5 else -1.0
            return Stream([0.0, 1.0], [[0.0], [sign * c]])

        out = expected_development(pol, sampler, count=4000, seed=2)
        eigvals, eigvecs = np.linalg.eigh(pol.generators[0])
        cos_ch = (eigvecs * np.cos(c * eigvals)) @ eigvecs.conj().T
        # the sampler mean converges at rate 1/sqrt(n); both exp(+-icH) average exactly
        plus = develop(pol, Stream([0, 1], [[0.0], [c]])).psi
        minus = develop(pol, Stream([0, 1], [[0.0], [-c]])).psi
        assert np.abs(0.5 * (plus + minus) - cos_ch).max() < 1e-12
        # and the Monte Carlo mean is within sampling error of the closed form
        assert np.abs(out.mean - cos_ch).max() < 5 * np.abs(out.stderr).max() + 0.05

    def test_count_validation(self):
        pol = random_policy(2, 1, seed=11)
        with pytest.raises(DomainError):
            expected_development(pol, lambda rng: None, count=0)


def mixed_sampler(d, max_samples):
    """Streams of 1..max_samples samples, one-sample (identity) streams included."""

    def sampler(rng):
        return random_stream(rng, d, int(rng.integers(1, max_samples + 1)))

    return sampler


class TestBatchedDevelopment:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(2, 5),
        st.integers(1, 3),
        st.integers(1, 40),
        st.integers(0, 2**32 - 1),
        st.sampled_from([1, 3, development._SLICE]),
    )
    def test_matches_per_segment_oracle(self, u, d, n, seed, slice_):
        rng = np.random.default_rng(seed)
        pol = random_policy(u, d, seed=seed)
        s = random_stream(rng, d, n)
        sampler = mixed_sampler(d, n)
        want = expected_development_per_sample(pol.generators, sampler, n, seed)
        with mock.patch.object(development, "_SLICE", slice_):
            psi = develop(pol, s).psi
            got = expected_development(pol, sampler, n, seed)
        assert np.array_equal(psi, develop_per_segment(pol.generators, s.increments()))
        assert np.array_equal(got.mean, want[0])
        assert np.array_equal(got.stderr, want[1])

    @pytest.mark.parametrize("slice_", [1, 3])
    def test_slice_size_leaves_bits_unchanged(self, monkeypatch, slice_):
        pol = random_policy(4, 2, seed=12)

        def sampler(rng):
            return random_stream(rng, 2, 65)

        default = expected_development(pol, sampler, 20, seed=3)
        monkeypatch.setattr(development, "_SLICE", slice_)
        sliced = expected_development(pol, sampler, 20, seed=3)
        assert np.array_equal(sliced.mean, default.mean)
        assert np.array_equal(sliced.stderr, default.stderr)

    def test_mixed_sample_counts(self, monkeypatch):
        pol = random_policy(3, 2, seed=13)
        sampler = mixed_sampler(2, 6)
        assert np.array_equal(develop(pol, Stream([0.0], [[0.5, -0.5]])).psi, np.eye(3))
        want = expected_development_per_sample(pol.generators, sampler, 300, 4)
        for slice_ in (development._SLICE, 7):
            monkeypatch.setattr(development, "_SLICE", slice_)
            got = expected_development(pol, sampler, 300, seed=4)
            assert np.array_equal(got.mean, want[0])
            assert np.array_equal(got.stderr, want[1])

    def test_wrong_dimension_sample_rejected(self):
        pol = random_policy(2, 2, seed=14)

        def sampler(rng):
            return random_stream(rng, 3 if rng.uniform() < 0.3 else 2, 5)

        with pytest.raises(DimensionMismatchError):
            expected_development(pol, sampler, 50, seed=5)


@pytest.mark.parametrize(
    "call, error, match",
    [
        (lambda: UnitaryPolicy(np.zeros((1, 2, 3))), DomainError, "shape"),
        (lambda: UnitaryPolicy(np.zeros((1, 1, 1))), DomainError, "at least 2"),
        # NaN fails every comparison, so the Hermitian and trace tests alone pass it
        (lambda: UnitaryPolicy([[[np.nan, 0.0], [0.0, -1.0]]]), DomainError, "finite"),
        (lambda: UnitaryPolicy([[[np.inf, 0.0], [0.0, -1.0]]]), DomainError, "finite"),
        (lambda: evaluate_signature(random_policy(2, 2, seed=0),
                                    signature(Stream([0.0, 1.0], np.zeros((2, 3))), 2)),
         DimensionMismatchError, "driver dimensions differ"),
    ],
    ids=["policy-shape", "policy-size", "policy-nan", "policy-inf", "evaluate-dimension"],
)
def test_input_checks(call, error, match):
    with pytest.raises(error, match=match):
        call()
