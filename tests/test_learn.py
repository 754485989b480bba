import warnings

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from sigstream import streams as streams_module
from sigstream import tensor_algebra
from sigstream.errors import (
    DegenerateReportError,
    DimensionMismatchError,
    DomainError,
    NonFiniteResultError,
)
from sigstream.learn import (
    classification_report,
    coordinate_r2,
    featurize,
    featurize_logsig,
    fit_conditional_law,
    fit_lasso,
    fit_ridge,
    lasso_kkt_residual,
    lasso_max_penalty,
    score_and_report,
    stability_selection,
    trapezoid_auc,
    two_class_streams,
)
from sigstream.streams import TRANSFORMS, Stream, log_signature, signature
from sigstream.tensor_algebra import Word, shuffle

from oracles import best_subset_support


def random_streams(rng, count, d, n_samples, scale=0.6):
    out = []
    for _ in range(count):
        pts = scale * rng.standard_normal((n_samples, d)).cumsum(axis=0)
        out.append(Stream(np.linspace(0, 1, n_samples), pts))
    return out


@st.composite
def stream_batches(draw):
    """Depth N <= 4 and 1-6 streams in R^d, d <= 3, of mixed lengths (1-sample ones too)."""
    d = draw(st.integers(1, 3))
    depth = draw(st.integers(1, 4))
    lengths = draw(st.lists(st.integers(1, 5), min_size=1, max_size=6))
    values = st.floats(-2.0, 2.0, allow_nan=False)
    batch = []
    for n in lengths:
        points = draw(st.lists(st.lists(values, min_size=d, max_size=d), min_size=n, max_size=n))
        batch.append(Stream(np.arange(n, dtype=float), points))
    return batch, depth


def assert_rows_close(got, want):
    assert np.abs(got - want).max() <= 1e-12 * max(1.0, float(np.abs(want).max()))


class TestFeaturize:
    @settings(max_examples=60, deadline=None)
    @given(stream_batches())
    def test_rows_match_per_stream_signatures(self, case):
        batch, depth = case
        for transform, fn in TRANSFORMS.items():
            X = featurize(batch, depth, transform).X
            for row, s in zip(X, batch):
                assert_rows_close(row, np.concatenate(signature(fn(s), depth).levels))
        L = featurize_logsig(batch, depth).X
        for row, s in zip(L, batch):
            assert_rows_close(row, np.concatenate([[1.0], log_signature(s, depth).values]))

    def test_group_split_into_slices(self, monkeypatch):
        rng = np.random.default_rng(8)
        batch = random_streams(rng, 7, 2, 9) + random_streams(rng, 3, 2, 4)
        whole = featurize(batch, 3).X
        folds = []

        def counting_fold(levels, increments):
            folds.append(len(increments))
            return tensor_algebra.chen_fold(levels, increments)

        monkeypatch.setattr(streams_module, "chen_fold", counting_fold)
        monkeypatch.setattr(tensor_algebra, "_CHUNK_ELEMENTS", 2 * 8 * 4)  # 2 rows of 8 steps
        sliced = featurize(batch, 3).X
        assert folds == [2, 2, 2, 1, 3]
        assert_rows_close(sliced, whole)

    def test_coefficient_budget(self, monkeypatch):
        batch = random_streams(np.random.default_rng(9), 3, 2, 5)
        monkeypatch.setattr(streams_module, "_COEFF_BUDGET", 3 * 31 - 1)  # depth 4: 31 each
        featurize(batch, 3)
        for fn in (featurize, featurize_logsig):
            with pytest.raises(DomainError, match="budget"):
                fn(batch, 4)

    def test_intercept_column(self):
        rng = np.random.default_rng(0)
        X = featurize(random_streams(rng, 5, 2, 8), 3)
        assert np.all(X.X[:, 0] == 1.0)
        assert X.words[0].degree == 0

    def test_single_1d_stream_row(self):
        c = 0.8
        s = Stream([0.0, 1.0], [[0.0], [c]])
        X = featurize([s], 3)
        assert np.allclose(X.X[0], [1.0, c, c**2 / 2, c**3 / 6])

    def test_feature_count(self):
        rng = np.random.default_rng(1)
        X = featurize(random_streams(rng, 3, 2, 6), 4)
        assert X.X.shape[1] == 1 + 2 + 4 + 8 + 16

    def test_mixed_dimensions_rejected(self):
        a = Stream([0, 1], [[0.0], [1.0]])
        b = Stream([0, 1], [[0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(DimensionMismatchError):
            featurize([a, b], 2)

    def test_logsig_features(self):
        from sigstream.learn import featurize_logsig

        rng = np.random.default_rng(22)
        streams = random_streams(rng, 6, 2, 8)
        X = featurize_logsig(streams, 3)
        assert np.all(X.X[:, 0] == 1.0)
        assert X.X.shape[1] == 1 + 5  # Lyndon dimension of d=2, depth 3
        # column 3 is the [1,2] coordinate: the Levy area of each stream
        from sigstream.streams import log_signature

        for i, s in enumerate(streams):
            assert X.X[i, 3] == pytest.approx(log_signature(s, 3).coeff("[1,2]"))

    @pytest.mark.parametrize("depth", [2, 3, 4])
    def test_column_of_logsig_features(self, depth):
        # Lyndon columns are not laid out like signature columns: the lookup goes by name
        X = featurize_logsig(random_streams(np.random.default_rng(depth), 3, 2, 6), depth)
        assert [X.column_of(w) for w in X.words] == list(range(X.X.shape[1]))
        with pytest.raises(KeyError, match="not a feature column"):
            X.column_of(Word((2, 1)))

    def test_shuffle_consistency_of_columns(self):
        # pointwise products of feature columns match shuffle combinations
        rng = np.random.default_rng(2)
        X = featurize(random_streams(rng, 12, 2, 9), 4)
        pairs = [((1,), (2,)), ((1,), (1, 2)), ((2, 1), (1,)), ((1, 2), (2, 1))]
        for u_letters, v_letters in pairs:
            u, v = Word(u_letters), Word(v_letters)
            lhs = X.X[:, X.column_of(u)] * X.X[:, X.column_of(v)]
            rhs = np.zeros_like(lhs)
            for w, mult in shuffle(u, v).items():
                rhs += mult * X.X[:, X.column_of(w)]
            assert np.abs(lhs - rhs).max() < 1e-8


class TestRidge:
    def test_exact_column_fit(self):
        rng = np.random.default_rng(3)
        X = featurize(random_streams(rng, 30, 2, 8), 3)
        y = X.X[:, 4].copy()
        model = fit_ridge(X, y, lam=0.0)
        assert np.abs(model.predict(X) - y).max() < 1e-9

    def test_large_lambda_limit(self):
        rng = np.random.default_rng(4)
        X = featurize(random_streams(rng, 25, 2, 8), 2)
        y = rng.standard_normal(25)
        model = fit_ridge(X, y, lam=1e12)
        assert np.abs(model.coefficients[1:]).max() < 1e-8
        assert model.coefficients[0] == pytest.approx(y.mean(), rel=1e-8)

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(5)
        n, p = 60, 8
        body = rng.standard_normal((n, p))
        A = np.column_stack([np.ones(n), body])
        y = rng.standard_normal(n)
        lam = 0.37
        model = fit_ridge(A, y, lam)
        # direct dense solve of the centred penalized normal equations
        mu = body.mean(axis=0)
        xc, yc = body - mu, y - y.mean()
        beta = np.linalg.solve(xc.T @ xc + lam * np.eye(p), xc.T @ yc)
        intercept = y.mean() - mu @ beta
        assert np.abs(model.coefficients[1:] - beta).max() < 1e-8
        assert model.coefficients[0] == pytest.approx(intercept, abs=1e-8)

    def test_lambda_must_be_finite_and_non_negative(self):
        rng = np.random.default_rng(7)
        streams = random_streams(rng, 6, 2, 5)
        X = featurize(streams, 2)
        y = rng.standard_normal(6)
        pairs = list(zip(streams, streams))
        for lam in (-1.0, np.nan, np.inf):
            with pytest.raises(DomainError):
                fit_ridge(X, y, lam)
            with pytest.raises(DomainError):
                fit_lasso(X, y, lam)
            with pytest.raises(DomainError):
                fit_conditional_law(pairs, 2, 2, lam=lam)

    def test_overflowing_coefficients_raise(self):
        # at lam = 0, 1 / s of subnormal singular values overflows
        streams = [Stream([0.0, 1.0], [[0.0, 0.0], [a, 1e-310]]) for a in (1e-310, 3e-310)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteResultError, match="coefficients are not finite"):
                fit_ridge(featurize(streams, 1), [0.0, 1.0], 0.0)
            with pytest.raises(NonFiniteResultError, match="coefficients are not finite"):
                fit_conditional_law(list(zip(streams, streams[::-1])), 1, 1, lam=0.0)

    def test_overflowing_lasso_coefficients_raise(self):
        # undoing the standardization of a 1e-150-scale column overflows 1e160-scale weights
        X = np.column_stack([np.ones(5), 1e-150 * np.arange(5.0)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteResultError, match="coefficients are not finite"):
                fit_lasso(X, 1e160 * np.arange(5.0), 0.0)

    def test_shrinkage_monotonicity(self):
        rng = np.random.default_rng(6)
        X = featurize(random_streams(rng, 40, 2, 8), 3)
        y = rng.standard_normal(40)
        norms = [
            np.linalg.norm(fit_ridge(X, y, lam).coefficients[1:])
            for lam in (0.0, 0.01, 0.1, 1.0, 10.0)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(norms[:-1], norms[1:]))


class TestLasso:
    def test_unpenalized_matches_ridge(self):
        rng = np.random.default_rng(7)
        n, p = 80, 6
        A = np.column_stack([np.ones(n), rng.standard_normal((n, p))])
        beta_true = rng.standard_normal(p + 1)
        y = A @ beta_true + 0.01 * rng.standard_normal(n)
        ridge = fit_ridge(A, y, 0.0)
        lasso = fit_lasso(A, y, 0.0, max_iter=50_000, tol=1e-13)
        assert np.abs(ridge.coefficients - lasso.coefficients).max() < 1e-6

    def test_max_penalty_zeroes_everything(self):
        rng = np.random.default_rng(8)
        A = np.column_stack([np.ones(50), rng.standard_normal((50, 10))])
        y = rng.standard_normal(50)
        lam_max = lasso_max_penalty(A, y)
        model = fit_lasso(A, y, lam_max * 1.0001)
        assert np.all(model.coefficients[1:] == 0.0)
        assert model.coefficients[0] == pytest.approx(y.mean())

    def test_planted_sparse_recovery_decade_window(self):
        rng = np.random.default_rng(9)
        n, p = 200, 20
        body = rng.standard_normal((n, p))
        A = np.column_stack([np.ones(n), body])
        support = {3, 11, 17}
        beta = np.zeros(p)
        for j in support:
            beta[j] = rng.choice([-1.0, 1.0]) * rng.uniform(1.0, 2.0)
        y = body @ beta + 0.01 * rng.standard_normal(n)
        # independent oracle: exhaustive best 3-subset least squares
        assert best_subset_support(body, y, 3) == support
        lam_hi = 0.5 * lasso_max_penalty(A, y)
        for lam in np.geomspace(lam_hi / 10, lam_hi, 7):
            model = fit_lasso(A, y, float(lam))
            got = {int(j) - 1 for j in model.active_set}
            assert got == support, (lam, got)

    def test_kkt_conditions(self):
        rng = np.random.default_rng(10)
        A = np.column_stack([np.ones(120), rng.standard_normal((120, 15))])
        y = rng.standard_normal(120)
        lam = 0.3 * lasso_max_penalty(A, y)
        model = fit_lasso(A, y, lam, tol=1e-12)
        worst_zero, worst_active = lasso_kkt_residual(model, A, y)
        assert worst_zero <= 1e-10
        assert worst_active <= 1e-8

    def test_non_convergence_flagged(self):
        rng = np.random.default_rng(11)
        A = np.column_stack([np.ones(40), rng.standard_normal((40, 10))])
        y = rng.standard_normal(40)
        model = fit_lasso(A, y, 1e-6, max_iter=2, tol=1e-15)
        assert not model.converged


class TestReports:
    def test_perfect_separation(self):
        scores = np.array([0.9, 0.8, 0.95, 0.1, 0.2, 0.05])
        labels = np.array([1, 1, 1, 0, 0, 0])
        rep = classification_report(scores, labels)
        assert rep.ks == 1.0
        assert rep.auc == 1.0
        assert rep.accuracy == 1.0
        assert tuple(rep.roc[0]) == (0.0, 0.0)
        assert tuple(rep.roc[-1]) == (1.0, 1.0)

    def test_identical_distributions(self):
        scores = np.array([0.1, 0.4, 0.7, 0.1, 0.4, 0.7])
        labels = np.array([0, 0, 0, 1, 1, 1])
        rep = classification_report(scores, labels)
        assert rep.ks == 0.0
        assert rep.auc == pytest.approx(0.5)

    def test_ks_matches_scipy_with_ties_and_unequal_sizes(self):
        rng = np.random.default_rng(15)
        for _ in range(100):
            n1, n2 = rng.integers(1, 40, size=2)
            a = rng.integers(0, 6, n1) / 2.0  # few distinct values: many ties
            b = rng.integers(0, 6, n2) / 2.0
            rep = classification_report(np.concatenate([a, b]), np.repeat([1, 0], [n1, n2]))
            assert rep.ks == pytest.approx(scipy.stats.ks_2samp(a, b).statistic, abs=1e-15)

    def test_single_class_rejected(self):
        with pytest.raises(DegenerateReportError):
            classification_report(np.array([0.1, 0.9]), np.array([1, 1]))

    def test_roc_monotone_and_auc_matches_curve(self):
        rng = np.random.default_rng(12)
        scores = rng.standard_normal(200)
        labels = (rng.uniform(size=200) < 0.4).astype(int)
        rep = classification_report(scores, labels)
        assert np.all(np.diff(rep.roc[:, 0]) >= 0)
        assert np.all(np.diff(rep.roc[:, 1]) >= 0)
        assert rep.auc == pytest.approx(trapezoid_auc(rep.roc))

    def test_roc_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(13)
        scores = rng.standard_normal(150)
        labels = (rng.uniform(size=150) < 0.5).astype(int)
        if len(np.unique(labels)) < 2:
            labels[0] = 1 - labels[0]
        rep1 = classification_report(scores, labels)
        rep2 = classification_report(np.exp(2.0 * scores), labels)
        assert np.array_equal(rep1.roc, rep2.roc)
        assert rep1.auc == rep2.auc
        assert rep1.ks == rep2.ks

    def test_score_and_report_pair(self):
        rng = np.random.default_rng(14)
        streams, labels = two_class_streams(60, n_steps=40, strength=0.8, seed=20)
        X = featurize(streams, 3)
        model = fit_ridge(X, labels.astype(float), 1e-3)
        rep_learn, rep_test = score_and_report(model, X, labels, X, labels)
        assert rep_learn.auc == rep_test.auc


class TestConditionalLaw:
    def test_identity_coupling_zero_residual(self):
        rng = np.random.default_rng(15)
        streams = random_streams(rng, 40, 2, 8)
        pairs = [(s, s) for s in streams]
        model = fit_conditional_law(pairs, depth_in=3, depth_out=2, lam=0.0)
        X_in = featurize(streams, 3)
        Y = featurize(streams, 2)
        pred = model.predict(X_in)
        assert np.abs(pred - Y.X).max() < 1e-8

    def test_independent_outputs_give_zero_r2(self):
        rng = np.random.default_rng(16)
        inputs = random_streams(rng, 80, 2, 8)
        outputs = random_streams(rng, 80, 2, 8)
        model = fit_conditional_law(
            list(zip(inputs, outputs)), depth_in=2, depth_out=2, lam=1e-6
        )
        fresh_in = random_streams(rng, 80, 2, 8)
        fresh_out = random_streams(rng, 80, 2, 8)
        pred = model.predict(fresh_in)
        r2 = coordinate_r2(featurize(fresh_out, 2).X, pred)
        meaningful = r2[~np.isnan(r2)]
        assert np.nanmax(np.abs(meaningful)) < 0.5
        assert np.nanmean(meaningful) < 0.15

    def test_reparameterised_coupling(self):
        # output runs at double speed: identical signatures, so the fitted
        # map is the identity and out-of-sample R^2 is ~1 per coordinate
        rng = np.random.default_rng(17)
        inputs = random_streams(rng, 60, 2, 9)
        pairs = [
            (s, Stream(s.times * 0.5, s.points)) for s in inputs
        ]
        model = fit_conditional_law(pairs, depth_in=3, depth_out=3, lam=0.0)
        fresh = random_streams(rng, 30, 2, 9)
        fresh_pairs = [(s, Stream(s.times * 0.5, s.points)) for s in fresh]
        pred = model.predict([a for a, _ in fresh_pairs])
        truth = featurize([b for _, b in fresh_pairs], 3).X
        r2 = coordinate_r2(truth, pred)
        assert np.nanmin(r2) >= 0.99

    def test_needs_two_pairs(self):
        s = Stream([0, 1], [[0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(DomainError):
            fit_conditional_law([(s, s)], 2, 2)


class TestSynthetic:
    def test_reproducible(self):
        a_streams, a_labels = two_class_streams(5, n_steps=16, strength=0.6, seed=4)
        b_streams, b_labels = two_class_streams(5, n_steps=16, strength=0.6, seed=4)
        assert np.array_equal(a_labels, b_labels)
        for a, b in zip(a_streams, b_streams):
            assert np.array_equal(a.points, b.points)

    def test_malformed_arguments_rejected(self):
        for kwargs in (
            {"n_per_class": 0},
            {"n_per_class": 2, "n_steps": 1},
            {"n_per_class": 2, "n_steps": 0},
            {"n_per_class": 2, "seed": -1},
        ):
            with pytest.raises(DomainError):
                two_class_streams(**kwargs)

    def test_balanced_and_standardized(self):
        streams, labels = two_class_streams(20, n_steps=32, strength=0.7, seed=5)
        assert labels.sum() == 20
        for s in streams:
            inc = s.increments()
            assert np.abs(inc.mean(axis=0)).max() < 1e-12
            assert np.abs(inc.std(axis=0) * np.sqrt(32) - 1.0).max() < 1e-12

    def test_stability_selection_frequencies(self):
        streams, labels = two_class_streams(40, n_steps=32, strength=0.8, seed=6)
        X = featurize(streams, 2)
        lam = 0.1 * lasso_max_penalty(X, labels.astype(float))
        freq = stability_selection(X, labels.astype(float), lam, n_rounds=20, seed=7)
        assert freq.shape == (6,)
        assert freq.max() <= 1.0
        # the Levy-area pair (columns for words 12 and 21) should dominate
        area_cols = [X.column_of(Word((1, 2))) - 1, X.column_of(Word((2, 1))) - 1]
        assert max(freq[c] for c in area_cols) >= 0.8


PAIR = random_streams(np.random.default_rng(0), 2, 2, 5)


@pytest.mark.parametrize(
    "call, error, match",
    [
        (lambda: featurize(PAIR, 2, "bogus"), DomainError, "unknown transform"),
        (lambda: featurize([], 2), DomainError, "no streams"),
        (lambda: fit_ridge(np.ones((3, 2)), np.ones(2)), DimensionMismatchError, "row count"),
        (lambda: fit_lasso(np.ones((3, 2)), np.ones(2), 0.1), DimensionMismatchError, "row count"),
        (lambda: lasso_max_penalty(np.ones((3, 2)), np.ones(2)), DimensionMismatchError,
         "row count"),
        (lambda: lasso_kkt_residual(fit_lasso(featurize(PAIR, 2), [0.0, 1.0], 0.1),
                                    featurize(PAIR, 2), [0.0, 1.0, 2.0]), DimensionMismatchError,
         "row count"),
        (lambda: stability_selection(np.ones((6, 3)), np.ones(4), 0.1), DimensionMismatchError,
         "row count"),
        (lambda: lasso_kkt_residual(fit_ridge(featurize(PAIR, 2), [0.0, 1.0]),
                                    featurize(PAIR, 2), [0.0, 1.0]), DomainError, "LASSO"),
        (lambda: classification_report([0.1, 0.9], [0, 2]), DomainError, "0/1"),
        (lambda: two_class_streams(1, 8, 1.5), DomainError, "strength"),
        (lambda: two_class_streams(1, 8, -0.1), DomainError, "strength"),
    ],
    ids=["transform", "no-streams", "ridge-rows", "lasso-rows", "max-penalty-rows", "kkt-rows",
         "stability-rows", "kkt-of-ridge", "labels",
         "strength-high", "strength-low"],
)
def test_input_checks(call, error, match):
    with pytest.raises(error, match=match):
        call()
