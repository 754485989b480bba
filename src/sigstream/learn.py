"""Signature features as a linear basis for learning on streams.

Feature vectors are the coordinate iterated integrals up to a depth; their
shuffle structure makes them an algebra, so linear models in these features
approximate generic smooth functionals of the path.  Provides ridge and
LASSO fits, two-class score reports (KS / ROC / AUC / accuracy), regression
from input-stream signatures to expected output-stream signatures, and the
synthetic two-class stream task used to exercise the pipeline end to end.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateReportError, DimensionMismatchError, DomainError, NonFiniteResultError
from .errors import _check_budget, _count, _instance, _points, _real
from .lie_algebra import lyndon_basis
from .streams import TRANSFORMS, Stream, _log_signature_rows, _signature_levels
from .streams import _transformed
from .tensor_algebra import Word, _frozen, _words_up_to

__all__ = [
    "FeatureMatrix",
    "LinearModel",
    "ClassificationReport",
    "ConditionalLawModel",
    "featurize",
    "featurize_logsig",
    "fit_ridge",
    "fit_lasso",
    "lasso_max_penalty",
    "lasso_kkt_residual",
    "classification_report",
    "score_and_report",
    "fit_conditional_law",
    "coordinate_r2",
    "two_class_streams",
    "stability_selection",
]


@dataclass(frozen=True, eq=False)
class FeatureMatrix:
    """Rows are streams, columns are coordinates named by ``words`` (empty word first).

    The columns are signature coordinates (``featurize``) or Lyndon log-signature
    coordinates (``featurize_logsig``); ``column_of`` works for either layout.
    """

    X: np.ndarray
    words: tuple
    dim: int
    depth: int
    transform: str

    def column_of(self, word: Word) -> int:
        if word not in self.words:
            raise KeyError(f"not a feature column here: {word!r}")
        return self.words.index(word)


def featurize(streams, depth: int, transform: str = "none") -> FeatureMatrix:
    """Signature coordinates up to ``depth`` for each stream, one row per stream."""
    points, starts, ends, d = _stacked(streams, transform)
    rows = np.hstack(_signature_levels(points, starts, ends, depth))
    return FeatureMatrix(rows, _words_up_to(d, depth), d, depth, transform)


def featurize_logsig(streams, depth: int, transform: str = "none") -> FeatureMatrix:
    """Log-signature (Lyndon-coordinate) features, with a leading constant column.

    An alternative to raw signature coordinates: far fewer columns, but the
    shuffle-product linearity of pointwise products no longer applies.
    """
    points, starts, ends, d = _stacked(streams, transform)
    coords = _log_signature_rows(points, starts, ends, depth)
    rows = np.hstack([np.ones((len(coords), 1)), coords])
    words = (Word(()),) + tuple(b.word for b in lyndon_basis(d, depth))
    return FeatureMatrix(rows, words, d, depth, transform)


def _stacked(streams, transform):
    """The transformed streams' points stacked, each one's first and last row, and dimension."""
    if transform not in TRANSFORMS:
        raise DomainError(f"unknown transform {transform!r}")
    streams = [_instance("each of streams", s, Stream)
               for s in _instance("streams", streams, Iterable)]
    if not streams:
        raise DomainError("no streams to featurize")
    dims = {s.dimension for s in streams}
    if len(dims) != 1:
        raise DimensionMismatchError(f"streams have mixed dimensions {sorted(dims)}")
    times = np.concatenate([s.times for s in streams])
    _, points = _transformed(times, np.concatenate([s.points for s in streams]), transform)
    ends = np.cumsum([s.n_samples for s in streams]) - 1
    starts = np.concatenate([[0], ends[:-1] + 1])
    step = 2 if transform == "leadlag" else 1  # sample i is row 2i of the lead-lag
    return points, step * starts, step * ends, points.shape[1]


@dataclass(eq=False)
class LinearModel:
    """Linear functional of signature features; the empty-word column is the intercept."""

    coefficients: np.ndarray
    method: str
    lam: float
    words: tuple | None = None
    converged: bool = True
    n_iter: int = 0

    def predict(self, X) -> np.ndarray:
        return _as_array(X, self.coefficients.size) @ self.coefficients

    @property
    def active_set(self) -> np.ndarray:
        return np.nonzero(self.coefficients[1:])[0] + 1


def _as_array(X, columns=None):
    """X (or a FeatureMatrix's X) as a finite 2-D array, with ``columns`` columns if set."""
    X = X.X if isinstance(X, FeatureMatrix) else X
    return _points("X", X, (None, columns), DimensionMismatchError)


def _design(X, y):
    """X as an array and y as a vector, with one label per row of X."""
    A, y = _as_array(X), _points("y", y, None).ravel()
    if A.shape[0] != y.size:
        raise DimensionMismatchError("row count of X must match len(y)")
    return A, y


def _words_of(X):
    return X.words if isinstance(X, FeatureMatrix) else None


def _ridge(body, Y, lam):
    """(intercept, beta) of the ridge fit of Y (1-D or 2-D) on ``body``.

    The intercept is unpenalized.  Solved through the SVD of the centred
    body, so lam = 0 returns the minimum-norm least-squares solution on
    rank-deficient inputs.  Coefficients that overflow (1 / s of subnormal
    singular values at lam = 0) raise NonFiniteResultError.
    """
    mu = body.mean(axis=0)
    y_mean = Y.mean(axis=0)
    u, s, vt = np.linalg.svd(body - mu, full_matrices=False)
    with np.errstate(over="ignore", invalid="ignore"):
        if lam == 0.0:
            filt = np.divide(1.0, s, out=np.zeros_like(s), where=s > s.max(initial=0) * 1e-12)
        else:
            filt = s / (s**2 + lam)
        filt = filt.reshape((-1,) + (1,) * (Y.ndim - 1))
        beta = vt.T @ (filt * (u.T @ (Y - y_mean)))
        intercept = y_mean - mu @ beta
    if not (np.isfinite(beta).all() and np.isfinite(intercept).all()):
        raise NonFiniteResultError("the coefficients are not finite")
    return intercept, beta


def fit_ridge(X, y, lam: float = 0.0) -> LinearModel:
    """Ridge regression, intercept (empty-word column) unpenalized; lam = 0 is min-norm OLS."""
    A, y, lam = *_design(X, y), _real("lam", lam, 0)
    intercept, beta = _ridge(A[:, 1:], y, lam)
    coef = np.concatenate([[intercept], beta])
    return LinearModel(coef, "ridge", lam, words=_words_of(X))


def _standardize(X, y):
    """The LASSO prologue: (z, mu, sigma, usable, y, yc), where z holds the feature
    columns standardized by their means mu and deviations sigma (zero where a column
    is constant, i.e. not ``usable``), y is the checked response and yc = y - mean."""
    A, y = _design(X, y)
    body = A[:, 1:]
    mu = body.mean(axis=0)
    sigma = body.std(axis=0)
    usable = sigma > 0
    z = np.zeros_like(body)
    z[:, usable] = (body[:, usable] - mu[usable]) / sigma[usable]
    return z, mu, sigma, usable, y, y - y.mean()


def lasso_max_penalty(X, y) -> float:
    """Smallest lam that zeroes every penalized coefficient (standardized columns)."""
    z, _, _, _, y, yc = _standardize(X, y)
    return float(np.abs(z.T @ yc).max() / y.size)


def fit_lasso(
    X, y, lam: float, max_iter: int = 10_000, tol: float = 1e-10
) -> LinearModel:
    """LASSO by cyclic coordinate descent with soft thresholding.

    Objective: (1/2n) |y - X beta|^2 + lam |beta|_1 over standardized
    feature columns (intercept unpenalized; the standardization is inverted
    on output).  Passes cycle over the active set (Friedman, Hastie &
    Tibshirani, J. Stat. Softw. 33, 2010): a full pass over all columns that
    moves a coefficient by ``tol`` or more is followed by passes over the nonzero
    coefficients until none moves by ``tol``.  A full pass that moves none
    converges; ``n_iter`` counts passes, and ``max_iter`` of them without
    converging return the model with ``converged=False``.
    """
    z, mu, sigma, usable, y, yc = _standardize(X, y)
    lam, max_iter = _real("lam", lam, 0), _count("max_iter", max_iter, 1)
    tol = _real("tol", tol, 0, lo_open=True)
    n = y.size
    p = z.shape[1]
    beta = np.zeros(p)
    residual = yc.copy()
    converged = False
    passes = 0
    cols = [z[:, j] for j in range(p)]
    sweep = everything = np.flatnonzero(usable).tolist()
    for passes in range(1, max_iter + 1):
        biggest = 0.0
        for j in sweep:
            zj = cols[j]
            old = beta[j]
            rho = (zj @ residual) / n + old  # z columns have unit variance
            new = np.sign(rho) * max(abs(rho) - lam, 0.0)
            if new != old:
                residual += zj * (old - new)
                beta[j] = new
                biggest = max(biggest, abs(new - old))
        converged = biggest < tol and sweep is everything
        if converged:
            break
        sweep = everything if biggest < tol else np.flatnonzero(beta).tolist()
    raw = np.zeros(p)
    with np.errstate(over="ignore", invalid="ignore"):
        raw[usable] = beta[usable] / sigma[usable]
        coef = np.concatenate([[y.mean() - mu @ raw], raw])
    if not np.isfinite(coef).all():
        raise NonFiniteResultError("the coefficients are not finite")
    return LinearModel(
        coef,
        "lasso",
        lam,
        words=_words_of(X),
        converged=converged,
        n_iter=passes,
    )


def lasso_kkt_residual(model: LinearModel, X, y) -> tuple[float, float]:
    """(worst zero-coefficient violation, worst active-coefficient violation).

    Checks the stationarity conditions of the standardized objective:
    |g_j| <= lam for beta_j = 0 and g_j = lam sign(beta_j) otherwise, with
    g the (1/n) X^T residual gradient.
    """
    if model.method != "lasso":
        raise DomainError("KKT residuals are defined for LASSO models")
    z, _, sigma, usable, y, yc = _standardize(X, y)
    beta_std = model.coefficients[1:] * sigma
    grad = z.T @ (yc - z @ beta_std) / y.size
    zero = (beta_std == 0) & usable
    active = (beta_std != 0) & usable
    worst_zero = float(np.maximum(np.abs(grad[zero]) - model.lam, 0.0).max(initial=0.0))
    worst_active = float(
        np.abs(grad[active] - model.lam * np.sign(beta_std[active])).max(initial=0.0)
    )
    return worst_zero, worst_active


# -- classification reporting --------------------------------------------------


@dataclass(frozen=True, eq=False)
class ClassificationReport:
    """Two-class separation summary of a real-valued score."""

    ks: float
    auc: float
    accuracy: float
    roc: np.ndarray  # rows (false positive rate, true positive rate)

    def __post_init__(self):
        object.__setattr__(self, "roc", _frozen(self.roc))


def roc_points(scores, labels) -> np.ndarray:
    """ROC curve by descending threshold sweep over unique scores, ties grouped."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = labels == 1
    n_pos, n_neg = int(pos.sum()), int((~pos).sum())
    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    sorted_pos = pos[order].astype(float)
    distinct = np.nonzero(np.diff(sorted_scores))[0]
    cut = np.concatenate([distinct, [scores.size - 1]])
    tp = np.concatenate([[0.0], np.cumsum(sorted_pos)[cut]])
    fp = np.concatenate([[0.0], np.cumsum(1.0 - sorted_pos)[cut]])
    return np.column_stack([fp / n_neg, tp / n_pos])


def trapezoid_auc(roc: np.ndarray) -> float:
    return float(np.trapezoid(roc[:, 1], roc[:, 0]))


def classification_report(scores, labels, threshold: float = 0.5) -> ClassificationReport:
    """KS, AUC, accuracy-at-threshold and the ROC curve for binary labels."""
    scores, threshold = _points("scores", scores, (None,)), _real("threshold", threshold)
    labels = _points("labels", labels, scores.shape, DimensionMismatchError)
    if not set(np.unique(labels)) <= {0, 1}:
        raise DomainError("labels must be 0/1")
    labels = labels.astype(int)
    if len(np.unique(labels)) < 2:
        raise DegenerateReportError("need both classes to build a report")
    # two-sample KS statistic, the largest gap between the classes' ECDFs at any
    # score, as the exact fraction h / lcm(n1, n2)
    pos, neg = np.sort(scores[labels == 1]), np.sort(scores[labels == 0])
    n1, n2 = pos.size, neg.size
    gap = np.searchsorted(pos, scores, side="right") * n2
    gap -= np.searchsorted(neg, scores, side="right") * n1
    g = math.gcd(n1, n2)
    ks = int(np.abs(gap).max()) // g / (n1 // g * n2)
    roc = roc_points(scores, labels)
    auc = trapezoid_auc(roc)
    accuracy = float(np.mean((scores >= threshold).astype(int) == labels))
    return ClassificationReport(ks, auc, accuracy, roc)


def score_and_report(
    model: LinearModel, X_learn, y_learn, X_test, y_test
) -> tuple[ClassificationReport, ClassificationReport]:
    """In-sample and out-of-sample reports for a fitted score model."""
    return (
        classification_report(model.predict(X_learn), y_learn),
        classification_report(model.predict(X_test), y_test),
    )


# -- conditional-law regression --------------------------------------------------


@dataclass(eq=False)
class ConditionalLawModel:
    """Linear map from input-signature features to expected output signatures."""

    coefficients: np.ndarray  # (n_features_in, n_features_out)
    dim_in: int
    depth_in: int
    dim_out: int
    depth_out: int
    transform: str
    lam: float

    def predict(self, inputs) -> np.ndarray:
        if isinstance(inputs, (FeatureMatrix, np.ndarray)):
            X = _as_array(inputs, self.coefficients.shape[0])
        else:
            X = featurize(inputs, self.depth_in, self.transform).X
        return X @ self.coefficients


def fit_conditional_law(
    pairs, depth_in: int, depth_out: int, lam: float = 0.0, transform: str = "none"
) -> ConditionalLawModel:
    """Regress output-stream signatures on input-stream signatures.

    One ridge fit per output coordinate (all solved in a single SVD pass);
    the predicted vector estimates E[S(output) | S(input)].
    """
    pairs = list(_instance("pairs", pairs, Iterable))
    if len(pairs) < 2:
        raise DomainError("need at least two stream pairs")
    depth_in, depth_out = _count("depth_in", depth_in, 1), _count("depth_out", depth_out, 1)
    lam = _real("lam", lam, 0)
    inputs = featurize([a for a, _ in pairs], depth_in, transform)
    outputs = featurize([b for _, b in pairs], depth_out, transform)
    intercept, beta = _ridge(inputs.X[:, 1:], outputs.X, lam)
    return ConditionalLawModel(
        np.vstack([intercept, beta]),
        inputs.dim,
        depth_in,
        outputs.dim,
        depth_out,
        transform,
        lam,
    )


def coordinate_r2(y_true: np.ndarray, y_pred: np.ndarray) -> np.ndarray:
    """Per-coordinate R^2; coordinates with (near) zero variance report NaN."""
    y_true = _points("y_true", y_true, (None, None))
    y_pred = _points("y_pred", y_pred, y_true.shape, DimensionMismatchError)
    ss_res = ((y_true - y_pred) ** 2).sum(axis=0)
    centred = y_true - y_true.mean(axis=0)
    ss_tot = (centred**2).sum(axis=0)
    scale = (y_true**2).sum(axis=0) + 1e-300
    out = np.full(y_true.shape[1], np.nan)
    meaningful = ss_tot > 1e-12 * scale
    out[meaningful] = 1.0 - ss_res[meaningful] / ss_tot[meaningful]
    return out


# -- synthetic two-class stream task ---------------------------------------------


def two_class_streams(
    n_per_class: int,
    n_steps: int = 64,
    strength: float = 0.8,
    seed: int = 0,
) -> tuple[list[Stream], np.ndarray]:
    """Two classes of 2-D streams distinguished only by temporal ordering.

    In class 1 the second coordinate follows the first with a one-step lag;
    in class 0 it leads by one step.  Marginal scales match by construction
    and each stream is standardized per coordinate (mean-zero, unit-variance
    increments, Brownian 1/sqrt(n) scaling), so level-1 features carry no
    signal; the classes separate through the planted Levy-area drift.
    Returns (streams, labels) interleaved deterministically for the seed.
    """
    strength = _real("strength", strength, 0, 1)
    # at least two steps, to standardize the increments
    n_per_class, n_steps = _count("n_per_class", n_per_class, 1), _count("n_steps", n_steps, 2)
    _check_budget(f"{2 * n_per_class} streams in R^2", 4 * n_per_class * (n_steps + 1))
    rng = np.random.default_rng(_count("seed", seed, 0))
    times = np.linspace(0.0, 1.0, n_steps + 1)
    streams, labels = [], []
    for label in (0, 1):
        for _ in range(n_per_class):
            base = rng.standard_normal(n_steps + 2)
            noise = rng.standard_normal(n_steps)
            lead = base[1:-1]
            partner = base[2:] if label == 0 else base[:-2]
            follow = strength * partner + np.sqrt(1.0 - strength**2) * noise
            inc = np.column_stack([lead, follow])
            inc = (inc - inc.mean(axis=0)) / inc.std(axis=0)
            inc /= np.sqrt(n_steps)
            points = np.vstack([np.zeros(2), np.cumsum(inc, axis=0)])
            streams.append(Stream(times, points))
            labels.append(label)
    return streams, np.array(labels)


def stability_selection(
    X, y, lam: float, n_rounds: int = 50, fraction: float = 0.5, seed: int = 0
) -> np.ndarray:
    """Selection frequency of each penalized feature over LASSO refits on subsamples.

    A plain repeated-subsampling wrapper around ``fit_lasso``; frequencies
    near 1 indicate features selected robustly at this penalty.
    """
    A, y = _design(X, y)
    n_rounds, fraction = _count("n_rounds", n_rounds, 1), _real("fraction", fraction, 0, 1, True)
    rng = np.random.default_rng(_count("seed", seed, 0))
    n = y.size
    take = max(2, int(round(fraction * n)))
    if take > n:
        raise DomainError(f"the design has {n} row(s), fewer than the subsample of {take}")
    counts = np.zeros(A.shape[1] - 1)
    for _ in range(n_rounds):
        rows = rng.choice(n, size=take, replace=False)
        model = fit_lasso(A[rows], y[rows], lam)
        counts += model.coefficients[1:] != 0.0
    return counts / n_rounds
