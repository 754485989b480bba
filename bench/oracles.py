"""Reference computations the benchmark checks outputs against.

Each one is written here from the mathematics, not taken from sigstream, so
that a fault in a library kernel cannot also sit in its oracle.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg


class CheckFailed(Exception):
    """An op's output disagrees with its oracle."""


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


def close(actual, expected, rtol, what, atol=0.0):
    """Raise unless |actual - expected| <= rtol * max|expected| + atol elementwise."""
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    require(actual.shape == expected.shape, f"{what}: shape {actual.shape} != {expected.shape}")
    require(bool(np.all(np.isfinite(actual))), f"{what}: non-finite values")
    scale = float(np.abs(expected).max(initial=0.0))
    err = float(np.abs(actual - expected).max(initial=0.0))
    require(err <= rtol * scale + atol, f"{what}: error {err:.3e} > {rtol:g} * {scale:.3e} + {atol:g}")
    return err


# -- signatures ----------------------------------------------------------------


def chen_levels(increments, depth):
    """Signature levels 0..depth of a batch of polylines, one Chen product per segment.

    ``increments`` has shape (batch, segments, d); level k comes back as a
    (batch, d**k) array in lexicographic word order.
    """
    inc = np.asarray(increments, dtype=float)
    batch, segments, d = inc.shape
    levels = [np.ones((batch, 1))] + [np.zeros((batch, d**k)) for k in range(1, depth + 1)]
    for t in range(segments):
        x = inc[:, t]
        seg = [np.ones((batch, 1))]
        for j in range(1, depth + 1):
            seg.append((seg[-1][:, :, None] * x[:, None, :]).reshape(batch, -1) / j)
        levels = [
            sum(
                (levels[i][:, :, None] * seg[k - i][:, None, :]).reshape(batch, -1)
                for i in range(k + 1)
            )
            for k in range(depth + 1)
        ]
    return levels


def lead_lag_increments(points):
    """Lead-lag increments of one polyline: the lead block moves, then the lag block."""
    dx = np.diff(np.asarray(points, dtype=float), axis=0)
    zeros = np.zeros_like(dx)
    lead = np.hstack([dx, zeros])
    lag = np.hstack([zeros, dx])
    return np.stack([lead, lag], axis=1).reshape(-1, 2 * dx.shape[1])


def time_augmented_increments(times, points):
    return np.diff(np.column_stack([times, points]), axis=0)


def piece(times, points, lo, hi):
    """Samples of the polyline restricted to [lo, hi], endpoints interpolated."""
    inside = (times > lo) & (times < hi)
    ends = np.array([[np.interp(t, times, points[:, j]) for j in range(points.shape[1])] for t in (lo, hi)])
    return np.vstack([ends[:1], points[inside], ends[1:]])


def levels_1_2(points):
    """Levels 1 and 2 of a polyline's signature: sum_j (P_{j-1} (x) x_j + x_j (x) x_j / 2)."""
    inc = np.diff(points, axis=0)
    before = np.cumsum(inc, axis=0) - inc
    level2 = before.T @ inc + 0.5 * inc.T @ inc
    return inc.sum(axis=0), level2.reshape(-1)


def dp_profile(a_times, a_points, b_times, b_points, p, max_level):
    """Dyadic lower-bound profile of the p-variation distance, for p < 3 (levels 1, 2)."""
    m_top = int(math.floor(p))
    best, out = 0.0, []
    for level in range(1, max_level + 1):
        cuts = np.linspace(0.0, 1.0, 2**level + 1)
        total = 0.0
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            sa = levels_1_2(piece(a_times, a_points, lo, hi))
            sb = levels_1_2(piece(b_times, b_points, lo, hi))
            total += max(
                float(np.linalg.norm(sa[m - 1] - sb[m - 1])) ** (p / m) for m in range(1, m_top + 1)
            )
        best = max(best, total)
        out.append(best)
    return np.array(out)


# -- learning --------------------------------------------------------------------


def auc(scores, labels):
    """Area under the ROC curve as P(score_pos > score_neg) + P(tie) / 2."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos, neg = scores[labels == 1], scores[labels == 0]
    wins = (pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()
    return float(wins / (pos.size * neg.size))


# -- expected signature of stopped Brownian motion ----------------------------------


def square_torsion_centre(half_side):
    """Expected exit time of planar Brownian motion from the centre of a square.

    The torsion function (Laplacian -2, zero on the boundary) at the centre,
    by its Fourier series.
    """
    total = sum(
        (-1) ** n / ((2 * n + 1) ** 3 * math.cosh((2 * n + 1) * math.pi / 2)) for n in range(30)
    )
    return half_side**2 * (1.0 - 32.0 / math.pi**3 * total)


# -- ODEs along polylines ------------------------------------------------------------


def rk4_along(fields, points, y0, substeps):
    """Reference solution of dy = sum_i V_i(y) dgamma_i along a polyline, RK4 per segment."""
    y = np.asarray(y0, dtype=float).copy()
    h = 1.0 / substeps
    for x in np.diff(points, axis=0):

        def f(state):
            return sum(xi * v(state) for xi, v in zip(x, fields))

        for _ in range(substeps):
            k1 = f(y)
            k2 = f(y + 0.5 * h * k1)
            k3 = f(y + 0.5 * h * k2)
            k4 = f(y + h * k3)
            y = y + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    return y


def develop_expm(generators, points):
    """Ordered product of scipy expm(i sum_j dx_j H_j) over the segments of a polyline."""
    psi = np.eye(generators.shape[1], dtype=complex)
    for x in np.diff(points, axis=0):
        psi = psi @ scipy.linalg.expm(1j * np.tensordot(x, generators, axes=(0, 0)))
    return psi
