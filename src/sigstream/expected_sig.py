"""Expected signature of planar Brownian motion stopped at a domain boundary.

Two routes to the same object: a level-by-level recurrence of Poisson
problems on a finite-difference grid (each tensor component of level n+2 is
sourced by levels n and n+1), and a direct Monte Carlo average of stopped-path
signatures.  A radius diagnostic reports the per-level norm profile used to
reason about convergence of sum_n z^n |E S^n|; it makes no determinacy claim.

A domain is any object with four members; GridDomain and mc_expected_sig use
no others, so it needs no base class.  ``bbox`` is (x0, x1, y0, y1), ``anchor``
an interior point, ``contains(points)`` tests for strictly inside (domains are
open), and ``ray_hits(origins, directions)`` gives per ray the least t > 0 with
origin + t * direction on the boundary (non-finite where the ray misses it).
A segment p0 -> p1 leaves at fraction clip(ray_hits(p0, p1 - p0), 0, 1), and
the distance to the boundary along a unit direction u is ray_hits(p, u).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, DomainError, TimeCapError
from . import tensor_algebra
from .lie_algebra import _expand_lyndon, _prefix_plan
from .streams import _COEFF_BUDGET, _check_budget
from .tensor_algebra import TruncatedTensor, _mean_stderr, _prefix_fold, chen_fold, grade_norms

__all__ = [
    "DiskDomain",
    "PolygonDomain",
    "GridDomain",
    "ExpectedSigField",
    "McExpectedSignature",
    "RadiusDiagnostic",
    "solve_recurrence",
    "mc_expected_sig",
    "radius_diagnostic",
    "parse_domain",
]

_THETA_FLOOR = 1e-8
_BLOCK_STEPS = 8  # Monte Carlo steps drawn and folded per block


class DiskDomain:
    """Open disk of radius r; the default centre is the origin."""

    def __init__(self, radius: float, center=(0.0, 0.0)):
        if not 0 < radius < math.inf:
            raise DomainError(f"radius must be positive and finite, got {radius}")
        self.radius = float(radius)
        self.center = np.asarray(center, dtype=float)

    @property
    def bbox(self):
        c, r = self.center, self.radius
        return (c[0] - r, c[0] + r, c[1] - r, c[1] + r)

    @property
    def anchor(self):
        return self.center

    def contains(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        dx = pts[..., 0] - self.center[0]
        dy = pts[..., 1] - self.center[1]
        return dx * dx + dy * dy < self.radius**2

    def ray_hits(self, origins, directions):
        """Larger root t of |origin + t * direction - center| = radius, per ray."""
        p = np.atleast_2d(origins) - self.center
        d = np.atleast_2d(directions)
        a = (d**2).sum(axis=1)
        b = (p * d).sum(axis=1)
        c = (p**2).sum(axis=1) - self.radius**2
        disc = np.maximum(b**2 - a * c, 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            return (-b + np.sqrt(disc)) / a

    def __str__(self):
        return f"disk:{self.radius:g}"


class PolygonDomain:
    """Open simple polygon given by its vertex loop (closing edge implied)."""

    def __init__(self, vertices):
        pts = np.asarray(vertices, dtype=float)
        if pts.ndim == 2 and np.array_equal(pts[:1], pts[-1:]):
            pts = pts[:-1]  # an explicit closing vertex
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 3:
            raise DomainError("polygon needs at least three 2-D vertices")
        if not np.all(np.isfinite(pts)):
            raise DomainError("polygon vertices must be finite")
        self.vertices = pts
        self._edges = (pts, np.roll(pts, -1, axis=0))

    @property
    def bbox(self):
        v = self.vertices
        return (v[:, 0].min(), v[:, 0].max(), v[:, 1].min(), v[:, 1].max())

    @property
    def anchor(self):
        x0, x1, y0, y1 = self.bbox
        return np.array([0.5 * (x0 + x1), 0.5 * (y0 + y1)])

    def contains(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        px, py = pts[..., 0], pts[..., 1]
        a, b = self._edges
        inside = np.zeros(pts.shape[:-1], dtype=bool)
        on_edge = np.zeros(pts.shape[:-1], dtype=bool)
        for (x0, y0), (x1, y1) in zip(a, b):  # even-odd ray casting
            crosses = (y0 > py) != (y1 > py)
            with np.errstate(divide="ignore", invalid="ignore"):
                x_cross = x0 + (py - y0) * (x1 - x0) / (y1 - y0)
            inside ^= crosses & (px < x_cross)
            # the domain is open: ray casting alone keeps some edges inside
            on_edge |= (
                ((x1 - x0) * (py - y0) == (y1 - y0) * (px - x0))
                & (np.minimum(x0, x1) <= px) & (px <= np.maximum(x0, x1))
                & (np.minimum(y0, y1) <= py) & (py <= np.maximum(y0, y1))
            )
        return inside & ~on_edge

    def ray_hits(self, origins, directions):
        """Smallest positive fraction along each ray to any polygon edge."""
        origins = np.atleast_2d(origins)
        directions = np.atleast_2d(directions)
        a, b = self._edges
        best = np.full(origins.shape[0], np.inf)
        for (x0, y0), (x1, y1) in zip(a, b):
            ex, ey = x1 - x0, y1 - y0
            denom = directions[:, 0] * (-ey) + directions[:, 1] * ex
            with np.errstate(divide="ignore", invalid="ignore"):
                t = (
                    (x0 - origins[:, 0]) * (-ey) + (y0 - origins[:, 1]) * ex
                ) / denom
                u = (
                    (x0 - origins[:, 0]) * (-directions[:, 1])
                    + (y0 - origins[:, 1]) * directions[:, 0]
                ) / denom
            ok = np.isfinite(t) & (t > 0) & (u >= 0.0) & (u <= 1.0)
            best = np.where(ok & (t < best), t, best)
        return best

    def __str__(self):
        flat = ";".join(f"{x:g},{y:g}" for x, y in self.vertices)
        return f"polygon:{flat}"


def parse_domain(text: str):
    """Parse CLI domain descriptors: ``disk:R`` or ``polygon:x1,y1;x2,y2;...``."""
    kind, _, rest = text.partition(":")
    try:
        if kind == "disk":
            return DiskDomain(float(rest))
        if kind == "polygon":
            vertices = [[float(v) for v in pair.split(",")] for pair in rest.split(";")]
            if any(len(v) != 2 for v in vertices):
                raise ValueError("vertices must be x,y pairs")
            return PolygonDomain(vertices)
    except ValueError as exc:
        raise DomainError(f"malformed domain descriptor {text!r}: {exc}") from None
    raise DomainError(f"unknown domain descriptor {text!r}")


_DIRECTIONS = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])


class GridDomain:
    """Uniform grid over a 2-D domain with a Dirichlet Laplacian.

    ``boundary="exact"`` uses distance-corrected (Shortley-Weller) stencils
    at points whose grid neighbour falls outside: second-order accurate up
    to the boundary.  ``boundary="snap"`` treats the first exterior grid
    point as the boundary (plain 5-point stencil), which is first-order
    near curved boundaries.
    """

    def __init__(self, descriptor, h: float, boundary: str = "exact"):
        if not 0 < h < math.inf:
            raise DomainError(f"grid spacing must be positive and finite, got {h}")
        if boundary not in ("exact", "snap"):
            raise DomainError("boundary must be 'exact' or 'snap'")
        self.descriptor = descriptor
        self.h = float(h)
        self.boundary = boundary
        x0, x1, y0, y1 = descriptor.bbox
        ax, ay = descriptor.anchor
        # nodes per side of the anchor, each capped at the budget, which it then exceeds
        spans = (ax - x0, x1 - ax, ay - y0, y1 - ay)
        nx_lo, nx_hi, ny_lo, ny_hi = (math.ceil(min(s / h + 1e-12, _COEFF_BUDGET)) for s in spans)
        if (nx_lo + nx_hi + 1) * (ny_lo + ny_hi + 1) > _COEFF_BUDGET:
            raise DomainError(f"a grid of spacing {h} needs more than {_COEFF_BUDGET} nodes")
        self.xs = ax + h * np.arange(-nx_lo, nx_hi + 1)
        self.ys = ay + h * np.arange(-ny_lo, ny_hi + 1)
        gx, gy = np.meshgrid(self.xs, self.ys, indexing="ij")
        grid_points = np.column_stack([gx.ravel(), gy.ravel()])
        mask_flat = descriptor.contains(grid_points)
        self.mask = mask_flat.reshape(gx.shape)
        if not self.mask.any():
            raise DomainError("no interior grid points; decrease h")
        self.points = grid_points[mask_flat]
        self.n_interior = self.points.shape[0]
        index_grid = -np.ones(gx.shape, dtype=np.int64)
        index_grid[self.mask] = np.arange(self.n_interior)
        self.index_grid = index_grid
        self._build_neighbours()
        self._matrix = None
        self._lu = None

    def _build_neighbours(self):
        """Per interior point and axis direction: interior neighbour (or -1) and
        the boundary distance fraction theta in (0, 1]."""
        ii, jj = np.nonzero(self.mask)
        di, dj = _DIRECTIONS.T.astype(np.int64)
        padded = np.pad(self.index_grid, 1, constant_values=-1)  # a ring of exterior points
        self.neighbour = padded[ii[:, None] + 1 + di, jj[:, None] + 1 + dj]
        self.theta = np.ones((self.n_interior, 4))
        if self.boundary == "exact":
            cut, k = np.nonzero(self.neighbour < 0)
            dist = self.descriptor.ray_hits(self.points[cut], _DIRECTIONS[k])
            self.theta[cut, k] = np.clip(dist / self.h, _THETA_FLOOR, 1.0)

    @property
    def laplacian(self) -> scipy.sparse.csr_matrix:
        """Discrete Dirichlet Laplacian on interior points (zero boundary data)."""
        if self._matrix is None:
            import scipy.sparse  # here, so importing the package leaves scipy.sparse out

            h2, t, n = self.h**2, self.theta, self.n_interior
            # Shortley-Weller: neighbour weights 2 / (h^2 t (t + t_opposite)),
            # centre the sum over both axes of -2 / (h^2 t_plus t_minus)
            weights = 2.0 / (h2 * t * (t + t[:, [1, 0, 3, 2]]))
            centre = (-2.0 / (h2 * t[:, 0::2] * t[:, 1::2])).sum(axis=1)
            cols = np.column_stack([self.neighbour, np.arange(n)])
            have = cols >= 0
            self._matrix = scipy.sparse.csr_matrix(
                (np.column_stack([weights, centre])[have], (np.nonzero(have)[0], cols[have])),
                shape=(n, n),
            )
        return self._matrix

    def solve_poisson(self, rhs: np.ndarray) -> np.ndarray:
        """Solve (discrete Laplacian) u = rhs with zero Dirichlet data.

        The sparse factorization is built once per grid and reused for every
        component and level.
        """
        if self._lu is None:
            import scipy.sparse.linalg

            try:
                self._lu = scipy.sparse.linalg.splu(self.laplacian.tocsc())
            except RuntimeError as exc:  # "SUPERLU_MALLOC fails for ..."
                if "SUPERLU_MALLOC" not in str(exc):
                    raise
                raise MemoryError(str(exc)) from None
        return self._lu.solve(np.asarray(rhs, dtype=float))

    def derivative(self, u: np.ndarray, axis: int) -> np.ndarray:
        """First derivative of interior grid functions u (..., n_interior), zero
        beyond the boundary; leading axes index separate functions.

        Central differences inside; at the boundary a non-uniform 3-point
        formula uses the exact cut distances (uniform in snap mode).
        """
        plus, minus = 2 * axis, 2 * axis + 1
        idx_p, idx_m = self.neighbour[:, plus], self.neighbour[:, minus]
        u_p = np.where(idx_p >= 0, u[..., np.maximum(idx_p, 0)], 0.0)
        u_m = np.where(idx_m >= 0, u[..., np.maximum(idx_m, 0)], 0.0)
        b = self.theta[:, plus] * self.h
        a = self.theta[:, minus] * self.h
        return (
            -b / (a * (a + b)) * u_m
            + (b - a) / (a * b) * u
            + a / (b * (a + b)) * u_p
        )

    def index_of_point(self, xy) -> int:
        """Interior index of the grid node nearest to xy."""
        xy = np.asarray(xy, dtype=float)
        i = int(round((xy[0] - self.xs[0]) / self.h))
        j = int(round((xy[1] - self.ys[0]) / self.h))
        i = min(max(i, 0), self.xs.size - 1)
        j = min(max(j, 0), self.ys.size - 1)
        idx = self.index_grid[i, j]
        if idx < 0:
            raise DomainError(f"nearest grid node to {xy} is not interior")
        return int(idx)


@dataclass(frozen=True, eq=False)
class ExpectedSigField:
    """Tensor-valued grid functions f_0..f_N on the interior of a GridDomain."""

    grid: GridDomain
    depth: int
    levels: tuple  # level k: array (d**k, n_interior)

    def at_point(self, xy) -> TruncatedTensor:
        idx = self.grid.index_of_point(xy)
        return TruncatedTensor(2, self.depth, [lvl[:, idx] for lvl in self.levels])

    def center_values(self) -> TruncatedTensor:
        return self.at_point(self.grid.descriptor.anchor)


def solve_recurrence(grid: GridDomain, depth: int) -> ExpectedSigField:
    """Expected-signature field of stopped Brownian motion on the grid's domain.

    Level 0 is identically 1 and level 1 identically 0; each higher level
    solves one Poisson problem per tensor component, with the source built
    from the two levels below (self-pairing of the leading letters and first
    derivatives), and zero boundary data.
    """
    if depth < 2:
        raise DomainError("depth must be >= 2")
    d = 2
    n = grid.n_interior
    _check_budget(n, d, depth, f"expected signatures at {n} grid points")
    levels = [np.ones((1, n)), np.zeros((d, n))]
    letters = np.arange(d)
    for level in range(2, depth + 1):
        # source of word i j w: -2 d_i f(j w), less f(w) where i == j; written
        # 0.0 - x so that zero sources keep the sign +0.0
        rhs = 0.0 - 2.0 * np.concatenate(
            [grid.derivative(levels[-1], axis=i) for i in letters]
        )
        rhs.reshape(d, d, -1, n)[letters, letters] -= levels[-2]
        levels.append(grid.solve_poisson(rhs.T).T)
    return ExpectedSigField(grid, depth, tuple(levels))


# -- Monte Carlo --------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class McExpectedSignature:
    """Monte Carlo mean of stopped-path signatures with elementwise standard errors."""

    mean: TruncatedTensor
    stderr: tuple
    paths: int
    dt: float
    seed: int


def _chen_fold_columns(levels, increments):
    """chen_fold on levels 1..N of shape (d^k, paths) and increments (steps, d, paths)."""
    unit = np.ones((increments.shape[2], 1))
    out = chen_fold([unit] + [lvl.T for lvl in levels], increments.transpose(2, 0, 1))
    return [lvl.T for lvl in out[1:]]


def mc_expected_sig(
    domain, start, depth: int, paths: int, dt: float, seed: int
) -> McExpectedSignature:
    """Monte Carlo expected signature of Brownian motion stopped at the boundary.

    ``domain`` is a domain as in the module docstring (of a grid: its
    ``descriptor``).  Paths advance by Gaussian increments of variance dt
    until the first sampled position leaves the domain; ``ray_hits`` cuts the
    crossing segment at the boundary (no exponential-exit correction, so the
    discretisation bias is O(sqrt(dt))).  Increments are drawn in blocks of
    ``_BLOCK_STEPS`` steps (a module constant) for all live paths; a path
    that exits in the block has its exit step cut at the boundary and its
    later steps zeroed.  Each live path carries only the signature
    coordinates on the prefixes of the Lyndon words, which one
    ``_prefix_fold`` per block updates; stopped paths are stored in exit order,
    and after the loop ``_expand_lyndon`` expands them to whole signatures.
    (Where the expansion tables would exceed _CHUNK_ELEMENTS floats, beyond
    depth 10, live paths carry whole signatures through ``chen_fold``.)
    Stopped signatures are averaged with elementwise standard errors.  Fixed
    seed implies byte-identical output.
    """
    start = np.asarray(start, dtype=float)
    if start.shape != (2,):
        raise DomainError(f"start must be one 2-D point, got shape {start.shape}")
    if not bool(domain.contains(start[None, :])[0]):
        raise DomainError(f"start point {start} is not strictly interior")
    if depth < 1 or paths < 1 or seed < 0 or not 0 < dt < math.inf:
        raise DomainError("need depth >= 1, paths >= 1, seed >= 0 and a finite dt > 0")
    d = 2
    _check_budget(paths, d, depth, f"{paths} Monte Carlo path signature(s)")
    rng = np.random.default_rng(seed)
    sizes = [d**k for k in range(depth + 1)]
    chunk = tensor_algebra._CHUNK_ELEMENTS
    if sum(n * n for n in sizes) <= chunk:
        plan = _prefix_plan(d, depth)
        fold = functools.partial(_prefix_fold, plan)
        expand = functools.partial(_expand_lyndon, plan)
        widths = [letters.shape[1] for letters in plan.letters[1:]]
    else:
        fold, expand, widths = _chen_fold_columns, list, sizes[1:]

    # paths last: positions (d, paths), levels 1..N (n_k, paths), steps (steps, d, paths);
    # a stopped path moves from ``levels`` to ``store``, whose column ``n_stopped`` is next
    pos = np.tile(start[:, None], (1, paths))
    levels = [np.zeros((n, paths)) for n in widths]
    store = [np.empty((n, paths)) for n in widths]
    std = math.sqrt(dt)
    max_blocks = int(np.ceil(80.0 / dt / _BLOCK_STEPS))

    steps = np.arange(_BLOCK_STEPS)
    n_stopped = 0
    for _ in range(max_blocks):
        alive = pos.shape[1]
        if alive == 0:
            break
        # drawn path by path, then laid out steps first
        x = np.ascontiguousarray(
            (std * rng.standard_normal((alive, _BLOCK_STEPS, d))).transpose(1, 2, 0)
        )
        positions = x.copy()
        for i in range(1, _BLOCK_STEPS):  # np.cumsum along axis 0 is ~8x slower
            positions[i] += positions[i - 1]
        positions += pos
        inside = domain.contains(positions.transpose(0, 2, 1))
        # a path stops at its first sampled position outside the domain: that
        # step is cut at the boundary and later steps become exp(0), the unit
        exit_step = np.where(inside.all(axis=0), _BLOCK_STEPS, inside.argmin(axis=0))
        exits = np.flatnonzero(exit_step < _BLOCK_STEPS)
        if exits.size:
            t = exit_step[exits]
            before = np.where((t > 0)[:, None], positions[t - 1, :, exits], pos[:, exits].T)
            hit = domain.ray_hits(before, positions[t, :, exits] - before)
            frac = np.clip(np.where(np.isfinite(hit), hit, 1.0), 0.0, 1.0)
            x[t, :, exits] *= frac[:, None]
            later = (steps[:, None] > t)[:, None, :]
            x[:, :, exits] = np.where(later, 0.0, x[:, :, exits])
        levels = fold(levels, x)
        pos = positions[-1]
        if exits.size:
            for s, lvl in zip(store, levels):
                s[:, n_stopped : n_stopped + exits.size] = lvl[:, exits]
            n_stopped += exits.size
            keep = np.ones(alive, dtype=bool)
            keep[exits] = False
            pos = pos.compress(keep, axis=1)
            levels = [lvl.compress(keep, axis=1) for lvl in levels]
    if pos.shape[1] > 0:
        raise TimeCapError(
            f"{pos.shape[1]} paths still running after the time cap; "
            "dt is too coarse for this domain"
        )

    # whole signatures of the stopped paths, ``batch`` at a time
    sum_levels = [np.zeros(n) for n in sizes[1:]]
    sumsq_levels = [np.zeros(n) for n in sizes[1:]]
    batch = max(1, chunk // sum(sizes))
    for lo in range(0, paths, batch):
        for k, lvl in enumerate(expand([s[:, lo : lo + batch] for s in store])):
            sum_levels[k] += lvl.sum(axis=1)
            sumsq_levels[k] += (lvl**2).sum(axis=1)

    means, stderrs = zip(*(_mean_stderr(s, sq, paths) for s, sq in zip(sum_levels, sumsq_levels)))
    mean = TruncatedTensor(d, depth, [np.ones(1), *means])
    return McExpectedSignature(mean, (np.zeros(1), *stderrs), paths, dt, seed)


# -- radius diagnostic ---------------------------------------------------------


@dataclass(frozen=True, eq=False)
class RadiusDiagnostic:
    """Per-level norms a_n = |E S^n|, consecutive ratios, and root profile.

    Zero levels are flagged (ratio reported as 0).  The profile is reported
    for extrapolation by the caller; no claim about determinacy of the law
    is made or implied.
    """

    norms_l1: np.ndarray
    norms_l2: np.ndarray
    ratios_l1: np.ndarray
    ratios_l2: np.ndarray
    roots_l1: np.ndarray
    zero_levels: np.ndarray


def radius_diagnostic(source, point=None) -> RadiusDiagnostic:
    """Norm profile of a tensor or of an expected-signature field at a point."""
    if isinstance(source, ExpectedSigField):
        tensor = source.at_point(source.grid.descriptor.anchor if point is None else point)
    elif isinstance(source, TruncatedTensor):
        tensor = source
    else:
        raise DimensionMismatchError(
            "radius_diagnostic expects an ExpectedSigField or TruncatedTensor"
        )
    if tensor.depth < 3:
        raise DomainError("radius diagnostic needs depth >= 3")
    l1 = grade_norms(tensor, "l1").values
    l2 = grade_norms(tensor, "l2").values
    zero = l1 == 0.0

    def ratios(a):
        out = np.zeros(a.size - 1)
        nz = a[:-1] > 0.0
        out[nz] = a[1:][nz] / a[:-1][nz]
        return out

    roots = np.zeros(l1.size)
    for n in range(1, l1.size):
        if l1[n] > 0.0:
            roots[n] = (1.0 / l1[n]) ** (1.0 / n)
    return RadiusDiagnostic(l1, l2, ratios(l1), ratios(l2), roots, zero)
