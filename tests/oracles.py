"""Independent brute-force oracles used to freeze expected test values.

Everything here is deliberately written against first definitions (dense
trapezoid iterated integrals, interleaving enumeration, rotation-minimality,
exhaustive partition search) and shares no code path with the package.  The one
exception is the row-by-row CSV reader, which builds the package's ``Stream`` and
raises its ``StreamParseError``, so that its results compare with ``ingest_csv``'s.
"""

import csv
import itertools
from fractions import Fraction
from math import comb, factorial

import numpy as np
import scipy.linalg
import scipy.sparse


def refine_polyline(points, total_substeps):
    """Dense polyline through the same vertices with ~total_substeps segments."""
    points = np.asarray(points, dtype=float)
    n_seg = points.shape[0] - 1
    per = max(1, total_substeps // max(n_seg, 1))
    out = [points[0]]
    for a, b in zip(points[:-1], points[1:]):
        for i in range(1, per + 1):
            out.append(a + (b - a) * i / per)
    return np.array(out)


def riemann_iterated_integrals(points, depth, substeps=10_000):
    """All coordinate iterated integrals up to ``depth`` by dense trapezoid sums.

    Returns a list of flat arrays per level, lexicographic word order.
    O(substeps^-2) accurate for polygonal input.
    """
    grid = refine_polyline(points, substeps)
    n, d = grid.shape
    inc = np.diff(grid, axis=0)
    levels = [np.ones(1)]
    prev = {(): np.ones(n)}  # prefix functions F_w(t) on the dense grid
    for k in range(1, depth + 1):
        cur = {}
        flat = np.zeros(d**k)
        for idx, word in enumerate(itertools.product(range(d), repeat=k)):
            head = word[:-1]
            j = word[-1]
            f_prev = prev[head]
            avg = 0.5 * (f_prev[:-1] + f_prev[1:])
            vals = np.concatenate([[0.0], np.cumsum(avg * inc[:, j])])
            cur[word] = vals
            flat[idx] = vals[-1]
        levels.append(flat)
        prev = cur
    return levels


def shuffle_by_interleaving(u, v):
    """Shuffle product by enumerating all C(|u|+|v|, |u|) interleavings."""
    m, n = len(u), len(v)
    out = {}
    for positions in itertools.combinations(range(m + n), m):
        word = [None] * (m + n)
        ui = iter(u)
        for p in positions:
            word[p] = next(ui)
        vi = iter(v)
        for p in range(m + n):
            if word[p] is None:
                word[p] = next(vi)
        key = tuple(word)
        out[key] = out.get(key, 0) + 1
    assert sum(out.values()) == comb(m + n, m)
    return out


def is_lyndon(word):
    """Strictly smaller than every proper rotation."""
    n = len(word)
    if n == 1:
        return True
    for i in range(1, n):
        if not tuple(word) < tuple(word[i:] + word[:i]):
            return False
    return True


def lyndon_words_brute(dim, max_len):
    out = []
    for k in range(1, max_len + 1):
        for word in itertools.product(range(1, dim + 1), repeat=k):
            if is_lyndon(list(word)):
                out.append(word)
    return sorted(out, key=lambda w: (len(w), w))


def shoelace_area(points):
    pts = np.asarray(points, dtype=float)
    x, y = pts[:, 0], pts[:, 1]
    return 0.5 * float(np.sum(x[:-1] * y[1:] - x[1:] * y[:-1]))


def p1_distance_exhaustive(times_a, pts_a, times_b, pts_b):
    """Exact d_1 by exhaustive search over partitions at the merged vertex times."""
    knots = np.unique(np.concatenate([times_a, times_b]))

    def at(times, pts, t):
        return np.array(
            [np.interp(t, times, pts[:, j]) for j in range(pts.shape[1])]
        )

    best = 0.0
    interior = list(knots[1:-1])
    for r in range(len(interior) + 1):
        for combo in itertools.combinations(interior, r):
            cuts = [knots[0], *combo, knots[-1]]
            total = 0.0
            for lo, hi in zip(cuts[:-1], cuts[1:]):
                da = at(times_a, pts_a, hi) - at(times_a, pts_a, lo)
                db = at(times_b, pts_b, hi) - at(times_b, pts_b, lo)
                total += float(np.linalg.norm(da - db))
            best = max(best, total)
    return best


def expm(mat):
    return scipy.linalg.expm(mat)


def best_subset_support(X, y, k):
    """Exhaustive best k-subset least squares; returns the winning support."""
    n, p = X.shape
    best_rss, best_support = np.inf, None
    for support in itertools.combinations(range(p), k):
        cols = X[:, support]
        beta, *_ = np.linalg.lstsq(cols, y, rcond=None)
        rss = float(np.sum((y - cols @ beta) ** 2))
        if rss < best_rss:
            best_rss, best_support = rss, support
    return set(best_support)


def lasso_full_sweeps(A, y, lam, max_iter=10_000, tol=1e-10):
    """LASSO coefficients (column 0 of A the unpenalized intercept) by cyclic
    coordinate descent that sweeps every column each time, until one sweep moves
    no coefficient by tol or more: (1/2n)|y - A beta|^2 + lam |beta|_1 over the
    columns standardized to zero mean and unit variance, mapped back to A's scale.
    Returns (coefficients, converged, sweeps)."""
    A, y = np.asarray(A, dtype=float), np.asarray(y, dtype=float)
    n, p = A.shape[0], A.shape[1] - 1
    mu, sigma = A[:, 1:].mean(axis=0), A[:, 1:].std(axis=0)
    z = (A[:, 1:] - mu) / np.where(sigma > 0, sigma, 1.0)
    beta, residual = np.zeros(p), y - y.mean()
    for sweep in range(1, max_iter + 1):
        biggest = 0.0
        for j in np.flatnonzero(sigma > 0):
            rho = z[:, j] @ residual / n + beta[j]
            new = np.sign(rho) * max(abs(rho) - lam, 0.0)
            residual += z[:, j] * (beta[j] - new)
            biggest = max(biggest, abs(new - beta[j]))
            beta[j] = new
        if biggest < tol:
            break
    raw = np.where(sigma > 0, beta / np.where(sigma > 0, sigma, 1.0), 0.0)
    return np.concatenate([[y.mean() - mu @ raw], raw]), biggest < tol, sweep


def polyline_signature(points, depth):
    """Signature levels 0..depth of a polyline: the ordered product of segment
    exponentials, each level a flat array in lexicographic word order."""
    points = np.asarray(points, dtype=float)
    d = points.shape[1]
    sig = [np.ones(1)] + [np.zeros(d**k) for k in range(1, depth + 1)]
    for x in np.diff(points, axis=0):
        seg = [np.ones(1)]
        for k in range(1, depth + 1):
            seg.append(np.kron(seg[-1], x) / k)
        sig = [sum(np.kron(sig[i], seg[k - i]) for i in range(k + 1)) for k in range(depth + 1)]
    return sig


def dp_distance_per_piece(times_a, pts_a, times_b, pts_b, p, max_level):
    """Dyadic p-variation lower-bound profile, one piece at a time.

    Both polylines are reparameterised to [0, 1] (a single sample reads as the
    constant path); every dyadic piece of every level is cut out with its
    endpoints interpolated and signed on its own, then levelwise discrepancies
    are raised to p/m, the worst level summed over pieces and the running
    maximum over levels reported.
    """

    def unit(times, pts):
        times, pts = np.asarray(times, dtype=float), np.asarray(pts, dtype=float)
        if times.size == 1:
            return np.array([0.0, 1.0]), np.vstack([pts, pts])
        return (times - times[0]) / (times[-1] - times[0]), pts

    def piece(times, pts, lo, hi):
        ends = [[np.interp(t, times, col) for col in pts.T] for t in (lo, hi)]
        inside = (times > lo) & (times < hi)
        return np.vstack([ends[0], pts[inside], ends[1]])

    (ta, pa), (tb, pb) = unit(times_a, pts_a), unit(times_b, pts_b)
    m_top = int(np.floor(p))
    best, estimates = 0.0, []
    for level in range(1, max_level + 1):
        cuts = np.linspace(0.0, 1.0, 2**level + 1)
        total = 0.0
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            sig_a = polyline_signature(piece(ta, pa, lo, hi), m_top)
            sig_b = polyline_signature(piece(tb, pb, lo, hi), m_top)
            total += max(
                float(np.linalg.norm(sig_a[m] - sig_b[m])) ** (p / m) for m in range(1, m_top + 1)
            )
        best = max(best, total)
        estimates.append(best)
    return np.array(estimates)


def _standard_tree(word):
    """Standard bracketing of a Lyndon word: split off its longest proper Lyndon suffix."""
    if len(word) == 1:
        return word[0]
    split = next(i for i in range(1, len(word)) if is_lyndon(list(word[i:])))
    return (_standard_tree(word[:split]), _standard_tree(word[split:]))


def _polynomial_of(tree):
    """A bracketing as a {word: integer} polynomial, with [a, b] = ab - ba."""
    if isinstance(tree, int):
        return {(tree,): 1}
    a, b = _polynomial_of(tree[0]), _polynomial_of(tree[1])
    out = {}
    for u, x in a.items():
        for v, y in b.items():
            out[u + v] = out.get(u + v, 0) + x * y
            out[v + u] = out.get(v + u, 0) - x * y
    return out


def exact_log_signature_lyndon(vertices, depth):
    """Lyndon coordinates of the log-signature of an integer-vertex polyline, in
    sympy rationals and in basis order (degree, then lexicographic word).

    The signature is the Chen product of the segment exponentials, its logarithm
    the truncated series sum_n (-1)^(n+1) (S - 1)^n / n, and each degree's
    coordinates solve the lower-triangular system of the bracket expansions on
    the rows of the Lyndon words.
    """
    import sympy

    dim = len(vertices[0])

    def mul(a, b):
        out = {}
        for u, x in a.items():
            for v, y in b.items():
                if len(u) + len(v) <= depth:
                    out[u + v] = out.get(u + v, 0) + x * y
        return out

    sig = {(): sympy.Integer(1)}
    for p, q in zip(vertices, vertices[1:]):
        step = [sympy.Integer(b - a) for a, b in zip(p, q)]
        segment = {(): sympy.Integer(1)}
        for k in range(1, depth + 1):
            for word in itertools.product(range(1, dim + 1), repeat=k):
                segment[word] = sympy.Mul(*(step[c - 1] for c in word)) / sympy.factorial(k)
        sig = mul(sig, segment)
    excess = {w: c for w, c in sig.items() if w}
    log, power = {}, {(): sympy.Integer(1)}
    for n in range(1, depth + 1):
        power = mul(power, excess)
        for w, c in power.items():
            log[w] = log.get(w, 0) + sympy.Rational((-1) ** (n + 1), n) * c
    coords = []
    for k in range(1, depth + 1):
        words = [w for w in lyndon_words_brute(dim, k) if len(w) == k]
        columns = [_polynomial_of(_standard_tree(w)) for w in words]
        block = sympy.Matrix(len(words), len(words), lambda i, j: columns[j].get(words[i], 0))
        rhs = sympy.Matrix([log.get(w, 0) for w in words])
        if words:
            coords += list(block.lower_triangular_solve(rhs))
    return coords


def fraction_exp_log(levels, dim, depth, log):
    """exp(a) = sum_j a^j / j! (log false) or log(a) = sum_j (-1)^(j+1) (a - 1)^j / j
    (log true) of the depth-N truncated tensor ``a``, in exact Fractions.

    ``levels[k]`` lists the d^k level-k coefficients of ``a`` in lexicographic word
    order, as float-exact values; level 0 must be 0 for exp and 1 for log.  Each power
    is a word-keyed dict multiplied by concatenating words.
    """
    words = [w for k in range(depth + 1) for w in itertools.product(range(1, dim + 1), repeat=k)]
    values = [Fraction(float(v)) for lvl in levels for v in lvl]
    x = {w: v for w, v in zip(words, values) if w}
    total = {(): Fraction(0 if log else 1)}
    power = {(): Fraction(1)}
    for j in range(1, depth + 1):
        step = {}
        for u, p in power.items():
            for v, q in x.items():
                if len(u) + len(v) <= depth:
                    step[u + v] = step.get(u + v, 0) + p * q
        power = step
        c = Fraction((-1) ** (j + 1), j) if log else Fraction(1, factorial(j))
        for w, p in power.items():
            total[w] = total.get(w, 0) + c * p
    return [total.get(w, Fraction(0)) for w in words]


# -- Poisson grid, one offset, direction and word at a time --------------------
# The expected-signature grid as first written: loops that whole-array code in
# GridDomain and solve_recurrence must reproduce byte for byte.


def grid_neighbours_per_offset(grid):
    """(neighbour, theta) of a GridDomain, one axis offset and one ray call at a time."""
    nx, ny = grid.index_grid.shape
    ii, jj = np.nonzero(grid.mask)
    n = grid.n_interior
    neighbour = np.full((n, 4), -1, dtype=np.int64)
    theta = np.ones((n, 4))
    offsets = [(1, 0), (-1, 0), (0, 1), (0, -1)]
    for k, (di, dj) in enumerate(offsets):
        oi, oj = ii + di, jj + dj
        in_grid = (oi >= 0) & (oi < nx) & (oj >= 0) & (oj < ny)
        idx = np.full(n, -1, dtype=np.int64)
        idx[in_grid] = grid.index_grid[oi[in_grid], oj[in_grid]]
        neighbour[:, k] = idx
        if grid.boundary == "exact":
            cut = np.nonzero(idx < 0)[0]
            direction = np.array(offsets[k], dtype=float)
            dist = grid.descriptor.ray_hits(
                grid.points[cut], np.broadcast_to(direction, (cut.size, 2))
            )
            theta[cut, k] = np.clip(dist / grid.h, 1e-8, 1.0)  # the theta floor
    return neighbour, theta


def laplacian_per_direction(grid):
    """Shortley-Weller Laplacian of a GridDomain, one axis and direction at a time."""
    h2 = grid.h**2
    rows, cols, vals = [], [], []
    diag = np.zeros(grid.n_interior)
    for axis in range(2):
        plus, minus = 2 * axis, 2 * axis + 1
        t_plus = grid.theta[:, plus]
        t_minus = grid.theta[:, minus]
        diag -= 2.0 / (h2 * t_plus * t_minus)
        for k, t_here, t_other in ((plus, t_plus, t_minus), (minus, t_minus, t_plus)):
            idx = grid.neighbour[:, k]
            have = idx >= 0
            rows.append(np.nonzero(have)[0])
            cols.append(idx[have])
            vals.append(2.0 / (h2 * t_here[have] * (t_here[have] + t_other[have])))
    rows.append(np.arange(grid.n_interior))
    cols.append(np.arange(grid.n_interior))
    vals.append(diag)
    return scipy.sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(grid.n_interior, grid.n_interior),
    )


def poisson_sources_per_word(grid, levels, level):
    """Sources of one expected-signature level on a planar grid, one word at a time:
    -2 d_i f(j w), less f(w) where i == j, for the word i j w."""
    d = 2
    width, block, sub_block = d**level, d ** (level - 1), d ** (level - 2)
    rhs = np.zeros((width, grid.n_interior))
    for w in range(width):
        first, rest = divmod(w, block)
        second, tail = divmod(rest, sub_block)
        if first == second:
            rhs[w] -= levels[level - 2][tail]
        rhs[w] -= 2.0 * grid.derivative(levels[level - 1][rest], axis=first)
    return rhs


# -- matrix-group steps, one segment and one RK4 stage at a time ---------------
# The development and linear log-ODE step as first written: batched code in
# sigstream.development must reproduce these bit for bit, and the one-step
# matrix of sigstream.logode to rounding.


def develop_per_segment(generators, increments):
    """Ordered product of exp(i sum_j dx_j H_j), one eigendecomposition per segment."""
    psi = np.eye(generators.shape[1], dtype=complex)
    for inc in increments:
        eigvals, eigvecs = np.linalg.eigh(np.tensordot(inc, generators, axes=(0, 0)))
        psi = psi @ ((eigvecs * np.exp(1j * eigvals)) @ eigvecs.conj().T)
    return psi


def expected_development_per_sample(generators, sampler, count, seed):
    """(mean, stderr) of developments of count sampled streams, one stream at a time."""
    rng = np.random.default_rng(seed)
    u = generators.shape[1]
    total = np.zeros((u, u), dtype=complex)
    total_sq = np.zeros((u, u))
    for _ in range(count):
        psi = develop_per_segment(generators, sampler(rng).increments())
        total += psi
        total_sq += np.abs(psi) ** 2
    mean = total / count
    if count == 1:
        return mean, np.zeros((u, u))
    variance = np.maximum(total_sq / count - np.abs(mean) ** 2, 0.0)
    return mean, np.sqrt(variance / (count - 1))


def rk4_linear(K, y0, substeps):
    """Four-stage RK4 on y' = K y over unit time: the state, and the 1-based substep
    at which it left the finite range (None if it stayed finite)."""
    y = np.asarray(y0, dtype=float).copy()
    dt = 1.0 / substeps
    for step in range(substeps):
        k1 = K @ y
        k2 = K @ (y + 0.5 * dt * k1)
        k3 = K @ (y + 0.5 * dt * k2)
        k4 = K @ (y + dt * k3)
        y = y + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        if not np.all(np.isfinite(y)):
            return y, step + 1
    return y, None


def _nested_directional(f, jac, y, w, fd_scale):
    """Df(y) w: the Jacobian product when one is given, else a central difference along w."""
    if jac is not None:
        return np.asarray(jac(y), dtype=float) @ w
    norm_w = float(np.linalg.norm(w))
    if norm_w == 0.0:
        return np.zeros_like(np.asarray(w, dtype=float))
    h = fd_scale * (1.0 + float(np.linalg.norm(y)))
    unit = w / norm_w
    plus = np.asarray(f(y + h * unit), dtype=float)
    minus = np.asarray(f(y - h * unit), dtype=float)
    return (plus - minus) * (norm_w / (2.0 * h))


def nested_bracket_field(fields, jacobians, tree, fd_scale=1e-5):
    """(field, Jacobian or None) of the vector-field bracket following ``tree``.

    [V, W](y) = DW(y) V(y) - DV(y) W(y), built as nested closures: each bracket
    calls its two sub-brackets afresh, and every bracket of degree >= 2 that is
    differentiated takes its own central difference along the direction it is
    applied to, step fd_scale * (1 + |y|).
    """
    if isinstance(tree, int):
        return fields[tree - 1], jacobians[tree - 1]
    f_left, jac_left = nested_bracket_field(fields, jacobians, tree[0], fd_scale)
    f_right, jac_right = nested_bracket_field(fields, jacobians, tree[1], fd_scale)

    def bracket(y):
        vl = np.asarray(f_left(y), dtype=float)
        vr = np.asarray(f_right(y), dtype=float)
        return (_nested_directional(f_right, jac_right, y, vl, fd_scale)
                - _nested_directional(f_left, jac_left, y, vr, fd_scale))

    return bracket, None


def nested_lie_terms(fields, jacobians, trees, lams, y):
    """The terms lambda_b B_b(y) of a Lie extension, one row per bracket tree."""
    y = np.asarray(y, dtype=float)
    fields_of = (nested_bracket_field(fields, jacobians, tree)[0] for tree in trees)
    return np.array([lam * np.asarray(f(y), dtype=float) for f, lam in zip(fields_of, lams)])


def commutator_matrix(mats, tree):
    """M_tree of a linear system's bracket field y -> M_tree y by nested commutators:
    M_i = A_i for a letter, M_[L,R] = M_R M_L - M_L M_R."""
    if isinstance(tree, int):
        return mats[tree - 1]
    left, right = (commutator_matrix(mats, t) for t in tree)
    return right @ left - left @ right


def _rk4_increment(mats, trees, lams, substeps):
    """R - I = hK(I + hK/2(I + hK/3(I + hK/4))), h = 1 / substeps, of RK4's one-step matrix
    R for K = 0 + sum_b lambda_b M_b over the nonzero lambda_b in basis order."""
    K = np.zeros(np.shape(mats)[1:])
    for tree, lam in zip(trees, lams):
        if lam != 0.0:
            K = K + lam * commutator_matrix(mats, tree)
    eye, hk = np.eye(K.shape[0]), (1.0 / substeps) * K
    return hk @ (eye + (hk / 2) @ (eye + (hk / 3) @ (eye + hk / 4)))


def linear_logode_step(mats, trees, lams, y0, substeps):
    """One log-ODE step of a linear system by its substeps, rounding as the compiled route
    does when it replays a step: ``substeps`` times y <- y + (R - I) y."""
    delta = _rk4_increment(mats, trees, lams, substeps)
    y = np.asarray(y0, dtype=float).copy()
    for _ in range(substeps):
        y = y + delta @ y
    return y


def linear_logode_power_step(mats, trees, lams, y0, substeps, safe_size=2.0**1000):
    """One log-ODE step of a linear system as the compiled route takes it: y + P y with
    P = R^s - I by binary powering on increments,
    (I + A)(I + B) - I = A + B + AB.  The increments of R^(2^k) are E <- E + E + E E from
    E = R - I, and the set bits of s, lowest first, multiply in as P <- P + E + P E.  Where
    |y| (1 + |R - I|)^(s + 1) >= safe_size in the infinity norm, or the result is not
    finite, the step is ``linear_logode_step``."""
    delta = _rk4_increment(mats, trees, lams, substeps)
    y = np.asarray(y0, dtype=float)
    with np.errstate(all="ignore"):
        increments = [delta]
        for _ in range(substeps.bit_length() - 1):
            e = increments[-1]
            increments.append(e + e + e @ e)
        power = None
        for bit, e in enumerate(increments):
            if substeps >> bit & 1:
                power = e if power is None else power + e + power @ e
        growth = (1.0 + np.abs(delta).sum(axis=1).max()) ** (substeps + 1)
        out = y + power @ y
    if np.abs(y).max() < safe_size / growth and np.isfinite(out).all():
        return out
    return linear_logode_step(mats, trees, lams, y0, substeps)


def ingest_csv_rows(source):
    """A stream CSV read row by row, one float() per cell: the package's reader before
    its body went through np.loadtxt, kept as the reference that the one-call reader must
    equal.  Where csv itself refuses a row (a cell over csv.field_size_limit(), a lone \r
    inside a line), it raises StreamParseError naming that row."""
    if hasattr(source, "read"):
        return _parse_csv_rows(source, getattr(source, "name", "<stream>"))
    with open(source, newline="") as handle:
        return _parse_csv_rows(handle, str(source))


def _parse_csv_rows(handle, name):
    from sigstream.errors import StreamParseError
    from sigstream.streams import Stream

    reader = csv.reader(handle)
    try:
        header = next(reader)
    except StopIteration:
        raise StreamParseError(f"{name}: empty file") from None
    except csv.Error as exc:
        raise StreamParseError(f"{name}: row 1: {exc}") from None
    header = [h.strip() for h in header]
    if len(header) < 2 or header[0] != "t":
        raise StreamParseError(
            f"{name}: row 1: expected header 't,x1,...,xd', got {','.join(header)!r}"
        )
    width = len(header)
    times, rows = [], []
    lineno = 1
    while True:
        lineno += 1
        try:
            row = next(reader)
        except StopIteration:
            break
        except csv.Error as exc:
            raise StreamParseError(f"{name}: row {lineno}: {exc}") from None
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != width:
            raise StreamParseError(
                f"{name}: row {lineno}: expected {width} fields, got {len(row)}"
            )
        try:
            values = [float(cell) for cell in row]
        except ValueError:
            raise StreamParseError(
                f"{name}: row {lineno}: non-numeric cell in {row!r}"
            ) from None
        if times and values[0] <= times[-1]:
            raise StreamParseError(
                f"{name}: row {lineno}: time {values[0]!r} does not increase"
            )
        times.append(values[0])
        rows.append(values[1:])
    if not rows:
        raise StreamParseError(f"{name}: no data rows")
    return Stream(np.array(times), np.array(rows))
