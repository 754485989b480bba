"""Lyndon basis of the free Lie algebra up to a truncation depth.

Lyndon words realize a Hall basis: each word w carries its standard right
factorization w = uv, and its Lie element P_w = [P_u, P_v] expands into words.
Each degree is held as integer term arrays, built from two lower degrees, and one
scatter applies every term table: the elements' terms rebuild Lie elements and,
swapped, pair tensors with them.  On the Lyndon words' own coefficients the
expansion is unit triangular and integral, so log-signatures get exact coordinates,
level by level, from its inverse, cached as a third term table: each row's
coordinates depend on that row alone.  Where that inverse would multiply rounding
error too much (d = 2 from degree 10, d = 3 at degree 9), and for the rare rows
whose rounding it pushes past the membership tolerance, a level takes least squares
from the exact Gram matrix of its terms; that matrix's column blocks and inverse stay
dense, as do the Monte Carlo expansion tables of the Lyndon prefix closure.  Lie
membership is certified by the residual of the element rebuilt from those
coordinates and independently by the Dynkin right-bracketing idempotent.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NotALieElementError, OutOfDepthError
from . import tensor_algebra
from .tensor_algebra import TruncatedTensor, Word, _batch_of_one, _frozen, _shuffle_letters

__all__ = [
    "LyndonBasisElement",
    "LieCoordinates",
    "lyndon_basis",
    "bracket_expand",
    "tensor_to_lie_coords",
    "dynkin_check",
    "witt_dimension",
    "render_bracketing",
]

# Lie-membership tolerance of tensor_to_lie_coords: relative to |a|, plus a floor
_LIE_RTOL = 1e-9
_LIE_ATOL = 1e-12
# largest Lyndon-row block (n_k x n_k floats, 128 MiB) that one degree may build and
# invert densely before keeping the inverse's terms (larger degrees raise DomainError),
# and the widest column block of a Gram matrix sum
_TRIANGLE_BUDGET = 2**24
# largest error gain ||U^{-1}|| of a level's triangular solve; past it, least squares
_SOLVE_GAIN = 2**12
# refinement steps of the least-squares solve (d = 2, N = 15 needs two for 1e-12)
_REFINE_STEPS = 2


@dataclass(frozen=True)
class LyndonBasisElement:
    """A Lyndon word together with its standard bracketing.

    ``bracketing`` is a letter (int) or a pair of sub-bracketings; the pair
    follows the right standard factorization w = (u, v) with v the longest
    proper Lyndon suffix of w.
    """

    word: Word
    bracketing: object

    @property
    def degree(self) -> int:
        return self.word.degree

    def __str__(self) -> str:
        return render_bracketing(self.bracketing)


def _is_letter(tree) -> bool:
    """Whether a bracketing tree is a letter: any integer but a bool, which raises."""
    if isinstance(tree, bool):
        raise DomainError(f"a letter must be an integer, not {tree!r}")
    return isinstance(tree, numbers.Integral)


def render_bracketing(tree) -> str:
    """Nested-bracket text form, e.g. ``[1,[1,2]]``; single letters render bare."""
    if _is_letter(tree):
        return str(tree)
    left, right = tree
    return f"[{render_bracketing(left)},{render_bracketing(right)}]"


def _lyndon_words(dim: int, max_len: int):
    """All Lyndon words over {1..dim} of length <= max_len, lexicographic (Duval)."""
    w = [1]
    while w:
        yield tuple(w)
        w = [w[i % len(w)] for i in range(max_len)]
        while w and w[-1] == dim:
            w.pop()
        if w:
            w[-1] += 1


def _lyndon_factors(letters: tuple) -> list:
    """Chen-Fox-Lyndon factorisation: the non-increasing Lyndon words whose
    concatenation is ``letters`` (Duval)."""
    out, i, n = [], 0, len(letters)
    while i < n:
        j, k = i + 1, i
        while j < n and letters[k] <= letters[j]:
            k = i if letters[k] < letters[j] else k + 1
            j += 1
        while i <= k:
            out.append(letters[i : i + j - k])
            i += j - k
    return out


def _unit_triangular_inverse(triangle: np.ndarray) -> np.ndarray:
    """Inverse of an integral unit lower-triangular matrix, by forward substitution.

    The inverse is integral as well, and forward substitution forms it exactly while
    its entries stay below 2^53.  A matrix that is not integral and unit lower
    triangular is a bug (AssertionError); an inverse past that bound is a request
    too large to answer exactly (DomainError; for Lyndon coordinates, d = 2 from
    degree 16).
    """
    if not np.array_equal(triangle, np.rint(triangle)):
        raise AssertionError("expected an integral matrix")
    inverse = np.eye(len(triangle))
    for r, row in enumerate(triangle):
        cols = np.flatnonzero(row)
        if row[r] != 1.0 or cols[-1] != r:
            raise AssertionError("expected a unit lower-triangular matrix")
        inverse[r] -= row[cols[:-1]] @ inverse[cols[:-1]]
    if inverse.size and np.abs(inverse).max() >= 2.0**53:
        raise DomainError("a triangular inverse has entries beyond the exact float range")
    return inverse


@dataclass(frozen=True, eq=False)
class _PrefixPlan:
    """Index tables to fold the Lyndon prefix closure and to expand it to all words.

    Level k (1..depth) holds the degree-k prefixes of the Lyndon words of degree
    <= depth, in lexicographic order.  By Chen's identity the running value of S^w
    needs S only at prefixes of w, so these coordinates fold on their own; they
    hold every Lyndon coordinate, which generate the whole signature.  For the
    fold, ``letters[k][i]`` is letter i (from 0) of each word and ``prefixes[k][i]``
    the row of its prefix w[:i] in level i (row 0 unused).  For the expansion, the
    levels are stacked with a trailing row of ones; ``factors[k][j]`` is, for each
    word of degree k in lexicographic order, the stacked row of the j-th factor of
    its Chen-Fox-Lyndon factorisation, or the ones row; ``expansion[k]`` maps those
    factor products to the level-k coordinates.
    """

    letters: tuple
    prefixes: tuple
    factors: tuple
    expansion: tuple


@functools.lru_cache(maxsize=None)
def _prefix_plan(dim: int, depth: int) -> _PrefixPlan:
    """Fold and expansion tables of the Lyndon prefix closure (see ``_PrefixPlan``).

    A word w with factorisation l_1^{i_1} ... l_m^{i_m} has
    l_1^{sh i_1} sh ... sh l_m^{sh i_m} / (i_1! ... i_m!) = w + (smaller words),
    with integer coefficients (Reutenauer, Free Lie Algebras, Thm 6.1).  On a
    grouplike S the left side pairs to prod_j (S^{l_j})^{i_j} / (i_1! ... i_m!),
    so level k is T_k^{-1} applied to these monomials, where row w of T_k holds the
    coefficients of that shuffle.  T_k is unit lower triangular and integral, so
    ``_unit_triangular_inverse`` inverts it exactly.
    """
    closure = {w[:i] for w in _lyndon_words(dim, depth) for i in range(len(w) + 1)}
    levels = [sorted(w for w in closure if len(w) == k) for k in range(depth + 1)]
    row = {w: i for words in levels for i, w in enumerate(words)}
    # row of each level's first word once levels 1..N are stacked; then the ones row
    offset = [0, *itertools.accumulate(len(words) for words in levels[1:])]
    letters, prefixes, factors, expansion = [None], [None], [None], [None]
    for k in range(1, depth + 1):
        words = levels[k]
        letters.append(np.array([[w[i] - 1 for w in words] for i in range(k)], dtype=np.intp))
        prefixes.append(np.array([[row[w[:i]] for w in words] for i in range(k)], dtype=np.intp))
        all_words = list(itertools.product(range(1, dim + 1), repeat=k))
        index = {w: i for i, w in enumerate(all_words)}
        rows = np.full((k, len(all_words)), offset[-1])
        triangle = np.zeros((len(all_words), len(all_words)))
        scale = np.ones(len(all_words))
        for r, w in enumerate(all_words):
            parts = _lyndon_factors(w)
            product = {(): 1}
            for j, part in enumerate(parts):
                rows[j, r] = offset[len(part) - 1] + row[part]
                nxt: dict[tuple, int] = {}
                for u, c in product.items():
                    for v, m in _shuffle_letters(u, part):
                        nxt[v] = nxt.get(v, 0) + c * m
                product = nxt
            for _, group in itertools.groupby(parts):
                scale[r] *= math.factorial(len(list(group)))
            for v, c in product.items():
                triangle[r, index[v]] = c / scale[r]
        factors.append(rows)
        expansion.append(_unit_triangular_inverse(triangle) / scale)
    for table in (*letters[1:], *prefixes[1:], *factors[1:], *expansion[1:]):
        table.flags.writeable = False
    return _PrefixPlan(tuple(letters), tuple(prefixes), tuple(factors), tuple(expansion))


def _expand_lyndon(plan: _PrefixPlan, levels) -> list:
    """Levels 1..N of whole signatures from their prefix-closure coordinates.

    ``levels[k - 1]`` has shape (n_k, paths) for the plan's level-k words, as
    ``tensor_algebra._prefix_fold`` leaves them; the result's level k has shape
    (d^k, paths), words in lexicographic order.
    """
    stacked = np.concatenate([*levels, np.ones((1, levels[0].shape[1]))])
    out = []
    for rows, matrix in zip(plan.factors[1:], plan.expansion[1:]):
        monomials = stacked[rows[0]]
        for factor in rows[1:]:
            monomials *= stacked[factor]
        out.append(matrix @ monomials)
    return out


@functools.lru_cache(maxsize=None)
def _standard_bracketing(letters: tuple):
    if len(letters) == 1:
        return letters[0]
    # right standard factorization: v is the smallest (equivalently the
    # longest Lyndon) proper suffix, u the complementary prefix
    suffixes = [letters[i:] for i in range(1, len(letters))]
    v = min(suffixes)
    u = letters[: len(letters) - len(v)]
    return (_standard_bracketing(u), _standard_bracketing(v))


@functools.lru_cache(maxsize=None)
def lyndon_basis(dim: int, depth: int) -> tuple[LyndonBasisElement, ...]:
    """Ordered Lyndon basis of the free Lie algebra on ``dim`` letters, degree <= depth.

    Elements are sorted by (degree, lexicographic word); the degree-k count
    equals the Witt number.
    """
    if dim < 1 or depth < 1:
        raise DomainError("dim and depth must be positive")
    words = sorted(_lyndon_words(dim, depth), key=lambda w: (len(w), w))
    return tuple(
        LyndonBasisElement(Word(w), _standard_bracketing(w)) for w in words
    )


def bracket_expand(element, dim: int, depth: int | None = None) -> TruncatedTensor:
    """Expand a basis element (or raw bracketing tree) into the tensor algebra.

    A letter is any integer but a bool.  Bool letters and letters outside 1..dim
    raise DomainError; a depth below the tree's degree raises
    OutOfDepthError."""
    tree = element.bracketing if isinstance(element, LyndonBasisElement) else element
    if _is_letter(tree):
        if not 1 <= tree <= dim:
            raise DomainError(f"letter {tree} out of range for dimension {dim}")
        degree, level = 1, np.eye(dim)[tree - 1]
    else:  # [a, b] = ab - ba
        left, right = (bracket_expand(t, dim) for t in tree)
        a, b = left.levels[-1], right.levels[-1]
        degree, level = left.depth + right.depth, np.outer(a, b).ravel() - np.outer(b, a).ravel()
    depth = degree if depth is None else depth
    if depth < degree:
        raise OutOfDepthError(f"a bracketing of degree {degree} exceeds depth {depth}")
    levels = [np.zeros(dim**k) for k in range(depth + 1)]
    levels[degree][:] = level
    return TruncatedTensor(dim, depth, levels)


@functools.lru_cache(maxsize=None)
def _level_terms(dim: int, degree: int) -> tuple:
    """The degree-k Lyndon elements P_w in words, as integer term arrays.

    Returns (rows, element, word, coef): ``rows`` holds the flat indices of the
    degree-k Lyndon words in basis order, and term i puts ``coef[i]`` on word
    ``word[i]`` of element ``element[i]``, ordered by element, then word.  For the
    standard factorisation w = uv, P_w = P_u P_v - P_v P_u (Reutenauer, Free Lie
    Algebras, Thm 5.1), so each level follows from the terms of two lower ones;
    the word xy has flat index index(x)·d^|y| + index(y).
    """
    basis = lyndon_basis(dim, degree)
    top = [b for b in basis if b.degree == degree]
    rows = np.array([b.word.index(dim) for b in top], dtype=np.intp)
    if degree == 1:
        element, word, coef = rows, rows, np.ones(dim, dtype=np.int64)
    else:
        # basis positions of u and v in each standard bracketing [u, v]
        index = {b.bracketing: i for i, b in enumerate(basis)}
        u, v = (np.array([index[b.bracketing[side]] for b in top], np.intp) for side in (0, 1))
        v_len = np.array([basis[i].degree for i in v], np.intp)
        # the terms of all lower levels, elements in basis order
        lower = [_level_terms(dim, p) for p in range(1, degree)]
        count = np.concatenate([np.bincount(terms[1], minlength=len(terms[0])) for terms in lower])
        start = np.cumsum(count) - count
        lower_word, lower_coef = (np.concatenate([terms[c] for terms in lower]) for c in (2, 3))
        pairs = count[u] * count[v]
        owner = np.repeat(np.arange(len(top)), pairs)
        t = np.arange(owner.size) - np.repeat(np.cumsum(pairs) - pairs, pairs)

        def product(a, b, b_len):  # P_a P_b as keys element·d^k + word, sorted, unique
            i = start[a][owner] + t // count[b][owner]
            j = start[b][owner] + t % count[b][owner]
            keys = owner * dim**degree + lower_word[i] * (dim**b_len)[owner] + lower_word[j]
            return keys, lower_coef[i] * lower_coef[j]

        uv, uv_coef = product(u, v, v_len)
        vu, vu_coef = product(v, u, degree - v_len)
        # merge P_u P_v and -P_v P_u, summing the coefficients of the keys they share
        at = np.searchsorted(uv, vu)
        shared = uv[np.minimum(at, uv.size - 1)] == vu
        uv_coef[at[shared]] -= vu_coef[shared]
        keys = np.insert(uv, at[~shared], vu[~shared])
        coef = np.insert(uv_coef, at[~shared], -vu_coef[~shared])
        keys, coef = keys[coef != 0], coef[coef != 0]
        element, word = np.divmod(keys, dim**degree)
    for table in (rows, element, word, coef):
        table.flags.writeable = False
    return rows, element, word, coef


def _scatter(values: np.ndarray, src, dst, coef, size: int) -> np.ndarray:
    """Rows of ``out[:, dst] += values[:, src] * coef``, ``size`` wide: with (src, dst) =
    (element, word) of ``_level_terms``, coordinates rebuild Lie elements; with (word,
    element), tensors pair with the elements; ``_level_expansion``'s table solves for
    coordinates.  One bincount per slice of rows, each slice holding about
    ``_CHUNK_ELEMENTS`` terms; each row sums in table order, whatever the other rows."""
    out = np.empty((len(values), size))
    step = max(tensor_algebra._CHUNK_ELEMENTS // max(coef.size, 1), 1)
    for lo in range(0, len(values), step):
        block = values[lo : lo + step, src] * coef
        n = len(block)
        index = (np.arange(n)[:, None] * size + dst).ravel()
        out[lo : lo + n] = np.bincount(index, block.ravel(), n * size).reshape(n, size)
    return out


@functools.lru_cache(maxsize=None)
def _gram_inverse(dim: int, degree: int) -> np.ndarray:
    """(E E^T)^{-1} for the degree-k Lyndon elements E (n_k × d^k) in words.

    E E^T is summed over column blocks of at most ``_TRIANGLE_BUDGET`` entries;
    its entries are integers, so it comes out exact.
    """
    _, element, word, coef = _level_terms(dim, degree)
    n = witt_dimension(dim, degree)
    width = max(_TRIANGLE_BUDGET // max(n, 1), 1)
    gram = np.zeros((n, n))
    for lo in range(0, dim**degree, width):
        on = (word >= lo) & (word < lo + width)
        block = np.zeros((n, min(width, dim**degree - lo)))
        block[element[on], word[on] - lo] = coef[on]
        gram += block @ block.T
        del block  # before the next one is allocated
    return _frozen(np.linalg.inv(gram))


def _solve_level(x: np.ndarray, dim: int, degree: int, solve) -> tuple:
    """Lyndon coordinates of rows of degree-k tensors, by the term table ``solve`` or,
    if it is None, least squares; and each row's distance to the element they rebuild.

    Least squares takes corrected semi-normal equations (Björck): each refinement step
    makes up a factor cond(E E^T)·eps, so it is as accurate as QR while cond(E)^2·eps
    stays well below 1 (cond(E) is 6.5e3 at d = 2, k = 12).  Its products with the Gram
    inverse are unoptimised einsums: each row sums in one order, whatever the row count.
    """
    rows, element, word, coef = _level_terms(dim, degree)
    if solve is not None:
        coords = _scatter(x, *solve)
        err = x - _scatter(coords, element, word, coef, dim**degree)
    else:
        gram_inverse, coords, err = _gram_inverse(dim, degree), 0.0, x
        for _ in range(_REFINE_STEPS + 1):
            paired = _scatter(err, word, element, coef, len(rows))
            coords = coords + np.einsum("ij,jk->ik", paired, gram_inverse, optimize=False)
            err = x - _scatter(coords, element, word, coef, dim**degree)
    return coords, np.sqrt(np.einsum("ij,ij->i", err, err))


@functools.lru_cache(maxsize=None)
def _level_expansion(dim: int, degree: int):
    """The degree-k triangular solve as a term table (src, dst, coef, size), or None.

    Since P_w = w + (larger words) (Reutenauer, Free Lie Algebras, Thm 5.1), the
    degree-k Lyndon elements on the Lyndon words form an integral unit triangular
    block U.  Its inverse, built densely, is kept as terms: coordinate dst gains coef
    times the coefficient of Lyndon word src (a flat word index).

    The solve multiplies rounding error by up to ||U^{-1}||, which grows fast with
    k for small d (d = 2: 1.1e2 at k = 8, 1.8e4 at k = 10, 3.1e10 at k = 14; d = 3:
    1.8e3 at k = 8, 1.55e4 at k = 9).  Past ``_SOLVE_GAIN`` it is None: such levels
    take least squares.
    """
    n = witt_dimension(dim, degree)
    if n * n > _TRIANGLE_BUDGET:
        raise DomainError(
            f"Lyndon coordinates of degree {degree} in {dim} letters need a {n} x {n} "
            f"triangular inverse, over the budget of {_TRIANGLE_BUDGET} entries"
        )
    rows, element, word, coef = _level_terms(dim, degree)
    on = np.isin(word, rows)
    lower = np.zeros((n, n))  # U^T; the Lyndon rows are in increasing order
    lower[np.searchsorted(rows, word[on]), element[on]] = coef[on]
    inverse = _unit_triangular_inverse(lower)  # row c: coordinate c on the Lyndon words
    if n and np.abs(inverse).sum(axis=1).max() > _SOLVE_GAIN:
        return None
    dst, j = np.nonzero(inverse)
    return _frozen(rows[j], np.intp), _frozen(dst, np.intp), _frozen(inverse[dst, j]), n


@dataclass(frozen=True, eq=False)
class LieCoordinates:
    """Coordinates of a Lie element in the Lyndon basis up to ``depth``.

    ``values`` is aligned with ``lyndon_basis(dim, depth)``.
    """

    dim: int
    depth: int
    values: np.ndarray

    def __post_init__(self):
        if self.dim < 1 or self.depth < 1:
            raise DomainError("dim and depth must be positive")
        arr = _frozen(self.values).reshape(-1)
        expected = sum(witt_dimension(self.dim, k) for k in range(1, self.depth + 1))
        if arr.size != expected:
            raise DomainError(
                f"expected {expected} coordinates for dim={self.dim}, depth={self.depth}"
            )
        object.__setattr__(self, "values", arr)

    @property
    def basis(self) -> tuple[LyndonBasisElement, ...]:
        return lyndon_basis(self.dim, self.depth)

    def coeff(self, key) -> float:
        """Coordinate on a basis element, addressed by element, Word or rendering."""
        idx = _coord_lookup(self.dim, self.depth).get(_coord_key(key))
        if idx is None:
            raise KeyError(f"not a Lyndon basis element here: {key!r}")
        return float(self.values[idx])

    def max_degree(self, tol: float = 0.0) -> int:
        """Highest degree carrying a coordinate with |value| > tol (0 if none)."""
        out = 0
        for b, v in zip(self.basis, self.values):
            if abs(v) > tol:
                out = max(out, b.degree)
        return out

    def to_tensor(self, depth: int | None = None) -> TruncatedTensor:
        depth = self.depth if depth is None else depth
        ends = np.cumsum([witt_dimension(self.dim, k) for k in range(1, self.depth)])
        parts = np.split(self.values[None], ends, axis=1)[:depth]
        levels = [np.zeros(1)]
        for k, v in enumerate(parts, 1):
            levels.append(_scatter(v, *_level_terms(self.dim, k)[1:], self.dim**k)[0])
        levels += [np.zeros(self.dim**k) for k in range(self.depth + 1, depth + 1)]
        return TruncatedTensor(self.dim, depth, levels)

    def as_pairs(self) -> list[tuple[str, float]]:
        """(rendered element, coordinate) pairs in basis order."""
        return [(str(b), float(v)) for b, v in zip(self.basis, self.values)]


@functools.lru_cache(maxsize=None)
def _coord_lookup(dim: int, depth: int) -> dict:
    """Basis index of each Lyndon word and of each rendering, per (dim, depth)."""
    table = {}
    for i, b in enumerate(lyndon_basis(dim, depth)):
        table[b.word.letters] = i
        table[str(b)] = i
    return table


def _coord_key(key):
    if isinstance(key, LyndonBasisElement):
        return key.word.letters
    if isinstance(key, Word):
        return key.letters
    if isinstance(key, tuple):
        return tuple(int(c) for c in key)
    if isinstance(key, str):
        return key
    raise TypeError(f"cannot address a coordinate with {type(key).__name__}")


def tensor_to_lie_coords(a: TruncatedTensor) -> LieCoordinates:
    """Lyndon coordinates of a Lie element, level by level.

    Each level's coordinates solve the unit-triangular system of the Lyndon
    elements on the Lyndon words' coefficients (see ``_level_expansion``), or,
    where that solve would lose accuracy, least squares (``_solve_level``).
    Raises NotALieElementError when any level differs from the element rebuilt
    from them by more than ``_LIE_RTOL * |a| + _LIE_ATOL``; this residual test
    is the Lie-membership check.  The absolute floor keeps rounding-level residue
    from rejecting elements that are themselves at rounding scale (e.g. the
    log-signature of a path concatenated with its own reversal).
    """
    values = _lie_coords(_batch_of_one(a), a.dim, a.depth)
    return LieCoordinates(a.dim, a.depth, values[0])


def _lie_coords(levels, dim: int, depth: int) -> np.ndarray:
    """Lyndon coordinates of each row of (rows, d^k) levels, shape (rows, basis size).

    A row's coordinates do not depend on the other rows, and it is checked as one tensor
    is (``tensor_to_lie_coords``); the error names the first failing row's lowest failing
    level.
    """
    if levels[0].any():
        raise DomainError("a Lie element has zero level-0 coefficient")
    flat = np.concatenate(levels, axis=1)
    tolerance = _LIE_RTOL * np.sqrt(np.einsum("ij,ij->i", flat, flat)) + _LIE_ATOL
    tolerance[~np.isfinite(tolerance)] = np.nan  # no residual passes a NaN tolerance
    # every degree-1 tensor is a Lie element and its own coordinates
    coords, residuals = [levels[1]], np.zeros((len(flat), depth))
    with np.errstate(over="ignore", invalid="ignore"):  # overflowing rows fail below
        for degree in range(2, depth + 1):
            x, solve = levels[degree], _level_expansion(dim, degree)
            c, residuals[:, degree - 1] = _solve_level(x, dim, degree, solve)
            # the triangular solve gains rounding error by up to _SOLVE_GAIN; rows that it
            # pushed past the tolerance get least squares, which leaves the least residual
            redo = ~(residuals[:, degree - 1] <= tolerance) & ~np.isnan(tolerance)
            if solve is not None and redo.any():
                c[redo], residuals[redo, degree - 1] = _solve_level(x[redo], dim, degree, None)
            coords.append(c)
    failing = ~(residuals <= tolerance[:, None])  # NaN residuals fail too
    if failing.any():
        row = int(failing.any(axis=1).argmax())
        degree = int(failing[row].argmax()) + 1
        residual = float(residuals[row, degree - 1])
        raise NotALieElementError(
            "the element's norm is not finite, so no level is certified"
            if np.isnan(tolerance[row])
            else f"level-{degree} residual {residual:.3e} exceeds {tolerance[row]:.3e}",
            level=degree,
            residual=residual,
        )
    return np.concatenate(coords, axis=1)


def _dynkin_apply(vec: np.ndarray, dim: int, degree: int) -> np.ndarray:
    """Right-nested bracketing map: word i1..ik -> [e_i1, [e_i2, [... e_ik]]]."""
    if degree <= 1:
        return vec.copy()
    block = dim ** (degree - 1)
    out = np.zeros_like(vec)
    tail_idx = np.arange(block) * dim
    for letter in range(dim):
        sub = _dynkin_apply(vec[letter * block : (letter + 1) * block], dim, degree - 1)
        out[letter * block : (letter + 1) * block] += sub
        out[tail_idx + letter] -= sub
    return out


def dynkin_check(a: TruncatedTensor) -> np.ndarray:
    """Per-level residuals ||D(a_k) - k a_k|| of the Dynkin idempotent test.

    Vanishing residuals certify that each graded piece is a Lie element;
    this is independent of the Lyndon projection route.
    """
    if float(a.levels[0][0]) != 0.0:
        raise DomainError("Dynkin check requires a zero level-0 coefficient")
    residuals = np.zeros(a.depth)
    for k in range(1, a.depth + 1):
        d_ak = _dynkin_apply(a.levels[k], a.dim, k)
        residuals[k - 1] = np.linalg.norm(d_ak - k * a.levels[k])
    return residuals


def _mobius(n: int) -> int:
    if n == 1:
        return 1
    result, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    if n > 1:
        result = -result
    return result


def witt_dimension(dim: int, degree: int) -> int:
    """Dimension of the degree-k graded piece of the free Lie algebra on d letters."""
    if dim < 1 or degree < 1:
        raise DomainError("dim and degree must be positive")
    total = 0
    for m in range(1, degree + 1):
        if degree % m == 0:
            total += _mobius(m) * dim ** (degree // m)
    return total // degree
