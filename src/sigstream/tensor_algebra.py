"""Graded truncated tensor series over R^d.

Elements are stored densely, one flat float64 array per level, with level-k
coefficients in lexicographic word order over the alphabet {1, ..., d}.
Provides the truncated product, exponential and logarithm, word pairings,
the shuffle product on words, and per-level norms.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, DomainError, OutOfDepthError

__all__ = [
    "Word",
    "TruncatedTensor",
    "GradeNorms",
    "tensor_mul",
    "tensor_exp",
    "tensor_log",
    "inner",
    "shuffle",
    "shuffle_inner",
    "grade_norms",
    "words_of_degree",
    "coeff_map",
    "to_json_dict",
    "from_json_dict",
]

# chen_fold takes steps, _prefix_fold paths and streams._signature_levels rows in
# chunks so that one level's temporaries hold about this many floats (32 MB)
_CHUNK_ELEMENTS = 2**22


@dataclass(frozen=True)
class Word:
    """Index of one coordinate iterated integral: letters in {1, ..., d}.

    Rendered as comma-joined letters, e.g. ``Word((1, 2, 2))`` is ``"1,2,2"``;
    the empty word renders as ``""``.
    """

    letters: tuple[int, ...]

    def __post_init__(self):
        letters = tuple(int(c) for c in self.letters)
        if any(c < 1 for c in letters):
            raise DomainError(f"word letters must be >= 1, got {letters}")
        object.__setattr__(self, "letters", letters)

    @property
    def degree(self) -> int:
        return len(self.letters)

    def index(self, dim: int) -> int:
        """Flat lexicographic index of this word among words of its degree."""
        if any(c > dim for c in self.letters):
            raise DomainError(f"letter out of range for dimension {dim}: {self}")
        idx = 0
        for c in self.letters:
            idx = idx * dim + (c - 1)
        return idx

    def __str__(self) -> str:
        return ",".join(str(c) for c in self.letters)

    @classmethod
    def from_string(cls, text: str) -> "Word":
        text = text.strip()
        if not text:
            return cls(())
        return cls(tuple(int(tok) for tok in text.split(",")))


EMPTY_WORD = Word(())


def _frozen(values, dtype=float) -> np.ndarray:
    """A read-only copy of ``values`` in C order, for the arrays that objects hold."""
    arr = np.array(values, dtype=dtype, order="C")
    arr.flags.writeable = False
    return arr


def words_of_degree(dim: int, degree: int):
    """All words of the given degree in lexicographic order."""
    for letters in itertools.product(range(1, dim + 1), repeat=degree):
        yield Word(letters)


def _words_up_to(dim: int, depth: int) -> tuple:
    """All words of degrees 0..depth: level by level, each level in lexicographic order."""
    return tuple(w for k in range(depth + 1) for w in words_of_degree(dim, k))


class TruncatedTensor:
    """Element of the depth-N truncated tensor algebra over R^dim.

    ``levels[k]`` is a read-only flat array of the d^k level-k coefficients.
    Instances are immutable; all arithmetic returns new objects.  The
    ``grouplike`` flag is advisory metadata set by constructors (stream
    signatures, exponentials of Lie elements); it is checked by tests, not
    enforced by arithmetic.
    """

    __slots__ = ("dim", "depth", "levels", "grouplike")

    def __init__(self, dim, depth, levels=None, grouplike=False):
        if dim < 1 or depth < 1:
            raise DomainError("dimension and depth must be positive")
        self.dim = int(dim)
        self.depth = int(depth)
        if levels is None:
            levels = [np.zeros(self.dim**k) for k in range(self.depth + 1)]
        if len(levels) != self.depth + 1:
            raise DimensionMismatchError(
                f"expected {self.depth + 1} levels, got {len(levels)}"
            )
        stored = []
        for k, lvl in enumerate(levels):
            arr = _frozen(lvl).reshape(-1)
            if arr.size != self.dim**k:
                raise DimensionMismatchError(
                    f"level {k} must hold {self.dim**k} coefficients, got {arr.size}"
                )
            stored.append(arr)
        self.levels = tuple(stored)
        self.grouplike = bool(grouplike)

    @classmethod
    def zeros(cls, dim, depth):
        return cls(dim, depth)

    @classmethod
    def unit(cls, dim, depth):
        return cls(dim, depth, [np.ones(1)] + [np.zeros(dim**k) for k in range(1, depth + 1)])

    @classmethod
    def from_level1(cls, vec, depth, grouplike=False):
        vec = np.asarray(vec, dtype=float).reshape(-1)
        zeros = [np.zeros(vec.size**k) for k in range(2, depth + 1)]
        return cls(vec.size, depth, [np.zeros(1), vec] + zeros, grouplike=grouplike)

    def level(self, k) -> np.ndarray:
        if not 0 <= k <= self.depth:
            raise OutOfDepthError(f"level {k} outside 0..{self.depth}")
        return self.levels[k]

    def truncated(self, depth) -> "TruncatedTensor":
        if depth > self.depth:
            raise OutOfDepthError("cannot extend a truncated tensor")
        return TruncatedTensor(
            self.dim, depth, self.levels[: depth + 1], grouplike=self.grouplike
        )

    # -- linear-space arithmetic -------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        a, b = _promote(self, other)
        return TruncatedTensor(
            a.dim, a.depth, [x + y for x, y in zip(a.levels, b.levels)]
        )

    def __sub__(self, other):
        other = _coerce(other)
        a, b = _promote(self, other)
        return TruncatedTensor(
            a.dim, a.depth, [x - y for x, y in zip(a.levels, b.levels)]
        )

    def __mul__(self, scalar):
        scalar = float(scalar)
        return TruncatedTensor(
            self.dim, self.depth, [scalar * x for x in self.levels]
        )

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0

    def __repr__(self):
        head = float(self.levels[0][0])
        return (
            f"TruncatedTensor(dim={self.dim}, depth={self.depth}, "
            f"scalar={head:g}, grouplike={self.grouplike})"
        )

    def norm(self) -> float:
        """Euclidean norm over all coefficients."""
        return float(np.sqrt(sum(float(x @ x) for x in self.levels)))


def _coerce(other):
    if isinstance(other, TruncatedTensor):
        return other
    raise TypeError(f"expected TruncatedTensor, got {type(other).__name__}")


def _promote(a: TruncatedTensor, b: TruncatedTensor):
    """Align operands: equal dim required, mixed depths truncate to the minimum."""
    if a.dim != b.dim:
        raise DimensionMismatchError(f"dimension mismatch: {a.dim} vs {b.dim}")
    depth = min(a.depth, b.depth)
    return a.truncated(depth), b.truncated(depth)


def _mul_levels(a_levels, b_levels, depth):
    """Row-wise level-list product, truncated at ``depth``.

    ``a_levels[k]`` and ``b_levels[k]`` have shape (rows, d^k); so has the result.
    """
    out = []
    for k in range(depth + 1):
        acc = None
        for i in range(k + 1):
            term = _outer(a_levels[i], b_levels[k - i])
            acc = term if acc is None else acc + term
        out.append(acc)
    return out


def _outer(a, b):
    """Row-wise tensor product of (rows, d^i) and (rows, d^j) levels: (rows, d^(i+j))."""
    return (a[:, :, None] * b[:, None, :]).reshape(a.shape[0], -1)


def _batch_of_one(a: TruncatedTensor):
    """The levels of ``a`` with a leading batch axis of length 1, shapes (1, d^k)."""
    return [lvl[None] for lvl in a.levels]


def tensor_mul(a: TruncatedTensor, b: TruncatedTensor) -> TruncatedTensor:
    """Truncated tensor-algebra product of ``a`` and ``b``."""
    a, b = _promote(a, b)
    levels = _mul_levels(_batch_of_one(a), _batch_of_one(b), a.depth)
    return TruncatedTensor(
        a.dim, a.depth, [lvl[0] for lvl in levels], grouplike=a.grouplike and b.grouplike
    )


def chen_fold(levels, increments):
    """S (x) exp(x_1) (x) ... (x) exp(x_T) for a batch of running levels S.

    ``levels[k]`` has shape (batch, d^k) for k = 0..N and ``increments`` has
    shape (batch, steps, d); returns the product's levels in the same shapes.
    Each segment exponential enters in Horner form: level k of S (x) exp(x)
    gains (...((S^0 x/k + S^1) x/(k-1) + S^2) ... + S^(k-1)) x, with S^i the
    running level i just before the step.  Levels below N keep their prefix
    over the steps; level N only needs its sum over the steps, which is one
    matmul.  Steps are taken in chunks so that no temporary holds more than
    about _CHUNK_ELEMENTS floats per level.
    """
    depth = len(levels) - 1
    batch, steps, d = increments.shape
    out = list(levels)
    chunk = max(1, _CHUNK_ELEMENTS // (batch * d ** (depth - 1)))
    for lo in range(0, steps, chunk):
        x = increments[:, lo : lo + chunk]
        n = x.shape[1]
        x_over = {j: x[:, :, None, :] / j for j in range(2, depth + 1)}
        prefix = [np.repeat(out[0][:, None, :], n, axis=1)]
        for k in range(1, depth + 1):
            acc = prefix[0]
            for i in range(1, k):
                acc = acc[..., None] * x_over[k - i + 1]
                acc = acc.reshape(batch, n, -1)
                acc += prefix[i]
            if k < depth:
                # running level k before each step: S^k, then partial sums of its gains
                run = np.empty((batch, n + 1, d ** (k - 1), d))
                run[:, 0] = out[k].reshape(batch, -1, d)
                np.multiply(acc[..., None], x[:, :, None, :], out=run[:, 1:])
                np.cumsum(run, axis=1, out=run)
                run = run.reshape(batch, n + 1, -1)
                out[k] = run[:, -1].copy()
                prefix.append(run[:, :-1])
        top = np.matmul(acc.transpose(0, 2, 1), x)
        out[depth] = out[depth] + top.reshape(batch, -1)
    return out


def _prefix_fold(plan, levels, increments):
    """S (x) exp(x_1) (x) ... (x) exp(x_T) on the words of a prefix-closed set, per path.

    ``levels[k - 1]`` has shape (n_k, paths): the running coordinates of the
    plan's level-k words (``lie_algebra._PrefixPlan``), level 0 being 1; the
    ``increments`` have shape (steps, d, paths).  Returns new levels in the same
    shapes.  This is chen_fold's Horner form restricted to those words: by Chen's
    identity a word's gain needs the running values of its prefixes only, which
    the plan's index arrays gather, so word w of degree k gains
    (...((x_{w_1}/k + S^{w_1}) x_{w_2}/(k-1) + S^{w_1 w_2}) ... + S^{w_1..w_{k-1}}) x_{w_k}.
    Levels below the top keep their running values over the steps; the top level
    only needs its sum over the steps.  Paths are taken in chunks so that no
    temporary holds more than about _CHUNK_ELEMENTS floats.
    """
    steps, _, paths = increments.shape
    chunk = max(1, _CHUNK_ELEMENTS // (max(steps, 1) * max(lvl.shape[0] for lvl in levels)))
    if paths > chunk:
        out = [np.empty_like(lvl) for lvl in levels]
        for lo in range(0, paths, chunk):
            part = _prefix_fold(
                plan, [lvl[:, lo : lo + chunk] for lvl in levels], increments[..., lo : lo + chunk]
            )
            for o, p in zip(out, part):
                o[:, lo : lo + chunk] = p
        return out
    depth = len(levels)
    x_over = [None, increments] + [increments / j for j in range(2, depth + 1)]
    out, running = [], [None]
    for k in range(1, depth + 1):
        letters, prefixes = plan.letters[k], plan.prefixes[k]
        acc = x_over[k][:, letters[0]]
        for i in range(1, k):
            acc += running[i][:, prefixes[i]]
            acc *= x_over[k - i][:, letters[i]]
        if k < depth:
            # running level k before each step: S^k, then partial sums of its gains
            # (one add per step: np.cumsum along axis 0 took ~8x as long here)
            run = np.empty((steps + 1, *acc.shape[1:]))
            run[0] = levels[k - 1]
            run[1:] = acc
            for t in range(steps):
                run[t + 1] += run[t]
            out.append(run[-1])
            running.append(run[:-1])
        else:
            out.append(levels[k - 1] + acc.sum(axis=0))
    return out


def _represent(a: TruncatedTensor, mats: np.ndarray) -> np.ndarray:
    """sum_w a_w M_{w_1} ... M_{w_k}: the algebra map e_j -> M_j, truncated at a.depth.

    ``mats`` holds M_1..M_d with shape (d, m, m); the result is m x m.
    """
    d, m = mats.shape[0], mats.shape[1]
    words = np.eye(m, dtype=mats.dtype)[None, :, :]  # level-0 word matrix
    total = a.levels[0][0] * words[0]
    for k in range(1, a.depth + 1):
        # matrix for w'j is (matrix for w') @ M_j; flat order w'*d + j
        words = np.einsum("wab,jbc->wjac", words, mats).reshape(d**k, m, m)
        total = total + np.tensordot(a.levels[k], words, axes=(0, 0))
    return total


def _exp_tail(x: float, depth: int) -> float:
    """sum_{k > depth} x^k / k!, the remainder of exp(x) after its depth-N partial sum."""
    term = x ** (depth + 1) / math.factorial(depth + 1)
    total, k = 0.0, depth + 1
    while True:
        total += term
        k += 1
        term *= x / k
        if term <= 1e-17 * total or k > 10_000:
            break
    return total


def tensor_exp(a: TruncatedTensor, assume_lie: bool | None = None) -> TruncatedTensor:
    """exp(a) = sum_k a^k / k!, truncated; requires zero scalar term.

    The result is flagged grouplike when ``a`` is known to be a Lie element
    (pass ``assume_lie=True``); pure level-1 input is detected automatically.
    """
    if abs(float(a.levels[0][0])) != 0.0:
        raise DomainError("tensor_exp requires a zero level-0 coefficient")
    total = _power_series(_batch_of_one(a), lambda j: 1.0 / math.factorial(j))
    total[0] += 1.0
    if assume_lie is None:  # a single level-1 element is trivially Lie
        assume_lie = not any(lvl.any() for lvl in a.levels[2:])
    return TruncatedTensor(a.dim, a.depth, [lvl[0] for lvl in total], grouplike=bool(assume_lie))


def tensor_log(a: TruncatedTensor) -> TruncatedTensor:
    """log(a) = sum_k (-1)^(k+1) (a - 1)^k / k, truncated; requires unit scalar term."""
    if float(a.levels[0][0]) != 1.0:
        raise DomainError("tensor_log requires a unit level-0 coefficient")
    return TruncatedTensor(a.dim, a.depth, [lvl[0] for lvl in _log_levels(_batch_of_one(a))])


def _log_levels(levels):
    """Row-wise log(1 + x) = sum_j (-1)^(j+1) x^j / j of (rows, d^k) levels 1 + x."""
    return _power_series(levels, lambda j: (1.0 if j % 2 else -1.0) / j)


def _power_series(levels, coefficient):
    """Row-wise sum_{j=1..N} coefficient(j) x^j, x the (rows, d^k) levels above 0; the
    result's level 0 is zero.  x^j has no level below j, so only the products that
    reach levels j..N are formed."""
    n = len(levels) - 1
    total = [np.zeros_like(levels[0])] + [coefficient(1) * lvl for lvl in levels[1:]]
    power = levels  # x^j at levels j..N
    for j in range(2, n + 1):
        power = [None] * j + [
            sum(_outer(power[i], levels[k - i]) for i in range(j - 1, k))
            for k in range(j, n + 1)
        ]
        for k in range(j, n + 1):
            total[k] += coefficient(j) * power[k]
    return total


def inner(word: Word, a: TruncatedTensor) -> float:
    """Coefficient of ``word`` in ``a`` (the coordinate iterated integral pairing)."""
    if word.degree > a.depth:
        raise OutOfDepthError(
            f"word degree {word.degree} exceeds truncation depth {a.depth}"
        )
    return float(a.levels[word.degree][word.index(a.dim)])


@functools.lru_cache(maxsize=65536)
def _shuffle_letters(u: tuple, v: tuple) -> tuple:
    if not u:
        return ((v, 1),)
    if not v:
        return ((u, 1),)
    out: dict[tuple, int] = {}
    for w, m in _shuffle_letters(u[:-1], v):
        key = w + (u[-1],)
        out[key] = out.get(key, 0) + m
    for w, m in _shuffle_letters(u, v[:-1]):
        key = w + (v[-1],)
        out[key] = out.get(key, 0) + m
    return tuple(sorted(out.items()))


def shuffle(u: Word, v: Word) -> dict[Word, int]:
    """Shuffle product of two words as a formal integer combination of words.

    The result has C(deg u + deg v, deg u) terms counted with multiplicity.
    """
    return {Word(w): m for w, m in _shuffle_letters(u.letters, v.letters)}


def shuffle_inner(u: Word, v: Word, a: TruncatedTensor) -> float:
    """<u shuffle v, a> -- equals <u,a><v,a> on grouplike tensors."""
    if u.degree + v.degree > a.depth:
        raise OutOfDepthError(
            f"shuffle degree {u.degree + v.degree} exceeds depth {a.depth}"
        )
    return sum(m * inner(w, a) for w, m in shuffle(u, v).items())


@dataclass(frozen=True, eq=False)
class GradeNorms:
    """Per-level norms of a truncated tensor, levels 0..N."""

    flavor: str
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen(self.values))


_NORMS = {
    "l1": lambda x: np.abs(x).sum(axis=-1),
    "l2": lambda x: np.sqrt((x**2).sum(axis=-1)),
    "linf": lambda x: np.abs(x).max(axis=-1, initial=0.0),
}


def _vector_norms(x: np.ndarray, flavor: str) -> np.ndarray:
    """Norms of the vectors along the last axis of ``x`` under ``flavor`` (l1, l2 or linf)."""
    if flavor not in _NORMS:
        raise DomainError(f"unknown norm flavor {flavor!r}; use l1, l2 or linf")
    return _NORMS[flavor](x)


def grade_norms(a: TruncatedTensor, flavor: str = "l1") -> GradeNorms:
    """Per-level norms of ``a`` under the selected flavor (l1, l2 or linf)."""
    return GradeNorms(flavor, np.array([_vector_norms(lvl, flavor) for lvl in a.levels]))


def _mean_stderr(total, total_sq, count: int) -> tuple:
    """Mean and elementwise standard error of ``count`` samples from their sum ``total``
    and their sum of |x|^2 ``total_sq``; a single sample has zero standard error."""
    mean = total / count
    variance = np.maximum(total_sq / count - np.abs(mean) ** 2, 0.0)
    return mean, np.sqrt(variance / max(count - 1, 1))


# -- JSON wire format -------------------------------------------------------


def to_json_dict(a: TruncatedTensor) -> dict:
    """{"d": int, "depth": int, "levels": [[...], ...]} with lexicographic levels."""
    return {
        "d": a.dim,
        "depth": a.depth,
        "levels": [lvl.tolist() for lvl in a.levels],
    }


def from_json_dict(obj: dict) -> TruncatedTensor:
    return TruncatedTensor(int(obj["d"]), int(obj["depth"]), obj["levels"])


def coeff_map(a: TruncatedTensor) -> dict[str, float]:
    """Word-keyed coefficient map, words rendered as comma-joined letters."""
    values = np.concatenate(a.levels).tolist()
    return {str(w): v for w, v in zip(_words_up_to(a.dim, a.depth), values)}
