"""Piecewise-linear streams and their signatures.

A stream is a timestamped sequence of points in R^d, read as the piecewise
linear path through them.  Signatures are computed exactly (up to rounding)
as the ordered product of per-segment exponentials, via Chen's identity, by
``tensor_algebra.chen_fold`` on groups of equal-length streams, each group
folded in slices of rows that stay in cache.
Also provides CSV ingestion, the canonical time-augmentation and lead-lag transforms,
and a computable lower-bound profile for the p-variation signature metric.
A CSV body without its whitespace-only lines is parsed by one ``np.loadtxt`` call; what
it or ``Stream`` refuses, the row-by-row reader reads again, and a row that it or ``csv``
refuses is named in a StreamParseError.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from . import errors, lie_algebra, tensor_algebra
from .errors import (
    DimensionMismatchError, DomainError, StreamParseError, _count, _instance, _points, _real
)
from .tensor_algebra import (
    TruncatedTensor, _frozen, _log_levels, _mul_levels, _vector_norms, chen_fold
)

__all__ = [
    "Stream",
    "PartitionDistanceReport",
    "ingest_csv",
    "write_csv",
    "time_augment",
    "lead_lag",
    "concat",
    "reverse",
    "restrict",
    "signature",
    "log_signature",
    "dp_distance_estimate",
]

class Stream:
    """Timestamped samples of a d-dimensional path, piecewise-linear in between."""

    __slots__ = ("times", "points")

    def __init__(self, times, points):
        times, points = _points("times", times, None).ravel(), _points("points", points, None)
        points = points[:, None] if points.ndim == 1 else points  # 1-D points: a 1-D stream
        if points.ndim != 2:
            raise DimensionMismatchError(f"points must have shape (*, *), got shape {points.shape}")
        if points.shape[0] != times.size:
            raise DimensionMismatchError(
                f"need one point per timestamp, got {points.shape} for {times.size} times"
            )
        if times.size < 1:
            raise DomainError("a stream needs at least one sample")
        if not np.all(np.diff(times) > 0):
            raise DomainError("timestamps must be strictly increasing")
        times.flags.writeable = points.flags.writeable = False
        self.times = times
        self.points = points

    @property
    def dimension(self) -> int:
        return self.points.shape[1]

    @property
    def n_samples(self) -> int:
        return self.times.size

    @property
    def interval(self) -> tuple[float, float]:
        return float(self.times[0]), float(self.times[-1])

    def increments(self) -> np.ndarray:
        return np.diff(self.points, axis=0)

    def total_variation(self, flavor: str = "l2") -> float:
        """Length of the polygonal path under the chosen vector norm."""
        return float(_vector_norms(self.increments(), flavor).sum())

    def value_at(self, t: float) -> np.ndarray:
        """Piecewise-linear interpolation at time t (inside the interval)."""
        t, (t0, t1) = _real("t", t), self.interval
        if t < t0 - 1e-12 or t > t1 + 1e-12:
            raise DomainError(f"time {t} outside stream interval [{t0}, {t1}]")
        return _cut(self, [t])[1][0]

    def __repr__(self):
        t0, t1 = self.interval
        return (
            f"Stream(d={self.dimension}, samples={self.n_samples}, "
            f"interval=[{t0:g}, {t1:g}])"
        )


# -- ingestion ---------------------------------------------------------------


def ingest_csv(source) -> Stream:
    """Read a stream from CSV with header ``t,x1,...,xd``.

    ``source`` may be a path or an open text file.  Parse failures raise
    StreamParseError naming the 1-based row (header row is row 1).
    """
    if hasattr(source, "read"):
        return _parse_csv(source, getattr(source, "name", "<stream>"))
    with open(source, newline="") as handle:
        return _parse_csv(handle, str(source))


def _parse_csv(handle, name) -> Stream:
    # the lines that csv.reader(handle) would read (a path is opened with newline="", so
    # they end at \n, \r\n and \r); the reader names rows from this same list
    lines = list(handle)
    reader = csv.reader(lines)
    try:
        header = [h.strip() for h in next(reader)]
    except StopIteration:
        raise StreamParseError(f"{name}: empty file") from None
    except csv.Error as exc:
        raise StreamParseError(f"{name}: row 1: {exc}") from None
    if len(header) < 2 or header[0] != "t":
        raise StreamParseError(
            f"{name}: row 1: expected header 't,x1,...,xd', got {','.join(header)!r}"
        )
    width, rest = len(header), lines[reader.line_num:]
    # loadtxt refuses whitespace-only lines, which the row loop skips, so the body drops
    # them, but not one with a \r inside, which csv refuses; loadtxt warns on an empty
    # body, strips \x1c-\x1f from a cell as white space, where float() refuses the cell,
    # and has no limit where csv refuses a cell longer than csv.field_size_limit() (a
    # line's length bounds its cells')
    body = [line for line in rest if not line.isspace() or "\r" in line.rstrip("\r\n")]
    text = "".join(rest)
    if (body and not any(c in text for c in "\x1c\x1d\x1e\x1f")
            and max(map(len, rest)) <= csv.field_size_limit()):
        try:  # one C call; anything it refuses is read again, row by row, below
            table = np.loadtxt(body, delimiter=",", comments=None, ndmin=2)
            if table.shape[1] == width:
                return Stream(table[:, 0], table[:, 1:])
        except ValueError:  # a cell, a row width, or Stream's DomainError
            pass
    return _parse_rows(reader, name, width)


def _parse_rows(reader, name, width) -> Stream:
    """The body's rows, one float() per cell: accepts what loadtxt refuses (quoted cells,
    1_000, non-ASCII digits) and raises StreamParseError naming the first bad row."""
    times, rows, lineno = [], [], 1
    try:
        for lineno, row in enumerate(reader, start=2):
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
    except csv.Error as exc:  # csv's own refusal of row lineno + 1
        raise StreamParseError(f"{name}: row {lineno + 1}: {exc}") from None
    if not rows:
        raise StreamParseError(f"{name}: no data rows")
    return Stream(np.array(times), np.array(rows))


def write_csv(stream: Stream, dest) -> None:
    """Inverse of ingest_csv."""
    stream = _instance("stream", stream, Stream)
    own = not hasattr(dest, "write")
    handle = open(dest, "w", newline="") if own else dest
    try:
        writer = csv.writer(handle)
        writer.writerow(["t"] + [f"x{j + 1}" for j in range(stream.dimension)])
        for t, row in zip(stream.times, stream.points):
            writer.writerow([repr(float(t))] + [repr(float(v)) for v in row])
    finally:
        if own:
            handle.close()


# -- canonical transforms -----------------------------------------------------


def time_augment(s: Stream) -> Stream:
    """Prepend time as coordinate 0, turning a d-stream into a (d+1)-stream."""
    s = _instance("s", s, Stream)
    return Stream(*_transformed(s.times, s.points, "time"))


def lead_lag(s: Stream) -> Stream:
    """Hoff lead-lag embedding into 2d dimensions, doubling the sample count.

    Convention: over each data increment the lead block (dimensions
    1..d) moves first, then the lag block (dimensions d+1..2d) follows.
    """
    s = _instance("s", s, Stream)
    return Stream(*_transformed(s.times, s.points, "leadlag"))


def _transformed(times, points, transform: str):
    """Times and points of the named transform of samples (times, points), unchecked.  Rows
    i..j (2i..2j under lead-lag) depend on samples i..j alone, so stacked streams can share it."""
    if transform == "time":
        return times, np.column_stack([times, points])
    if transform == "leadlag":
        out = np.empty(2 * len(times) - 1)
        out[0::2] = times
        out[1::2] = 0.5 * (times[:-1] + times[1:])
        doubled = np.repeat(points, 2, axis=0)
        return out, np.hstack([doubled[1:], doubled[:-1]])
    return times, points


# stream transforms by name, as featurize and the CLI's --transform take them
TRANSFORMS = {
    "none": lambda s: s,
    "time": time_augment,
    "leadlag": lead_lag,
}


# -- path surgery -------------------------------------------------------------


def concat(a: Stream, b: Stream) -> Stream:
    """Run ``a`` then ``b``, translating ``b`` in time and space to continue ``a``."""
    a, b = _instance("a", a, Stream), _instance("b", b, Stream)
    if a.dimension != b.dimension:
        raise DimensionMismatchError(
            f"cannot concatenate streams of dimension {a.dimension} and {b.dimension}"
        )
    shift_t = a.times[-1] - b.times[0]
    shift_x = a.points[-1] - b.points[0]
    times = np.concatenate([a.times, b.times[1:] + shift_t])
    points = np.vstack([a.points, b.points[1:] + shift_x])
    return Stream(times, points)


def reverse(s: Stream) -> Stream:
    """The same trace traversed backwards."""
    t0, t1 = _instance("s", s, Stream).interval
    return Stream((t0 + t1) - s.times[::-1], s.points[::-1])


def restrict(s: Stream, t0: float, t1: float) -> Stream:
    """Sub-stream on [t0, t1], interpolating the endpoints."""
    (lo, hi), t0, t1 = _instance("s", s, Stream).interval, _real("t0", t0), _real("t1", t1)
    if t0 < lo - 1e-9 or t1 > hi + 1e-9 or t0 > t1:
        raise DomainError(f"[{t0}, {t1}] is not inside [{lo}, {hi}]")
    times, points, _ = _cut(s, [t0, t1])
    return Stream(times, points)


def _cut(s: Stream, cuts):
    """Times and points of the samples inside [cuts[0], cuts[-1]] merged with the
    non-decreasing cuts (clamped to the interval; one np.interp per coordinate, exact
    at samples), and each cut's row: piece i is rows index[i]..index[i + 1]."""
    cuts = np.clip(np.asarray(cuts, dtype=float), s.times[0], s.times[-1])
    inside = s.times[(s.times > cuts[0]) & (s.times < cuts[-1])]
    times = np.union1d(inside, cuts)
    points = np.column_stack([np.interp(times, s.times, col) for col in s.points.T])
    return times, points, np.searchsorted(times, cuts)


# -- signatures ---------------------------------------------------------------

def signature(s: Stream, depth: int) -> TruncatedTensor:
    """Truncated signature of the stream: the ordered product of segment exponentials."""
    s = _instance("s", s, Stream)
    levels = _signature_levels(s.points, [0], [s.n_samples - 1], depth)
    return TruncatedTensor(s.dimension, depth, [lvl[0] for lvl in levels], grouplike=True)


def _signature_levels(points, starts, ends, depth: int) -> list[np.ndarray]:
    """Signatures of the sub-paths points[start:end + 1] as levels of shape (rows, d^k).

    Rows with the same segment count are grouped in first-seen order and folded
    together by ``chen_fold``; a group is folded in slices of rows so that each
    slice holds about _CACHE_ELEMENTS floats per level, and these stay in cache.
    """
    depth = _count("depth", depth, 1)
    starts, ends = np.asarray(starts), np.asarray(ends)
    rows, d = starts.size, points.shape[1]
    errors._check_budget(f"{rows} signature(s)", rows, d, depth)
    out = [np.ones((rows, 1))] + [np.empty((rows, d**k)) for k in range(1, depth + 1)]
    counts = ends - starts
    values, first = np.unique(counts, return_index=True)
    for n in values[np.argsort(first)]:
        members = np.flatnonzero(counts == n)
        per_slice = max(tensor_algebra._CACHE_ELEMENTS // (max(n, 1) * d ** (depth - 1)), 1)
        for lo in range(0, members.size, per_slice):
            idx = members[lo : lo + per_slice]
            unit = [np.ones((idx.size, 1))]
            unit += [np.zeros((idx.size, d**k)) for k in range(1, depth + 1)]
            piece = points[starts[idx, None] + np.arange(n + 1)]
            levels = chen_fold(unit, np.diff(piece, axis=1))
            if idx.size == rows:  # one slice holds every row, in input order
                return levels
            for k in range(1, depth + 1):
                out[k][idx] = levels[k]
    return out


def log_signature(s: Stream, depth: int) -> lie_algebra.LieCoordinates:
    """Lyndon-basis coordinates of log of the stream's signature."""
    s = _instance("s", s, Stream)
    values = _log_signature_rows(s.points, [0], [s.n_samples - 1], depth)
    return lie_algebra.LieCoordinates(s.dimension, depth, values[0])


def _log_signature_rows(points, starts, ends, depth: int) -> np.ndarray:
    """Lyndon coordinates of the log-signatures of the sub-paths points[start:end + 1],
    one row each: the one route from points to log-signatures."""
    levels = _log_levels(_signature_levels(points, starts, ends, depth))
    return lie_algebra._lie_coords(levels, points.shape[1], depth)


# -- p-variation metric profile ----------------------------------------------


@dataclass(frozen=True, eq=False)
class PartitionDistanceReport:
    """Lower-bound profile for the signature p-variation distance.

    ``estimates[i]`` is the best value seen over dyadic partitions up to
    ``levels[i]`` refinements; the sequence is non-decreasing and each entry
    underestimates the sup over all partitions.
    """

    p: float
    levels: tuple[int, ...]
    estimates: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "estimates", _frozen(self.estimates))


def dp_distance_estimate(
    a: Stream, b: Stream, p: float, max_level: int
) -> PartitionDistanceReport:
    """Dyadic-refinement approximation of the signature p-variation distance.

    Both streams are reparameterized to [0, 1].  For each refinement level
    the partition sum uses levelwise signature discrepancies raised to p/m;
    the reported estimate at level L is the maximum over levels <= L, a
    certified lower bound for the sup over all partitions.  Only the finest
    pieces are signed; each coarser piece is the Chen product of its halves.
    """
    a, b = _instance("a", a, Stream), _instance("b", b, Stream)
    if a.dimension != b.dimension:
        raise DimensionMismatchError(f"streams have dimensions {a.dimension} and {b.dimension}")
    p, max_level = _real("p", p, 1), _count("max_level", max_level, 1)
    m_top = int(np.floor(p))
    # 2 x 2^max_level rows; past the budget's bit length any exponent is over it, so
    # capping it keeps a huge max_level cheap without passing the check
    rows = 2 << min(max_level, errors._COEFF_BUDGET.bit_length())
    errors._check_budget(f"2 x 2^{max_level} dyadic pieces", rows, a.dimension, m_top)
    pieces = 2**max_level
    (_, pa, ia), (_, pb, ib) = (_cut(s, np.linspace(*s.interval, pieces + 1)) for s in (a, b))
    starts = np.concatenate([ia[:-1], ib[:-1] + len(pa)])
    ends = np.concatenate([ia[1:], ib[1:] + len(pa)])
    sig = _signature_levels(np.concatenate([pa, pb]), starts, ends, m_top)  # a's rows, then b's
    totals = []
    for level in range(max_level, 0, -1):
        if level < max_level:
            sig = _mul_levels([lvl[0::2] for lvl in sig], [lvl[1::2] for lvl in sig], m_top)
        pieces = 2**level
        diffs = (lvl[:pieces] - lvl[pieces:] for lvl in sig[1:])
        gaps = [np.linalg.norm(x, axis=1) ** (p / m) for m, x in enumerate(diffs, start=1)]
        totals.append(float(np.max(gaps, axis=0).sum()))
    levels = tuple(range(1, max_level + 1))
    return PartitionDistanceReport(p, levels, np.maximum.accumulate(totals[::-1]))
