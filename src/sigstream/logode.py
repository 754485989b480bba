"""The log-ODE method for controlled differential equations.

Per step: take the truncated log-signature of the driving stream over the
step (all steps are signed in one batch), extend the linear map (driver
coordinate -> vector field) through the bracket structure of the free Lie
algebra, freeze the resulting field, and integrate it for unit time with RK4.
``logode_step`` and ``solve`` take every step through ``_steps``; it and
``_linear_steps`` state the step policy in their docstrings.

Brackets follow [V, W](y) = DW(y) V(y) - DV(y) W(y); on linear fields
V_i(y) = A_i y this gives [V_i, V_j] -> (A_j A_i - A_i A_j) y, the
composition order that reproduces the exact segment-exponential solution
of a linear system (see ``linear_solve``): its bracket matrices are its bracket
values at the point Y = I, where letter i takes the value A_i.  Other fields
are called once per point; each differentiated bracket of degree >= 2 takes
one central difference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapabilityError, DimensionMismatchError, DivergenceError, DomainError
from .errors import _check_budget, _count, _instance, _points, _real
from .lie_algebra import LieCoordinates, _lyndon_basis
from .streams import Stream, _cut, _log_signature_rows
from .tensor_algebra import _CACHE_ELEMENTS, TruncatedTensor, _exp_tail, _frozen, _represent

__all__ = [
    "VectorFieldSystem",
    "LinearSystem",
    "LogOdeSchedule",
    "lie_extend_evaluate",
    "logode_step",
    "solve",
    "linear_solve",
    "linear_series_apply",
    "series_tail_bound",
]

_FD_SCALE = 1e-5  # directional finite-difference step per unit of (1 + |y|)
# a state bound below which no substep of a linear step can overflow, 2^24 below the
# largest float to spare for rounding
_SAFE_SIZE = 2.0**1000


@dataclass(frozen=True, eq=False)
class LinearSystem:
    """Matrices A_1..A_d of a linear controlled system dy = sum_i A_i y dgamma_i."""

    matrices: np.ndarray

    def __post_init__(self):
        arr = _frozen(_points("matrices", self.matrices, (None, None, None)))
        if arr.shape[1] != arr.shape[2]:
            raise DomainError("matrices must have shape (d, m, m)")
        object.__setattr__(self, "matrices", arr)

    @property
    def driver_dim(self) -> int:
        return self.matrices.shape[0]

    @property
    def state_dim(self) -> int:
        return self.matrices.shape[1]

    def operator_norm(self) -> float:
        """max_i ||A_i||_2, the norm of the map from l1-normed drivers."""
        return max(float(np.linalg.norm(a, 2)) for a in self.matrices)


class VectorFieldSystem:
    """Driving vector fields V_1..V_d on R^m with their Jacobians.

    ``smoothness`` declares how many derivatives of the fields are usable;
    brackets of degree k need k - 1.  When ``validate_at`` points are given,
    each Jacobian is checked against central finite differences of its field
    at those points (1e-5 relative).

    General fields are called once per point; brackets of degree >= 3 take one
    central difference per differentiated sub-bracket and point, with step
    ``_FD_SCALE * (1 + |y|)``.  ``from_linear`` systems instead keep their
    bracket values at the identity point Y = I_m, the exact m x m matrices M_b
    of the bracket fields y -> M_b y.
    """

    def __init__(
        self,
        state_dim: int,
        driver_dim: int,
        fields,
        jacobians,
        smoothness: int = 1,
        validate_at=None,
    ):
        self.state_dim = _count("state_dim", state_dim, 1)
        self.driver_dim = _count("driver_dim", driver_dim, 1)
        if len(fields) != driver_dim or len(jacobians) != driver_dim:
            raise DomainError("need one field and one Jacobian per driver coordinate")
        self.fields = tuple(fields)
        self.jacobians = tuple(jacobians)
        self.smoothness = _count("smoothness", smoothness, 0)
        self._identity = None  # from_linear: the _Point at Y = I_m, letters valued A_i
        if validate_at is not None:
            self._validate_jacobians(validate_at)

    @classmethod
    def from_linear(cls, lin: LinearSystem) -> "VectorFieldSystem":
        mats = _instance("lin", lin, LinearSystem).matrices
        fields = [lambda y, a=a: a @ y for a in mats]
        jacobians = [lambda y, a=a: a for a in mats]
        vfs = cls(lin.state_dim, lin.driver_dim, fields, jacobians, smoothness=10**9)
        vfs._identity = _Point(vfs, np.eye(lin.state_dim), {})
        vfs._identity.values.update(enumerate(mats, start=1))
        return vfs

    def _validate_jacobians(self, points):
        units = np.eye(self.state_dim)
        points = np.atleast_2d(_points("validate_at", points, None))  # one point: one row
        for y in _points("validate_at", points, (None, self.state_dim)):
            point = _Point(self, y, {})
            for i, jac in enumerate(self.jacobians):
                J = np.asarray(jac(y), dtype=float)
                fd = np.column_stack([_central_difference(point, i + 1, e) for e in units])
                scale = max(1.0, float(np.abs(J).max()))
                if np.abs(J - fd).max() > 1e-5 * scale:
                    raise DomainError(
                        f"Jacobian {i + 1} disagrees with finite differences at {y}"
                    )


class _Point:
    """Bracket values at one point y, each field and Jacobian called at most once there;
    the points of one evaluation share one ``table`` of these values, keyed by y's bytes."""

    __slots__ = ("vfs", "y", "values", "jacobians", "table")

    def __init__(self, vfs: VectorFieldSystem, y: np.ndarray, table: dict):
        self.vfs, self.y, self.table = vfs, y, table
        self.values, self.jacobians = table.setdefault(y.tobytes(), ({}, {}))

    def value(self, tree) -> np.ndarray:
        """B_tree(y), with B_[L,R] = DB_R B_L - DB_L B_R."""
        out = self.values.get(tree)
        if out is None:
            if isinstance(tree, int):
                out = np.asarray(self.vfs.fields[tree - 1](self.y), dtype=float)
            else:
                left, right = tree
                out = self.derivative(right, self.value(left))
                out = out - self.derivative(left, self.value(right))
            self.values[tree] = out
        return out

    def derivative(self, tree, w: np.ndarray) -> np.ndarray:
        """DB_tree(y) w: through the Jacobian for a letter; for a bracket, M_tree w on a
        linear system, else by a central difference."""
        if not isinstance(tree, int):
            if self.vfs._identity is not None:
                return self.vfs._identity.value(tree) @ w
            return _central_difference(self, tree, w)
        if tree not in self.jacobians:
            self.jacobians[tree] = np.asarray(self.vfs.jacobians[tree - 1](self.y), dtype=float)
        return self.jacobians[tree] @ w

    def combination(self, terms: dict) -> np.ndarray:
        """sum_b lambda_b B_b(y) as sum_i lambda_i V_i(y) + sum_X DB_X(y) w_X, where
        b = [L, R] adds DB_R B_L - DB_L B_R, so w_X = sum_{b=[L,X]} lambda_b B_L -
        sum_{b=[X,R]} lambda_b B_R: one directional derivative per sub-bracket X."""
        out, w = np.zeros(self.vfs.state_dim), {}
        for tree, lam in terms.items():
            if isinstance(tree, int):
                out = out + lam * self.value(tree)
            else:
                left, right = tree
                for x, v in ((right, lam * self.value(left)), (left, -lam * self.value(right))):
                    w[x] = w[x] + v if x in w else v
        for tree, w_x in w.items():
            out = out + self.derivative(tree, w_x)
        return out


def _central_difference(point: _Point, tree, w: np.ndarray) -> np.ndarray:
    """DB_tree(y) w by one central difference along w, step ``_FD_SCALE * (1 + |y|)``."""
    norm_w = math.hypot(*w)  # |w|^2 would under- or overflow for tiny or huge lambda_b
    if norm_w == 0.0:
        return np.zeros_like(w)
    vfs, y, table = point.vfs, point.y, point.table
    h = _FD_SCALE * (1.0 + math.hypot(*y))
    step = h * (w / norm_w)
    plus, minus = _Point(vfs, y + step, table).value(tree), _Point(vfs, y - step, table).value(tree)
    return (plus - minus) * (norm_w / (2.0 * h))


def _check_driver(vfs: VectorFieldSystem, dim: int) -> None:
    if dim != vfs.driver_dim:
        raise DomainError(f"coordinates are {dim}-dimensional, fields expect {vfs.driver_dim}")


def _frozen_field(vfs: VectorFieldSystem, dim: int, depth: int, row):
    """The frozen field y -> sum_b lambda_b B_b(y) of a general system, for one row of
    Lyndon coordinates."""
    basis = _lyndon_basis(dim, depth)
    top = max((b.degree for lam, b in zip(row, basis) if abs(lam) > 0.0), default=0)
    if top > vfs.smoothness + 1:
        raise CapabilityError(f"degree-{top} brackets need {top - 1} derivatives; "
                              f"system declares {vfs.smoothness}")
    terms = {b.bracketing: lam for lam, b in zip(row, basis) if lam != 0.0}
    return lambda y: _Point(vfs, y, {}).combination(terms)


def _frozen_matrices(vfs: VectorFieldSystem, dim: int, depth: int, rows) -> np.ndarray:
    """K = sum_b lambda_b M_b of a ``from_linear`` system for each row of Lyndon
    coordinates, stacked (rows, m, m): summed from +0.0 in basis order, where a
    lambda_b equal to 0 adds nothing."""
    K = np.zeros((len(rows), vfs.state_dim, vfs.state_dim))
    for lam, b in zip(rows.T, _lyndon_basis(dim, depth)):
        live = lam != 0.0
        if live.any():  # M_b itself may overflow, so it is formed only when it is used
            K[live] += lam[live, None, None] * vfs._identity.value(b.bracketing)
    return K


def _march(substep, y: np.ndarray, substeps: int) -> np.ndarray:
    """``substeps`` applications of ``substep`` to y, raising DivergenceError at the
    first substep whose state is not finite."""
    for step in range(substeps):
        y = substep(y)
        if not np.isfinite(y).all():
            raise DivergenceError(f"state became non-finite at substep {step + 1}",
                                  substep=step + 1)
    return y


def _increment_power(deltas: np.ndarray, substeps: int) -> np.ndarray:
    """R^s - I for each R = I + D of a stack of increments D, by binary powering on
    increments, (I + A)(I + B) - I = A + B + AB: floor(log2 s) squarings E + E + E @ E and
    popcount(s) - 1 products P + E + P @ E, each one batched matmul.  At s = 1 it is D."""
    power, inc = None, deltas
    while True:
        if substeps & 1:
            power = inc if power is None else power + inc + power @ inc
        substeps >>= 1
        if not substeps:
            return power
        inc = inc + inc + inc @ inc


def _linear_steps(vfs: VectorFieldSystem, dim: int, depth: int, rows, y, substeps: int, out):
    """``_steps`` of a ``from_linear`` system.  Its frozen field is y -> K y, and each RK4
    substep of length h = 1 / substeps is y <- R y with RK4's one-step matrix R = I + D,
    D = hK(I + hK/2(I + hK/3(I + hK/4))), so a step is y <- R^s y.  K and D are stacked
    for a slice of steps of at most _CACHE_ELEMENTS floats.

    The slice's P = R^s - I come from ``_increment_power``, and a step is one product
    y <- y + P y where |y| (1 + |D|)^(s + 1) < _SAFE_SIZE (infinity norms), so that none of
    its substeps could overflow, and where the new state is finite (as it is not when P is
    not).  Any other step is replayed by ``_march``, which raises the substeps'
    DivergenceError or returns their finite state.  Products run under
    np.errstate(all="ignore"), replays under the caller's.
    """
    eye, per_slice = np.eye(vfs.state_dim), max(_CACHE_ELEMENTS // vfs.state_dim**2, 1)
    caller, size = np.geterr(), float(np.abs(y).max())
    for lo in range(0, len(rows), per_slice):
        hk = (1.0 / substeps) * _frozen_matrices(vfs, dim, depth, rows[lo : lo + per_slice])
        deltas = hk @ (eye + hk / 2 @ (eye + hk / 3 @ (eye + hk / 4)))
        with np.errstate(all="ignore"):
            powers = _increment_power(deltas, substeps)
            growth = (1.0 + np.abs(deltas).sum(axis=2).max(axis=1)) ** (substeps + 1)
            limits = (_SAFE_SIZE / growth).tolist()
            for j, delta in enumerate(deltas):
                if done := size < limits[j]:
                    step = y + powers[j] @ y
                    size = float(np.abs(step).max())
                    done = size < math.inf
                if not done:
                    with np.errstate(**caller):  # raises DivergenceError, or steps to a finite y
                        step = _march(lambda y: y + delta @ y, y, substeps)
                    size = float(np.abs(step).max())
                y = out[lo + j] = step


def _steps(vfs: VectorFieldSystem, dim: int, depth: int, rows, y, substeps: int, out):
    """Write to out[i] the state after step i from y, one step per row of Lyndon
    coordinates: the one step routine of ``logode_step`` (one row) and ``solve`` (all).

    A ``from_linear`` system takes ``_linear_steps``.  A general system freezes each row's
    field and integrates it for unit time by ``substeps`` RK4 substeps under ``_march``,
    which checks the state after every substep.
    """
    _check_driver(vfs, dim)
    if vfs._identity is not None:
        return _linear_steps(vfs, dim, depth, rows, y, substeps, out)
    dt = 1.0 / substeps
    for i, row in enumerate(rows):
        field = _frozen_field(vfs, dim, depth, row)

        def substep(y):
            k1 = field(y)
            k2 = field(y + 0.5 * dt * k1)
            k3 = field(y + 0.5 * dt * k2)
            k4 = field(y + dt * k3)
            return y + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)

        y = out[i] = _march(substep, y, substeps)


def lie_extend_evaluate(vfs: VectorFieldSystem, coords: LieCoordinates, y) -> np.ndarray:
    """Evaluate the Lie extension of the field map at the given coordinates.

    Returns sum_b lambda_b B_b(y) where B_b is the iterated vector-field
    bracket following each basis element's bracketing.
    """
    vfs = _instance("vfs", vfs, VectorFieldSystem)
    coords = _instance("coords", coords, LieCoordinates)
    y = _points("y", y, (vfs.state_dim,), DimensionMismatchError)
    _check_driver(vfs, coords.dim)
    if vfs._identity is not None:
        return _frozen_matrices(vfs, coords.dim, coords.depth, coords.values[None])[0] @ y
    return _frozen_field(vfs, coords.dim, coords.depth, coords.values)(y)


def logode_step(vfs: VectorFieldSystem, y0, coords: LieCoordinates, substeps: int) -> np.ndarray:
    """Integrate the frozen log-signature field over unit time with RK4: ``_steps`` on
    one row, which states the step policy."""
    vfs = _instance("vfs", vfs, VectorFieldSystem)
    coords = _instance("coords", coords, LieCoordinates)
    y = _points("y0", y0, (vfs.state_dim,), DimensionMismatchError)
    out = np.empty((1, vfs.state_dim))
    _steps(vfs, coords.dim, coords.depth, coords.values[None], y,
           _count("substeps", substeps, 1), out)
    return out[0]


@dataclass(frozen=True, eq=False)
class LogOdeSchedule:
    """Step boundaries inside the driver's interval, truncation degree, RK4 substeps."""

    boundaries: np.ndarray
    depth: int
    substeps: int = 16

    def __post_init__(self):
        arr = _frozen(_points("boundaries", self.boundaries, (None,)))
        if arr.size < 2 or not np.all(np.diff(arr) > 0):
            raise DomainError("boundaries must be increasing with at least two entries")
        object.__setattr__(self, "boundaries", arr)
        object.__setattr__(self, "depth", _count("depth (truncation degree)", self.depth, 1))
        object.__setattr__(self, "substeps", _count("substeps", self.substeps, 1))

    @classmethod
    def uniform(cls, stream: Stream, steps: int, depth: int, substeps: int = 16):
        steps, (t0, t1) = _count("steps", steps, 1), _instance("stream", stream, Stream).interval
        _check_budget(f"{steps} steps", steps)  # linspace allocates one float more
        return cls(np.linspace(t0, t1, steps + 1), depth, substeps)


def solve(vfs: VectorFieldSystem, stream: Stream, y0, schedule: LogOdeSchedule) -> np.ndarray:
    """Log-ODE trajectory: the state at every schedule boundary, row 0 = y0.

    Every step is signed in one batch and taken by ``_steps``, which states the step
    policy; so the trajectory is the chain of ``logode_step`` calls, byte for byte.
    """
    vfs = _instance("vfs", vfs, VectorFieldSystem)
    t0, t1 = _instance("stream", stream, Stream).interval
    bounds = _instance("schedule", schedule, LogOdeSchedule).boundaries
    if bounds[0] < t0 - 1e-9 or bounds[-1] > t1 + 1e-9:
        raise DomainError("schedule boundaries leave the stream's interval")
    states = np.empty((bounds.size, vfs.state_dim))
    states[0] = y = _points("y0", y0, (vfs.state_dim,))
    _, points, index = _cut(stream, bounds)
    rows = _log_signature_rows(points, index[:-1], index[1:], schedule.depth)
    _steps(vfs, stream.dimension, schedule.depth, rows, y, schedule.substeps, states[1:])
    return states


# -- linear systems: exact oracle and truncated signature series --------------


def linear_solve(lin: LinearSystem, s: Stream, y0) -> np.ndarray:
    """Exact solution of the linear system along a polygonal stream.

    Ordered product over segments of exp(sum_i dgamma_i A_i), applied to y0.
    """
    import scipy.linalg  # here, so importing the package leaves scipy.linalg out

    m = _instance("lin", lin, LinearSystem).state_dim
    y = _points("y0", y0, (m,), DimensionMismatchError)
    if _instance("s", s, Stream).dimension != lin.driver_dim:
        raise DomainError(
            f"stream dimension {s.dimension} != system driver dimension {lin.driver_dim}"
        )
    for inc in s.increments():
        step = np.tensordot(inc, lin.matrices, axes=(0, 0))
        y = scipy.linalg.expm(step) @ y
    return y


def linear_series_apply(lin: LinearSystem, sig: TruncatedTensor, y0) -> np.ndarray:
    """Truncated signature series sum_k sum_w S_w A_{w_k} ... A_{w_1} y0."""
    if _instance("sig", sig, TruncatedTensor).dim != _instance("lin", lin, LinearSystem).driver_dim:
        raise DomainError("signature and system driver dimensions differ")
    y = _points("y0", y0, (lin.state_dim,), DimensionMismatchError)
    # (A_{w_1}^T ... A_{w_k}^T)^T = A_{w_k} ... A_{w_1}
    return _represent(sig, lin.matrices.transpose(0, 2, 1)).T @ y


def series_tail_bound(op_norm: float, length: float, depth: int, y0_norm: float) -> float:
    """Tail sum_{k > depth} (|A| L)^k / k! * |y0| bounding the series remainder."""
    x = _real("op_norm", op_norm, 0) * _real("length", length, 0)
    return _exp_tail(x, _count("depth", depth, 0)) * _real("y0_norm", y0_norm, 0)
