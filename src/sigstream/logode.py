"""The log-ODE method for controlled differential equations.

Per step: take the truncated log-signature of the driving stream over the
step (all steps are signed in one batch), extend the linear map (driver
coordinate -> vector field) through the bracket structure of the free Lie
algebra, freeze the resulting field, and integrate it for unit time with RK4
(on linear systems, by powers of RK4's one-step matrix).

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

from .errors import CapabilityError, DivergenceError, DomainError
from .lie_algebra import LieCoordinates
from .streams import _COEFF_BUDGET, Stream, _cut, _log_signature_rows
from .tensor_algebra import TruncatedTensor, _exp_tail, _frozen, _represent

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


@dataclass(frozen=True, eq=False)
class LinearSystem:
    """Matrices A_1..A_d of a linear controlled system dy = sum_i A_i y dgamma_i."""

    matrices: np.ndarray

    def __post_init__(self):
        arr = _frozen(self.matrices)
        if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
            raise DomainError("matrices must have shape (d, m, m)")
        if not np.all(np.isfinite(arr)):
            raise DomainError("matrices must be finite")
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
        if len(fields) != driver_dim or len(jacobians) != driver_dim:
            raise DomainError("need one field and one Jacobian per driver coordinate")
        self.state_dim = int(state_dim)
        self.driver_dim = int(driver_dim)
        self.fields = tuple(fields)
        self.jacobians = tuple(jacobians)
        self.smoothness = smoothness
        self._identity = None  # from_linear: the _Point at Y = I_m, letters valued A_i
        if validate_at is not None:
            self._validate_jacobians(validate_at)

    @classmethod
    def from_linear(cls, lin: LinearSystem) -> "VectorFieldSystem":
        mats = lin.matrices
        fields = [lambda y, a=a: a @ y for a in mats]
        jacobians = [lambda y, a=a: a for a in mats]
        vfs = cls(lin.state_dim, lin.driver_dim, fields, jacobians, smoothness=10**9)
        vfs._identity = _Point(vfs, np.eye(lin.state_dim), {})
        vfs._identity.values.update(enumerate(mats, start=1))
        return vfs

    def _validate_jacobians(self, points):
        units = np.eye(self.state_dim)
        for y in np.atleast_2d(np.asarray(points, dtype=float)):
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


def _frozen_field(vfs: VectorFieldSystem, coords: LieCoordinates):
    """(field y -> sum_b lambda_b B_b(y), its matrix sum_b lambda_b M_b if linear else None)."""
    if coords.dim != vfs.driver_dim:
        raise DomainError(
            f"coordinates are {coords.dim}-dimensional, fields expect {vfs.driver_dim}"
        )
    top = coords.max_degree()
    if top > vfs.smoothness + 1:
        raise CapabilityError(
            f"degree-{top} brackets need {top - 1} derivatives; "
            f"system declares {vfs.smoothness}"
        )
    terms = {b.bracketing: lam for lam, b in zip(coords.values, coords.basis) if lam != 0.0}
    if vfs._identity is not None:
        mats = (lam * vfs._identity.value(tree) for tree, lam in terms.items())
        K = sum(mats, np.zeros((vfs.state_dim,) * 2))
        return (lambda y: K @ y), K
    return (lambda y: _Point(vfs, y, {}).combination(terms)), None


def lie_extend_evaluate(vfs: VectorFieldSystem, coords: LieCoordinates, y) -> np.ndarray:
    """Evaluate the Lie extension of the field map at the given coordinates.

    Returns sum_b lambda_b B_b(y) where B_b is the iterated vector-field
    bracket following each basis element's bracketing.
    """
    return _frozen_field(vfs, coords)[0](np.asarray(y, dtype=float))


def logode_step(
    vfs: VectorFieldSystem, y0, coords: LieCoordinates, substeps: int
) -> np.ndarray:
    """Integrate the frozen log-signature field over unit time with RK4.

    On ``from_linear`` systems the frozen field is y -> K y, and each RK4 substep
    of length h is y <- R y with R = I + hK(I + hK/2(I + hK/3(I + hK/4))),
    RK4's one-step matrix, formed once per call.
    """
    if substeps < 1:
        raise DomainError("substeps must be >= 1")
    field, K = _frozen_field(vfs, coords)
    y = np.asarray(y0, dtype=float).copy()
    dt = 1.0 / substeps
    if K is not None:
        eye, hk = np.eye(K.shape[0]), dt * K
        # R - I, so that y + (R - I) y rounds the substep's change on its own scale
        delta = hk @ (eye + hk / 2 @ (eye + hk / 3 @ (eye + hk / 4)))
    for step in range(substeps):
        if K is not None:
            y = y + delta @ y
        else:
            k1 = field(y)
            k2 = field(y + 0.5 * dt * k1)
            k3 = field(y + 0.5 * dt * k2)
            k4 = field(y + dt * k3)
            y = y + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        if not np.isfinite(y).all():
            raise DivergenceError(
                f"state became non-finite at substep {step + 1}", substep=step + 1
            )
    return y


@dataclass(frozen=True, eq=False)
class LogOdeSchedule:
    """Step boundaries inside the driver's interval, truncation degree, RK4 substeps."""

    boundaries: np.ndarray
    depth: int
    substeps: int = 16

    def __post_init__(self):
        arr = _frozen(self.boundaries).reshape(-1)
        if arr.size < 2 or not np.all(np.diff(arr) > 0):
            raise DomainError("boundaries must be increasing with at least two entries")
        if self.depth < 1:
            raise DomainError("truncation degree must be >= 1")
        object.__setattr__(self, "boundaries", arr)

    @classmethod
    def uniform(cls, stream: Stream, steps: int, depth: int, substeps: int = 16):
        if not 1 <= steps <= _COEFF_BUDGET:  # linspace below allocates steps + 1 floats
            raise DomainError(f"steps must lie in [1, {_COEFF_BUDGET}]")
        t0, t1 = stream.interval
        return cls(np.linspace(t0, t1, steps + 1), depth, substeps)


def solve(
    vfs: VectorFieldSystem, stream: Stream, y0, schedule: LogOdeSchedule
) -> np.ndarray:
    """Log-ODE trajectory: the state at every schedule boundary, row 0 = y0."""
    t0, t1 = stream.interval
    bounds = schedule.boundaries
    if bounds[0] < t0 - 1e-9 or bounds[-1] > t1 + 1e-9:
        raise DomainError("schedule boundaries leave the stream's interval")
    y = np.asarray(y0, dtype=float)
    if y.shape != (vfs.state_dim,) or not np.all(np.isfinite(y)):
        raise DomainError(f"y0 must hold {vfs.state_dim} finite numbers")
    d, depth = stream.dimension, schedule.depth
    _, points, index = _cut(stream, bounds)
    states = np.empty((bounds.size, vfs.state_dim))
    states[0] = y
    for i, row in enumerate(_log_signature_rows(points, index[:-1], index[1:], depth), start=1):
        y = logode_step(vfs, y, LieCoordinates(d, depth, row), schedule.substeps)
        states[i] = y
    return states


# -- linear systems: exact oracle and truncated signature series --------------


def linear_solve(lin: LinearSystem, s: Stream, y0) -> np.ndarray:
    """Exact solution of the linear system along a polygonal stream.

    Ordered product over segments of exp(sum_i dgamma_i A_i), applied to y0.
    """
    import scipy.linalg  # here, so importing the package leaves scipy.linalg out

    y = np.asarray(y0, dtype=float).copy()
    if s.dimension != lin.driver_dim:
        raise DomainError(
            f"stream dimension {s.dimension} != system driver dimension {lin.driver_dim}"
        )
    for inc in s.increments():
        step = np.tensordot(inc, lin.matrices, axes=(0, 0))
        y = scipy.linalg.expm(step) @ y
    return y


def linear_series_apply(lin: LinearSystem, sig: TruncatedTensor, y0) -> np.ndarray:
    """Truncated signature series sum_k sum_w S_w A_{w_k} ... A_{w_1} y0."""
    if sig.dim != lin.driver_dim:
        raise DomainError("signature and system driver dimensions differ")
    # (A_{w_1}^T ... A_{w_k}^T)^T = A_{w_k} ... A_{w_1}
    return _represent(sig, lin.matrices.transpose(0, 2, 1)).T @ np.asarray(y0, dtype=float)


def series_tail_bound(op_norm: float, length: float, depth: int, y0_norm: float) -> float:
    """Tail sum_{k > depth} (|A| L)^k / k! * |y0| bounding the series remainder."""
    return _exp_tail(op_norm * length, depth) * y0_norm
