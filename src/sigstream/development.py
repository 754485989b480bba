"""Unitary development of streams.

The driver is mapped into the unitary group by solving dPsi = Psi . (i sum_j
H_j dgamma_j) with traceless Hermitian generators H_j; over a polygonal
stream the solution is the ordered product of segment exponentials, taken
from batched eigendecompositions so the result is unitary to rounding.  The
expectation of the developed matrix over random streams plays the role of a
characteristic function of the signature: it is a bounded linear functional
of the signature (see ``evaluate_signature``), so it always has finite
expectation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, DomainError, _count, _instance, _real
from .streams import Stream
from .tensor_algebra import TruncatedTensor, _exp_tail, _frozen, _mean_stderr, _represent

__all__ = [
    "UnitaryPolicy",
    "DevelopmentResult",
    "develop",
    "expected_development",
    "evaluate_signature",
    "development_tail_bound",
    "unitarity_defect",
    "random_policy",
]

_SLICE = 256  # u x u segment matrices per batched eigh; samples per expected_development batch


@dataclass(frozen=True, eq=False)
class UnitaryPolicy:
    """Traceless Hermitian generators H_1..H_d of size u; psi(e_j) = i H_j."""

    generators: np.ndarray

    def __post_init__(self):
        arr = _frozen(self.generators, complex)
        if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
            raise DomainError("generators must have shape (d, u, u)")
        if arr.shape[1] < 2:
            raise DomainError("matrix size must be at least 2")
        if not np.isfinite(arr).all():
            raise DomainError("generators must be finite")
        scale = max(1.0, float(np.abs(arr).max()))
        for j, h in enumerate(arr):
            if np.abs(h - h.conj().T).max() > 1e-12 * scale:
                raise DomainError(f"generator {j + 1} is not Hermitian")
            if abs(np.trace(h)) > 1e-12 * scale * arr.shape[1]:
                raise DomainError(f"generator {j + 1} is not traceless")
        object.__setattr__(self, "generators", arr)

    @property
    def size(self) -> int:
        return self.generators.shape[1]

    @property
    def driver_dim(self) -> int:
        return self.generators.shape[0]

    def max_generator_norm(self) -> float:
        return max(float(np.linalg.norm(h, 2)) for h in self.generators)


@dataclass(frozen=True, eq=False)
class DevelopmentResult:
    psi: np.ndarray
    interval: tuple[float, float]

    def __post_init__(self):
        object.__setattr__(self, "psi", _frozen(self.psi, complex))


def _develop_batch(policy: UnitaryPolicy, increments: np.ndarray) -> np.ndarray:
    """Developments (batch, u, u) of (batch, steps, d) increments: exp(i h) = V e^{iw} V*
    from one batched ``eigh`` per ``_SLICE`` segments, multiplied in segment order."""
    batch, steps, d = increments.shape
    if d != policy.driver_dim:
        raise DimensionMismatchError(
            f"stream dimension {d} != policy driver dimension {policy.driver_dim}"
        )
    u = policy.size
    gens = policy.generators.reshape(d, u * u)
    psi = np.broadcast_to(np.eye(u, dtype=complex), (batch, u, u))
    width = max(1, _SLICE // batch)
    for start in range(0, steps, width):
        inc = increments[:, start : start + width]
        # one vector-matrix product per segment, the bits np.tensordot(inc, gens) gives
        h = (inc[..., None, :] @ gens).reshape(*inc.shape[:2], u, u)
        eigvals, eigvecs = np.linalg.eigh(h)
        seg = (eigvecs * np.exp(1j * eigvals)[..., None, :]) @ eigvecs.conj().swapaxes(-1, -2)
        for k in range(seg.shape[1]):
            psi = psi @ seg[:, k]
    return psi


def develop(policy: UnitaryPolicy, s: Stream) -> DevelopmentResult:
    """Ordered product over segments of exp(i sum_j dgamma_j H_j)."""
    policy, s = _instance("policy", policy, UnitaryPolicy), _instance("s", s, Stream)
    psi = _develop_batch(policy, s.increments()[None])
    return DevelopmentResult(psi[0], s.interval)


def unitarity_defect(psi: np.ndarray) -> float:
    """Frobenius norm of Psi* Psi - I."""
    u = psi.conj().T @ psi
    return float(np.linalg.norm(u - np.eye(u.shape[0])))


@dataclass(frozen=True, eq=False)
class MonteCarloDevelopment:
    mean: np.ndarray
    stderr: np.ndarray
    count: int


def expected_development(
    policy: UnitaryPolicy, sampler, count: int, seed: int = 0
) -> MonteCarloDevelopment:
    """Monte Carlo mean of the development over sampled streams.

    ``sampler(rng)`` must return a Stream.  The elementwise standard error
    combines real and imaginary scatter.  Samples are drawn in batches of at
    most ``_SLICE`` and reduced in draw order, so results are reproducible.
    """
    count = _count("count", count, 1)
    rng = np.random.default_rng(_count("seed", seed, 0))
    u = _instance("policy", policy, UnitaryPolicy).size
    total = np.zeros((u, u), dtype=complex)
    total_sq = np.zeros((u, u))
    for start in range(0, count, _SLICE):
        samples = [sampler(rng) for _ in range(min(_SLICE, count - start))]
        psis = np.empty((len(samples), u, u), dtype=complex)
        shapes = [s.points.shape for s in samples]
        for shape in dict.fromkeys(shapes):
            rows = [i for i, other in enumerate(shapes) if other == shape]
            psis[rows] = _develop_batch(policy, np.stack([samples[i].increments() for i in rows]))
        for psi, sq in zip(psis, np.abs(psis) ** 2):
            total += psi
            total_sq += sq
    return MonteCarloDevelopment(*_mean_stderr(total, total_sq, count), count)


def evaluate_signature(policy: UnitaryPolicy, sig: TruncatedTensor) -> np.ndarray:
    """Evaluate the truncated signature in the matrix algebra.

    sum_k i^k sum_w S_w H_{w_1} ... H_{w_k}: the linear functional of the
    signature that ``develop`` computes, truncated at the signature's depth.
    """
    policy = _instance("policy", policy, UnitaryPolicy)
    if _instance("sig", sig, TruncatedTensor).dim != policy.driver_dim:
        raise DimensionMismatchError("signature and policy driver dimensions differ")
    return _represent(sig, 1j * policy.generators)


def development_tail_bound(policy: UnitaryPolicy, l1_length: float, depth: int) -> float:
    """Operator-norm bound sum_{k > depth} (max_j |H_j| L)^k / k! on the truncation."""
    policy = _instance("policy", policy, UnitaryPolicy)
    x = policy.max_generator_norm() * _real("l1_length", l1_length, 0)
    return _exp_tail(x, _count("depth", depth, 0))


def random_policy(size: int, driver_dim: int, seed=None) -> UnitaryPolicy:
    """Random traceless Hermitian generators, handy for tests and demos."""
    size, driver_dim = _count("size", size, 2), _count("driver_dim", driver_dim, 1)
    rng = np.random.default_rng(None if seed is None else _count("seed", seed, 0))
    gens = np.empty((driver_dim, size, size), dtype=complex)
    for j in range(driver_dim):
        g = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
        h = 0.5 * (g + g.conj().T)
        h -= np.trace(h) / size * np.eye(size)
        gens[j] = h
    return UnitaryPolicy(gens)
