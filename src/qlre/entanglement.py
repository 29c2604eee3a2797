"""Entanglement measures: concurrence, formation entropy, negativities.

Two-qubit states get the closed-form concurrence and the entanglement of
formation derived from it.  Arbitrary bipartitions of a multi-domain state
are handled by negativity and logarithmic negativity through the partial
transpose, which needs no restriction on local dimensions.  Three-qubit
states additionally get the geometric-mean tripartite negativity.

Each measure has one implementation, an array form over a stack of S
matrices (S, d, d) -> (S,), which ``evolve`` applies once to all sampled
reduced states; the functions on one DensityMatrix wrap it.

All values are in ebits where a unit applies; logarithms are base 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import NumericalFailure, at_sample
from .hilbert import DensityMatrix

# Eigenvalue hygiene thresholds for the concurrence spectrum.
_EIG_IMAG_TOL = 1e-9
_EIG_NEG_TOL = -1e-10

_SIGMA_Y = np.array([[0, -1j], [1j, 0]])
_YY = np.kron(_SIGMA_Y, _SIGMA_Y)


def _require_qubit_factors(rho: DensityMatrix, count: int):
    dims = rho.basis.domain_dims
    if len(dims) != count or any(d != 2 for d in dims):
        raise ValueError(
            f"expected a state of {count} two-level factors, got dimensions {dims}"
        )


def concurrence_array(mats: np.ndarray, times: Optional[np.ndarray] = None) -> np.ndarray:
    """Wootters concurrences of a stack of two-qubit matrices, (S, 4, 4) -> (S,).

    Uses the spin-flipped matrix rho_tilde = (sy x sy) conj(rho) (sy x sy)
    and the square roots of the eigenvalues of rho rho_tilde in descending
    order.  The product matrix is not Hermitian, so a general eigensolver
    is used and the spectrum is checked: imaginary parts beyond 1e-9 or
    real parts below -1e-10 indicate a broken input and raise, naming the
    sample's time if ``times`` is given.  The result is clamped to [0, 1]:
    on a maximally entangled state it can round above 1.

    Near a rank-deficient state the small eigenvalues are noise, which the
    square roots amplify: rounding's 1e-17 becomes 3e-9 in the concurrence,
    and the ~1e-12 that solver noise leaves there ~1e-6, so E_F comparisons
    tighter than ~1e-5 between solver builds are noise-limited there.
    """
    evals = np.linalg.eigvals(mats @ (_YY @ mats.conj() @ _YY))
    imag, low = np.abs(evals.imag).max(axis=1), evals.real.min(axis=1)
    bad = np.flatnonzero((imag > _EIG_IMAG_TOL) | (low < _EIG_NEG_TOL))
    if bad.size:  # the first bad sample; its imaginary residue is checked first
        k = bad[0]
        if imag[k] > _EIG_IMAG_TOL:
            raise NumericalFailure(
                f"concurrence spectrum has imaginary residue {imag[k]:.3e}{at_sample(times, k)}"
            )
        raise NumericalFailure(
            f"concurrence spectrum has negative eigenvalue {low[k]:.3e}{at_sample(times, k)}"
        )
    lams = np.sort(np.sqrt(np.clip(evals.real, 0.0, None)), axis=1)[:, ::-1]
    return np.clip(lams[:, 0] - lams[:, 1] - lams[:, 2] - lams[:, 3], 0.0, 1.0)


def concurrence(rho: DensityMatrix) -> float:
    """Wootters concurrence of a two-qubit state (see ``concurrence_array``)."""
    _require_qubit_factors(rho, 2)
    return float(concurrence_array(rho.matrix[None])[0])


def eof_from_concurrence_array(c: np.ndarray) -> np.ndarray:
    """Entanglement of formation of each concurrence, in ebits."""
    c = np.asarray(c, dtype=float)
    outside = ~((c >= 0.0) & (c <= 1.0))
    if np.any(outside):
        raise ValueError(f"concurrence must lie in [0, 1], got {float(c[outside][0])!r}")
    x = 0.5 * (1.0 + np.sqrt(1.0 - c * c))
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -x * np.log2(x) - (1.0 - x) * np.log2(1.0 - x)
    return np.where(x >= 1.0, 0.0, h)  # x = 1: c = 0, or so small that 1 - c^2 rounds to 1


def eof_from_concurrence(c: float) -> float:
    """Entanglement of formation as a function of concurrence, in ebits."""
    return float(eof_from_concurrence_array([float(c)])[0])


def entanglement_of_formation(rho: DensityMatrix) -> float:
    """Entanglement of formation of a two-qubit state, in ebits."""
    return eof_from_concurrence(concurrence(rho))


def _partial_transposes(mats: np.ndarray, dims: Sequence[int], partition) -> np.ndarray:
    """Each matrix of a stack on factors of dims, transposed on the listed factors."""
    idx = tuple(sorted(set(int(i) for i in partition)))
    m = len(dims)
    if not idx:
        raise ValueError("partition must contain at least one factor")
    if idx[0] < 0 or idx[-1] >= m:
        raise ValueError(f"partition {idx} out of range for {m} factors")
    if len(idx) == m:
        raise ValueError("partition must leave at least one factor on the other side")
    perm = list(range(2 * m))
    for i in idx:
        perm[i], perm[m + i] = perm[m + i], perm[i]
    tensor = mats.reshape(mats.shape[:1] + tuple(dims) * 2)
    return tensor.transpose([0] + [1 + p for p in perm]).reshape(mats.shape)


def partial_transpose(rho: DensityMatrix, partition: Iterable[int]) -> np.ndarray:
    """Matrix of rho transposed on the listed tensor factors."""
    return _partial_transposes(rho.matrix[None], rho.basis.domain_dims, partition)[0]


def _pt_trace_norms(mats: np.ndarray, dims: Sequence[int], partition) -> np.ndarray:
    pt = _partial_transposes(mats, dims, partition)
    return np.abs(np.linalg.eigvalsh(0.5 * (pt + pt.conj().swapaxes(1, 2)))).sum(axis=1)


def negativity_array(mats: np.ndarray, dims: Sequence[int], partition) -> np.ndarray:
    """Negativities of a stack of states on factors of dims, (S, d, d) -> (S,).

    Half the summed magnitude of the negative partial-transpose spectrum
    across the bipartition (listed factors vs the rest); round-off on
    states with a positive partial transpose is absorbed by flooring at
    zero.  Transposing either side gives the same value.
    """
    return np.maximum(0.0, 0.5 * (_pt_trace_norms(mats, dims, partition) - 1.0))


def negativity(rho: DensityMatrix, partition: Iterable[int]) -> float:
    """Negativity across the bipartition (see ``negativity_array``)."""
    return float(negativity_array(rho.matrix[None], rho.basis.domain_dims, partition)[0])


def log_negativity_array(mats: np.ndarray, dims: Sequence[int], partition) -> np.ndarray:
    """Logarithmic negativities (base 2) of a stack of states, floored at 0."""
    return np.maximum(0.0, np.log2(_pt_trace_norms(mats, dims, partition)))


def log_negativity(rho: DensityMatrix, partition: Iterable[int]) -> float:
    """Logarithmic negativity (base 2) across the bipartition, floored at 0."""
    return float(log_negativity_array(rho.matrix[None], rho.basis.domain_dims, partition)[0])


def tripartite_negativity_array(mats: np.ndarray) -> np.ndarray:
    """Tripartite negativities of a stack of three-qubit states, (S, 8, 8) -> (S,)."""
    parts = np.array([negativity_array(mats, (2, 2, 2), [i]) for i in range(3)])
    return np.where(np.any(parts == 0.0, axis=0), 0.0, np.prod(parts, axis=0) ** (1.0 / 3.0))


def tripartite_negativity(rho: DensityMatrix) -> float:
    """Geometric mean of the three one-against-two negativities.

    Defined for three two-level factors; zero whenever any single-factor
    cut has a positive partial transpose.
    """
    _require_qubit_factors(rho, 3)
    return float(tripartite_negativity_array(rho.matrix[None])[0])


@dataclass(frozen=True)
class EntanglementReport:
    """Bundle of the measures for one bipartite state."""

    concurrence: float
    eof: float
    negativity: Optional[float] = None
    log_negativity: Optional[float] = None


def entanglement_report(
    rho: DensityMatrix, partition: Optional[Iterable[int]] = None
) -> EntanglementReport:
    """Concurrence and formation entropy, plus negativities if a partition is given.

    With no explicit partition, a two-factor state is split between its
    factors.
    """
    if partition is None and rho.basis.num_domains == 2:
        partition = [0]
    c = concurrence(rho)
    e = eof_from_concurrence(c)
    if partition is None:
        return EntanglementReport(c, e)
    return EntanglementReport(
        c, e, negativity(rho, partition), log_negativity(rho, partition)
    )
