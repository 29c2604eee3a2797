"""Closed-form states and coefficients used as ground truth in tests.

The three-domain chain (single spin, N_B spins, single spin) with one
excitation on the first spin admits an exact description of its relaxation
endpoint: a dark component that survives both engineered reservoirs plus
two bright components that decay to the global ground state.  This module
builds those vectors and the resulting steady-state mixtures directly from
their coefficient formulas, with no integration involved, so the simulator
can be checked against them.

Everything here is constructed in the full (product) backend, where the
permutation structure of the coefficients is explicit; use the basis-change
helpers from the core module to compare against collective-backend runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hilbert import (
    Backend,
    BasisDescriptor,
    DensityMatrix,
    PureState,
    dicke_level_vector,
)


def _check_nb(n_b) -> int:
    if not isinstance(n_b, (int, np.integer)) or n_b < 1:
        raise ValueError(f"central-domain population must be an integer >= 1, got {n_b!r}")
    return int(n_b)


def chain_basis(n_b: int) -> BasisDescriptor:
    """Full-backend basis for the (1, n_b, 1) chain."""
    return BasisDescriptor(Backend.FULL, (1, _check_nb(n_b), 1))


def _edge_vectors(n_b: int):
    """The three building blocks of the single-excitation sector.

    Returns (up_A, up_C, sum_B) where the first two have the excitation on
    an outer spin and sum_B is the unnormalized sum over all placements of
    one excitation in the central domain (norm sqrt(n_b)).
    """
    down = np.array([0.0, 1.0], dtype=complex)
    up = np.array([1.0, 0.0], dtype=complex)
    ground_b = np.zeros(2**n_b, dtype=complex)
    ground_b[-1] = 1.0
    one_up_b = math.sqrt(n_b) * dicke_level_vector(n_b, 1, Backend.FULL)
    up_a = np.kron(np.kron(up, ground_b), down)
    up_c = np.kron(np.kron(down, ground_b), up)
    sum_b = np.kron(np.kron(down, one_up_b), down)
    return up_a, up_c, sum_b


def dark_state(n_b: int) -> PureState:
    """The stationary single-excitation state of the chain.

    sqrt(n_b/(2 n_b + 1)) * { excitation on A + excitation on C
    - (1/n_b) * (sum over single-excitation placements in the middle) }.
    Annihilated by both reservoir jump operators.
    """
    n_b = _check_nb(n_b)
    up_a, up_c, sum_b = _edge_vectors(n_b)
    norm = math.sqrt(n_b / (2.0 * n_b + 1.0))
    vec = norm * (up_a + up_c - sum_b / n_b)
    return PureState(vec, chain_basis(n_b))


def psi_1(n_b: int) -> PureState:
    """First decaying companion of the dark state (coefficient +2 pattern)."""
    n_b = _check_nb(n_b)
    up_a, up_c, sum_b = _edge_vectors(n_b)
    vec = (up_a + up_c + 2.0 * sum_b) / math.sqrt(2.0 + 4.0 * n_b)
    return PureState(vec, chain_basis(n_b))


def psi_2(n_b: int) -> PureState:
    """Second decaying companion: antisymmetric combination of the edges."""
    n_b = _check_nb(n_b)
    up_a, up_c, _ = _edge_vectors(n_b)
    return PureState((up_a - up_c) / math.sqrt(2.0), chain_basis(n_b))


@dataclass(frozen=True)
class DarkStateFamily:
    """The orthonormal triple spanning the decaying and dark directions."""

    n_b: int
    psi_d: PureState
    psi_1: PureState
    psi_2: PureState

    def __post_init__(self):
        vecs = [self.psi_d.amplitudes, self.psi_1.amplitudes, self.psi_2.amplitudes]
        gram = np.array([[np.vdot(a, b) for b in vecs] for a in vecs])
        if np.max(np.abs(gram - np.eye(3))) > 1e-12:
            raise ValueError("family is not orthonormal to 1e-12")


def dark_state_family(n_b: int) -> DarkStateFamily:
    return DarkStateFamily(_check_nb(n_b), dark_state(n_b), psi_1(n_b), psi_2(n_b))


def x_dark(n_b: int) -> float:
    """Weight of the dark component in the steady state: n_b/(2 n_b + 1)."""
    n_b = _check_nb(n_b)
    return n_b / (2.0 * n_b + 1.0)


def x_reduced(n_b: int) -> float:
    """Triplet weight of the reduced outer-pair steady state: 2 n_b^2/(2 n_b+1)^2."""
    n_b = _check_nb(n_b)
    return 2.0 * n_b**2 / (2.0 * n_b + 1.0) ** 2


def concurrence_analytic(n_b: int) -> float:
    """Concurrence of the reduced outer pair; equals the triplet weight."""
    return x_reduced(n_b)


def edge_excited_steady(n_b: int) -> DensityMatrix:
    """Exact relaxation endpoint from one excitation on the first outer spin.

    (1 - x_d) * ground + x_d * dark projector, in the full backend: a mix of two
    orthogonal unit-vector projectors, a state by construction, not checked again.
    """
    n_b = _check_nb(n_b)
    xd = x_dark(n_b)
    rho = dark_state(n_b).projector().matrix
    rho *= xd
    rho[-1, -1] += 1.0 - xd
    return DensityMatrix(rho, chain_basis(n_b), validate=False)


def _pair_basis() -> BasisDescriptor:
    return BasisDescriptor(Backend.FULL, (1, 1))


def _triplet_pair() -> np.ndarray:
    return np.array([0.0, 1.0, 1.0, 0.0], dtype=complex) / math.sqrt(2.0)


def edge_excited_pair_steady(n_b: int) -> DensityMatrix:
    """Reduced steady state of the two outer spins for the same run.

    x * (symmetric Bell pair) + (1 - x) * (both down), x = x_reduced(n_b).
    """
    x = x_reduced(n_b)
    plus = _triplet_pair()
    rho = x * np.outer(plus, plus.conj())
    rho[3, 3] += 1.0 - x
    return DensityMatrix(rho, _pair_basis())


def intro_pair_steady() -> DensityMatrix:
    """Relaxation endpoint of two spins sharing one reservoir, from |up, down>.

    Equal mixture of the ground pair and the antisymmetric Bell pair.
    """
    minus = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / math.sqrt(2.0)
    rho = 0.5 * np.outer(minus, minus.conj())
    rho[3, 3] += 0.5
    return DensityMatrix(rho, _pair_basis())


_W_STATE = np.zeros(8, dtype=complex)
_W_STATE[[3, 5, 6]] = 1.0 / math.sqrt(3.0)


def w_state() -> PureState:
    """Equal superposition of one excitation among three spins."""
    return PureState(_W_STATE.copy(), BasisDescriptor(Backend.FULL, (1, 1, 1)))


def tripartite_decompose(rho_abc: DensityMatrix) -> tuple[float, float, float]:
    """Project a three-spin state onto ground + W-state form.

    Returns (c_G, c_W, residual) where the coefficients are the diagonal
    projections onto the all-down state and the W state, and the residual
    is the Frobenius norm of what the two rank-1 terms fail to explain.
    A large residual means the state is not of the expected mixture form.
    """
    dims = rho_abc.basis.domain_dims
    if dims != (2, 2, 2):
        raise ValueError(f"expected a three-spin state, got dimensions {dims}")
    mat = rho_abc.matrix
    c_g = float(mat[7, 7].real)
    w = _W_STATE
    c_w = float(np.vdot(w, mat @ w).real)
    remainder = mat.copy()
    remainder[7, 7] -= c_g
    remainder -= c_w * np.outer(w, w.conj())
    return c_g, c_w, float(np.linalg.norm(remainder))
