"""Closed-form states and coefficients used as ground truth in tests.

The three-domain chain (single spin, N_B spins, single spin) with one
excitation on the first spin admits an exact description of its relaxation
endpoint: a dark component that survives both engineered reservoirs plus
two bright components that decay to the global ground state.  This module
builds those vectors and the resulting steady-state mixtures directly from
their coefficient formulas, with no integration involved, so the simulator
can be checked against them.

The dark state and the edge-excited steady state are built on either
backend, by placing their amplitudes at computed indices; the same indices
hold in both orderings, so the solver's own basis needs no conversion.
The rest is built in the full (product) backend.
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
    _is_int,
    dicke_level_vector,
)


def _check_nb(n_b) -> int:
    if not _is_int(n_b) or n_b < 1:
        raise ValueError(f"central-domain population must be an integer >= 1, got {n_b!r}")
    return int(n_b)


def chain_basis(n_b: int) -> BasisDescriptor:
    """Full-backend basis for the (1, n_b, 1) chain."""
    return BasisDescriptor(Backend.FULL, (1, _check_nb(n_b), 1))


def _single_excitation(n_b: int, backend: Backend, on_a, on_b, on_c) -> PureState:
    """on_a |A up> + on_c |C up> + on_b |B's symmetric single excitation>, the rest down.

    With d_B the central domain's dimension, the index of (a, b, c) is
    2 d_B a + 2 b + c in either backend, and B's ground is its level
    d_B - 1; so A's excitation sits at 2 d_B - 1, C's at 4 d_B - 2, and B's
    level j at 2 (d_B + j) + 1, weighted by its unit Dicke vector.
    """
    basis = BasisDescriptor(backend, (1, _check_nb(n_b), 1))
    d_b = basis.domain_dims[1]
    vec = np.zeros(4 * d_b, dtype=complex)
    vec[2 * d_b - 1], vec[4 * d_b - 2] = on_a, on_c
    vec[2 * d_b + 1 : 4 * d_b : 2] += on_b * dicke_level_vector(n_b, 1, backend)
    return PureState(vec, basis)


def dark_state(n_b: int, backend: Backend = Backend.FULL) -> PureState:
    """The stationary single-excitation state of the chain, on either backend.

    sqrt(n_b/(2 n_b + 1)) * { excitation on A + excitation on C
    - (1/n_b) * (sum over single-excitation placements in the middle) }.
    Annihilated by both reservoir jump operators.
    """
    norm = math.sqrt(x_dark(n_b))
    return _single_excitation(n_b, backend, norm, -norm / math.sqrt(n_b), norm)


def psi_1(n_b: int) -> PureState:
    """First decaying companion of the dark state (coefficient +2 pattern)."""
    den = math.sqrt(2.0 + 4.0 * _check_nb(n_b))
    return _single_excitation(n_b, Backend.FULL, 1.0 / den, 2.0 * math.sqrt(n_b) / den, 1.0 / den)


def psi_2(n_b: int) -> PureState:
    """Second decaying companion: antisymmetric combination of the edges."""
    return _single_excitation(n_b, Backend.FULL, 1.0 / math.sqrt(2.0), 0.0, -1.0 / math.sqrt(2.0))


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


def _with_ground(psi: PureState, x: float) -> DensityMatrix:
    """x |psi><psi| + (1 - x) |ground><ground|, the ground being the last basis vector.

    A mix of two orthogonal unit-vector projectors is a state by
    construction, so it is not checked again.
    """
    rho = psi.projector().matrix
    rho *= x
    rho[-1, -1] += 1.0 - x
    return DensityMatrix(rho, psi.basis, validate=False)


def edge_excited_steady(n_b: int, backend: Backend = Backend.FULL) -> DensityMatrix:
    """Exact relaxation endpoint from one excitation on the first outer spin.

    (1 - x_d) * ground + x_d * dark projector, on either backend.
    """
    return _with_ground(dark_state(n_b, backend), x_dark(n_b))


def _pair_basis() -> BasisDescriptor:
    return BasisDescriptor(Backend.FULL, (1, 1))


def edge_excited_pair_steady(n_b: int) -> DensityMatrix:
    """Reduced steady state of the two outer spins for the same run.

    x * (symmetric Bell pair) + (1 - x) * (both down), x = x_reduced(n_b).
    """
    plus = np.array([0.0, 1.0, 1.0, 0.0]) / math.sqrt(2.0)
    return _with_ground(PureState(plus, _pair_basis()), x_reduced(n_b))


def intro_pair_steady() -> DensityMatrix:
    """Relaxation endpoint of two spins sharing one reservoir, from |up, down>.

    Equal mixture of the ground pair and the antisymmetric Bell pair.
    """
    minus = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)
    return _with_ground(PureState(minus, _pair_basis()), 0.5)


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
