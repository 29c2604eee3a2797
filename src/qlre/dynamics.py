"""Master-equation assembly, adaptive integration, and steady-state search.

All dynamics is purely dissipative: a sum of terms rate * D[O] with
D[O] rho = 2 O rho O^dag - O^dag O rho - rho O^dag O.  Time is measured in
scaled units (gamma t / 2), so the base collective rate is 1 and a single
excited spin decays as exp(-2 tau).  Thermal, per-spin, and dephasing rates
are expressed relative to that unit.

Nothing steps the d x d density matrix.  Every channel changes the total
excitation number n by a fixed amount (lowering -1, raising +1, dephasing
0), so the coherence order n(i) - n(j) of a matrix element is conserved
(the weak U(1) symmetry of Buca & Prosen, New J. Phys. 14, 073007
(2012)).  ``evolve`` and ``steady_state`` therefore work on the real
Hermitian coordinates of the elements of the orders present in rho0, with
the Liouvillian as one real sparse matrix built when the run starts;
Hermiticity holds by construction.  A jump without a fixed shift keeps
every element.  ``lindblad_rhs`` stays the plain matrix form, the
reference for tests.

L is constant, so a sector of at most SECTOR_DENSE_LIMIT coordinates is
advanced between samples by its exact propagator exp(h L), formed once
per interval length by scaling and squaring.  Larger sectors are
integrated by an embedded Dormand-Prince 5(4) pair with step-size control
and first-same-as-last reuse.

The stationary manifold is degenerate (dark states), so the steady state
depends on rho0: it is rho_inf = P_inf rho0, the projection that keeps the
weight of every conserved quantity (Albert & Jiang, Phys. Rev. A 89,
022118 (2014)).  ``steady_state`` reaches it as the limit of implicit
Euler steps, which keep those weights exactly.  Without raising jumps L
is block lower-triangular in the level n(i) + n(j) of a coordinate, so
each step is one sweep from the top level down with a small dense
inverse per level.  A raising or unshifted jump, or a level too large to
invert densely, sends the search back to the explicit integrator.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

import numpy as np
import scipy.sparse as sp

from .errors import (
    ConvergenceFailure,
    IntegrationFailure,
    NumericalFailure,
    UndefinedResultError,
    UnsupportedConfigurationError,
    at_sample,
)
from .hilbert import (
    Backend,
    BasisDescriptor,
    DensityMatrix,
    Operator,
    PureState,
    _check_domain_indices,
    excitation_numbers,
    fidelity_with_pure,
    partial_trace,
    reservoir_jump,
    single_spin_lowering,
    single_spin_z,
)

RTOL = 1e-9
ATOL = 1e-11
TRACE_DRIFT_TOL = 1e-8
STEADY_STATE_TOL = 1e-10
MAX_SCALED_TIME = 200.0
# steady_state inverts each excitation level's block of the sector densely;
# above this many coordinates in one block it integrates explicitly instead.
LEVEL_BLOCK_LIMIT = 1024
# Up to this many coordinates evolve propagates exactly, and the integrator applies
# the sector's L as a dense array, CSR above; one product breaks even between ~150
# and ~200 on fig3b.
SECTOR_DENSE_LIMIT = 128
# Full-backend runs above this many physical spins need an explicit override.
INDIVIDUAL_SPIN_CAP = 13


@dataclass(frozen=True)
class Observable:
    """A linear part of rho, then a measure: callable on one DensityMatrix, batched in evolve.

    The linear part is the reduced state over the domains ``keep``, or
    Tr(O rho) for a Hermitian ``operator`` (a PureState: its projector).
    ``measure(values, times)`` maps S results of it, an (S, d_k, d_k) stack
    or S real values, to S values; ``times`` names a failing sample.
    """

    measure: Callable[[np.ndarray, Optional[np.ndarray]], np.ndarray]
    keep: Optional[tuple[int, ...]] = None
    operator: Union[Operator, PureState, None] = None

    @property
    def part(self):  # equal linear parts share one map in evolve
        return self.keep if self.operator is None else id(self.operator)

    def evaluate(self, values: np.ndarray, times: Optional[np.ndarray] = None) -> np.ndarray:
        """The measure of S results of the linear part: flattened reduced states, or Tr(O rho)."""
        if self.operator is not None:
            return self.measure(_real_parts(values, times), times)
        d = math.isqrt(values.shape[1])
        return self.measure(values.reshape(-1, d, d), times)

    def __call__(self, rho: DensityMatrix) -> float:
        if self.operator is None:
            return float(self.evaluate(partial_trace(rho, self.keep).matrix.reshape(1, -1))[0])
        value = fidelity_with_pure if isinstance(self.operator, PureState) else expectation
        return float(self.evaluate(np.array([value(rho, self.operator)]))[0])


ObservableSpec = Union[Observable, Operator, Callable[[DensityMatrix], float]]


@dataclass(frozen=True)
class LindbladTerm:
    """One dissipative channel: jump operator and its scaled rate."""

    jump: Operator
    rate: float

    def __post_init__(self):
        r = float(self.rate)
        if not math.isfinite(r) or r < 0:
            raise ValueError(f"rate must be finite and >= 0, got {self.rate!r}")
        object.__setattr__(self, "rate", r)


@dataclass(frozen=True)
class MasterEquation:
    terms: tuple[LindbladTerm, ...]
    basis: BasisDescriptor

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        for term in self.terms:
            if term.jump.basis != self.basis:
                raise ValueError("all jump operators must share the equation basis")


def lindblad_rhs(eq: MasterEquation, rho: DensityMatrix) -> np.ndarray:
    """d rho / d(scaled time) for the given equation, as a d x d matrix.

    A plain sum over terms of rate * (2 O rho O^dag - O^dag O rho - rho O^dag O),
    kept as the reference the packed integrator is tested against.  The
    result is Hermitian and traceless to 1e-12; a violation signals a
    numeric problem in the assembled terms.
    """
    if rho.basis != eq.basis:
        raise ValueError(f"basis mismatch: {rho.basis} vs {eq.basis}")
    y = rho.matrix
    out = np.zeros_like(y)
    for term in eq.terms:
        if term.rate == 0.0:
            continue
        O = term.jump.matrix
        Od = O.conj().T
        Oy = O @ y
        out += term.rate * (2.0 * (Oy @ Od) - Od @ Oy - (y @ Od) @ O)
    herm = np.max(np.abs(out - out.conj().T)) if out.size else 0.0
    tr = abs(out.trace())
    if herm > 1e-12 or tr > 1e-12:
        raise NumericalFailure(
            f"right-hand side violates structure: hermiticity {herm:.3e}, trace {tr:.3e}"
        )
    return out


# ---------------------------------------------------------------------------
# equation builders
# ---------------------------------------------------------------------------


def build_collective_zero_T(
    basis: BasisDescriptor, reservoirs: Sequence[Iterable[int]]
) -> MasterEquation:
    """Zero-temperature engineered reservoirs, one per listed domain set.

    Each reservoir contributes a single jump operator, the summed collective
    lowering operator of its domains, at unit scaled rate.
    """
    terms = tuple(LindbladTerm(reservoir_jump(basis, r), 1.0) for r in reservoirs)
    if not terms:
        raise ValueError("at least one reservoir is required")
    return MasterEquation(terms, basis)


def build_realistic(
    basis: BasisDescriptor,
    reservoirs: Sequence[Iterable[int]],
    nbar: float = 0.0,
    include_individual: bool = False,
    gamma_dep_over_gamma: float = 0.0,
    allow_large: bool = False,
    rates: Optional[Sequence[float]] = None,
) -> MasterEquation:
    """Thermal reservoirs plus optional per-spin decay and dephasing.

    Per reservoir: collective lowering at rate nbar+1 and collective raising
    at rate nbar.  With ``include_individual``, every physical spin gains a
    lowering channel at nbar+1 and a raising channel at nbar (same coupling
    as the collective one).  ``gamma_dep_over_gamma`` adds a sigma_z channel
    per spin at that scaled rate.  Channels with rate zero are dropped, so
    the default arguments reproduce build_collective_zero_T exactly.

    ``rates`` supplies an optional per-reservoir coupling multiple (default
    1 everywhere); it scales both the lowering and raising channels of that
    reservoir.

    Per-spin channels act on individual product-space sites and therefore
    require the full backend.
    """
    nbar = float(nbar)
    gdep = float(gamma_dep_over_gamma)
    if not math.isfinite(nbar) or nbar < 0:
        raise ValueError(f"nbar must be finite and >= 0, got {nbar!r}")
    if not math.isfinite(gdep) or gdep < 0:
        raise ValueError(f"gamma_dep_over_gamma must be finite and >= 0, got {gdep!r}")
    if not reservoirs:
        raise ValueError("at least one reservoir is required")
    if rates is None:
        rates = [1.0] * len(reservoirs)
    rates = [float(r) for r in rates]
    if len(rates) != len(reservoirs):
        raise ValueError(f"got {len(rates)} rates for {len(reservoirs)} reservoirs")
    if any(not math.isfinite(r) or r <= 0 for r in rates):
        raise ValueError(f"reservoir rates must be finite and > 0, got {rates!r}")
    if (include_individual or gdep > 0) and basis.backend is not Backend.FULL:
        raise UnsupportedConfigurationError(
            "per-spin decay and dephasing address individual sites; "
            "use the full backend for this configuration"
        )
    if basis.backend is Backend.FULL:
        total_spins = sum(basis.domain_pops)
        if total_spins > INDIVIDUAL_SPIN_CAP:
            if not allow_large:
                raise UnsupportedConfigurationError(
                    f"{total_spins} spins in the full backend exceeds the default cap of "
                    f"{INDIVIDUAL_SPIN_CAP}; pass allow_large=True to proceed"
                )
            bytes_needed = 16 * basis.dim**2
            logging.getLogger(__name__).warning(
                "large full-backend run: dimension %d, density matrix ~%.0f MiB",
                basis.dim,
                bytes_needed / 2**20,
            )

    terms: list[LindbladTerm] = []
    lowering = [reservoir_jump(basis, r) for r in reservoirs]
    for J, r in zip(lowering, rates):
        terms.append(LindbladTerm(J, r * (nbar + 1.0)))
    if nbar > 0:
        for J, r in zip(lowering, rates):
            terms.append(LindbladTerm(J.dag(), r * nbar))
    if include_individual:
        sites = [
            (m, s) for m in range(basis.num_domains) for s in range(basis.domain_pops[m])
        ]
        for m, s in sites:
            terms.append(LindbladTerm(single_spin_lowering(basis, m, s), nbar + 1.0))
        if nbar > 0:
            for m, s in sites:
                terms.append(LindbladTerm(single_spin_lowering(basis, m, s).dag(), nbar))
    if gdep > 0:
        for m in range(basis.num_domains):
            for s in range(basis.domain_pops[m]):
                terms.append(LindbladTerm(single_spin_z(basis, m, s), gdep))
    return MasterEquation(tuple(terms), basis)


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SolverStats:
    """What the adaptive integrator did over one run.

    Every attempt costs six right-hand sides and the start two (the first
    derivative and the initial-step probe), so
    rhs_calls = 2 + 6 * (accepted + rejected).  ``rejected`` counts failed
    error tests and the retries after a trace drift above TRACE_DRIFT_TOL.
    ``min_step`` and ``max_step`` bound the accepted steps that were not
    cut short to land on a sample time (both 0.0 if every one was), so a
    run held at the stability limit shows a narrow range.
    """

    accepted: int
    rejected: int
    rhs_calls: int
    worst_trace_drift: float
    min_step: float
    max_step: float


@dataclass
class Trajectory:
    """Sampled time series from one integration run.

    ``stats`` is the integrator's SolverStats, or None when the sector was
    small enough to be propagated exactly (no steps to count).
    """

    times: np.ndarray
    observables: dict[str, np.ndarray]
    snapshots: Optional[list[DensityMatrix]]
    final_rho: DensityMatrix
    stats: Optional[SolverStats] = None

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        if self.times.ndim != 1 or len(self.times) == 0:
            raise ValueError("times must be a nonempty 1-D array")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")
        self.observables = {k: np.asarray(v, dtype=float) for k, v in self.observables.items()}
        for name, series in self.observables.items():
            if series.shape != self.times.shape:
                raise ValueError(f"series {name!r} length does not match times")
        if self.snapshots is not None and len(self.snapshots) != len(self.times):
            raise ValueError("snapshot count does not match times")


@dataclass(frozen=True)
class SteadyStateResult:
    """The steady state, its residual, and how it was reached.

    ``steps`` counts the implicit-Euler sweeps (0 if rho0 was already
    stationary or the explicit fallback ran); ``stats`` is the fallback's
    SolverStats, None when it did not run.
    """

    rho: DensityMatrix
    residual: float
    elapsed_scaled_time: float
    steps: int = 0
    stats: Optional[SolverStats] = None


# ---------------------------------------------------------------------------
# excitation-sector Liouvillian
# ---------------------------------------------------------------------------


def _shift(O: sp.csc_array, n: np.ndarray) -> Optional[int]:
    """The change of excitation number shared by every nonzero entry of O, or None."""
    cols = np.repeat(np.arange(O.shape[1]), np.diff(O.indptr))
    shifts = (n[O.indices] - n[cols])[O.data != 0]
    if shifts.size == 0:
        return 0
    return int(shifts[0]) if np.all(shifts == shifts[0]) else None


class _Sector:
    """The density-matrix elements the integrator keeps, and L on their real coordinates.

    Element (i, j) has coherence order n(i) - n(j), with n the total
    excitation number.  A jump that shifts n by a fixed amount maps every
    order onto itself under O rho O^dag and O^dag O rho, so only the orders
    present in rho0 (closed under negation, for the adjoint) are kept.  A
    jump without a fixed shift mixes orders, and then every element is
    kept.  ``keys`` holds their flat indices i * d + j in increasing order,
    ``shifts`` each active jump's change of n (None without a fixed one).
    L keeps Hermiticity, so ``liouvillian`` is a real map on the coordinates
    rho_ii, sqrt(2) Re rho_ij and sqrt(2) Im rho_ij of the kept i < j (the
    coherence vector of Alicki & Lendi, LNP 286 (1987)), whose Euclidean
    norm is the Frobenius norm of rho.  The Im ones stay zero, and are
    dropped, when every jump and rho0 are real.  They run by ``levels``
    n(i) + n(j), highest first.
    """

    def __init__(self, eq: MasterEquation, rho0: np.ndarray):
        d = eq.basis.dim
        n = excitation_numbers(eq.basis)
        active = [(t.rate, sp.csc_array(t.jump.matrix)) for t in eq.terms if t.rate != 0.0]
        self.shifts = [_shift(O, n) for _, O in active]
        if None not in self.shifts:
            i, j = np.nonzero(rho0)
            orders = {int(q) for q in n[i] - n[j]}
            orders |= {-q for q in orders}
        else:
            orders = None
        levels = [np.flatnonzero(n == k) for k in np.unique(n)]
        keys = np.sort(np.concatenate([
            (a[:, None] * d + b[None, :]).ravel()
            for a in levels
            for b in levels
            if orders is None or int(n[a[0]] - n[b[0]]) in orders
        ]))
        self.d = d
        self.basis = eq.basis
        self.keys = keys
        rows, cols = keys // d, keys % d

        # coordinate k is Re(conj(w) rho[p] + w rho[q]), with q the mirror (j, i) of
        # p = (i, j), i <= j; w is 1/2 on the diagonal, 1/sqrt(2) for Re, i/sqrt(2) for Im
        m = keys.size
        p = np.flatnonzero(rows <= cols)
        q = np.searchsorted(keys, cols[p] * d + rows[p])
        w = np.where(p == q, 0.5, math.sqrt(0.5)).astype(complex)
        if np.any(rho0.imag) or any(np.any(O.data.imag) for _, O in active):
            off = p != q
            p, q, w = np.r_[p, p[off]], np.r_[q, q[off]], np.r_[w, 1j * w[off]]
        order = np.lexsort((p, -(n[rows[p]] + n[cols[p]])))
        p, q, w = p[order], q[order], w[order]
        self.levels = n[rows[p]] + n[cols[p]]
        self.diagonal = np.flatnonzero(p == q)
        self.weights = np.where(p == q, 1.0, math.sqrt(0.5))  # |rho_ij| = weight |x| if real
        k = np.arange(p.size)
        S = sp.csr_array((np.r_[w, w.conj()], (np.r_[p, q], np.r_[k, k])), shape=(m, k.size))
        self._to_elements, self._to_coordinates = S, S.conj().T.tocsr()

        # one term at a time, so the COO entries of only one are held at once
        L = sp.csr_array((m, m), dtype=complex)
        lindblad_sum = None  # sum_k r_k O_k^dag O_k
        for rate, O in active:
            L = L + self._superoperator(O, O, 2.0 * rate, rows, cols)
            OdO = rate * (O.conj().T @ O)
            lindblad_sum = OdO if lindblad_sum is None else lindblad_sum + OdO
        if lindblad_sum is not None:
            A = sp.csc_array(0.5 * (lindblad_sum + lindblad_sum.conj().T))
            eye = sp.eye_array(d, dtype=complex, format="csc")
            L = L - self._superoperator(A, eye, 1.0, rows, cols)  # A rho
            L = L - self._superoperator(eye, A, 1.0, rows, cols)  # rho A
        # real up to rounding: L S x is Hermitian for real x
        self.liouvillian = (self._to_coordinates @ L @ self._to_elements).real
        self.liouvillian.sort_indices()  # the product's order doubles the matvec time

    def _superoperator(self, X, Y, weight, rows, cols) -> sp.csr_array:
        """The map rho -> weight * X rho Y^dag on the sector, as a CSR matrix.

        Kept element (a, b) feeds (i, j) with X[i, a] conj(Y[j, b]) for every
        stored entry of column a of X and column b of Y.
        """
        ca = np.diff(X.indptr)[rows]
        cb = np.diff(Y.indptr)[cols]
        count = ca * cb
        src = np.repeat(np.arange(rows.size), count)
        offset = np.arange(src.size) - np.repeat(np.cumsum(count) - count, count)
        width = cb[src]
        ea = X.indptr[rows[src]] + offset // width
        eb = Y.indptr[cols[src]] + offset % width
        target = X.indices[ea] * self.d + Y.indices[eb]
        m = self.keys.size
        dst = np.searchsorted(self.keys, target)
        if np.any(self.keys[np.minimum(dst, m - 1)] != target):
            raise NumericalFailure("a jump maps the kept coherence orders outside themselves")
        values = weight * X.data[ea] * Y.data[eb].conj()
        return sp.csr_array((values, (dst, src)), shape=(m, m))

    def readout(self, ob: Observable):
        """The map from the coordinates to ob's linear part, built once per run.

        Both parts are linear in the kept elements, which _to_elements gives:
        Tr(O rho) = sum O_ji rho_ij is one row, with O checked here, once; the
        flattened reduced state over ob.keep is the CSR map that sums the
        elements agreeing on every traced domain.
        """
        rows, cols = np.divmod(self.keys, self.d)
        if ob.operator is not None:
            op = _check_operator(ob.operator, self.basis)
            if isinstance(op, PureState):
                weights = op.amplitudes[rows].conj() * op.amplitudes[cols]
            else:
                weights = op.matrix[cols, rows]
            return self._to_elements.T @ weights
        idx = list(_check_domain_indices(self.basis, ob.keep))
        dims = np.array(self.basis.domain_dims)
        r, c = np.array(np.unravel_index(rows, dims)), np.array(np.unravel_index(cols, dims))
        kept = dims[idx]
        size = int(np.prod(kept))
        target = np.ravel_multi_index(r[idx], kept) * size + np.ravel_multi_index(c[idx], kept)
        e = np.flatnonzero(np.all(np.delete(r, idx, 0) == np.delete(c, idx, 0), axis=0))
        trace = sp.csr_array((np.ones(e.size), (target[e], e)), shape=(size * size, rows.size))
        R = trace @ self._to_elements
        # ascending columns sum each element in partial_trace's order; the
        # concurrence's square roots turn a changed last bit into ~1e-9
        R.sort_indices()
        return R

    def pack(self, matrix: np.ndarray) -> np.ndarray:
        """The coordinates of the Hermitian part of matrix."""
        return (self._to_coordinates @ matrix.reshape(-1)[self.keys]).real

    def unpack(self, x: np.ndarray) -> np.ndarray:
        """The d x d matrix of real coordinates x; mirrored elements are exact conjugates."""
        out = np.zeros(self.d * self.d, dtype=complex)
        out[self.keys] = self._to_elements @ x
        return out.reshape(self.d, self.d)


class _LevelSweep:
    """One implicit Euler step y <- (I - h L)^-1 y on the sector, level by level.

    When no jump raises the excitation number, a coordinate feeds only
    those of the same or a lower level n(i) + n(j), so L is block
    lower-triangular in the sector's order.  A step solves the levels in
    that order: each level's diagonal block of I - h L is inverted once,
    densely, and the levels above feed in through a sparse slice of L.
    """

    def __init__(self, sector: _Sector, h: float):
        cuts = np.flatnonzero(np.diff(sector.levels)) + 1
        L = sector.liouvillian
        self.blocks = []
        for start, stop in zip(np.r_[0, cuts], np.r_[cuts, sector.levels.size]):
            inverse = np.linalg.inv(np.eye(stop - start) - h * L[start:stop, start:stop].toarray())
            feed = h * L[start:stop, :start]
            self.blocks.append((start, stop, inverse, feed if feed.nnz else None))

    @staticmethod
    def applies(sector: _Sector) -> bool:
        """No jump raises n or lacks a fixed shift, and every level block is small."""
        if any(s is None or s > 0 for s in sector.shifts):
            return False
        _, sizes = np.unique(sector.levels, return_counts=True)
        return int(sizes.max()) <= LEVEL_BLOCK_LIMIT

    def step(self, y: np.ndarray) -> np.ndarray:
        x = y.copy()
        for start, stop, inverse, feed in self.blocks:
            if feed is not None:
                x[start:stop] += feed @ x[:start]
            x[start:stop] = inverse @ x[start:stop]
        return x


# ---------------------------------------------------------------------------
# Dormand-Prince 5(4) stepper
# ---------------------------------------------------------------------------

_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)
_DP_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_DP_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40)
_DP_ERR = tuple(b5 - b4 for b5, b4 in zip(_DP_B5 + (0.0,), _DP_B4))
# row s - 1 weights stages k_1..k_s into the input of stage s + 1; row 5 (b5)
# makes the new state, whose derivative is k_7, and row 6 the error estimate
_DP_TABLE = np.array([row + (0.0,) * (7 - len(row)) for row in _DP_A[1:] + (_DP_B5, _DP_ERR)])

_MIN_STEP = 1e-13
_MAX_GROWTH = 5.0
_MIN_SHRINK = 0.2
_SAFETY = 0.9


class _Stepper:
    """Adaptive integrator state on the sector coordinates: vector, time, cached derivative.

    The error norm is the root mean square over all d^2 matrix elements, as
    if the full matrix were stepped: elements outside the sector are zero,
    so it divides by d^2, and coordinate x_k scales its error by
    atol + rtol * weights[k] * |x_k|, which without Im coordinates is the
    elementwise scale of the matrix.  That keeps the accepted steps.

    An attempt keeps its seven stages as the rows of one preallocated array,
    so each stage input is y plus one product of a row of h * _DP_TABLE
    with the stages so far, and the error estimate one product with the
    last row.  Up to SECTOR_DENSE_LIMIT coordinates L is applied as a dense
    array, whose product costs less than a CSR one there; above it as CSR.
    """

    def __init__(self, eq: MasterEquation, rho0: np.ndarray, sector: Optional[_Sector] = None):
        self.sector = _Sector(eq, rho0) if sector is None else sector
        L = self.sector.liouvillian
        self._map = L.toarray() if L.shape[0] <= SECTOR_DENSE_LIMIT else L
        self._size = float(eq.basis.dim) ** 2
        self.y = self.sector.pack(rho0)
        self._stages = np.empty((7, self.y.size))
        self.t = 0.0
        self.rtol = RTOL
        self.atol = ATOL
        self.accepted = 0
        self.rejected = 0
        self.rhs_calls = 0
        self.worst_trace_drift = 0.0
        self.min_step = math.inf
        self.max_step = 0.0
        self.k1 = self.rhs(self.y)
        self.h = self._initial_step()

    def rhs(self, y: np.ndarray) -> np.ndarray:
        self.rhs_calls += 1
        return self._map @ y

    def _rms(self, x: np.ndarray) -> float:
        return float(np.sqrt(np.vdot(x, x).real / self._size))

    def _initial_step(self) -> float:
        scale = self.atol + self.rtol * self.sector.weights * np.abs(self.y)
        d0 = self._rms(self.y / scale)
        d1 = self._rms(self.k1 / scale)
        h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
        f1 = self.rhs(self.y + h0 * self.k1)
        d2 = self._rms((f1 - self.k1) / scale) / h0
        dmax = max(d1, d2)
        h1 = max(1e-6, h0 * 1e-3) if dmax <= 1e-15 else (0.01 / dmax) ** 0.2
        return min(100 * h0, h1)

    @property
    def residual(self) -> float:
        """Frobenius norm of the right-hand side at the current state."""
        return float(np.linalg.norm(self.k1))

    @property
    def matrix(self) -> np.ndarray:
        """The current state as a d x d matrix."""
        return self.sector.unpack(self.y)

    @property
    def stats(self) -> SolverStats:
        drift = float(self.worst_trace_drift)
        low = self.min_step if self.max_step > 0 else 0.0
        return SolverStats(
            self.accepted, self.rejected, self.rhs_calls, drift, low, self.max_step
        )

    def _attempt(self, h: float):
        a = h * _DP_TABLE
        k = self._stages
        k[0] = self.k1
        for s in range(1, 7):  # the sixth input is the new state, k[6] its derivative
            y_new = a[s - 1, :s] @ k[:s] + self.y
            k[s] = self.rhs(y_new)
        err = a[6] @ k
        err /= self.atol + self.rtol * self.sector.weights * np.maximum(abs(self.y), abs(y_new))
        return y_new, k[6].copy(), self._rms(err)

    def step_once(self, t_limit: float) -> bool:
        """Take one accepted step, not crossing t_limit.  True if t advanced."""
        if self.t >= t_limit - 1e-12 * max(1.0, abs(t_limit)):
            return False
        while True:
            h = min(self.h, t_limit - self.t)
            clipped = h < self.h
            if h < _MIN_STEP:
                raise IntegrationFailure(
                    f"step size underflow at scaled time {self.t:.6g} "
                    f"(worst trace drift {self.worst_trace_drift:.3e})"
                )
            y_new, k7, err = self._attempt(h)
            if err <= 1.0:
                trace_drift = abs(y_new[self.sector.diagonal].sum() - 1.0)
                if trace_drift > TRACE_DRIFT_TOL:
                    # conservation slipped though the error test passed;
                    # retry with a smaller step
                    self.rejected += 1
                    self.h = 0.5 * h
                    continue
                self.worst_trace_drift = max(self.worst_trace_drift, trace_drift)
                self.accepted += 1
                self.t += h
                self.y = y_new
                self.k1 = k7
                if not clipped:
                    self.min_step = min(self.min_step, h)
                    self.max_step = max(self.max_step, h)
                    factor = _MAX_GROWTH if err == 0 else min(
                        _MAX_GROWTH, max(_MIN_SHRINK, _SAFETY * err**-0.2)
                    )
                    self.h = h * factor
                return True
            self.rejected += 1
            self.h = h * max(_MIN_SHRINK, _SAFETY * err**-0.2)

    def advance_to(self, target: float):
        while self.step_once(target):
            pass
        self.t = target


# ---------------------------------------------------------------------------
# exact propagation of small sectors
# ---------------------------------------------------------------------------


def _expm(A: np.ndarray) -> np.ndarray:
    """exp(A) of a dense square matrix by scaling and squaring.

    s is the smallest integer with ||A / 2^s||_1 <= 1/2; there the degree-14
    Taylor polynomial, evaluated by Horner, leaves out less than
    (1/2)^15 / 15! ~ 2e-17, below unit roundoff, and s squarings undo the
    scaling (Moler & Van Loan, SIAM Rev. 45, 3 (2003); Higham, SIAM J.
    Matrix Anal. Appl. 26, 1179 (2005)).  numpy only: importing
    scipy.linalg would add ~8 MiB to every run.
    """
    mantissa, exponent = math.frexp(float(np.abs(A).sum(axis=0).max(initial=0.0)))
    s = max(0, exponent + (mantissa > 0.5))
    X = A / 2.0**s
    n = A.shape[0]
    P = X / 14
    P.flat[:: n + 1] += 1.0
    for k in range(13, 0, -1):  # I + X/k (I + X/(k+1) (... (I + X/14)))
        P = X @ P
        P /= k
        P.flat[:: n + 1] += 1.0
    for _ in range(s):
        P = P @ P
    return P


class _Propagator:
    """Exact advance y <- exp(h L) y between samples, for a sector held densely.

    The propagator of sample_dt is formed at its first use and reused; only
    the grid's shorter last interval, if it has one, needs a second.  Being
    exact, it is stable at any spacing, where an explicit integrator on a
    stiff sector takes steps far below it.  Each advance checks the trace
    drift like the integrator does; there are no steps, so ``stats`` is None.
    """

    stats = None

    def __init__(self, sector: _Sector, rho0: np.ndarray, sample_dt: float):
        self.sector = sector
        self.y = sector.pack(rho0)
        self.t = 0.0
        self._L = sector.liouvillian.toarray()
        self._dt = float(sample_dt)
        self._step: Optional[np.ndarray] = None

    def advance_to(self, target: float):
        if target <= self.t:
            return
        # ``_sample_grid`` puts sample i at i * sample_dt, and appends t_max only
        # when it falls between two of them, after a shorter last interval
        if target == round(target / self._dt) * self._dt:
            if self._step is None:
                self._step = _expm(self._dt * self._L)
            P = self._step
        else:
            P = _expm((target - self.t) * self._L)
        self.y = P @ self.y
        self.t = target
        trace_drift = abs(self.y[self.sector.diagonal].sum() - 1.0)
        if trace_drift > TRACE_DRIFT_TOL:
            raise NumericalFailure(
                f"propagated state drifted at scaled time {target:.6g}: trace {trace_drift:.3e}"
            )


# ---------------------------------------------------------------------------
# high-level drivers
# ---------------------------------------------------------------------------


def _sample_grid(t_max: float, sample_dt: float) -> np.ndarray:
    n = int(math.floor(t_max / sample_dt + 1e-9))
    ts = [i * sample_dt for i in range(n + 1)]
    if t_max - ts[-1] > 1e-9 * max(1.0, t_max):
        ts.append(t_max)
    return np.asarray(ts)


def evolve(
    eq: MasterEquation,
    rho0: DensityMatrix,
    t_max: float,
    sample_dt: float,
    keep: Optional[Iterable[int]] = None,
    observables: Optional[Mapping[str, ObservableSpec]] = None,
) -> Trajectory:
    """Evolve rho0 and sample on a regular scaled-time grid.

    ``observables`` maps series names to Observables (see
    ``scenarios.compile_observables``), Hermitian operators (recorded as
    expectation values) or other callables on the sampled state.  With
    ``keep``, the reduced state over those domains is stored at every
    sample.  Trace drift is watched over the whole run.

    The state is the real Hermitian coordinates of rho0's coherence orders
    (see the module docstring).  Up to SECTOR_DENSE_LIMIT coordinates it is
    carried from sample to sample by the exact propagator exp(h L), and
    ``stats`` is None.  Above, the Dormand-Prince integrator steps it, and
    ``stats`` records the steps, rejections and right-hand sides it took;
    its error norm divides by d^2, so the accepted steps are those of
    stepping the whole matrix.

    Observables, operators and ``keep`` are read off the coordinates by one
    map per distinct linear part (``_Sector.readout``), one product each per
    sample; the measures run once, over all samples, after the last.  Only
    other callables see the d x d matrix, unpacked at every sample for them;
    otherwise ``final_rho`` is the one unpack.
    """
    if rho0.basis != eq.basis:
        raise ValueError(f"basis mismatch: {rho0.basis} vs {eq.basis}")
    if not (t_max > 0):
        raise ValueError(f"t_max must be positive, got {t_max!r}")
    if not (sample_dt > 0):
        raise ValueError(f"sample_dt must be positive, got {sample_dt!r}")
    observables = dict(observables or {})
    compiled, bare = {}, {}
    for name, ob in observables.items():
        if isinstance(ob, Operator):
            ob = Observable(lambda v, t: v, operator=ob)
        (compiled if isinstance(ob, Observable) else bare)[name] = ob
    snapshot = None if keep is None else Observable(lambda v, t: v, keep=tuple(keep))

    times = _sample_grid(t_max, sample_dt)
    sector = _Sector(eq, rho0.matrix)
    if sector.liouvillian.shape[0] <= SECTOR_DENSE_LIMIT:
        solver = _Propagator(sector, rho0.matrix, sample_dt)
    else:
        solver = _Stepper(eq, rho0.matrix, sector)
    maps = {}
    for ob in list(compiled.values()) + ([] if snapshot is None else [snapshot]):
        if ob.part not in maps:
            maps[ob.part] = sector.readout(ob)
    linear = {part: np.empty((times.size,) + R.shape[:-1], complex) for part, R in maps.items()}
    series = {name: np.empty(times.size) for name in bare}

    for k, t in enumerate(times):
        solver.advance_to(float(t))
        for part, R in maps.items():
            linear[part][k] = R @ solver.y
        if bare:
            # Solver output carries integrator-scale noise; eigenvalues may dip a
            # few 1e-9 below zero for large systems, which validation would reject.
            current = DensityMatrix(sector.unpack(solver.y), eq.basis, validate=False)
            for name, fn in bare.items():
                series[name][k] = float(fn(current))
    for name, ob in compiled.items():
        series[name] = ob.evaluate(linear[ob.part], times)
    snapshots = None
    if snapshot is not None:
        sub = eq.basis.subset(snapshot.keep)
        stack = snapshot.evaluate(linear[snapshot.part])
        snapshots = [DensityMatrix(x, sub, validate=False) for x in stack]
    return Trajectory(
        times=times,
        observables={name: series[name] for name in observables},
        snapshots=snapshots,
        final_rho=DensityMatrix(sector.unpack(solver.y), eq.basis, validate=False),
        stats=solver.stats,
    )


def steady_state(
    eq: MasterEquation,
    rho0: DensityMatrix,
    tol: float = STEADY_STATE_TOL,
    max_scaled_time: float = MAX_SCALED_TIME,
) -> SteadyStateResult:
    """The state rho0 relaxes to, found when the right-hand side is below tol.

    The stationary state depends on rho0: the dissipators share a degenerate
    dark manifold, and the limit keeps the weight rho0 gives each conserved
    quantity J (rho_inf = P_inf rho0, Albert & Jiang, Phys. Rev. A 89,
    022118 (2014)).  Implicit Euler steps y <- (I - h L)^-1 y on the sector
    coordinates, with fixed h = min(1, max_scaled_time), reach that limit: every
    J satisfies J^dag (I - h L) = J^dag, so each step keeps the trace and
    every dark-state weight exactly, and the decaying modes shrink by
    1 / |1 - h lambda| per step.  Each step is one sweep over the excitation
    levels (``_LevelSweep``).  Raises ConvergenceFailure if the Frobenius
    norm of the right-hand side has not fallen below tol by
    ``max_scaled_time``; ``elapsed_scaled_time`` counts the steps taken
    times h.

    A jump that raises the excitation number (nbar > 0) or has no fixed
    shift, or a level block above ``LEVEL_BLOCK_LIMIT`` coordinates, leaves
    no level order to sweep in; then the adaptive explicit integrator of
    ``evolve`` runs until the residual is below tol.
    """
    if rho0.basis != eq.basis:
        raise ValueError(f"basis mismatch: {rho0.basis} vs {eq.basis}")
    if not (tol > 0):
        raise ValueError(f"tol must be positive, got {tol!r}")
    if not (math.isfinite(max_scaled_time) and max_scaled_time > 0):
        raise ValueError(f"max_scaled_time must be finite and positive, got {max_scaled_time!r}")
    sector = _Sector(eq, rho0.matrix)
    y = sector.pack(rho0.matrix)
    residual = float(np.linalg.norm(sector.liouvillian @ y))
    if residual < tol:
        return SteadyStateResult(rho0, residual, 0.0)
    if not _LevelSweep.applies(sector):
        return _integrate_to_steady_state(eq, rho0, tol, max_scaled_time)
    h = min(1.0, float(max_scaled_time))
    sweep = _LevelSweep(sector, h)
    steps = 0
    while residual >= tol:
        if (steps + 1) * h > max_scaled_time:
            raise ConvergenceFailure(
                f"residual {residual:.3e} still above {tol:.1e} "
                f"at scaled time {max_scaled_time:g}"
            )
        y = sweep.step(y)
        steps += 1
        trace_drift = abs(y[sector.diagonal].sum() - 1.0)
        if trace_drift > TRACE_DRIFT_TOL:
            raise NumericalFailure(f"implicit Euler step {steps} drifted: trace {trace_drift:.3e}")
        residual = float(np.linalg.norm(sector.liouvillian @ y))
    rho = DensityMatrix(sector.unpack(y), eq.basis, validate=False)
    return SteadyStateResult(rho, residual, steps * h, steps)


def _integrate_to_steady_state(
    eq: MasterEquation, rho0: DensityMatrix, tol: float, max_scaled_time: float
) -> SteadyStateResult:
    """The explicit fallback of ``steady_state``: integrate until the residual is below tol."""
    stepper = _Stepper(eq, rho0.matrix)
    # Near the stationary manifold an explicit stepper hovers at the
    # stability boundary and local truncation noise pins the residual at
    # roughly the local tolerance.  When the residual stalls above the
    # target, tighten the local tolerances so the noise floor drops.
    best = math.inf
    since_improvement = 0
    while stepper.step_once(max_scaled_time):
        resid = stepper.residual
        if resid < tol:
            rho = DensityMatrix(stepper.matrix, eq.basis, validate=False)
            return SteadyStateResult(rho, resid, stepper.t, stats=stepper.stats)
        if resid < 0.5 * best:
            best = resid
            since_improvement = 0
        elif resid < 1e5 * tol:
            since_improvement += 1
            if since_improvement >= 30 and stepper.rtol > 1e-14:
                stepper.rtol = max(1e-14, stepper.rtol * 1e-2)
                stepper.atol = max(1e-16, stepper.atol * 1e-2)
                stepper.h *= 0.25
                since_improvement = 0
    raise ConvergenceFailure(
        f"residual {stepper.residual:.3e} still above {tol:.1e} "
        f"at scaled time {max_scaled_time:g}"
    )


def _check_operator(op, basis: BasisDescriptor):
    """op, once its basis and, for an Operator, its Hermiticity are checked."""
    if op.basis != basis:
        raise ValueError(f"basis mismatch: {basis} vs {op.basis}")
    if isinstance(op, Operator):
        dev = op.matrix - op.matrix.conj().T
        herm = abs(dev).max() if sp.issparse(dev) else float(np.max(np.abs(dev)))
        if herm > 1e-10:
            raise ValueError(f"operator is not Hermitian (max deviation {herm:.3e})")
    return op


def _real_parts(values: np.ndarray, times: Optional[np.ndarray] = None) -> np.ndarray:
    """The real parts of expectation values; an imaginary residue above 1e-10 raises."""
    bad = np.flatnonzero(np.abs(values.imag) > 1e-10)
    if bad.size:
        k = bad[0]
        raise NumericalFailure(
            f"expectation has imaginary residue {values.imag[k]:.3e}{at_sample(times, k)}"
        )
    return values.real


def expectation(rho: DensityMatrix, op: Operator) -> float:
    """Tr(rho op) for a Hermitian operator; small imaginary residue dropped."""
    _check_operator(op, rho.basis)
    if op.is_sparse:
        val = complex(op.matrix.multiply(rho.matrix.T).sum())
    else:
        val = complex(np.einsum("ij,ji->", rho.matrix, op.matrix))
    return float(_real_parts(np.array([val]))[0])


def half_max_time(series: Sequence[float], times: Sequence[float]) -> float:
    """First time the series reaches half of its maximum, interpolated.

    This is the generation-speed marker for entanglement curves: the
    earlier the crossing, the faster the protocol.
    """
    s = np.asarray(series, dtype=float)
    t = np.asarray(times, dtype=float)
    if s.size == 0 or s.shape != t.shape:
        raise ValueError("series and times must be nonempty and equally long")
    peak = float(np.max(s))
    if peak <= 0:
        raise UndefinedResultError("series never becomes positive; no half-maximum exists")
    half = 0.5 * peak
    idx = int(np.argmax(s >= half))
    if idx == 0:
        return float(t[0])
    t0, t1 = t[idx - 1], t[idx]
    s0, s1 = s[idx - 1], s[idx]
    return float(t0 + (half - s0) * (t1 - t0) / (s1 - s0))
