"""Master-equation assembly, propagation, and steady-state search.

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
the Liouvillian as one real sparse matrix, numpy CSR arrays (``_CSR``),
built when the run starts; Hermiticity holds by construction.  Only the
Krylov route imports ``scipy.sparse`` here.  A jump without a fixed shift keeps
every element.  When every jump lowers n or keeps it, the elements above
the highest n on rho0's support stay zero and are dropped as well.
Per-spin channels at equal rates and a permutation-symmetric rho0 keep
the state constant on each orbit of elements under the site
permutations, so each such orbit is one coordinate (the state space of
PIQS, Shammah et al., Phys. Rev. A 98, 063815 (2018)).
``lindblad_rhs`` stays the plain matrix form, the reference for tests; it
runs in float64 when rho and every jump are real, as in every preset.

L is constant, so the state at every sample is exp(t L) rho0.  Each
sample comes with the interval h before it: sample_dt, or a shorter last
one (``_sample_grid``).  ``evolve`` stores the samples' coordinates and
reads them once the last is reached.  ``_Propagator`` multiplies a vector by the dense
exp(h A), formed once per h by scaling and squaring.  A sector of at most
SECTOR_DENSE_LIMIT coordinates runs it on L itself.  A larger sector takes
restarted Krylov substeps (``_Krylov``), each set by an a-posteriori error
estimate, and runs it on the small Hessenberg matrix of each substep.

The stationary manifold is degenerate (dark states), so the steady state
depends on rho0: it is rho_inf = P_inf rho0, the projection that keeps the
weight of every conserved quantity (Albert & Jiang, Phys. Rev. A 89,
022118 (2014)).  ``steady_state`` reaches it as the limit of implicit
Euler steps, which keep those weights exactly.  Without raising or
unshifted jumps L is block lower-triangular in the level n(i) + n(j) of a
coordinate, so each step is one sweep from the top level down with a
small dense inverse per level; otherwise the whole sector is one block.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from .errors import (
    ConvergenceFailure,
    IntegrationFailure,
    MemoryGuardExceeded,
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
    exchange_labels,
    excitation_numbers,
    fidelity_with_pure,
    partial_trace,
    reservoir_jump,
    single_spin_lowering,
    single_spin_z,
    site_permutations,
)

TRACE_DRIFT_TOL = 1e-8
STEADY_STATE_TOL = 1e-10
# steady_state's fixed implicit-Euler step h, and its budget of steps (sweeps)
STEADY_STEP = 256.0
MAX_SWEEPS = 200
# steady_state inverts each block of the sector densely (one per excitation level,
# or the whole sector); a block above this many coordinates raises
# MemoryGuardExceeded before anything is inverted.
LEVEL_BLOCK_LIMIT = 4096
# Up to this many coordinates evolve propagates by a dense exp(h L), above by Krylov
# substeps on the sector's CSR L.  Warm, fig6 N_D = 5 (147 coordinates) takes 7 ms
# dense against 12 ms Krylov, N_D = 7 (219) 15 against 13 ms; a fresh-process
# `qlre reproduce fig6` reads the same with this limit at 128, 160 or 256.
SECTOR_DENSE_LIMIT = 128
# evolve's Krylov route: the basis size, and the estimated error each substep may add
# (Euclidean norm of the coordinates, the Frobenius norm of rho)
KRYLOV_DIM = 30
KRYLOV_TOL = 1e-12
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
    """d rho / d(scaled time) for the given equation, as a complex d x d matrix.

    A plain sum over terms of rate * (2 O rho O^dag - O^dag O rho - rho O^dag O),
    kept as the reference the sector's L is tested against.  It is summed as
    2 rate O rho O^dag per term, less A rho and rho A with A = sum rate O^dag O
    formed once.  When rho and every active jump have no imaginary part
    (every preset; ``_Sector`` drops its Im coordinates by the same rule)
    the products run on float64 copies.  rho A is formed itself, not as
    (A rho)^dag, so the result is Hermitian and traceless to 1e-12 only when
    the input and the terms are; a violation signals a numeric problem.
    """
    if rho.basis != eq.basis:
        raise ValueError(f"basis mismatch: {rho.basis} vs {eq.basis}")
    y = rho.matrix
    active = [(t.rate, t.jump.matrix) for t in eq.terms if t.rate]
    if not np.any(y.imag) and not any(np.any(_values(O).imag) for _, O in active):
        y = y.real.copy()
        active = [(r, O.real.copy()) for r, O in active]
    out = np.zeros_like(y)
    A = 0.0  # a scalar zero adds to a dense or a CSR product alike
    for r, O in active:
        Od = O.conj().T
        out += (2.0 * r) * ((O @ y) @ Od)
        A = A + r * (Od @ O)
    if active:
        out -= A @ y
        out -= y @ A
    herm = np.max(np.abs(out - out.conj().T)) if out.size else 0.0
    tr = abs(out.trace())
    if herm > 1e-12 or tr > 1e-12:
        raise NumericalFailure(
            f"right-hand side violates structure: hermiticity {herm:.3e}, trace {tr:.3e}"
        )
    return out.astype(complex, copy=False)


def _values(matrix) -> np.ndarray:
    """A dense matrix itself, or a CSR matrix's stored values."""
    return matrix if isinstance(matrix, np.ndarray) else matrix.data


# ---------------------------------------------------------------------------
# equation builders
# ---------------------------------------------------------------------------


def build_collective_zero_T(
    basis: BasisDescriptor, reservoirs: Sequence[Iterable[int]]
) -> MasterEquation:
    """Zero-temperature engineered reservoirs, one per listed domain set.

    Each reservoir contributes a single jump operator, the summed collective
    lowering operator of its domains, at unit scaled rate.  This is
    ``build_realistic`` with its defaults and no spin cap: above
    INDIVIDUAL_SPIN_CAP full-backend spins it logs its large-run warning.
    """
    return build_realistic(basis, reservoirs, allow_large=True)


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
    per spin at that scaled rate.  Channels with rate zero are dropped;
    build_collective_zero_T is this function with the default arguments and
    ``allow_large``.

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
    """What the Krylov route did over one run, and the worst trace drift of its samples.

    Each substep builds one basis: KRYLOV_DIM products with the sector's L
    and one more for the error estimate, so
    products = (KRYLOV_DIM + 1) * substeps unless a basis broke down early
    (fewer products, and that substep serves the rest of the run).
    ``rejected`` counts the substeps the error estimate shrank; a rejection
    costs no product.  The first substep also tries the predicted substep
    once on its basis; a trial that fails is not a rejection.  ``min_step``
    and ``max_step`` bound the accepted substeps that neither broke down nor
    were cut short by the end of the run (both 0.0 if none was left).
    """

    substeps: int
    rejected: int
    products: int
    worst_trace_drift: float
    min_step: float
    max_step: float


@dataclass
class Trajectory:
    """Sampled time series from one integration run.

    ``stats`` is the Krylov route's SolverStats, or None when the sector
    was small enough for the dense propagator (no substeps to count).
    ``residual`` is ||L y|| of the final coordinates y, which equals the
    Frobenius norm of lindblad_rhs(final_rho).
    """

    times: np.ndarray
    observables: dict[str, np.ndarray]
    snapshots: Optional[list[DensityMatrix]]
    final_rho: DensityMatrix
    stats: Optional[SolverStats] = None
    residual: Optional[float] = None

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
    stationary).
    """

    rho: DensityMatrix
    residual: float
    steps: int = 0

    @property
    def elapsed_scaled_time(self) -> float:
        """The scaled time the steps covered: steps times STEADY_STEP."""
        return self.steps * STEADY_STEP


# ---------------------------------------------------------------------------
# excitation-sector Liouvillian
# ---------------------------------------------------------------------------


def _bincount(bins: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    """out[b] sums the values[e] with bins[e] == b one at a time, in the order of e.

    That is scipy's sparse order; numpy's sum, add.at and add.reduceat pair or
    reorder terms and change last bits.  A second axis of values is summed apart.
    """
    if np.iscomplexobj(values):
        out = np.empty((size,) + values.shape[1:], dtype=complex)
        out.real, out.imag = _bincount(bins, values.real, size), _bincount(bins, values.imag, size)
        return out
    if values.ndim == 1:
        return np.bincount(bins, values, size)
    width = values.shape[1]
    flat = (bins[:, None] * width + np.arange(width)).ravel()
    return np.bincount(flat, values.ravel(), size * width).reshape(size, width)


@dataclass(frozen=True)
class _CSR:
    """A sparse matrix as numpy CSR arrays, each row's columns ascending, without duplicates."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]

    @classmethod
    def from_coo(cls, rows, cols, values, shape) -> "_CSR":
        """The entries (rows, cols, values), duplicates summed in input order, zero sums dropped."""
        key, where = np.unique(np.asarray(rows, np.int64) * shape[1] + cols, return_inverse=True)
        data = _bincount(where, values, key.size)
        rows, cols = np.divmod(key[data != 0], shape[1])
        return cls(np.searchsorted(rows, np.arange(shape[0] + 1)), cols, data[data != 0], shape)

    @cached_property
    def rows(self) -> np.ndarray:
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """M x, for a vector x or each column of a matrix x."""
        return _bincount(self.rows, (self.data * x[self.indices].T).T, self.shape[0])

    def transposed_product(self, x: np.ndarray) -> np.ndarray:
        """M^T x, not conjugated."""
        return _bincount(self.indices, self.data * x[self.rows], self.shape[1])

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=self.data.dtype)
        out[self.rows, self.indices] = self.data
        return out


def _pairs(a0, a1, b0, b1):
    """Every (g, x, y) with a0[g] <= x < a1[g] and b0[g] <= y < b1[g], g ascending."""
    nb = b1 - b0
    count = (a1 - a0) * nb
    g = np.repeat(np.arange(count.size), count)
    offset = np.arange(g.size) - np.repeat(np.cumsum(count) - count, count)
    return g, a0[g] + offset // nb[g], b0[g] + offset % nb[g]


def _exchangeable(basis: BasisDescriptor, entries, rho0: np.ndarray, support) -> list[int]:
    """The full-backend domains of >= 2 spins whose site permutations keep L and rho0.

    ``entries`` holds the active jumps' entries stacked as ``_Sector`` reads
    them: each entry's jump (ascending), column, row and sqrt(rate)-scaled
    value, each jump's flat keys c * d + r ascending; ``support`` holds the
    rows and columns of rho0's nonzeros.  A domain qualifies when a swap of
    two of its sites and the cycle of all of them (which generate every
    permutation) each map the jumps onto themselves as a multiset, and
    rho0's nonzero entries onto equal ones, to 1e-12.  Per permutation,
    every key is mapped at once and sorted by jump and then image; a jump's
    signature is the bytes of its sorted images and of its values in that
    order, and the multiset of signatures must equal the unpermuted one.  A
    jump that matches another only to rounding is therefore refused: that
    costs the orbit merge, and L stays exact.
    """
    if basis.backend is not Backend.FULL:
        return []
    jump, c, r, v = entries
    d, (i, j) = basis.dim, support
    if jump.size and (int(jump[-1]) + 1) * d * d >= 2**63:
        return []  # the sort key below would wrap; refusing only forgoes the merge
    start = np.flatnonzero(np.diff(jump, prepend=-1)).tolist()  # an empty jump maps onto itself
    spans = list(zip(start, start[1:] + [jump.size]))

    def signatures(keys, values):
        k, u = keys.tobytes(), values.tobytes()
        a, b = keys.itemsize, values.itemsize
        return sorted((k[a * s : a * e], u[b * s : b * e]) for s, e in spans)

    unpermuted = signatures(c * d + r, v)

    def keeps(perm):
        if np.any(np.abs(rho0[perm[i], perm[j]] - rho0[i, j]) > 1e-12):
            return False
        image = perm[c] * d + perm[r]
        # the keys are distinct; timsort ("stable") is the fastest on their sorted runs
        order = np.argsort(jump * (d * d) + image, kind="stable")
        return signatures(image[order], v[order]) == unpermuted

    candidates = [m for m, N in enumerate(basis.domain_pops) if N >= 2]
    return [m for m in candidates if all(map(keeps, site_permutations(basis, m)))]


def _stack(*matrices):
    """Matrices given as (column pointers, rows, values), side by side in one such triple."""
    offsets = np.cumsum([0] + [m[1].size for m in matrices])
    ptr = np.concatenate([m[0][:-1] + o for m, o in zip(matrices, offsets)] + [offsets[-1:]])
    return (ptr,) + tuple(np.concatenate([m[i] for m in matrices]) for i in (1, 2))


def _entries(matrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A jump's nonzero entries as (columns, rows, values), by column and then row.

    Indices are int64 whatever the storage's index dtype, so flat indices
    c * d + r cannot wrap.  A CSR jump is read off its canonical arrays, with
    stored zeros dropped; a dense one through the flat nonzeros of its
    transposed mask, twice as fast as ``np.nonzero`` of the complex transpose.
    """
    if isinstance(matrix, np.ndarray):
        c, r = np.divmod(np.flatnonzero(matrix.astype(bool).T), matrix.shape[0])
        return c, r, matrix[r, c]
    m = matrix.tocsr()
    if not m.has_canonical_format:
        m = m.copy()
        m.sum_duplicates()
    r = np.repeat(np.arange(m.shape[0]), np.diff(m.indptr))
    c, v = m.indices.astype(np.int64), m.data
    nonzero = np.flatnonzero(v)
    by_column = nonzero[np.argsort(c[nonzero], kind="stable")]  # rows stay ascending
    return c[by_column], r[by_column], v[by_column]


class _Sector:
    """The density-matrix elements evolve keeps, and L on their real coordinates.

    Element (i, j) has coherence order n(i) - n(j), with n the total
    excitation number.  A jump that shifts n by a fixed amount maps every
    order onto itself under O rho O^dag and O^dag O rho, so only the orders
    present in rho0 (closed under negation, for the adjoint) are kept.  A
    jump without a fixed shift mixes orders, and then every element is
    kept.  ``lowering`` says that every active jump shifts n by a fixed
    amount <= 0.  Then an element is fed only from elements at least as
    high, so those above the highest n on rho0's support stay zero and are
    dropped too.  ``keys`` holds the kept flat indices i * d + j in
    increasing order.  L keeps Hermiticity, so ``liouvillian`` is a real
    map on the coordinates rho_ii, sqrt(2) Re rho_ij and sqrt(2) Im rho_ij
    of the kept i < j (the coherence vector of Alicki & Lendi, LNP 286
    (1987)), whose Euclidean norm is the Frobenius norm of rho.  The Im ones
    stay zero, and are dropped, when every jump and rho0 are real.

    A real sector merges orbits.  A full-backend domain of N >= 2 spins is
    exchangeable when a swap of two of its sites and the cycle of all N map
    the jumps onto themselves and keep rho0 (``_exchangeable``).  L then
    commutes with those permutations, so the state stays constant on each
    orbit of elements under them and the transpose: an orbit is labelled,
    per exchangeable domain, by the counts of its (1, 1), (1, 0) and (0, 1)
    site-bit pairs, and per other domain by its local indices.  An orbit of
    n_k members is one coordinate, y_k = sqrt(n_k) times the members' common
    coordinate, so Tr rho sums sqrt(n_k) y_k over the diagonal orbits
    (``trace``) and the Euclidean norm of the coordinates stays the
    Frobenius norm of rho.  Otherwise every orbit is one element.  The coordinates run by
    ``levels`` n(i) + n(j), highest first.

    L is assembled in one pass.  Every jump's nonzero entries are read once
    into stacked arrays, from which come the shifts, A = sum r O^dag O
    (CSC, duplicates summed) and the K + 2 slots of one ``_term`` call: 2 r
    O rho O^dag per jump, then -A rho and -rho A.  Each is expanded on the
    kept elements and taken into the coordinates, slot by slot, and
    ``_CSR.from_coo`` sums them in that order.  S, the map from the
    coordinates to the elements, is built from its arrays.  Column k is expanded from one
    representative member of its orbit, scaled by n_k.  That is exact: a site permutation or the
    transpose maps any member onto any other, commutes with L (the jumps
    are real and mapped onto themselves), and leaves every coordinate's
    Hermitian matrix unchanged, so all n_k members feed column k alike.
    """

    def __init__(self, eq: MasterEquation, rho0: np.ndarray):
        d = eq.basis.dim
        n = excitation_numbers(eq.basis)
        # every active jump's entries times sqrt(rate), stacked: jump k's column c is
        # column k * d + c of (column pointers, rows, values)
        read = [(math.sqrt(t.rate),) + _entries(t.jump.matrix) for t in eq.terms if t.rate]
        K, count = len(read), [r.size for _, _, r, _ in read]
        c, r = (np.concatenate([e[i] for e in read] or [np.zeros(0, int)]) for i in (1, 2))
        v = np.concatenate([s * e for s, *_, e in read] or [np.zeros(0, complex)])
        jump = np.repeat(np.arange(K), count)
        jumps = np.searchsorted(jump * d + c, np.arange(K * d + 1)), r, v
        # a jump's shift is fixed when its least and greatest agree; one without entries keeps n
        low, high = np.full(K, np.inf), np.full(K, -np.inf)
        first = np.flatnonzero(np.diff(jump, prepend=-1))  # each jump's first entry, if any
        low[jump[first]] = np.minimum.reduceat(n[r] - n[c], first)
        high[jump[first]] = np.maximum.reduceat(n[r] - n[c], first)
        # A = sum r O^dag O: entries (i, a, u), (i, b, v) of one row of one jump give conj(u) v
        # at (a, b); summed in the order of the jumps and their rows, by column (CSC); a
        # zero sum feeds no entry of L
        by_row = np.argsort(jump * d + r, kind="stable")
        bound = np.searchsorted((jump * d + r)[by_row], np.arange(K * d + 1))
        _, x, y = _pairs(bound[:-1], bound[1:], bound[:-1], bound[1:])
        x, y = by_row[x], by_row[y]
        A = _CSR.from_coo(c[y], c[x], v[x].conj() * v[y], (d, d))
        i, j = np.nonzero(rho0)
        orders = {int(q) for q in n[i] - n[j]}
        orders = orders | {-q for q in orders} if np.all(low >= high) else None
        self.lowering = orders is not None and bool(np.all(high <= 0))
        top = n[i].max() if self.lowering else n.max()
        levels = [np.flatnonzero(n == k) for k in np.unique(n) if k <= top]
        keys = np.sort(np.concatenate([
            (a[:, None] * d + b[None, :]).ravel()
            for a in levels
            for b in levels
            if orders is None or int(n[a[0]] - n[b[0]]) in orders
        ]))
        self.d, self.basis, self.keys = d, eq.basis, keys
        rows, cols = keys // d, keys % d

        # coordinate k sums Re(conj(w) rho[p] + w rho[q]) / sqrt(n_k) over the n_k members
        # p = (i, j), i <= j, of its orbit, with q the mirror (j, i) of p; w is 1/2 on the
        # diagonal, 1/sqrt(2) for Re, i/sqrt(2) for Im
        p = np.flatnonzero(rows <= cols)
        q = np.searchsorted(keys, cols[p] * d + rows[p])
        w = np.where(p == q, 0.5, math.sqrt(0.5)).astype(complex)
        if np.any(rho0.imag) or np.any(v.imag):
            off = p != q
            p, q = np.concatenate([p, p[off]]), np.concatenate([q, q[off]])
            w = np.concatenate([w, 1j * w[off]])
            swaps = []
        else:
            swaps = _exchangeable(eq.basis, (jump, c, r, v), rho0, (i, j))
        # p shares its orbit with the elements that a site permutation of the domains
        # ``swaps``, or the transpose, maps it onto; otherwise it is alone
        label = np.arange(p.size) if not swaps else np.minimum(
            exchange_labels(eq.basis, swaps, rows[p], cols[p]),
            exchange_labels(eq.basis, swaps, cols[p], rows[p]),
        )
        _, first, orbit, size = np.unique(
            label, return_index=True, return_inverse=True, return_counts=True
        )
        level = n[rows[p]] + n[cols[p]]
        order = np.lexsort((first, p[first], -level[first]))
        first, root = first[order], np.sqrt(size[order])
        k = np.argsort(order)[orbit]  # each member's coordinate
        # every member feeds its coordinate's column alike, so one stands in for all n_k
        rep_rows, rep_cols, rep_scale = rows[p[first]], cols[p[first]], 2 * w[first] * root
        self.levels = level[first]
        on_diagonal = p[first] == q[first]
        self.diagonal, self._roots = np.flatnonzero(on_diagonal), root[on_diagonal]
        members = np.lexsort((p, k))  # by coordinate, then element
        p, q, k = p[members], q[members], k[members]
        w = w[members] / root[k]
        # S has w at (p, k) and conj(w) at (q, k); on the diagonal they sum to 2w, exactly
        mirror = p != q
        e, k = np.concatenate([p, q[mirror]]), np.concatenate([k, k[mirror]])
        w = np.concatenate([np.where(mirror, w, 2 * w), w[mirror].conj()])
        by_element = np.lexsort((k, e))
        indptr = np.searchsorted(e[by_element], np.arange(keys.size + 1))
        S = _CSR(indptr, k[by_element], w[by_element], (keys.size, root.size))
        self._to_elements = S

        # each element's coordinates and weights: its row of S, padded with zero weights
        slot = indptr[:-1, None] + np.arange(np.diff(indptr).max())
        slot[slot >= indptr[1:, None]] = S.data.size  # the zero appended below
        to = np.append(S.indices, 0)[slot], np.append(S.data, 0)[slot]
        # slot s < K is jump s, 2 O rho O^dag; then -A rho and -rho A, with I as eye
        eye = np.arange(d + 1), np.arange(d), np.ones(d)
        A = A.indptr, A.indices, A.data  # int64 rows: i * d + j cannot wrap
        offset = np.arange(K + 2)[:, None] * d
        scale = np.concatenate([np.full(K, 2.0), [-1.0, -1.0]])[:, None] * rep_scale
        a, b, x = self._term(
            _stack(jumps, A, eye), _stack(jumps, eye, A), (offset + rep_rows).ravel(),
            (offset + rep_cols).ravel(), scale.ravel(), to,
        )
        self.liouvillian = _CSR.from_coo(a, b, x, (root.size, root.size))

    def _term(self, X, Y, a, b, scale, to):
        """M: rho -> sum of X_s rho Y_s^dag over slots s on the coordinates, as COO.

        X, Y are (column pointers, rows, values), slot s's column c at s * d + c, and
        a, b, ``scale`` run slot-major.  L keeps Hermiticity, so column g is
        n_g Re(S^H M e_p 2 w / sqrt(n_g)) for the representative p = (a_g, b_g) of its
        orbit, with ``scale`` = 2 w sqrt(n_g) times the slot's weight: p feeds each
        (i, j) with X[i, a] conj(Y[j, b]), and (i, j) the coordinates in its row of S.
        """
        (xp, xi, xv), (yp, yi, yv), (coordinate, weights) = X, Y, to
        g, i, j = _pairs(xp[a], xp[a + 1], yp[b], yp[b + 1])
        target = xi[i] * self.d + yi[j]
        dst = np.searchsorted(self.keys, target)
        if np.any(self.keys[np.minimum(dst, self.keys.size - 1)] != target):
            raise NumericalFailure("a jump maps the kept coherence orders outside themselves")
        value = (scale[g] * xv[i] * yv[j].conj())[:, None]
        cols = np.repeat((g % self.levels.size).astype(np.int32), coordinate.shape[1])
        return coordinate[dst].ravel(), cols, (weights[dst].conj() * value).real.ravel()

    def readout(self, ob: Observable):
        """The map from the coordinates to ob's linear part, built once per run.

        Both parts are linear in the kept elements, which _to_elements gives:
        Tr(O rho) = sum O_ji rho_ij is one row, with O checked here, once; the
        flattened reduced state over ob.keep is the CSR map that sums the
        elements agreeing on every traced domain, by ascending element as
        partial_trace does: the concurrence's square roots turn a changed
        last bit into ~1e-9.
        """
        rows, cols = np.divmod(self.keys, self.d)
        if ob.operator is not None:
            op = _check_operator(ob.operator, self.basis)
            if isinstance(op, PureState):
                weights = op.amplitudes[rows].conj() * op.amplitudes[cols]
            else:
                weights = op.matrix[cols, rows]
            return self._to_elements.transposed_product(weights)
        idx = list(_check_domain_indices(self.basis, ob.keep))
        dims = np.array(self.basis.domain_dims)
        r, c = np.array(np.unravel_index(rows, dims)), np.array(np.unravel_index(cols, dims))
        kept = dims[idx]
        size = int(np.prod(kept))
        target = np.ravel_multi_index(r[idx], kept) * size + np.ravel_multi_index(c[idx], kept)
        traced = np.all(np.delete(r, idx, 0) == np.delete(c, idx, 0), axis=0)
        S, element = self._to_elements, self._to_elements.rows
        at = np.flatnonzero(traced[element])  # S's entries of the traced elements, in order
        shape = (size * size, S.shape[1])
        return _CSR.from_coo(target[element[at]], S.indices[at], S.data[at], shape)

    def trace(self, y: np.ndarray) -> np.ndarray:
        """Tr rho of coordinates y (one state per row): sqrt(n_k) y_k over the diagonal orbits."""
        return y[..., self.diagonal] @ self._roots

    def pack(self, matrix: np.ndarray) -> np.ndarray:
        """The coordinates of the Hermitian part of matrix."""
        return self._to_elements.transposed_product(matrix.reshape(-1)[self.keys].conj()).real

    def unpack(self, x: np.ndarray) -> np.ndarray:
        """The d x d matrix of real coordinates x; mirrored elements are exact conjugates."""
        out = np.zeros(self.d * self.d, dtype=complex)
        out[self.keys] = self._to_elements @ x
        return out.reshape(self.d, self.d)


class _LevelSweep:
    """One implicit Euler step y <- (I - h L)^-1 y on the sector, block by block.

    When every jump lowers n or keeps it (``_Sector.lowering``), a
    coordinate feeds only those of the same or a lower level n(i) + n(j),
    so L is block lower-triangular in the sector's order with one block per
    level; otherwise the whole sector is one block.  A step is forward
    substitution from x = 0: block b is x_b = inv_b (y_b + (h L)_b x), with
    inv_b the inverse of the block's diagonal part of I - h L, formed once,
    densely, and (h L)_b x the feed from the blocks before it.  Both come
    from the block's rows of L's CSR arrays: the entries inside the block
    fill I - h L_bb, and those in earlier columns are kept as (local row,
    column, h * value) and summed into the feed by ``np.bincount``.  Columns
    past the block hold no entries, as L is block lower-triangular, or the
    block is the whole sector.  A block above LEVEL_BLOCK_LIMIT coordinates
    raises MemoryGuardExceeded before anything is inverted.
    """

    def __init__(self, sector: _Sector, h: float):
        bounds = np.r_[0, np.flatnonzero(np.diff(sector.levels)) + 1, sector.levels.size]
        if not sector.lowering:
            bounds = bounds[[0, -1]]
        largest = int(np.diff(bounds).max())
        if largest > LEVEL_BLOCK_LIMIT:
            raise MemoryGuardExceeded(
                f"a steady-state block of {largest} coordinates needs a dense inverse of "
                f"{8 * largest**2} bytes; LEVEL_BLOCK_LIMIT is {LEVEL_BLOCK_LIMIT}"
            )
        L = sector.liouvillian
        rows = L.rows
        self.blocks = []
        for start, stop in zip(bounds[:-1], bounds[1:]):
            span = slice(L.indptr[start], L.indptr[stop])
            r, c, v = rows[span] - start, L.indices[span], h * L.data[span]
            inside = c >= start
            hL = np.zeros((stop - start, stop - start))
            hL[r[inside], c[inside] - start] = v[inside]
            inverse = np.linalg.inv(np.eye(stop - start) - hL)
            feed = r[~inside], c[~inside], v[~inside]
            self.blocks.append((start, stop, inverse, feed))

    def step(self, y: np.ndarray) -> np.ndarray:
        x = np.zeros_like(y)
        for start, stop, inverse, (r, c, v) in self.blocks:
            x[start:stop] = inverse @ (y[start:stop] + np.bincount(r, v * x[c], stop - start))
        return x


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


def _trace_drift(sector: _Sector, states: np.ndarray, times: np.ndarray, route: str) -> float:
    """The worst |Tr rho - 1| of the states (rows); the first above TRACE_DRIFT_TOL raises."""
    drift = np.abs(sector.trace(states) - 1.0)
    bad = np.flatnonzero(drift > TRACE_DRIFT_TOL)
    if bad.size:
        t, worst = times[bad[0]], drift[bad[0]]
        raise NumericalFailure(f"{route} state drifted at scaled time {t:.6g}: trace {worst:.3e}")
    return float(np.fmax.reduce(drift, initial=0.0))


class _Propagator:
    """Exact propagation y <- exp(h A) y of a vector by a dense matrix A.

    exp(h A) is formed when h differs from the last advance's and reused
    while it stays the same, so a run of equal intervals costs one exponential.
    Being exact, it is stable at any h, where an explicit integrator on a
    stiff matrix takes steps far below it.
    """

    def __init__(self, A: np.ndarray, y: np.ndarray):
        self.y, self._A = y, A
        self._h = self._P = None

    def advance(self, h: float):
        if h != self._h:
            self._h, self._P = h, _expm(h * self._A)
        self.y = self._P @ self.y


class _Krylov:
    """exp(s L) y for a sector above SECTOR_DENSE_LIMIT, by restarted Arnoldi.

    A substep starts from the state y at time t0 and builds an orthonormal
    basis V of the Krylov space of L at y, KRYLOV_DIM vectors by two-pass
    classical Gram-Schmidt, with H = V^T L V upper Hessenberg.  Then
    exp(s L) y ~ |y| V exp(s H) e_1 for s up to the substep.  Expokit's
    a-posteriori estimate (Saad, SIAM J. Numer. Anal. 29, 209 (1992); Sidje,
    ACM TOMS 24, 130 (1998)) on H augmented by two rows sets the substep: a
    failed estimate shrinks it, and the next substep is predicted from the
    last.  The estimate may reach 1.2 KRYLOV_TOL per substep, not per unit
    of time, so the error of a run grows with its substeps and not with its
    length (at 1e-12 per unit of time the trace drifts past TRACE_DRIFT_TOL
    by t ~ 5000).  As in Expokit no substep runs past the end of the run,
    which also bounds a prediction after a stretch of tiny estimates.

    Every sample inside an accepted substep is read off its basis, so
    samples never cut a substep short: a ``_Propagator`` on H carries e_1 to
    the substep's first sample, by its time from the start, and on to each
    later one, by the interval before it.  When V spans the whole sector, or
    the residual of the basis times |y| and the rest of the run is at most
    KRYLOV_TOL, the basis spans an invariant subspace to that accuracy (a
    happy breakdown) and serves every later sample.

    The first substep is set from ||H||_1 rather than ||L||, so it depends
    only on the Krylov space: orbit coordinates, an isometric image of the
    elements they merge, take the same substeps.  That guess is blind and
    often far too short (fig4-chain4: 0.016 with an estimate of 2e-42), so
    once it passes, the substep the estimate predicts is tried on the same
    basis, at the cost of one more exp(tau H), and kept if it passes too.

    L is taken into a scipy csr_array, imported here: its C product beats
    np.bincount 13.8 to 39.5 us at fig4-chain4's 771 coordinates.
    """

    def __init__(self, L: _CSR, y: np.ndarray, t_end: float):
        import scipy.sparse as sp

        self.y = y
        self._L = sp.csr_array((L.data, L.indices, L.indptr), shape=L.shape)
        self._t_end = float(t_end)
        self._next = 0.0  # the predicted substep; 0 before the first
        self.substeps = self.rejected = self.products = 0
        self.min_step, self.max_step = math.inf, 0.0
        self._restart(y, 0.0)

    def stats(self, worst_trace_drift: float) -> SolverStats:
        low = self.min_step if self.max_step > 0 else 0.0
        return SolverStats(
            self.substeps, self.rejected, self.products, worst_trace_drift, low, self.max_step
        )

    def _restart(self, y: np.ndarray, t0: float):
        """Build the basis at the state y of time t0 and accept a substep from it."""
        L, k = self._L, min(KRYLOV_DIM, y.size)
        beta, remaining = math.sqrt(y @ y), self._t_end - t0
        V = np.empty((k + 1, y.size))
        H = np.zeros((k + 2, k + 2))
        V[0] = y / beta
        self.substeps += 1
        self._start, self._beta, self._coefficients = t0, beta, None
        for j in range(k):
            W = V[: j + 1]
            p = L @ V[j]
            c = W @ p
            p -= c @ W
            c2 = W @ p
            p -= c2 @ W
            H[: j + 1, j] = c + c2
            s = math.sqrt(p @ p)
            if s * beta * remaining <= KRYLOV_TOL or j + 1 == y.size:  # happy breakdown
                self.products += j + 1
                self._V, self._H, self._span = W, H[: j + 1, : j + 1], math.inf
                return
            H[j + 1, j] = s
            np.multiply(p, 1.0 / s, out=V[j + 1])
        residual = float(np.linalg.norm(L @ V[k]))
        self.products += k + 1
        H[k + 1, k] = 1.0

        def estimate(tau):
            """exp(tau H), the estimated error of the substep tau, and its exponent."""
            F = _expm(tau * H)
            phi1, phi2 = abs(beta * F[k, 0]), abs(beta * F[k + 1, 0]) * residual
            if phi1 > 10 * phi2:
                err, xm = phi2, 1 / k
            elif phi1 > phi2:
                err, xm = phi1 * phi2 / (phi1 - phi2), 1 / k
            else:
                err, xm = phi1, 1 / (k - 1)
            return F, max(float(err), np.finfo(float).tiny), xm

        first, tau = self._next == 0.0, self._next
        if first:  # Expokit's first guess, with ||H||_1 for ||L||
            norm = float(np.abs(H).sum(axis=0).max())
            log_fact = (k + 1) * math.log((k + 1) / math.e) + 0.5 * math.log(2 * math.pi * (k + 1))
            tau = (KRYLOV_TOL / (4 * beta * norm)) ** (1 / k) * math.exp(log_fact / k) / norm
        tau = min(tau, remaining)
        while True:
            F, err, xm = estimate(tau)
            if err <= 1.2 * KRYLOV_TOL:
                break
            self.rejected += 1
            tau *= 0.9 * (KRYLOV_TOL / err) ** xm
            if tau < np.finfo(float).eps * max(1.0, t0):
                raise IntegrationFailure(
                    f"Krylov substep underflow at scaled time {t0:.6g} "
                    f"(estimated error {err:.3e})"
                )
        if first:  # try the predicted substep once on this basis
            trial = min(0.9 * tau * (KRYLOV_TOL / err) ** xm, remaining)
            if trial > tau:
                trial_F, trial_err, trial_xm = estimate(trial)
                if trial_err <= 1.2 * KRYLOV_TOL:
                    tau, F, err, xm = trial, trial_F, trial_err, trial_xm
        if tau < remaining:  # a substep cut short by the end of the run is left out
            self.min_step, self.max_step = min(self.min_step, tau), max(self.max_step, tau)
        self._next = 0.9 * tau * (KRYLOV_TOL / err) ** xm
        self._V, self._H, self._span, self._end = V, H, tau, F[:, 0]

    def advance_to(self, target: float, h: float):
        """Move y to the sample at time target, h after the sample before it."""
        while target - self._start > self._span:
            y = self._beta * (self._end[: self._V.shape[0]] @ self._V)
            self._restart(y, self._start + self._span)
        if self._coefficients is None:  # the substep's first sample is read from its start
            self._coefficients = _Propagator(self._H, np.eye(self._H.shape[0])[0])
            h = target - self._start
        self._coefficients.advance(h)
        self.y = self._beta * (self._coefficients.y[: self._V.shape[0]] @ self._V)


# ---------------------------------------------------------------------------
# high-level drivers
# ---------------------------------------------------------------------------


def _sample_grid(t_max: float, sample_dt: float) -> tuple[np.ndarray, list[float]]:
    """The sample times, and the interval before each (0.0 before the first).

    Sample i sits at i * sample_dt, sample_dt after the one before; t_max is
    appended, after the shorter interval left, when it falls between two of them.
    """
    t_max, sample_dt = float(t_max), float(sample_dt)
    n = int(math.floor(t_max / sample_dt + 1e-9))
    ts, steps = [i * sample_dt for i in range(n + 1)], [0.0] + [sample_dt] * n
    if t_max - ts[-1] > 1e-9 * max(1.0, t_max):
        steps.append(t_max - ts[-1])
        ts.append(t_max)
    return np.asarray(ts), steps


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
    sample.

    The state is the real Hermitian coordinates of rho0's coherence orders,
    one per site-permutation orbit where the run has that symmetry (see
    ``_Sector``).  Each sample is reached across the interval before it,
    sample_dt or a shorter last one.  Up to SECTOR_DENSE_LIMIT coordinates
    the exact ``_Propagator`` exp(h L) carries the state, and ``stats`` is
    None.  Above, Krylov substeps carry it (``_Krylov``), each to an
    estimated error of KRYLOV_TOL in the Frobenius norm, and ``stats``
    records the substeps, rejections and products with L they took.  Every
    sample after the first is checked for trace drift, on either route; the
    first that drifted is named.

    The loop only stores each sample's coordinates; all checks and reads
    come after it.  Observables, operators and ``keep`` are read off the
    stored samples by one map per distinct linear part
    (``_Sector.readout``), one product each per run, and the measures run
    once, over all samples.  Only other callables see the d x d matrix,
    unpacked at every sample for them; otherwise ``final_rho`` is the one
    unpack.
    """
    if rho0.basis != eq.basis:
        raise ValueError(f"basis mismatch: {rho0.basis} vs {eq.basis}")
    if not (t_max > 0):
        raise ValueError(f"t_max must be positive, got {t_max!r}")
    if not (sample_dt > 0):
        raise ValueError(f"sample_dt must be positive, got {sample_dt!r}")
    if not math.isfinite(t_max / sample_dt):
        raise ValueError(f"sample_dt {sample_dt!r} gives no finite sample count up to {t_max!r}")
    observables = dict(observables or {})
    compiled, bare = {}, {}
    for name, ob in observables.items():
        if isinstance(ob, Operator):
            ob = Observable(lambda v, t: v, operator=ob)
        (compiled if isinstance(ob, Observable) else bare)[name] = ob
    snapshot = None if keep is None else Observable(lambda v, t: v, keep=tuple(keep))

    times, steps = _sample_grid(t_max, sample_dt)
    sector = _Sector(eq, rho0.matrix)
    y, L = sector.pack(rho0.matrix), sector.liouvillian
    dense = L.shape[0] <= SECTOR_DENSE_LIMIT
    if dense:
        solver, route = _Propagator(L.toarray(), y), "propagated"
    else:
        solver, route = _Krylov(L, y, times[-1]), "Krylov"
    maps = {}
    for ob in list(compiled.values()) + ([] if snapshot is None else [snapshot]):
        if ob.part not in maps:
            maps[ob.part] = sector.readout(ob)

    states = np.empty((times.size, y.size))
    states[0] = y
    for k in range(1, times.size):
        if dense:
            solver.advance(steps[k])
        else:
            solver.advance_to(float(times[k]), steps[k])
        states[k] = solver.y
    worst_drift = _trace_drift(sector, states[1:], times[1:], route)
    linear = {part: (R @ states.T).T for part, R in maps.items()}
    series = {name: np.empty(times.size) for name in bare}
    for k, y in enumerate(states if bare else ()):
        # Solver output carries integrator-scale noise; eigenvalues may dip a
        # few 1e-9 below zero for large systems, which validation would reject.
        current = DensityMatrix(sector.unpack(y), eq.basis, validate=False)
        for name, fn in bare.items():
            series[name][k] = float(fn(current))
    series.update({name: ob.evaluate(linear[ob.part], times) for name, ob in compiled.items()})
    snapshots = None
    if snapshot is not None:
        sub = eq.basis.subset(snapshot.keep)
        stack = snapshot.evaluate(linear[snapshot.part])
        snapshots = [DensityMatrix(x, sub, validate=False) for x in stack]
    return Trajectory(
        times=times,
        observables={name: series[name] for name in observables},
        snapshots=snapshots,
        final_rho=DensityMatrix(sector.unpack(states[-1]), eq.basis, validate=False),
        stats=None if dense else solver.stats(worst_drift),
        residual=float(np.linalg.norm(L @ states[-1])),
    )


def steady_state(
    eq: MasterEquation,
    rho0: DensityMatrix,
    tol: float = STEADY_STATE_TOL,
) -> SteadyStateResult:
    """The state rho0 relaxes to, found when the right-hand side is below tol.

    tol bounds the Frobenius norm of L rho, not the error in the state, which
    is about tol / gap for a spectral gap `gap`: 5.8e-8 for fig5c at T = 0.1 K
    (gap 1.5e-3) at the default tol of 1e-10.

    The stationary state depends on rho0: the dissipators share a degenerate
    dark manifold, and the limit keeps the weight rho0 gives each conserved
    quantity J (rho_inf = P_inf rho0, Albert & Jiang, Phys. Rev. A 89,
    022118 (2014)).  Implicit Euler steps y <- (I - h L)^-1 y on the sector
    coordinates at the fixed h = STEADY_STEP reach that limit: for any h > 0,
    (I - h L)^-1 = int_0^inf e^-s e^(s h L) ds is CPTP and every J satisfies
    J^dag (I - h L) = J^dag, so each step keeps the trace and every
    dark-state weight exactly, and a decaying mode shrinks by
    1 / |1 - h lambda| per step.  Each step is one sweep over the blocks of
    the sector (``_LevelSweep``): one per excitation level when every jump
    lowers n or keeps it, else the whole sector.  Raises ConvergenceFailure
    if the Frobenius norm of the right-hand side is still at or above tol
    after MAX_SWEEPS steps, and MemoryGuardExceeded, before inverting
    anything, if a block has more than LEVEL_BLOCK_LIMIT coordinates.
    """
    if rho0.basis != eq.basis:
        raise ValueError(f"basis mismatch: {rho0.basis} vs {eq.basis}")
    if not (tol > 0):
        raise ValueError(f"tol must be positive, got {tol!r}")
    sector = _Sector(eq, rho0.matrix)
    y = sector.pack(rho0.matrix)
    residual = float(np.linalg.norm(sector.liouvillian @ y))
    if residual < tol:
        return SteadyStateResult(rho0, residual)
    sweep = _LevelSweep(sector, STEADY_STEP)
    for steps in range(1, MAX_SWEEPS + 1):
        y = sweep.step(y)
        _trace_drift(sector, y[None], [steps * STEADY_STEP], "implicit Euler")
        residual = float(np.linalg.norm(sector.liouvillian @ y))
        if residual < tol:
            rho = DensityMatrix(sector.unpack(y), eq.basis, validate=False)
            return SteadyStateResult(rho, residual, steps)
    raise ConvergenceFailure(
        f"residual {residual:.3e} still above {tol:.1e} after {MAX_SWEEPS} sweeps"
    )


def _check_operator(op, basis: BasisDescriptor):
    """op, once its basis and, for an Operator, its Hermiticity are checked."""
    if op.basis != basis:
        raise ValueError(f"basis mismatch: {basis} vs {op.basis}")
    if isinstance(op, Operator):
        dev = op.matrix - op.matrix.conj().T
        herm = abs(dev).max()
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
