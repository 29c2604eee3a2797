"""State spaces, collective spin operators, and product/trace machinery.

Two interchangeable backends describe a system of spin domains (ensembles
of N identical spin-1/2 particles):

* ``collective`` -- each domain is restricted to its maximal-spin symmetric
  ladder (j = N/2), dimension N+1 per domain.  Valid whenever the dynamics
  only involves collective raising/lowering and the initial state is a
  product of symmetric (Dicke) domain states.
* ``full`` -- each domain carries its complete 2**N product space.  Needed
  for per-spin noise and for initial states with weight outside the
  symmetric sector.

Basis ordering is fixed so that serialized matrices are comparable across
runs:

* domains appear in declaration order (tensor/kron order);
* collective backend: level index i within a domain corresponds to the
  Jz eigenvalue m = N/2 - i, so index 0 is the fully excited level and
  index N the ground level;
* full backend: basis states are bitstrings with site 0 as the most
  significant bit and up = 0, down = 1, in lexicographic order.  Index 0
  is all-up, index 2**N - 1 is all-down.

With these conventions the global ground state is the last basis vector
in either backend.

Density matrices are always stored dense.  Every operator builder, in
either backend, and both basis conversions return a dense ndarray up to
dimension ``DENSE_LIMIT`` and a CSR array above it.  ``scipy.sparse`` is
imported only when an operator above ``DENSE_LIMIT`` or a backend isometry
is built.

The jump operators, Jz, single-spin sigma_z and the backend isometry are
built by placing their entries at indices computed from the basis
ordering, with no Kronecker products; ``_place`` applies the storage rule.
``embed`` (a Kronecker product with identities on the other domains)
serves the observables, such as a domain's Jz.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING, Iterable, Sequence, Union

import numpy as np

from .errors import NumericalFailure

if TYPE_CHECKING:
    import scipy.sparse as sp

# Dense/sparse storage cutoff for operators (total Hilbert dimension).
DENSE_LIMIT = 256

# Tolerances for state validation.
HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-8
EIGENVALUE_FLOOR = -1e-9
NORM_TOL = 1e-12

MatrixLike = Union[np.ndarray, "sp.csr_array"]


class Backend(enum.Enum):
    COLLECTIVE = "collective"
    FULL = "full"


def _domain_dim(pop: int, backend: Backend) -> int:
    return pop + 1 if backend is Backend.COLLECTIVE else 2**pop


@dataclass(frozen=True)
class BasisDescriptor:
    """Backend choice plus the ordered list of domain populations."""

    backend: Backend
    domain_pops: tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.backend, Backend):
            raise ValueError(f"unknown backend: {self.backend!r}")
        if len(self.domain_pops) == 0:
            raise ValueError("at least one domain is required")
        for n in self.domain_pops:
            if not isinstance(n, (int, np.integer)) or n < 1:
                raise ValueError(f"domain population must be a positive integer, got {n!r}")
        object.__setattr__(self, "domain_pops", tuple(int(n) for n in self.domain_pops))

    @property
    def domain_dims(self) -> tuple[int, ...]:
        return tuple(_domain_dim(n, self.backend) for n in self.domain_pops)

    @property
    def dim(self) -> int:
        return math.prod(self.domain_dims)

    @property
    def num_domains(self) -> int:
        return len(self.domain_pops)

    def subset(self, keep: Sequence[int]) -> "BasisDescriptor":
        """Descriptor for the reduced space over the kept domains (original order)."""
        keep = _check_domain_indices(self, keep)
        return BasisDescriptor(self.backend, tuple(self.domain_pops[i] for i in keep))

    def counterpart(self) -> "BasisDescriptor":
        """Same domains in the other backend."""
        other = Backend.FULL if self.backend is Backend.COLLECTIVE else Backend.COLLECTIVE
        return BasisDescriptor(other, self.domain_pops)


def single_domain_basis(pop: int, backend: Backend) -> BasisDescriptor:
    return BasisDescriptor(backend, (pop,))


def _check_domain_indices(basis: BasisDescriptor, domains: Iterable[int]) -> tuple[int, ...]:
    idx = tuple(sorted(set(int(m) for m in domains)))
    if not idx:
        raise ValueError("domain index set must be nonempty")
    if idx[0] < 0 or idx[-1] >= basis.num_domains:
        raise ValueError(f"domain indices {idx} out of range for {basis.num_domains} domains")
    return idx


@dataclass(frozen=True)
class Operator:
    """A square matrix together with the basis it is expressed in."""

    matrix: MatrixLike
    basis: BasisDescriptor

    def __post_init__(self):
        d = self.basis.dim
        if self.matrix.shape != (d, d):
            raise ValueError(
                f"operator shape {self.matrix.shape} does not match basis dimension {d}"
            )

    @property
    def is_sparse(self) -> bool:
        return not isinstance(self.matrix, np.ndarray)  # so scipy.sparse need not be loaded

    def toarray(self) -> np.ndarray:
        return self.matrix.toarray() if self.is_sparse else np.asarray(self.matrix)

    def dag(self) -> "Operator":
        """Adjoint operator (e.g. raising from lowering)."""
        if self.is_sparse:
            return Operator(self.matrix.conj().T.tocsr(), self.basis)
        return Operator(self.matrix.conj().T.copy(), self.basis)


@dataclass(frozen=True)
class PureState:
    """Complex amplitude vector with basis metadata; unit norm enforced."""

    amplitudes: np.ndarray
    basis: BasisDescriptor

    def __post_init__(self):
        vec = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if vec.shape != (self.basis.dim,):
            raise ValueError(
                f"amplitude vector length {vec.size} does not match basis dimension {self.basis.dim}"
            )
        norm = np.linalg.norm(vec)
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state norm {norm} deviates from 1 beyond {NORM_TOL}")
        object.__setattr__(self, "amplitudes", vec)

    def projector(self) -> "DensityMatrix":
        """|psi><psi|, a state by construction: its eigenvalues are |psi|^2 = 1 and zeros."""
        matrix = np.outer(self.amplitudes, self.amplitudes.conj())
        return DensityMatrix(matrix, self.basis, validate=False)


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix with basis metadata.

    Validation checks Hermiticity (max-abs 1e-10), trace (within 1e-8 of 1)
    and the eigenvalue floor (-1e-9).  Solver outputs and states valid by
    construction (projectors on unit vectors, products and isometric images
    of states) pass ``validate=False``; matrices a caller supplies are checked.
    """

    matrix: np.ndarray
    basis: BasisDescriptor
    validate: bool = field(default=True, repr=False, compare=False)

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        d = self.basis.dim
        if mat.shape != (d, d):
            raise ValueError(f"matrix shape {mat.shape} does not match basis dimension {d}")
        object.__setattr__(self, "matrix", mat)
        if not self.validate:
            return
        herm = np.max(np.abs(mat - mat.conj().T))
        if herm > HERMITICITY_TOL:
            raise ValueError(f"matrix is not Hermitian: max deviation {herm:.3e}")
        tr = mat.trace()
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"trace {tr} deviates from 1 beyond {TRACE_TOL}")
        evals = np.linalg.eigvalsh(0.5 * (mat + mat.conj().T))
        if evals[0] < EIGENVALUE_FLOOR:
            raise ValueError(f"negative eigenvalue {evals[0]:.3e} below floor {EIGENVALUE_FLOOR}")


def _require_same_basis(a: BasisDescriptor, b: BasisDescriptor):
    if a != b:
        raise ValueError(f"basis mismatch: {a} vs {b}")


# ---------------------------------------------------------------------------
# collective operators
# ---------------------------------------------------------------------------


def _popcounts(num_bits: int) -> np.ndarray:
    """Number of set bits for every index below 2**num_bits."""
    return np.array([bin(i).count("1") for i in range(2**num_bits)], dtype=np.int64)


def excitation_numbers(basis: BasisDescriptor) -> np.ndarray:
    """Total number of excited spins in every basis state, in basis order.

    Collective backend: level index i of an N-spin domain holds N - i
    excitations.  Full backend: the number of up (0) bits.  Jump operators
    that change this count by a fixed amount conserve the coherence order
    n(i) - n(j) of density-matrix elements, which the integrator exploits.
    """
    total = np.zeros(1, dtype=np.int64)
    for N in basis.domain_pops:
        if basis.backend is Backend.COLLECTIVE:
            local = N - np.arange(N + 1, dtype=np.int64)
        else:
            local = N - _popcounts(N)
        total = (total[:, None] + local[None, :]).ravel()
    return total


def collective_lowering(N: int, backend: Backend) -> Operator:
    """Collective lowering operator J- for a single domain of N spins.

    Collective backend: ladder matrix with <j,m-1|J-|j,m> = sqrt(j(j+1) - m(m-1))
    for j = N/2.  Full backend: sum of single-site lowering operators.
    The adjoint of the result is the raising operator J+.  It is
    ``reservoir_jump`` on the one-domain basis, so one builder places the
    entries of every jump.
    """
    if not isinstance(N, (int, np.integer)) or N < 1:
        raise ValueError(f"spin count must be a positive integer, got {N!r}")
    if not isinstance(backend, Backend):
        raise ValueError(f"unknown backend: {backend!r}")
    return reservoir_jump(single_domain_basis(int(N), backend), [0])


def _ladder_element(N, level: np.ndarray) -> np.ndarray:
    """<j,m-1|J-|j,m> for j = N/2 at level index i (m = j - i), elementwise."""
    j = N / 2.0
    m = j - level  # levels m = j .. -j+1, each lowered to m-1
    return np.sqrt(j * (j + 1) - m * (m - 1))


def collective_jz(N: int, backend: Backend) -> Operator:
    """Collective Jz for a single domain: diagonal, N/2 minus the down-spins, in both backends."""
    if not isinstance(N, (int, np.integer)) or N < 1:
        raise ValueError(f"spin count must be a positive integer, got {N!r}")
    if not isinstance(backend, Backend):
        raise ValueError(f"unknown backend: {backend!r}")
    basis = single_domain_basis(int(N), backend)
    index = np.arange(basis.dim)
    downs = index if backend is Backend.COLLECTIVE else _popcounts(N)
    return Operator(_place(index, index, N / 2.0 - downs, basis.dim), basis)


# ---------------------------------------------------------------------------
# embedding and jump operators
# ---------------------------------------------------------------------------


def embed(op: Operator, basis: BasisDescriptor, m: int) -> Operator:
    """Embed a single-domain operator at domain m, identity elsewhere; CSR above DENSE_LIMIT."""
    if not 0 <= m < basis.num_domains:
        raise ValueError(f"domain index {m} out of range")
    dims = basis.domain_dims
    if op.basis.dim != dims[m]:
        raise ValueError(
            f"operator dimension {op.basis.dim} does not match domain {m} dimension {dims[m]}"
        )
    left = math.prod(dims[:m]) if m > 0 else 1
    right = math.prod(dims[m + 1 :]) if m + 1 < len(dims) else 1
    if basis.dim > DENSE_LIMIT:
        import scipy.sparse as sp
        mat = sp.csr_array(op.matrix)
        if left > 1:
            mat = sp.kron(sp.eye_array(left, dtype=complex, format="csr"), mat, format="csr")
        if right > 1:
            mat = sp.kron(mat, sp.eye_array(right, dtype=complex, format="csr"), format="csr")
        mat = sp.csr_array(mat)
    else:
        mat = op.toarray()
        if left > 1:
            mat = np.kron(np.eye(left, dtype=complex), mat)
        if right > 1:
            mat = np.kron(mat, np.eye(right, dtype=complex))
    return Operator(mat, basis)


def reservoir_jump(basis: BasisDescriptor, domains: Iterable[int]) -> Operator:
    """Summed collective lowering operator over the coupled domains.

    This is the jump operator of one engineered reservoir: all spins in the
    listed domains are indistinguishable to the bath, so the reservoir
    couples through the sum of their collective lowering operators.  Its
    entries are placed at computed indices, with the values of the summed
    embedded parts.  Full backend: sigma- over every site of the listed
    domains.  Collective backend: a listed domain of stride s lowers state i
    to i + s wherever its level is below N, by the ladder element of that
    level.  Both are dense up to DENSE_LIMIT and CSR above.
    """
    idx = _check_domain_indices(basis, domains)
    pops, dims, d = basis.domain_pops, basis.domain_dims, basis.dim
    if basis.backend is Backend.FULL:
        sites = [sum(pops[:m]) + s for m in idx for s in range(pops[m])]
        return Operator(_site_lowering(sum(pops), sites), basis)
    strides = np.array([math.prod(dims[m + 1 :]) for m in idx])
    level = np.arange(d)[:, None] // strides % np.array([dims[m] for m in idx])
    rows, k = np.nonzero(level)  # row by row, each row's columns ascending
    # the column sits one level above its row
    values = _ladder_element(np.array(pops)[list(idx)][k], level[rows, k] - 1)
    return Operator(_place(rows, rows - strides[k], values, d), basis)


def _place(rows: np.ndarray, cols: np.ndarray, values: np.ndarray, d: int) -> MatrixLike:
    """The complex d x d matrix holding values at (rows, cols): dense up to DENSE_LIMIT, CSR above.

    The rows ascend, each row's columns ascend and no place repeats, so the
    CSR arrays are built directly; their indices keep the dtype of cols.
    """
    if d <= DENSE_LIMIT:
        mat = np.zeros((d, d), dtype=complex)
        mat[rows, cols] = values
        return mat
    import scipy.sparse as sp
    indptr = np.searchsorted(rows, np.arange(d + 1)).astype(cols.dtype)
    return sp.csr_array((values.astype(complex), cols, indptr), shape=(d, d))


def _site_lowering(num_bits: int, positions: Iterable[int]) -> MatrixLike:
    """sigma- summed over the spins at the given bit positions: each flips its bit 0 (up) to 1.

    Row i holds a 1 at i - bit for every listed bit set in i.  The bits run
    from the highest down, so each row's columns ascend, as ``_place`` needs.
    """
    bits = 1 << (num_bits - 1 - np.sort(list(positions)))
    rows, k = np.nonzero(np.arange(2**num_bits)[:, None] & bits)
    return _place(rows, rows - bits[k], np.ones(rows.size), 2**num_bits)


def single_spin_lowering(basis: BasisDescriptor, domain: int, site: int) -> Operator:
    """sigma- acting on one physical spin (full backend only)."""
    _require_full_backend(basis, "single-spin operators")
    pos = _site_bit_position(basis, domain, site)
    return Operator(_site_lowering(sum(basis.domain_pops), [pos]), basis)


def single_spin_z(basis: BasisDescriptor, domain: int, site: int) -> Operator:
    """sigma_z on one physical spin (full backend only): +1 where its bit is 0 (up), else -1."""
    _require_full_backend(basis, "single-spin operators")
    bit = 1 << (sum(basis.domain_pops) - 1 - _site_bit_position(basis, domain, site))
    index = np.arange(basis.dim, dtype=np.int32)  # int32, as scipy stores indices that fit
    return Operator(_place(index, index, np.where(index & bit, -1.0, 1.0), basis.dim), basis)


def _require_full_backend(basis: BasisDescriptor, what: str):
    if basis.backend is not Backend.FULL:
        raise ValueError(f"{what} require the full backend")


def _site_bit_position(basis: BasisDescriptor, domain: int, site: int) -> int:
    if not 0 <= domain < basis.num_domains:
        raise ValueError(f"domain index {domain} out of range")
    if not 0 <= site < basis.domain_pops[domain]:
        raise ValueError(f"site index {site} out of range for domain {domain}")
    return sum(basis.domain_pops[:domain]) + site


def site_permutations(basis: BasisDescriptor, domain: int) -> tuple[np.ndarray, ...]:
    """Basis-index maps of swapping sites 0 and 1 of a full-backend domain, and of cycling its sites.

    State i goes to state perm[i] under each; together the two generate
    every permutation of the domain's sites.
    """
    _require_full_backend(basis, "site permutations")
    N = basis.domain_pops[domain]
    local = np.arange(2**N)
    differ = ((local >> (N - 1)) ^ (local >> (N - 2))) & 1  # sites 0 and 1 are bits N-1, N-2
    swap = local ^ differ * (3 << (N - 2))
    cycle = ((local << 1) | (local >> (N - 1))) & (2**N - 1)
    after = math.prod(basis.domain_dims[domain + 1 :])
    index = np.arange(basis.dim)
    old = index // after % 2**N
    return tuple(index + (perm[old] - old) * after for perm in (swap, cycle))


def exchange_labels(
    basis: BasisDescriptor, domains: Sequence[int], rows: np.ndarray, cols: np.ndarray
) -> np.ndarray:
    """One integer per element (rows, cols), equal on the orbits of the domains' site permutations.

    In each listed full-backend domain an element is labelled by how many
    of its site-bit pairs are (1, 1), (1, 0) and (0, 1); in every other
    domain by its local indices.
    """
    label = np.zeros(np.shape(rows), dtype=np.int64)
    r, c = np.unravel_index(rows, basis.domain_dims), np.unravel_index(cols, basis.domain_dims)
    for m, D in enumerate(basis.domain_dims):
        if m in domains:
            N, pops = basis.domain_pops[m], _popcounts(basis.domain_pops[m])
            both, ones = pops[r[m] & c[m]], pops[r[m]] * (N + 1) + pops[c[m]]
            code, radix = both * (N + 1) ** 2 + ones, (N + 1) ** 3
        else:
            code, radix = r[m] * D + c[m], D * D
        label = label * radix + code
    return label


# ---------------------------------------------------------------------------
# states
# ---------------------------------------------------------------------------


def dicke_level_vector(N: int, k: int, backend: Backend) -> np.ndarray:
    """Amplitudes of the symmetric Dicke state with k excited spins.

    Collective backend: the basis vector at level index N - k.  Full
    backend: the normalized superposition of all bitstrings with k up-spins.
    """
    if not 0 <= k <= N:
        raise ValueError(f"Dicke level k={k} outside [0, {N}]")
    if backend is Backend.COLLECTIVE:
        vec = np.zeros(N + 1, dtype=complex)
        vec[N - k] = 1.0
        return vec
    vec = np.zeros(2**N, dtype=complex)
    downs = N - k
    amp = 1.0 / math.sqrt(math.comb(N, downs))
    pops = _popcounts(N)
    vec[pops == downs] = amp
    return vec


def _bitstring_vector(N: int, spec: str) -> np.ndarray:
    s = spec.strip().lower()
    if len(s) != N or any(c not in "ud" for c in s):
        raise ValueError(f"bitstring {spec!r} must have {N} characters from 'u'/'d'")
    idx = 0
    for c in s:
        idx = (idx << 1) | (1 if c == "d" else 0)
    vec = np.zeros(2**N, dtype=complex)
    vec[idx] = 1.0
    return vec


LevelSpec = Union[int, str, np.ndarray, DensityMatrix]


def _domain_density(basis: BasisDescriptor, m: int, level: LevelSpec) -> np.ndarray:
    N = basis.domain_pops[m]
    dim = basis.domain_dims[m]
    if isinstance(level, DensityMatrix):
        if level.basis.domain_pops != (N,) or level.basis.backend is not basis.backend:
            raise ValueError(f"domain {m}: density matrix basis does not match")
        level = level.matrix
    if isinstance(level, np.ndarray):
        if level.shape != (dim, dim):
            raise ValueError(f"domain {m}: matrix shape {level.shape}, expected ({dim}, {dim})")
        try:
            return DensityMatrix(level, basis.subset([m])).matrix
        except ValueError as exc:
            raise ValueError(f"domain {m}: {exc}") from None
    if isinstance(level, str):
        if basis.backend is not Backend.FULL:
            raise ValueError("bitstring levels require the full backend")
        vec = _bitstring_vector(N, level)
        return np.outer(vec, vec.conj())
    if isinstance(level, (int, np.integer)):
        vec = dicke_level_vector(N, int(level), basis.backend)
        return np.outer(vec, vec.conj())
    raise ValueError(f"domain {m}: unsupported level specification {level!r}")


def product_state(basis: BasisDescriptor, levels: Sequence[LevelSpec]) -> DensityMatrix:
    """Tensor-product density matrix from per-domain levels.

    Each entry of ``levels`` is one of: an integer k (symmetric Dicke state
    with k excited spins), a bitstring of 'u'/'d' characters (full backend),
    or a single-domain density matrix (ndarray or DensityMatrix).

    A factor given as a matrix is validated as a DensityMatrix of its
    domain, and a bad one is refused with its domain named; a Dicke level or
    bitstring is the projector on a unit vector.  A Kronecker product of
    density matrices is one, so the product is not validated again (its
    d x d eigendecomposition would cost far more than the factors'); only
    its trace, where the factors' deviations multiply, is checked.
    """
    if len(levels) != basis.num_domains:
        raise ValueError(f"expected {basis.num_domains} levels, got {len(levels)}")
    out = None
    for m, level in enumerate(levels):
        dm = _domain_density(basis, m, level)
        out = dm if out is None else np.kron(out, dm)
    tr = out.trace()
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"product trace {tr} deviates from 1 beyond {TRACE_TOL}")
    return DensityMatrix(out, basis, validate=False)


def pure_product_state(
    basis: BasisDescriptor, levels: Sequence[Union[int, str, np.ndarray]]
) -> PureState:
    """Tensor-product pure state from per-domain Dicke levels, bitstrings, or
    explicit amplitude vectors (length = that domain's local dimension)."""
    if len(levels) != basis.num_domains:
        raise ValueError(f"expected {basis.num_domains} levels, got {len(levels)}")
    out = np.ones(1, dtype=complex)
    for m, level in enumerate(levels):
        N = basis.domain_pops[m]
        if isinstance(level, str):
            if basis.backend is not Backend.FULL:
                raise ValueError("bitstring levels require the full backend")
            vec = _bitstring_vector(N, level)
        elif isinstance(level, (int, np.integer)):
            vec = dicke_level_vector(N, int(level), basis.backend)
        elif isinstance(level, np.ndarray):
            vec = np.asarray(level, dtype=complex).ravel()
            if vec.size != basis.domain_dims[m]:
                raise ValueError(
                    f"domain {m}: amplitude vector has length {vec.size}, "
                    f"expected {basis.domain_dims[m]}"
                )
        else:
            raise ValueError(f"domain {m}: unsupported pure level {level!r}")
        out = np.kron(out, vec)
    return PureState(out, basis)


def ground_state(basis: BasisDescriptor) -> DensityMatrix:
    """All spins down; the last basis vector in either backend."""
    return product_state(basis, [0] * basis.num_domains)


def partial_trace(rho: DensityMatrix, keep: Iterable[int]) -> DensityMatrix:
    """Reduced density matrix over the kept domains, in original order."""
    keep_idx = _check_domain_indices(rho.basis, keep)
    dims = rho.basis.domain_dims
    M = len(dims)
    if len(keep_idx) == M:
        return rho
    tensor = rho.matrix.reshape(dims + dims)
    # einsum subscripts: traced domains share a row/column index
    row = [chr(ord("a") + i) for i in range(M)]
    col = [chr(ord("A") + i) for i in range(M)]
    for i in range(M):
        if i not in keep_idx:
            col[i] = row[i]
    out_sub = "".join(row[i] for i in keep_idx) + "".join(col[i] for i in keep_idx)
    reduced = np.einsum("".join(row) + "".join(col) + "->" + out_sub, tensor)
    sub_basis = rho.basis.subset(keep_idx)
    d = sub_basis.dim
    return DensityMatrix(reduced.reshape(d, d), sub_basis, validate=rho.validate)


def fidelity_with_pure(rho: DensityMatrix, psi: PureState) -> float:
    """<psi|rho|psi>, a real number in [0, 1]."""
    _require_same_basis(rho.basis, psi.basis)
    val = np.vdot(psi.amplitudes, rho.matrix @ psi.amplitudes)
    if abs(val.imag) > 1e-10:
        raise NumericalFailure(f"fidelity has imaginary residue {val.imag:.3e}")
    return float(min(1.0, max(0.0, val.real)))


def trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Half the trace norm of rho - sigma."""
    _require_same_basis(rho.basis, sigma.basis)
    diff = rho.matrix - sigma.matrix
    evals = np.linalg.eigvalsh(0.5 * (diff + diff.conj().T))
    return 0.5 * float(np.sum(np.abs(evals)))


# ---------------------------------------------------------------------------
# backend conversion through the symmetric-subspace isometry
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def symmetric_isometry(N: int) -> sp.csr_array:
    """Isometry from the (N+1)-level collective ladder into the 2**N space.

    Column i (level m = N/2 - i) maps to the equal-weight superposition of
    all bitstrings with i down-spins.  Columns are orthonormal, so
    S.conj().T @ S is the identity on the collective space.
    """
    import scipy.sparse as sp
    if N < 1:
        raise ValueError("spin count must be >= 1")
    pops = _popcounts(N)
    rows = np.arange(2**N)
    cols = pops
    data = np.array([1.0 / math.sqrt(math.comb(N, int(i))) for i in pops], dtype=complex)
    return sp.csr_array((data, (rows, cols)), shape=(2**N, N + 1))


def basis_isometry(basis: BasisDescriptor) -> sp.csr_array:
    """Kron product of per-domain symmetric isometries for a collective basis.

    Maps collective-backend coordinates into the full backend; shape
    (full_dim, collective_dim).  Each full index has one entry: its column
    holds every domain's down-spin count, and its value is the product of
    the domains' weights, taken in domain order as the Kronecker product
    takes it.
    """
    import scipy.sparse as sp
    if basis.backend is not Backend.COLLECTIVE:
        raise ValueError("basis_isometry expects a collective-backend basis")
    full = basis.counterpart().dim
    states = np.arange(full)
    shift = sum(basis.domain_pops)
    cols, values = np.zeros(full, dtype=np.int64), np.ones(full, dtype=complex)
    for N in basis.domain_pops:
        S = symmetric_isometry(N)  # one entry per row: S.indices and S.data are by row
        shift -= N
        local = (states >> shift) & (2**N - 1)
        cols = cols * (N + 1) + S.indices[local]
        values = values * S.data[local]
    return sp.csr_array((values, cols, np.arange(full + 1)), shape=(full, basis.dim))


def to_full_basis(obj):
    """Map a collective-backend state or operator into the full backend.

    S rho S^dag is a state whenever rho is: it is not checked again, and keeps rho's flag.
    """
    import scipy.sparse as sp
    S = basis_isometry(obj.basis)
    target = obj.basis.counterpart()
    if isinstance(obj, PureState):
        return PureState(S @ obj.amplitudes, target)
    if isinstance(obj, DensityMatrix):
        out = DensityMatrix(S @ obj.matrix @ S.conj().T.toarray(), target, validate=False)
        object.__setattr__(out, "validate", obj.validate)
        return out
    if isinstance(obj, Operator):
        return Operator(_by_size(S @ sp.csr_array(obj.matrix) @ S.conj().T), target)
    raise ValueError(f"cannot convert {type(obj).__name__}")


def to_collective_basis(obj):
    """Project a full-backend state or operator onto the symmetric sector.

    Faithful (trace/norm preserving) only when the input is supported on
    the symmetric sector of every domain; the resulting state validation
    catches leakage outside it.
    """
    import scipy.sparse as sp
    if obj.basis.backend is not Backend.FULL:
        raise ValueError("to_collective_basis expects a full-backend input")
    target = obj.basis.counterpart()
    S = basis_isometry(target)
    Sd = S.conj().T.tocsr()
    if isinstance(obj, PureState):
        return PureState(Sd @ obj.amplitudes, target)
    if isinstance(obj, DensityMatrix):
        return DensityMatrix((Sd @ obj.matrix) @ S.toarray(), target)
    if isinstance(obj, Operator):
        return Operator(_by_size(Sd @ sp.csr_array(obj.matrix) @ S), target)
    raise ValueError(f"cannot convert {type(obj).__name__}")


def _by_size(mat: "sp.sparray") -> MatrixLike:
    """A sparse d x d product in the storage of the rule: dense up to DENSE_LIMIT, CSR above."""
    import scipy.sparse as sp
    return mat.toarray() if mat.shape[0] <= DENSE_LIMIT else sp.csr_array(mat)
