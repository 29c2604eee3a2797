import math
import re
import types
from itertools import combinations, permutations

import numpy as np
import pytest
import scipy.sparse as sp

from qlre import hilbert
from qlre.errors import NumericalFailure
from qlre.hilbert import (
    DENSE_LIMIT,
    Backend,
    BasisDescriptor,
    DensityMatrix,
    Operator,
    PureState,
    basis_isometry,
    collective_jz,
    collective_lowering,
    dicke_level_vector,
    embed,
    exchange_labels,
    excitation_numbers,
    fidelity_with_pure,
    ground_state,
    partial_trace,
    product_state,
    pure_product_state,
    reservoir_jump,
    single_spin_lowering,
    single_spin_z,
    site_permutations,
    symmetric_isometry,
    to_collective_basis,
    to_full_basis,
    trace_distance,
)


def dense(op):
    return op.toarray() if hasattr(op, "toarray") else np.asarray(op)


def assert_same_matrix(actual, expected):
    """Equal storage, and equal entries at equal places: CSR arrays compared one by one."""
    assert type(actual) is type(expected)
    assert actual.shape == expected.shape and actual.dtype == expected.dtype
    if sp.issparse(expected):
        assert np.array_equal(actual.indptr, expected.indptr)
        assert np.array_equal(actual.indices, expected.indices)
        assert np.array_equal(actual.data, expected.data)
    else:
        assert np.array_equal(actual, expected)


class TestBasisDescriptor:
    def test_dims_collective(self):
        b = BasisDescriptor(Backend.COLLECTIVE, (2, 3, 1))
        assert b.domain_dims == (3, 4, 2)
        assert b.dim == 24

    def test_dims_full(self):
        b = BasisDescriptor(Backend.FULL, (2, 3))
        assert b.domain_dims == (4, 8)
        assert b.dim == 32

    @pytest.mark.parametrize("pops", [(), (0,), (-1, 2), (2.5,)])
    def test_invalid_populations(self, pops):
        with pytest.raises(ValueError):
            BasisDescriptor(Backend.COLLECTIVE, pops)

    def test_subset_preserves_order(self):
        b = BasisDescriptor(Backend.COLLECTIVE, (1, 4, 2))
        assert b.subset([2, 0]).domain_pops == (1, 2)


class TestCollectiveOperators:
    def test_ladder_n2_elements(self):
        # j = 1 ladder: <0|J-|1> = <−1|J-|0> = sqrt(2)
        Jm = collective_lowering(2, Backend.COLLECTIVE).toarray()
        expected = np.zeros((3, 3))
        expected[1, 0] = expected[2, 1] = math.sqrt(2)
        assert np.allclose(Jm, expected)

    def test_ladder_n1_is_sigma_minus(self):
        Jm = collective_lowering(1, Backend.COLLECTIVE).toarray()
        assert np.allclose(Jm, [[0, 0], [1, 0]])

    @pytest.mark.parametrize("N", range(1, 7))
    @pytest.mark.parametrize("backend", [Backend.COLLECTIVE, Backend.FULL])
    def test_su2_commutators(self, N, backend):
        Jm = dense(collective_lowering(N, backend).matrix)
        Jp = Jm.conj().T
        Jz = dense(collective_jz(N, backend).matrix)
        assert np.allclose(Jp @ Jm - Jm @ Jp, 2 * Jz)
        assert np.allclose(Jz @ Jm - Jm @ Jz, -Jm)

    @pytest.mark.parametrize("N", range(1, 7))
    def test_casimir_on_ladder(self, N):
        # J^2 = j(j+1) identity on the maximal-spin ladder
        Jm = collective_lowering(N, Backend.COLLECTIVE).toarray()
        Jp = Jm.conj().T
        Jz = collective_jz(N, Backend.COLLECTIVE).toarray()
        J2 = 0.5 * (Jp @ Jm + Jm @ Jp) + Jz @ Jz
        j = N / 2
        assert np.allclose(J2, j * (j + 1) * np.eye(N + 1))

    @pytest.mark.parametrize("N", range(1, 6))
    def test_full_backend_matches_conjugated_ladder(self, N):
        S = symmetric_isometry(N)
        Jm_full = collective_lowering(N, Backend.FULL).matrix
        projected = dense(S.conj().T @ Jm_full @ S)
        assert np.allclose(projected, collective_lowering(N, Backend.COLLECTIVE).toarray())

    def test_full_jump_is_dense_up_to_the_limit(self):
        assert not collective_lowering(8, Backend.FULL).is_sparse  # d = 256
        assert collective_lowering(9, Backend.FULL).is_sparse  # d = 512

    def test_jz_diagonals(self):
        assert np.allclose(np.diag(collective_jz(2, Backend.COLLECTIVE).toarray()), [1, 0, -1])
        assert np.allclose(
            np.diag(dense(collective_jz(2, Backend.FULL).matrix)), [1, 0, 0, -1]
        )

    @pytest.mark.parametrize("bad", [0, -3, 1.5])
    def test_bad_spin_count(self, bad):
        with pytest.raises(ValueError):
            collective_lowering(bad, Backend.COLLECTIVE)

    @pytest.mark.parametrize("build", [collective_lowering, collective_jz])
    @pytest.mark.parametrize(
        "N, backend",
        [(0, Backend.COLLECTIVE), (-3, Backend.FULL), (1.5, Backend.COLLECTIVE), (2, "full")],
    )
    def test_bad_spin_count_or_backend(self, build, N, backend):
        with pytest.raises(ValueError):
            build(N, backend)

    def test_dicke_weights_are_shared_and_read_only(self):
        weights = hilbert._dicke_weights(3)
        before = weights.copy()
        with pytest.raises(ValueError):
            weights[0] = 2.0
        dicke_level_vector(3, 1, Backend.FULL)[:] = 7.0
        symmetric_isometry.cache_clear()  # a fresh S, built from the shared weights
        symmetric_isometry(3).data[:] = 5.0
        symmetric_isometry.cache_clear()
        assert hilbert._dicke_weights(3) is weights
        assert np.array_equal(weights, before)
        one_up = np.zeros(8)
        one_up[[3, 5, 6]] = 1 / math.sqrt(3)  # two down-spins (bits set) of three
        assert np.array_equal(dicke_level_vector(3, 1, Backend.FULL), one_up)
        assert np.array_equal(symmetric_isometry(3).data, before)

    @pytest.mark.parametrize("N", range(1, 11))
    def test_dicke_weights_match_the_per_index_loop(self, N):
        loop = [1.0 / math.sqrt(math.comb(N, bin(i).count("1"))) for i in range(2**N)]
        assert np.array_equal(hilbert._dicke_weights(N), loop)


class TestEmbedAndReservoir:
    def test_embed_identity_elsewhere(self):
        b = BasisDescriptor(Backend.COLLECTIVE, (1, 2))
        op = collective_jz(2, Backend.COLLECTIVE)
        emb = dense(embed(op, b, 1).matrix)
        assert np.allclose(emb, np.kron(np.eye(2), op.toarray()))

    def test_embed_dimension_mismatch(self):
        b = BasisDescriptor(Backend.COLLECTIVE, (1, 2))
        op = collective_jz(3, Backend.COLLECTIVE)
        with pytest.raises(ValueError):
            embed(op, b, 1)

    def test_reservoir_jump_sum(self):
        b = BasisDescriptor(Backend.COLLECTIVE, (1, 2))
        J = dense(reservoir_jump(b, [0, 1]).matrix)
        ja = np.kron(collective_lowering(1, Backend.COLLECTIVE).toarray(), np.eye(3))
        jb = np.kron(np.eye(2), collective_lowering(2, Backend.COLLECTIVE).toarray())
        assert np.allclose(J, ja + jb)

    def test_reservoir_jump_annihilates_ground(self):
        for be in (Backend.COLLECTIVE, Backend.FULL):
            b = BasisDescriptor(be, (1, 3, 1))
            J = reservoir_jump(b, [1, 2])
            g = pure_product_state(b, [0, 0, 0])
            assert np.linalg.norm(dense(J.matrix) @ g.amplitudes) < 1e-14

    def test_reservoir_jump_annihilates_singlet(self):
        # antisymmetric two-spin state is dark for the summed lowering operator
        b = BasisDescriptor(Backend.FULL, (1, 1))
        J = reservoir_jump(b, [0, 1])
        singlet = np.array([0, 1, -1, 0]) / math.sqrt(2)
        assert np.linalg.norm(dense(J.matrix) @ singlet) < 1e-14

    def test_full_backend_reservoir_is_dense_up_to_the_limit(self):
        for pops, sparse in [((1, 1), False), ((1, 6, 1), False), ((1, 7, 1), True)]:
            b = BasisDescriptor(Backend.FULL, pops)
            assert reservoir_jump(b, [0, 1]).is_sparse is sparse

    @pytest.mark.parametrize(
        "backend, pops",
        [
            (Backend.COLLECTIVE, (1, 1)),
            (Backend.COLLECTIVE, (1, 6, 6, 1)),
            (Backend.COLLECTIVE, (1, 12, 12, 1)),
            (Backend.FULL, (1, 4, 1)),
            (Backend.FULL, (1, 7, 1)),
        ],
        ids=["collective-d4", "collective-d196", "collective-d676", "full-(1,4,1)", "full-(1,7,1)"],
    )
    def test_reservoir_jump_is_the_plain_sum_of_embedded_parts(self, backend, pops):
        # embed already makes each part CSR above DENSE_LIMIT
        b = BasisDescriptor(backend, pops)
        for m in range(len(pops) - 1):
            J = reservoir_jump(b, [m, m + 1]).matrix
            parts = [embed(collective_lowering(pops[k], backend), b, k).matrix for k in (m, m + 1)]
            expected = parts[0] + parts[1]
            assert type(J) is type(expected)
            assert sp.issparse(J) == (b.dim > DENSE_LIMIT)
            if sp.issparse(J):
                assert J.nnz == expected.nnz
                assert (J != expected).nnz == 0
            else:
                assert np.array_equal(J, expected)

    @pytest.mark.parametrize(
        "basis",
        [BasisDescriptor(Backend.COLLECTIVE, (1, N, N, 1)) for N in range(1, 13)]
        + [BasisDescriptor(Backend.COLLECTIVE, pops) for pops in [(3,), (2, 5), (4, 1, 3)]]
        + [
            BasisDescriptor(Backend.FULL, pops)
            for pops in [(1,), (1, 1), (3,), (1, 4, 1), (2, 3, 2), (1, 10, 1), (6, 6), (4, 4, 4)]
        ],
        ids=lambda b: f"{b.backend.value}-{'-'.join(map(str, b.domain_pops))}",
    )
    def test_reservoir_jump_is_the_sum_of_embedded_parts_entry_for_entry(self, basis):
        # collective (1, N, N, 1) runs d = 16 .. 676, across DENSE_LIMIT; full up to 12 bits
        n = basis.num_domains
        for sub in (sub for k in range(1, n + 1) for sub in combinations(range(n), k)):
            parts = [
                embed(collective_lowering(basis.domain_pops[m], basis.backend), basis, m).matrix
                for m in sub
            ]
            expected = sum(parts[1:], parts[0])
            if sp.issparse(expected):
                expected = sp.csr_array(expected)
            assert_same_matrix(reservoir_jump(basis, sub).matrix, expected)

    def test_invalid_domain_set(self):
        b = BasisDescriptor(Backend.COLLECTIVE, (1, 2))
        with pytest.raises(ValueError):
            reservoir_jump(b, [0, 5])
        with pytest.raises(ValueError):
            reservoir_jump(b, [])


class TestSingleSpinOperators:
    def test_collective_backend_refused(self):
        b = BasisDescriptor(Backend.COLLECTIVE, (2,))
        with pytest.raises(ValueError):
            single_spin_lowering(b, 0, 0)

    def test_sum_of_sites_equals_collective(self):
        b = BasisDescriptor(Backend.FULL, (3,))
        total = sum(dense(single_spin_lowering(b, 0, s).matrix) for s in range(3))
        assert np.allclose(total, dense(collective_lowering(3, Backend.FULL).matrix))

    def test_sigma_z_algebra(self):
        b = BasisDescriptor(Backend.FULL, (2, 1))
        for dom, site in [(0, 0), (0, 1), (1, 0)]:
            sm = dense(single_spin_lowering(b, dom, site).matrix)
            sz = dense(single_spin_z(b, dom, site).matrix)
            assert np.allclose(sz @ sm - sm @ sz, -2 * sm)
            assert np.allclose(sz @ sz, np.eye(b.dim))

    @pytest.mark.parametrize("pops", [(1,), (2, 1), (1, 4, 1), (3, 2, 3)])
    def test_sigma_z_is_the_plus_minus_one_diagonal(self, pops):
        b = BasisDescriptor(Backend.FULL, pops)
        for pos, (m, s) in enumerate((m, s) for m, N in enumerate(pops) for s in range(N)):
            # +1 on up (bit 0), -1 on down at this site; identity on the others
            rest = np.eye(2 ** (sum(pops) - pos - 1))
            expected = np.kron(np.kron(np.eye(2**pos), np.diag([1.0, -1.0])), rest).astype(complex)
            assert_same_matrix(single_spin_z(b, m, s).matrix, expected)  # dense: d <= 256

    def test_site_out_of_range(self):
        b = BasisDescriptor(Backend.FULL, (2,))
        with pytest.raises(ValueError):
            single_spin_lowering(b, 0, 2)


SIGMA_MINUS = np.array([[0.0, 0.0], [1.0, 0.0]])  # up (index 0) to down (index 1)
SIGMA_Z = np.diag([1.0, -1.0])


def site_kron(num_bits, pos, local):
    """I x local x I with local at bit position pos, dense."""
    return domain_kron((2,) * num_bits, pos, local)


def domain_kron(dims, m, local):
    """I x local x I with local on domain m, dense."""
    left, right = math.prod(dims[:m]), math.prod(dims[m + 1 :])
    return np.kron(np.kron(np.eye(left), local), np.eye(right)).astype(complex)


def ladder(N):
    j, m = N / 2.0, N / 2.0 - np.arange(N)
    return np.diag(np.sqrt(j * (j + 1) - m * (m - 1)), -1).astype(complex)


class TestStorageRule:
    # every builder returns an ndarray up to DENSE_LIMIT and CSR above, in either
    # backend, equal entry for entry to its Kronecker product on both sides

    def check(self, op, expected):
        assert isinstance(op.matrix, np.ndarray) is (op.basis.dim <= DENSE_LIMIT)
        assert op.is_sparse is (op.basis.dim > DENSE_LIMIT)
        assert op.matrix.dtype == complex
        assert np.array_equal(dense(op.matrix), expected)

    @pytest.mark.parametrize("pops", [(1, 6, 1), (1, 7, 1)], ids=["d256", "d512"])
    def test_full_backend(self, pops):
        b, bits = BasisDescriptor(Backend.FULL, pops), sum(pops)
        sites = [(m, s) for m, N in enumerate(pops) for s in range(N)]
        for pos, (m, s) in enumerate(sites):
            self.check(single_spin_lowering(b, m, s), site_kron(bits, pos, SIGMA_MINUS))
            self.check(single_spin_z(b, m, s), site_kron(bits, pos, SIGMA_Z))
        for sub in (sub for k in (1, 2, 3) for sub in combinations(range(3), k)):
            listed = [p for p, (m, _) in enumerate(sites) if m in sub]
            self.check(reservoir_jump(b, sub), sum(site_kron(bits, p, SIGMA_MINUS) for p in listed))
        jz = 0.5 * sum(site_kron(pops[1], p, SIGMA_Z) for p in range(pops[1]))
        embedded = embed(collective_jz(pops[1], Backend.FULL), b, 1)
        self.check(embedded, domain_kron(b.domain_dims, 1, jz))

    @pytest.mark.parametrize("N", [8, 9], ids=["d256", "d512"])
    def test_full_backend_single_domain(self, N):
        lowering = sum(site_kron(N, p, SIGMA_MINUS) for p in range(N))
        self.check(collective_lowering(N, Backend.FULL), lowering)
        jz = 0.5 * sum(site_kron(N, p, SIGMA_Z) for p in range(N))
        self.check(collective_jz(N, Backend.FULL), jz)

    @pytest.mark.parametrize("N", [7, 8], ids=["d256", "d324"])
    def test_collective_backend(self, N):
        b = BasisDescriptor(Backend.COLLECTIVE, (1, N, N, 1))
        pops, dims = b.domain_pops, b.domain_dims
        for sub in (sub for k in range(1, 5) for sub in combinations(range(4), k)):
            expected = sum(domain_kron(dims, m, ladder(pops[m])) for m in sub)
            self.check(reservoir_jump(b, sub), expected)
        jz = np.diag(N / 2.0 - np.arange(N + 1))
        self.check(embed(collective_jz(N, Backend.COLLECTIVE), b, 1), domain_kron(dims, 1, jz))

    @pytest.mark.parametrize("N", [255, 256], ids=["d256", "d257"])
    def test_collective_backend_single_domain(self, N):
        self.check(collective_lowering(N, Backend.COLLECTIVE), ladder(N))
        jz = np.diag(N / 2.0 - np.arange(N + 1)).astype(complex)
        self.check(collective_jz(N, Backend.COLLECTIVE), jz)

    def test_embed_follows_the_rule_whatever_its_input(self):
        b = BasisDescriptor(Backend.FULL, (1, 3))
        jz = collective_jz(3, Backend.FULL)
        csr = Operator(sp.csr_array(jz.matrix), jz.basis)
        self.check(embed(csr, b, 1), domain_kron(b.domain_dims, 1, jz.matrix))

    @pytest.mark.parametrize("pops", [(2, 3), (1, 4, 4, 1)], ids=["d12-32", "d100-1024"])
    def test_basis_conversions(self, pops):
        # each operator result follows the rule by its own dimension, whatever the input's
        b = BasisDescriptor(Backend.COLLECTIVE, pops)
        jz = embed(collective_jz(pops[1], Backend.COLLECTIVE), b, 1)
        full_jz = embed(collective_jz(pops[1], Backend.FULL), b.counterpart(), 1)
        full, back = to_full_basis(jz), to_collective_basis(full_jz)
        S = basis_isometry(b)
        for op, expected in ((full, dense(full_jz.matrix @ S @ S.conj().T)), (back, dense(jz.matrix))):
            assert isinstance(op.matrix, np.ndarray) is (op.basis.dim <= DENSE_LIMIT)
            assert op.matrix.dtype == complex
            assert np.allclose(dense(op.matrix), expected, rtol=0, atol=1e-14)

    def test_sigma_z_keeps_int32_indices(self):
        # d = 65536: 32-bit indices halve the index arrays; dynamics widens its keys
        sz = single_spin_z(BasisDescriptor(Backend.FULL, (16,)), 0, 3).matrix
        assert sp.issparse(sz)
        assert sz.indices.dtype == sz.indptr.dtype == np.int32


class TestSitePermutations:
    def test_generators_move_the_sites(self):
        # (2, 3, 1): domain 1 sits between others; swap exchanges its sites 0 and 1,
        # and the cycle moves every site to the next lower index
        b = BasisDescriptor(Backend.FULL, (2, 3, 1))
        swap, cycle = site_permutations(b, 1)
        for perm, image in ((swap, [1, 0, 2]), (cycle, [2, 0, 1])):
            P = np.zeros((b.dim, b.dim))
            P[perm, np.arange(b.dim)] = 1.0
            for s, t in enumerate(image):
                moved = P @ dense(single_spin_lowering(b, 1, s).matrix) @ P.T
                assert np.array_equal(moved, dense(single_spin_lowering(b, 1, t).matrix))
            for dom, site in [(0, 0), (0, 1), (2, 0)]:
                sm = dense(single_spin_lowering(b, dom, site).matrix)
                assert np.array_equal(P @ sm @ P.T, sm)

    def test_collective_backend_refused(self):
        with pytest.raises(ValueError):
            site_permutations(BasisDescriptor(Backend.COLLECTIVE, (2,)), 0)

    def test_labels_are_equal_exactly_on_the_orbits(self):
        # all six permutations of domain 1's three sites (site 0 the most
        # significant bit), applied to both indices of every element
        b = BasisDescriptor(Backend.FULL, (1, 3))

        def moved(index, sites):
            edge, local = divmod(index, 8)
            bits = [(local >> (2 - s)) & 1 for s in range(3)]
            return edge * 8 + sum(bits[s] << (2 - t) for s, t in enumerate(sites))

        group = [[moved(i, sites) for i in range(b.dim)] for sites in permutations(range(3))]
        rows, cols = np.divmod(np.arange(b.dim**2), b.dim)
        label = exchange_labels(b, [1], rows, cols)
        for r, c in zip(rows, cols):
            orbit = {(g[r], g[c]) for g in group}
            same = np.flatnonzero(label == label[r * b.dim + c])
            assert {(int(i), int(j)) for i, j in zip(rows[same], cols[same])} == orbit
        # with no listed domain every element is its own label
        assert np.unique(exchange_labels(b, [], rows, cols)).size == b.dim**2


class TestStates:
    def test_ground_state_is_last_index(self):
        for be in (Backend.COLLECTIVE, Backend.FULL):
            b = BasisDescriptor(be, (2, 2))
            g = ground_state(b)
            expected = np.zeros((b.dim, b.dim))
            expected[-1, -1] = 1.0
            assert np.allclose(g.matrix, expected)

    def test_dicke_vector_full_backend(self):
        # one excitation among two spins: (|ud> + |du>)/sqrt(2), up = bit 0
        v = dicke_level_vector(2, 1, Backend.FULL)
        assert np.allclose(v, np.array([0, 1, 1, 0]) / math.sqrt(2))

    def test_dicke_vector_collective_backend(self):
        v = dicke_level_vector(3, 2, Backend.COLLECTIVE)
        expected = np.zeros(4)
        expected[1] = 1.0  # N - k = 1
        assert np.allclose(v, expected)

    def test_bitstring_state(self):
        b = BasisDescriptor(Backend.FULL, (2,))
        psi = pure_product_state(b, ["du"])
        expected = np.zeros(4)
        expected[2] = 1.0  # 'd'=1 at the most significant bit
        assert np.allclose(psi.amplitudes, expected)

    @pytest.mark.parametrize("pops", [(1,), (3,), (1, 2, 1), (2, 2)])
    def test_projector_is_a_state_without_the_eigendecomposition(self, pops, monkeypatch):
        # 25 seeded unit vectors per backend, 200 over the four layouts
        rng = np.random.default_rng(sum(pops) * 10 + len(pops))
        for backend in Backend:
            b = BasisDescriptor(backend, pops)
            vectors = rng.normal(size=(25, b.dim)) + 1j * rng.normal(size=(25, b.dim))
            with monkeypatch.context() as patch:
                patch.setattr(np.linalg, "eigvalsh", None)  # a call would raise
                projectors = [PureState(v / np.linalg.norm(v), b).projector() for v in vectors]
            for rho in projectors:
                assert np.linalg.eigvalsh(rho.matrix)[0] >= -1e-12
                assert abs(rho.matrix.trace() - 1.0) <= 1e-12

    def test_bitstring_needs_full_backend(self):
        b = BasisDescriptor(Backend.COLLECTIVE, (2,))
        with pytest.raises(ValueError):
            pure_product_state(b, ["du"])

    def test_product_state_factorizes(self):
        b = BasisDescriptor(Backend.COLLECTIVE, (2, 3))
        rho = product_state(b, [1, 3])
        va = dicke_level_vector(2, 1, Backend.COLLECTIVE)
        vb = dicke_level_vector(3, 3, Backend.COLLECTIVE)
        expected = np.kron(np.outer(va, va), np.outer(vb, vb))
        assert np.allclose(rho.matrix, expected)

    def test_product_state_accepts_matrices(self):
        b = BasisDescriptor(Backend.COLLECTIVE, (1, 1))
        mixed = np.diag([0.25, 0.75]).astype(complex)
        rho = product_state(b, [mixed, 0])
        assert np.allclose(np.diag(rho.matrix).real, [0, 0.25, 0, 0.75])

    @pytest.mark.parametrize(
        "factor, problem",
        [
            (np.diag([1.5, -0.5]), "domain 1: negative eigenvalue -5.000e-01"),
            (np.diag([0.5, 0.25]), "domain 1: trace"),
            (np.array([[0.5, 0.5], [0.0, 0.5]]), "domain 1: matrix is not Hermitian"),
        ],
        ids=["not PSD", "trace 3/4", "not Hermitian"],
    )
    def test_product_state_refuses_a_bad_factor_by_domain(self, factor, problem):
        b = BasisDescriptor(Backend.COLLECTIVE, (2, 1))
        with pytest.raises(ValueError, match=problem):
            product_state(b, [0, factor.astype(complex)])

    def test_product_state_checks_the_trace_of_the_product(self):
        # each factor within the trace tolerance, the product beyond it
        b = BasisDescriptor(Backend.COLLECTIVE, (1, 1, 1))
        factor = np.diag([0.5, 0.5 + 0.9e-8]).astype(complex)
        with pytest.raises(ValueError, match="product trace"):
            product_state(b, [factor] * 3)

    def test_product_state_is_not_decomposed_whole(self, monkeypatch):
        # only the factor given as a 2 x 2 matrix is decomposed, never the 6 x 6
        # product or the Dicke projector
        sizes = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: sizes.append(len(a)) or eigvalsh(a))
        b = BasisDescriptor(Backend.COLLECTIVE, (1, 2))
        mixed = np.diag([0.25, 0.75]).astype(complex)
        rho = product_state(b, [mixed, 2])
        assert sizes == [2]
        assert np.array_equal(np.diag(rho.matrix).real, [0.25, 0, 0, 0.75, 0, 0])

    def test_level_out_of_range(self):
        b = BasisDescriptor(Backend.COLLECTIVE, (2,))
        with pytest.raises(ValueError):
            product_state(b, [3])

    def test_pure_state_norm_enforced(self):
        b = BasisDescriptor(Backend.COLLECTIVE, (1,))
        with pytest.raises(ValueError):
            PureState(np.array([1.0, 1.0]), b)

    def test_density_matrix_validation(self):
        b = BasisDescriptor(Backend.COLLECTIVE, (1,))
        with pytest.raises(ValueError):
            DensityMatrix(np.array([[0.5, 0.5j], [0.5j, 0.5]]), b)  # not Hermitian
        with pytest.raises(ValueError):
            DensityMatrix(np.diag([0.7, 0.7]), b)  # trace 1.4
        with pytest.raises(ValueError):
            DensityMatrix(np.diag([1.5, -0.5]), b)  # negative eigenvalue


class TestOperatorAdjoint:
    def test_csr_adjoint_stays_csr(self):
        # above DENSE_LIMIT the jump is CSR, as in every thermal run there
        b = BasisDescriptor(Backend.COLLECTIVE, (1, DENSE_LIMIT))
        J = reservoir_jump(b, [0, 1])
        assert J.is_sparse
        Jp = J.dag()
        assert Jp.is_sparse and Jp.matrix.format == "csr"
        assert Jp.basis == b
        assert np.array_equal(Jp.toarray(), J.toarray().conj().T)
        assert_same_matrix(Jp.dag().matrix, J.matrix)


class TestProductStateDensityFactor:
    def test_factor_in_the_domain_basis(self):
        b = BasisDescriptor(Backend.COLLECTIVE, (2, 1))
        m = np.diag([0.25, 0.25, 0.5]).astype(complex)
        factor = DensityMatrix(m, BasisDescriptor(Backend.COLLECTIVE, (2,)))
        rho = product_state(b, [factor, 0])
        assert np.array_equal(rho.matrix, np.kron(m, np.diag([0.0, 1.0])))

    @pytest.mark.parametrize(
        "factor_basis, m",
        [
            (BasisDescriptor(Backend.COLLECTIVE, (1,)), 0),  # a 1-spin ladder for a 2-spin domain
            (BasisDescriptor(Backend.FULL, (1,)), 1),  # the right spin count, the other backend
        ],
    )
    def test_factor_in_another_basis_refused(self, factor_basis, m):
        b = BasisDescriptor(Backend.COLLECTIVE, (2, 1))
        levels = [0, 0]
        levels[m] = DensityMatrix(np.diag([0.5, 0.5]), factor_basis)
        with pytest.raises(ValueError, match=f"domain {m}: density matrix basis does not match"):
            product_state(b, levels)


class TestPartialTrace:
    def test_product_state_reduces_to_factors(self):
        b = BasisDescriptor(Backend.COLLECTIVE, (2, 3, 1))
        rho = product_state(b, [0, 2, 1])
        for m in range(3):
            red = partial_trace(rho, [m])
            sub = product_state(b.subset([m]), [[0, 2, 1][m]])
            assert np.allclose(red.matrix, sub.matrix)

    def test_trace_preserved(self):
        rng = np.random.default_rng(7)
        b = BasisDescriptor(Backend.COLLECTIVE, (2, 2))
        for _ in range(5):
            A = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
            M = A @ A.conj().T
            rho = DensityMatrix(M / M.trace(), b)
            red = partial_trace(rho, [0])
            assert abs(red.matrix.trace() - 1) < 1e-12

    def test_entangled_pair_reduces_to_mixture(self):
        b = BasisDescriptor(Backend.FULL, (1, 1))
        bell = PureState(np.array([0, 1, 1, 0]) / math.sqrt(2), b)
        red = partial_trace(bell.projector(), [1])
        assert np.allclose(red.matrix, 0.5 * np.eye(2))

    def test_keep_all_is_identity(self):
        b = BasisDescriptor(Backend.COLLECTIVE, (1, 2))
        rho = product_state(b, [0, 1])
        assert partial_trace(rho, [0, 1]) is rho

    def test_partial_trace_consistency_across_backends(self):
        b = BasisDescriptor(Backend.COLLECTIVE, (2, 2))
        psi = pure_product_state(b, [1, 2])
        red_c = partial_trace(psi.projector(), [0])
        red_f = partial_trace(to_full_basis(psi.projector()), [0])
        back = to_collective_basis(red_f)
        assert np.allclose(back.matrix, red_c.matrix)


class TestExcitationNumbers:
    def test_collective_levels(self):
        b = BasisDescriptor(Backend.COLLECTIVE, (1, 2))
        assert excitation_numbers(b).tolist() == [3, 2, 1, 2, 1, 0]

    def test_full_bitstrings(self):
        b = BasisDescriptor(Backend.FULL, (1, 2))
        # up = 0: index 0 is all-up, index 7 all-down
        assert excitation_numbers(b).tolist() == [3, 2, 2, 1, 2, 1, 1, 0]

    def test_backends_agree_through_the_isometry(self):
        b = BasisDescriptor(Backend.COLLECTIVE, (2, 3))
        S = basis_isometry(b).toarray()
        rows, cols = np.nonzero(S)
        n_full = excitation_numbers(b.counterpart())
        assert np.array_equal(n_full[rows], excitation_numbers(b)[cols])


class TestIsometry:
    @pytest.mark.parametrize("N", range(1, 7))
    def test_columns_orthonormal(self, N):
        S = symmetric_isometry(N)
        gram = (S.conj().T @ S).toarray()
        assert np.allclose(gram, np.eye(N + 1))

    def test_isometry_entries(self):
        S = symmetric_isometry(2).toarray()
        # column 1 holds the single-excitation Dicke amplitudes
        assert np.allclose(S[:, 1], np.array([0, 1, 1, 0]) / math.sqrt(2))

    def test_basis_isometry_multi_domain(self):
        b = BasisDescriptor(Backend.COLLECTIVE, (1, 2))
        S = basis_isometry(b)
        assert S.shape == (8, 6)
        gram = (S.conj().T @ S).toarray()
        assert np.allclose(gram, np.eye(6))

    @pytest.mark.parametrize("pops", [(1,), (4,), (1, 2), (2, 3, 1), (3, 3, 3), (1, 4, 4, 1)])
    def test_basis_isometry_is_the_kron_chain_entry_for_entry(self, pops):
        b = BasisDescriptor(Backend.COLLECTIVE, pops)
        expected = symmetric_isometry(pops[0])
        for N in pops[1:]:
            expected = sp.csr_array(sp.kron(expected, symmetric_isometry(N), format="csr"))
        assert_same_matrix(basis_isometry(b), expected)

    def test_round_trip_state(self):
        b = BasisDescriptor(Backend.COLLECTIVE, (2, 2))
        rho = product_state(b, [1, 2])
        back = to_collective_basis(to_full_basis(rho))
        assert np.allclose(back.matrix, rho.matrix)

    @pytest.mark.parametrize("storage", ["dense", "csr"])
    def test_round_trip_operator(self, storage):
        b = BasisDescriptor(Backend.COLLECTIVE, (2, 3))
        jz = embed(collective_jz(3, Backend.COLLECTIVE), b, 1)
        if storage == "csr":
            jz = Operator(sp.csr_array(dense(jz.matrix)), b)
        full = to_full_basis(jz)
        assert full.basis == b.counterpart()
        # on the symmetric sector the ladder's Jz is the full backend's
        full_jz = embed(collective_jz(3, Backend.FULL), b.counterpart(), 1)
        S = basis_isometry(b)
        assert np.allclose(dense(full.matrix), dense(full_jz.matrix @ S @ S.conj().T))
        for back in (to_collective_basis(full), to_collective_basis(full_jz)):
            assert back.basis == b
            assert np.allclose(dense(back.matrix), dense(jz.matrix))

    @pytest.mark.parametrize("validate", [True, False])
    def test_state_image_is_not_checked_again_and_carries_the_flag(self, validate, monkeypatch):
        rng = np.random.default_rng(52)
        for pops in ((1, 2, 1), (2, 3)):
            b = BasisDescriptor(Backend.COLLECTIVE, pops)
            for _ in range(10):
                a = rng.normal(size=(b.dim, b.dim)) + 1j * rng.normal(size=(b.dim, b.dim))
                m = a @ a.conj().T
                rho = DensityMatrix(m / m.trace().real, b, validate=validate)
                with monkeypatch.context() as patch:
                    patch.setattr(np.linalg, "eigvalsh", None)  # a call would raise
                    full = to_full_basis(rho)
                assert full.validate is validate
                DensityMatrix(full.matrix, full.basis)  # passes every check

    def test_round_trip_preserves_purity_and_trace(self):
        b = BasisDescriptor(Backend.COLLECTIVE, (3,))
        psi = pure_product_state(b, [2])
        full = to_full_basis(psi)
        assert abs(np.linalg.norm(full.amplitudes) - 1) < 1e-12

    def test_dynamics_commutes_with_isometry(self):
        # conjugating the full-backend jump into the ladder reproduces
        # the collective-backend jump, domain by domain
        b = BasisDescriptor(Backend.COLLECTIVE, (2, 1))
        J_coll = dense(reservoir_jump(b, [0, 1]).matrix)
        J_full = reservoir_jump(b.counterpart(), [0, 1]).matrix
        S = basis_isometry(b)
        assert np.allclose(dense(S.conj().T @ J_full @ S), J_coll)


class TestMetrics:
    def test_fidelity_pure_on_pure(self):
        b = BasisDescriptor(Backend.COLLECTIVE, (2,))
        psi = pure_product_state(b, [1])
        assert fidelity_with_pure(psi.projector(), psi) == pytest.approx(1.0)
        phi = pure_product_state(b, [0])
        assert fidelity_with_pure(psi.projector(), phi) == pytest.approx(0.0)

    def test_trace_distance_extremes(self):
        b = BasisDescriptor(Backend.COLLECTIVE, (1,))
        up = product_state(b, [1])
        down = product_state(b, [0])
        assert trace_distance(up, down) == pytest.approx(1.0)
        assert trace_distance(up, up) == pytest.approx(0.0)

    def test_trace_distance_triangle(self):
        rng = np.random.default_rng(11)
        b = BasisDescriptor(Backend.COLLECTIVE, (2,))
        mats = []
        for _ in range(3):
            A = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            M = A @ A.conj().T
            mats.append(DensityMatrix(M / M.trace(), b))
        a, b_, c = mats
        assert trace_distance(a, c) <= trace_distance(a, b_) + trace_distance(b_, c) + 1e-12


_ONE = BasisDescriptor(Backend.FULL, (1,))
_PAIR = BasisDescriptor(Backend.FULL, (1, 1))
_LADDER = BasisDescriptor(Backend.COLLECTIVE, (1,))
# not Hermitian, so <+|rho|+> = 0.5 + 0.1j; validate=False lets it through
_SKEW = np.array([[0.5, 0.1j], [0.1j, 0.5]])
_PLUS = np.array([1.0, 1.0]) / math.sqrt(2)


class TestRefusals:
    """Each call is refused with the exception and message below."""

    @pytest.mark.parametrize(
        "call, error, message",
        [
            (lambda: Operator(np.eye(3), _ONE), ValueError,
             "operator shape (3, 3) does not match basis dimension 2"),
            (lambda: PureState(np.ones(3) / math.sqrt(3), _ONE), ValueError,
             "amplitude vector length 3 does not match basis dimension 2"),
            (lambda: DensityMatrix(np.eye(3) / 3, _ONE), ValueError,
             "matrix shape (3, 3) does not match basis dimension 2"),
            (lambda: embed(collective_jz(1, Backend.FULL), _PAIR, 2), ValueError,
             "domain index 2 out of range"),
            (lambda: single_spin_lowering(_PAIR, 2, 0), ValueError, "domain index 2 out of range"),
            (lambda: single_spin_z(_PAIR, -1, 0), ValueError, "domain index -1 out of range"),
            (lambda: pure_product_state(BasisDescriptor(Backend.FULL, (2,)), ["ux"]), ValueError,
             "bitstring 'ux' must have 2 characters from 'u'/'d'"),
            (lambda: product_state(_PAIR, [0]), ValueError, "expected 2 levels, got 1"),
            (lambda: product_state(_PAIR, [np.eye(3) / 3, 0]), ValueError,
             "domain 0: matrix shape (3, 3), expected (2, 2)"),
            (lambda: product_state(_PAIR, [0, 1.5]), ValueError,
             "domain 1: unsupported level specification 1.5"),
            (lambda: pure_product_state(_PAIR, [0, 0, 0]), ValueError, "expected 2 levels, got 3"),
            (lambda: pure_product_state(_PAIR, [0, np.ones(3)]), ValueError,
             "domain 1: amplitude vector has length 3, expected 2"),
            (lambda: pure_product_state(_PAIR, [None, 0]), ValueError,
             "domain 0: unsupported pure level None"),
            (lambda: fidelity_with_pure(DensityMatrix(_SKEW, _ONE, validate=False),
                                        PureState(_PLUS, _ONE)),
             NumericalFailure, "fidelity has imaginary residue 1.000e-01"),
            (lambda: symmetric_isometry(0), ValueError, "spin count must be >= 1"),
            (lambda: basis_isometry(_ONE), ValueError,
             "basis_isometry expects a collective-backend basis"),
            (lambda: to_full_basis(ground_state(_ONE)), ValueError,
             "basis_isometry expects a collective-backend basis"),
            (lambda: to_full_basis(types.SimpleNamespace(basis=_LADDER)), ValueError,
             "cannot convert SimpleNamespace"),
            (lambda: to_collective_basis(ground_state(_LADDER)), ValueError,
             "to_collective_basis expects a full-backend input"),
            (lambda: to_collective_basis(types.SimpleNamespace(basis=_ONE)), ValueError,
             "cannot convert SimpleNamespace"),
        ],
        ids=[
            "Operator shape", "PureState length", "DensityMatrix shape", "embed domain",
            "single_spin_lowering domain", "single_spin_z domain", "bad bitstring",
            "product_state level count", "product_state factor shape",
            "product_state unsupported level", "pure_product_state level count",
            "pure_product_state vector length", "pure_product_state unsupported level",
            "fidelity imaginary residue", "symmetric_isometry(0)", "basis_isometry full",
            "to_full_basis wrong backend", "to_full_basis unsupported type",
            "to_collective_basis wrong backend", "to_collective_basis unsupported type",
        ],
    )
    def test_refused_by_name(self, call, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            call()
