import math

import numpy as np
import pytest

from qlre.entanglement import (
    concurrence,
    concurrence_array,
    entanglement_of_formation,
    entanglement_report,
    eof_from_concurrence,
    eof_from_concurrence_array,
    log_negativity,
    log_negativity_array,
    negativity,
    negativity_array,
    partial_transpose,
    tripartite_negativity,
    tripartite_negativity_array,
)
from qlre.errors import NumericalFailure
from qlre.hilbert import (
    Backend,
    BasisDescriptor,
    DensityMatrix,
    PureState,
    pure_product_state,
)


def qubit_basis(n):
    return BasisDescriptor(Backend.FULL, (1,) * n)


def density(matrix, n):
    return DensityMatrix(np.asarray(matrix, dtype=complex), qubit_basis(n))


def bell_plus():
    v = np.zeros(4, dtype=complex)
    v[1] = v[2] = 1 / math.sqrt(2)
    return v


def bell_minus():
    v = np.zeros(4, dtype=complex)
    v[1] = 1 / math.sqrt(2)
    v[2] = -1 / math.sqrt(2)
    return v


def random_state_vector(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_su2(rng):
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestConcurrence:
    @pytest.mark.parametrize("x", np.round(np.linspace(0.0, 1.0, 11), 10))
    def test_bell_ground_mixture_family(self, x):
        # rank-2 mixture of a Bell state with the shared ground state:
        # concurrence equals the Bell weight exactly
        v = bell_plus()
        g = np.zeros(4, dtype=complex)
        g[3] = 1.0
        rho = density(x * np.outer(v, v.conj()) + (1 - x) * np.outer(g, g.conj()), 2)
        assert concurrence(rho) == pytest.approx(x, abs=1e-12)

    def test_half_singlet_mixture(self):
        v = bell_minus()
        g = np.zeros(4, dtype=complex)
        g[3] = 1.0
        rho = density(0.5 * np.outer(v, v.conj()) + 0.5 * np.outer(g, g.conj()), 2)
        assert concurrence(rho) == pytest.approx(0.5, abs=1e-12)
        assert entanglement_of_formation(rho) == pytest.approx(0.3546, abs=1e-3)

    def test_product_states_give_zero(self):
        rng = np.random.default_rng(3)
        b = qubit_basis(2)
        for _ in range(6):
            psi = pure_product_state(
                b, [random_state_vector(rng, 2), random_state_vector(rng, 2)]
            )
            # sqrt of near-zero eigenvalues leaves ~1e-8 numerical dust
            assert concurrence(psi.projector()) == pytest.approx(0.0, abs=1e-7)

    def test_separable_mixture_gives_zero(self):
        rng = np.random.default_rng(4)
        b = qubit_basis(2)
        m = np.zeros((4, 4), dtype=complex)
        weights = rng.dirichlet(np.ones(5))
        for w in weights:
            psi = pure_product_state(
                b, [random_state_vector(rng, 2), random_state_vector(rng, 2)]
            )
            m += w * psi.projector().matrix
        assert concurrence(DensityMatrix(m, b)) == pytest.approx(0.0, abs=1e-8)

    def test_maximally_mixed_gives_zero(self):
        rho = density(np.eye(4) / 4, 2)
        assert concurrence(rho) == 0.0
        assert entanglement_of_formation(rho) == 0.0

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(11)
        v = bell_plus()
        g = np.zeros(4, dtype=complex)
        g[3] = 1.0
        rho0 = 0.4 * np.outer(v, v.conj()) + 0.6 * np.outer(g, g.conj())
        c0 = concurrence(density(rho0, 2))
        n0 = negativity(density(rho0, 2), [0])
        for _ in range(5):
            u = np.kron(random_su2(rng), random_su2(rng))
            rho = density(u @ rho0 @ u.conj().T, 2)
            assert concurrence(rho) == pytest.approx(c0, abs=1e-7)
            assert negativity(rho, [0]) == pytest.approx(n0, abs=1e-10)

    def test_requires_two_qubit_factors(self):
        rho = DensityMatrix(
            np.eye(3) / 3, BasisDescriptor(Backend.COLLECTIVE, (2,))
        )
        with pytest.raises(ValueError):
            concurrence(rho)
        b = qubit_basis(3)
        with pytest.raises(ValueError):
            concurrence(DensityMatrix(np.eye(8) / 8, b))


class TestEofCurve:
    def test_endpoints_exact(self):
        assert eof_from_concurrence(0.0) == 0.0
        assert eof_from_concurrence(1.0) == 1.0

    def test_monotone_on_grid(self):
        grid = np.linspace(0, 1, 201)
        vals = [eof_from_concurrence(c) for c in grid]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_half_value(self):
        # binary entropy of (1 + sqrt(3)/2)/2, in ebits
        p = (1 + math.sqrt(1 - 0.25)) / 2
        expected = -p * math.log2(p) - (1 - p) * math.log2(1 - p)
        assert eof_from_concurrence(0.5) == pytest.approx(expected, abs=1e-14)
        assert expected == pytest.approx(0.3546, abs=1e-3)

    @pytest.mark.parametrize("bad", [-0.01, 1.01, float("nan")])
    def test_range_checked(self, bad):
        with pytest.raises(ValueError):
            eof_from_concurrence(bad)


class TestNegativity:
    def test_bell_state_values(self):
        rho = density(np.outer(bell_plus(), bell_plus().conj()), 2)
        assert negativity(rho, [0]) == pytest.approx(0.5, abs=1e-12)
        assert log_negativity(rho, [0]) == pytest.approx(1.0, abs=1e-12)

    def test_side_does_not_matter(self):
        rng = np.random.default_rng(9)
        b = qubit_basis(2)
        for _ in range(4):
            v = random_state_vector(rng, 4)
            rho = DensityMatrix(np.outer(v, v.conj()), b)
            assert negativity(rho, [0]) == pytest.approx(
                negativity(rho, [1]), abs=1e-12
            )

    def test_product_state_is_ppt(self):
        rng = np.random.default_rng(13)
        b = qubit_basis(2)
        psi = pure_product_state(
            b, [random_state_vector(rng, 2), random_state_vector(rng, 2)]
        )
        assert negativity(psi.projector(), [0]) == pytest.approx(0.0, abs=1e-12)
        assert log_negativity(psi.projector(), [0]) == pytest.approx(0.0, abs=1e-12)

    def test_schmidt_pure_state_oracle(self):
        # for a pure state with Schmidt weights p_i the negativity is
        # ((sum_i sqrt(p_i))^2 - 1) / 2, whatever the local dimensions
        rng = np.random.default_rng(21)
        b = BasisDescriptor(Backend.COLLECTIVE, (2, 1))
        for _ in range(5):
            p = rng.dirichlet(np.ones(2))
            ua = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
            ub = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
            v = np.zeros(6, dtype=complex)
            for i, w in enumerate(p):
                v += math.sqrt(w) * np.kron(ua[:, i], ub[:, i])
            rho = DensityMatrix(np.outer(v, v.conj()), b)
            expected = (np.sum(np.sqrt(p)) ** 2 - 1) / 2
            assert negativity(rho, [0]) == pytest.approx(expected, abs=1e-10)

    def test_w_state_split(self):
        v = np.zeros(8, dtype=complex)
        v[[3, 5, 6]] = 1 / math.sqrt(3)
        rho = density(np.outer(v, v.conj()), 3)
        target = math.sqrt(2) / 3
        for part in ([0], [1], [2]):
            assert negativity(rho, part) == pytest.approx(target, abs=1e-12)

    def test_partition_validation(self):
        rho = density(np.eye(4) / 4, 2)
        with pytest.raises(ValueError):
            negativity(rho, [])
        with pytest.raises(ValueError):
            negativity(rho, [0, 1])
        with pytest.raises(ValueError):
            negativity(rho, [2])

    def test_partial_transpose_involution(self):
        rng = np.random.default_rng(2)
        b = qubit_basis(2)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        m = a @ a.conj().T
        rho = DensityMatrix(m / m.trace(), b)
        once = partial_transpose(rho, [0])
        twice = partial_transpose(DensityMatrix(once, b, validate=False), [0])
        assert np.allclose(twice, rho.matrix, atol=1e-14)


class TestTripartite:
    def test_ghz_value(self):
        v = np.zeros(8, dtype=complex)
        v[0] = v[7] = 1 / math.sqrt(2)
        rho = density(np.outer(v, v.conj()), 3)
        assert tripartite_negativity(rho) == pytest.approx(0.5, abs=1e-12)

    def test_w_value(self):
        v = np.zeros(8, dtype=complex)
        v[[3, 5, 6]] = 1 / math.sqrt(3)
        rho = density(np.outer(v, v.conj()), 3)
        assert tripartite_negativity(rho) == pytest.approx(math.sqrt(2) / 3, abs=1e-9)

    def test_ground_is_zero(self):
        m = np.zeros((8, 8), dtype=complex)
        m[7, 7] = 1.0
        assert tripartite_negativity(density(m, 3)) == 0.0

    def test_biseparable_mixture_is_zero(self):
        # mix of states product across the first cut: that factor kills the mean
        b = qubit_basis(3)
        v = np.zeros(8, dtype=complex)
        v[0] = 1 / math.sqrt(2)  # |up>(|up,up> + |down,down>)/sqrt2
        v[3] = 1 / math.sqrt(2)
        rho = DensityMatrix(np.outer(v, v.conj()), b)
        assert tripartite_negativity(rho) == 0.0

    def test_needs_three_qubits(self):
        rho = density(np.eye(4) / 4, 2)
        with pytest.raises(ValueError):
            tripartite_negativity(rho)


class TestReport:
    def test_pair_report_fields(self):
        rho = density(np.outer(bell_minus(), bell_minus().conj()), 2)
        rep = entanglement_report(rho)
        assert rep.concurrence == pytest.approx(1.0, abs=1e-10)
        assert rep.eof == pytest.approx(1.0, abs=1e-10)
        assert rep.negativity == pytest.approx(0.5, abs=1e-10)
        assert rep.log_negativity == pytest.approx(1.0, abs=1e-10)

    def test_ground_report_zero(self):
        m = np.zeros((4, 4), dtype=complex)
        m[3, 3] = 1.0
        rep = entanglement_report(density(m, 2))
        assert rep.concurrence == 0.0
        assert rep.eof == 0.0
        assert rep.negativity == 0.0

    @pytest.mark.parametrize("partition", [None, [0]])
    def test_three_qubit_state_refused(self, partition):
        m = np.zeros((8, 8), dtype=complex)
        m[7, 7] = 1.0
        with pytest.raises(ValueError, match="expected a state of 2 two-level factors"):
            entanglement_report(density(m, 3), partition)


def random_mixed(rng, dim, rank):
    a = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    m = a @ a.conj().T
    return m / m.trace()


def _stack(rng, dim, count=24):
    """Random states of every rank, plus the exact Bell state and the ground state."""
    mats = [random_mixed(rng, dim, 1 + i % dim) for i in range(count)]
    v = np.zeros(dim, dtype=complex)
    v[1] = v[2] = 1 / math.sqrt(2)
    ground = np.zeros((dim, dim), dtype=complex)
    ground[-1, -1] = 1.0
    return np.array(mats + [np.outer(v, v.conj()), ground])


class TestArrayForms:
    def test_concurrence_and_eof_match_the_scalar_functions(self):
        mats = _stack(np.random.default_rng(51), 4)
        c = concurrence_array(mats)
        e = eof_from_concurrence_array(c)
        b = qubit_basis(2)
        for k, m in enumerate(mats):
            rho = DensityMatrix(m, b)
            assert c[k] == pytest.approx(concurrence(rho), abs=1e-14)
            assert e[k] == pytest.approx(entanglement_of_formation(rho), abs=1e-14)
        assert np.any(c > 0.1) and np.any(c == 0.0)

    @pytest.mark.parametrize(
        "pops, partition", [((1, 1), [0]), ((1, 1, 1), [1]), ((1, 1, 1), [0, 2])]
    )
    def test_negativities_match_the_scalar_functions(self, pops, partition):
        b = qubit_basis(len(pops))
        mats = _stack(np.random.default_rng(52), b.dim)
        n = negativity_array(mats, b.domain_dims, partition)
        ln = log_negativity_array(mats, b.domain_dims, partition)
        for k, m in enumerate(mats):
            rho = DensityMatrix(m, b)
            assert n[k] == pytest.approx(negativity(rho, partition), abs=1e-14)
            assert ln[k] == pytest.approx(log_negativity(rho, partition), abs=1e-14)
        assert np.any(n > 0.05)

    def test_negativities_on_unequal_factors(self):
        b = BasisDescriptor(Backend.COLLECTIVE, (2, 1))  # a qutrit and a qubit
        mats = _stack(np.random.default_rng(53), b.dim)
        n = negativity_array(mats, b.domain_dims, [1])
        for k, m in enumerate(mats):
            assert n[k] == pytest.approx(negativity(DensityMatrix(m, b), [1]), abs=1e-14)

    def test_tripartite_matches_the_scalar_function(self):
        mats = _stack(np.random.default_rng(54), 8)
        w = np.zeros(8, dtype=complex)
        w[[3, 5, 6]] = 1 / math.sqrt(3)
        mats = np.concatenate([mats, [np.outer(w, w.conj())]])
        t = tripartite_negativity_array(mats)
        b = qubit_basis(3)
        for k, m in enumerate(mats):
            assert t[k] == pytest.approx(tripartite_negativity(DensityMatrix(m, b)), abs=1e-14)
        assert t[-1] == pytest.approx(math.sqrt(2) / 3, abs=1e-12)

    @pytest.mark.parametrize("bad, message", [
        (np.diag([0.5, -0.5, 0.5, 0.5]).astype(complex), "negative eigenvalue -2.500e-01"),
        (0.25 * np.eye(4) + 0.125j * np.eye(4, k=1), "imaginary residue 2.706e-02"),
    ], ids=["negative", "imaginary"])
    def test_one_bad_matrix_names_its_sample_time(self, bad, message):
        mats = _stack(np.random.default_rng(55), 4, count=5)
        mats[3] = bad
        times = 0.25 * np.arange(len(mats))
        with pytest.raises(NumericalFailure, match=f"{message}.* at scaled time 0.75$"):
            concurrence_array(mats, times)
        with pytest.raises(NumericalFailure, match=message):
            concurrence_array(mats)

    def test_concurrence_never_exceeds_one_on_maximally_entangled_states(self):
        # the singlet under random local unitaries: unclamped, draws 189, 204 and
        # 315 round to 1 + 2.2e-16, and E_F then refused the concurrence
        rng = np.random.default_rng(0)
        singlet = np.array([0, 1, -1, 0]) / math.sqrt(2)
        mats = []
        for _ in range(400):
            q = [np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
                 for _ in range(2)]
            v = np.kron(q[0], q[1]) @ singlet
            mats.append(np.outer(v, v.conj()))
        c = concurrence_array(np.array(mats))
        assert np.all(c <= 1.0) and np.any(c == 1.0)
        b = qubit_basis(2)
        eof = np.array([entanglement_of_formation(DensityMatrix(m, b)) for m in mats])
        assert np.all(eof[c == 1.0] == 1.0)
        # elsewhere the square roots of the three ~1e-17 eigenvalues leave C
        # up to ~3e-8 short of 1 (see concurrence_array)
        assert np.all(np.abs(eof - 1.0) <= 1e-7)
