import math

import numpy as np
import pytest

from qlre.dynamics import (
    build_collective_zero_T,
    evolve,
    lindblad_rhs,
    steady_state,
)
from qlre.entanglement import concurrence, entanglement_of_formation
from qlre.hilbert import (
    Backend,
    BasisDescriptor,
    DensityMatrix,
    fidelity_with_pure,
    ground_state,
    partial_trace,
    product_state,
    pure_product_state,
    to_collective_basis,
    trace_distance,
)
from qlre.oracle import (
    DarkStateFamily,
    chain_basis,
    concurrence_analytic,
    dark_state,
    dark_state_family,
    edge_excited_pair_steady,
    edge_excited_steady,
    intro_pair_steady,
    psi_1,
    psi_2,
    tripartite_decompose,
    w_state,
    x_dark,
    x_reduced,
)


def chain_equation(basis):
    return build_collective_zero_T(basis, [[0, 1], [1, 2]])


class TestDarkState:
    def test_two_spin_amplitudes_frozen(self):
        # hand-expanded for a two-spin middle domain: amplitudes
        # sqrt(2/5) * (1, -1/2, -1/2, 1) on the four single-excitation kets
        psi = dark_state(2)
        amp = psi.amplitudes
        s = math.sqrt(2.0 / 5.0)
        expected = {7: s, 11: -0.5 * s, 13: -0.5 * s, 14: s}
        for idx, val in expected.items():
            assert amp[idx] == pytest.approx(val, abs=1e-14)
        mask = np.ones(16, dtype=bool)
        mask[list(expected)] = False
        assert np.max(np.abs(amp[mask])) == 0.0

    @pytest.mark.parametrize("n_b", range(1, 9))
    def test_normalized(self, n_b):
        assert np.linalg.norm(dark_state(n_b).amplitudes) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n_b", range(1, 9))
    def test_annihilated_by_both_reservoirs_full(self, n_b):
        b = chain_basis(n_b)
        eq = chain_equation(b)
        rho = dark_state(n_b).projector()
        assert np.linalg.norm(lindblad_rhs(eq, rho)) < 1e-10

    @pytest.mark.parametrize("n_b", range(1, 9))
    def test_annihilated_in_collective_backend(self, n_b):
        rho = to_collective_basis(dark_state(n_b).projector())
        eq = chain_equation(rho.basis)
        assert np.linalg.norm(lindblad_rhs(eq, rho)) < 1e-10

    @pytest.mark.parametrize("bad", [0, -1, 2.5])
    def test_size_validation(self, bad):
        with pytest.raises((ValueError, TypeError)):
            dark_state(bad)


class TestFamily:
    def test_non_orthonormal_triple_refused(self):
        fam = dark_state_family(2)
        with pytest.raises(ValueError, match=r"^family is not orthonormal to 1e-12$"):
            DarkStateFamily(2, fam.psi_d, fam.psi_d, fam.psi_2)

    @pytest.mark.parametrize("n_b", [1, 2, 3, 5, 8])
    def test_orthonormal_triple(self, n_b):
        fam = dark_state_family(n_b)
        vecs = [fam.psi_1.amplitudes, fam.psi_2.amplitudes, fam.psi_d.amplitudes]
        gram = np.array([[np.vdot(u, v) for v in vecs] for u in vecs])
        assert np.max(np.abs(gram - np.eye(3))) < 1e-12

    def test_singlet_variant_orthogonal_to_family(self):
        # N_B = 2 also supports an edge-ground state built on the middle
        # domain's antisymmetric pair; it must be orthogonal to all three
        b = chain_basis(2)
        singlet = np.zeros(4, dtype=complex)
        singlet[1] = 1 / math.sqrt(2)
        singlet[2] = -1 / math.sqrt(2)
        phi = pure_product_state(b, ["d", singlet, "d"])
        fam = dark_state_family(2)
        for vec in (fam.psi_1, fam.psi_2, fam.psi_d):
            assert abs(np.vdot(phi.amplitudes, vec.amplitudes)) < 1e-14

    def test_singlet_variant_is_stationary(self):
        b = chain_basis(2)
        singlet = np.zeros(4, dtype=complex)
        singlet[1] = 1 / math.sqrt(2)
        singlet[2] = -1 / math.sqrt(2)
        phi = pure_product_state(b, ["d", singlet, "d"])
        eq = chain_equation(b)
        assert np.linalg.norm(lindblad_rhs(eq, phi.projector())) < 1e-12

    def test_single_excited_edge_decomposition(self):
        # |up, down...down, down> expands over the family with weights
        # 1, sqrt(2 N_B + 1), sqrt(2 N_B) over sqrt(2 (2 N_B + 1))
        for n_b in (1, 2, 4):
            b = chain_basis(n_b)
            start = pure_product_state(b, ["u", "d" * n_b, "d"])
            fam = dark_state_family(n_b)
            den = math.sqrt(2.0 * (2 * n_b + 1))
            rebuilt = (
                fam.psi_1.amplitudes
                + math.sqrt(2.0 * n_b + 1) * fam.psi_2.amplitudes
                + math.sqrt(2.0 * n_b) * fam.psi_d.amplitudes
            ) / den
            assert np.max(np.abs(rebuilt - start.amplitudes)) < 1e-12

    @pytest.mark.parametrize("n_b", [1, 2, 4])
    def test_bright_states_relax_to_ground(self, n_b):
        b = chain_basis(n_b)
        eq = chain_equation(b)
        g = ground_state(b)
        for vec in (psi_1(n_b), psi_2(n_b)):
            traj = evolve(eq, vec.projector(), 40.0, 10.0)
            assert trace_distance(traj.final_rho, g) < 1e-8


class TestWeights:
    def test_dark_weight_values(self):
        assert x_dark(1) == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert x_dark(2) == pytest.approx(2.0 / 5.0, abs=1e-15)
        assert x_dark(10**6) == pytest.approx(0.5, abs=1e-6)

    def test_pair_weight_values(self):
        assert x_reduced(1) == pytest.approx(2.0 / 9.0, abs=1e-15)
        assert x_reduced(2) == pytest.approx(8.0 / 25.0, abs=1e-15)
        assert x_reduced(10**6) == pytest.approx(0.5, abs=1e-6)

    def test_pair_weight_consistent_with_dark_weight(self):
        for n_b in range(1, 30):
            assert x_reduced(n_b) == pytest.approx(
                2.0 * n_b**2 / (2 * n_b + 1) ** 2, abs=1e-15
            )

    def test_large_size_eof_limit(self):
        from qlre.entanglement import eof_from_concurrence

        val = eof_from_concurrence(x_reduced(1000))
        assert val == pytest.approx(0.354, abs=1e-3)

    def test_concurrence_alias(self):
        for n_b in (1, 2, 5):
            assert concurrence_analytic(n_b) == x_reduced(n_b)


class TestSteadyStates:
    @pytest.mark.parametrize("n_b", [1, 2, 3])
    def test_matches_simulation_from_edge_excited_start(self, n_b):
        b = chain_basis(n_b)
        eq = chain_equation(b)
        rho0 = product_state(b, ["u", "d" * n_b, "d"])
        res = steady_state(eq, rho0)
        assert trace_distance(res.rho, edge_excited_steady(n_b)) < 1e-7

    def test_structure(self):
        n_b = 3
        rho = edge_excited_steady(n_b)
        g = ground_state(rho.basis)
        w = x_dark(n_b)
        expected = (1 - w) * g.matrix + w * dark_state(n_b).projector().matrix
        assert np.max(np.abs(rho.matrix - expected)) < 1e-14

    @pytest.mark.parametrize("n_b", range(1, 11))
    def test_is_a_state_without_the_eigendecomposition(self, n_b, monkeypatch):
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "eigvalsh", None)  # a call would raise
            rho = edge_excited_steady(n_b)
        assert rho.validate is False
        # every nonzero lies in the block of the nonzero rows, so the spectrum is the
        # block's plus zeros; d = 4096 at n_b = 10 would take seconds whole
        m = rho.matrix
        support = np.flatnonzero(np.any(m != 0, axis=1))
        block = m[np.ix_(support, support)]
        assert np.count_nonzero(block) == np.count_nonzero(m)
        assert np.array_equal(block, block.conj().T)
        assert abs(m.trace() - 1.0) <= 1e-12
        assert np.linalg.eigvalsh(block)[0] >= -1e-12

    @pytest.mark.parametrize("n_b", [1, 2, 4])
    def test_reduced_pair_matches_two_level_form(self, n_b):
        full = edge_excited_steady(n_b)
        red = partial_trace(full, [0, 2])
        assert trace_distance(red, edge_excited_pair_steady(n_b)) < 1e-12

    @pytest.mark.parametrize("n_b", [1, 2, 4])
    def test_pair_concurrence_equals_weight(self, n_b):
        rho = edge_excited_pair_steady(n_b)
        assert concurrence(rho) == pytest.approx(x_reduced(n_b), abs=1e-10)

    def test_intro_pair_value(self):
        rho = intro_pair_steady()
        assert entanglement_of_formation(rho) == pytest.approx(0.3546, abs=1e-3)
        evals = np.sort(np.linalg.eigvalsh(rho.matrix))
        assert np.allclose(evals, [0, 0, 0.5, 0.5], atol=1e-12)

    def test_intro_pair_matches_simulation(self):
        rho = intro_pair_steady()
        b = rho.basis
        eq = build_collective_zero_T(b, [[0, 1]])
        res = steady_state(eq, product_state(b, ["u", "d"]))
        assert trace_distance(res.rho, rho) < 1e-8


class TestTripartite:
    def test_w_state_vector(self):
        w = w_state()
        assert np.linalg.norm(w.amplitudes) == pytest.approx(1.0, abs=1e-15)
        assert fidelity_with_pure(w.projector(), w) == pytest.approx(1.0, abs=1e-12)

    def test_decompose_pure_w(self):
        c_g, c_w, resid = tripartite_decompose(w_state().projector())
        assert c_g == pytest.approx(0.0, abs=1e-14)
        assert c_w == pytest.approx(1.0, abs=1e-14)
        assert resid < 1e-12

    def test_decompose_known_mixture(self):
        w = w_state().projector().matrix
        b = w_state().basis
        g = np.zeros((8, 8), dtype=complex)
        g[7, 7] = 1.0
        rho = DensityMatrix(0.7 * g + 0.3 * w, b)
        c_g, c_w, resid = tripartite_decompose(rho)
        assert c_g == pytest.approx(0.7, abs=1e-12)
        assert c_w == pytest.approx(0.3, abs=1e-12)
        assert resid < 1e-12

    def test_decompose_reports_leftover(self):
        b = w_state().basis
        m = np.zeros((8, 8), dtype=complex)
        m[0, 0] = 1.0  # fully excited: outside the ground/W span
        _, _, resid = tripartite_decompose(DensityMatrix(m, b))
        assert resid == pytest.approx(1.0, abs=1e-12)

    def test_decompose_refuses_a_pair(self):
        pair = ground_state(BasisDescriptor(Backend.FULL, (1, 1)))
        with pytest.raises(
            ValueError, match=r"^expected a three-spin state, got dimensions \(2, 2\)$"
        ):
            tripartite_decompose(pair)

    def test_star_steady_state_is_ground_w_mixture(self):
        n_d = 6
        b = BasisDescriptor(Backend.COLLECTIVE, (1, 1, 1, n_d))
        eq = build_collective_zero_T(b, [[0, 3], [1, 3], [2, 3]])
        rho0 = product_state(b, [0, 0, 0, n_d])
        res = steady_state(eq, rho0)
        red = partial_trace(res.rho, [0, 1, 2])
        from qlre.hilbert import to_full_basis

        c_g, c_w, resid = tripartite_decompose(to_full_basis(red))
        assert resid < 1e-8
        assert c_g + c_w == pytest.approx(1.0, abs=1e-8)
        assert c_w > 0.05

    def test_star_w_weight_grows_with_center_size(self):
        weights = []
        for n_d in (1, 3, 6):
            b = BasisDescriptor(Backend.COLLECTIVE, (1, 1, 1, n_d))
            eq = build_collective_zero_T(b, [[0, 3], [1, 3], [2, 3]])
            rho0 = product_state(b, [0, 0, 0, n_d])
            res = steady_state(eq, rho0)
            red = partial_trace(res.rho, [0, 1, 2])
            from qlre.hilbert import to_full_basis

            weights.append(tripartite_decompose(to_full_basis(red))[1])
        assert weights[0] < weights[1] < weights[2]
