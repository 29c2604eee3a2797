import logging
import math

import numpy as np
import pytest

from qlre import dynamics
from qlre.dynamics import (
    _Sector,
    _Stepper,
    LindbladTerm,
    MasterEquation,
    Trajectory,
    build_collective_zero_T,
    build_realistic,
    evolve,
    expectation,
    half_max_time,
    lindblad_rhs,
    steady_state,
)
from qlre.entanglement import entanglement_of_formation
from qlre.errors import (
    ConvergenceFailure,
    UndefinedResultError,
    UnsupportedConfigurationError,
)
from qlre.hilbert import (
    Backend,
    BasisDescriptor,
    DensityMatrix,
    Operator,
    collective_jz,
    collective_lowering,
    embed,
    excitation_numbers,
    ground_state,
    partial_trace,
    product_state,
    reservoir_jump,
    to_collective_basis,
    to_full_basis,
    trace_distance,
)
from qlre.scenarios import build_initial_state, build_master_equation, preset


def single_qubit_eq():
    b = BasisDescriptor(Backend.COLLECTIVE, (1,))
    return b, build_collective_zero_T(b, [[0]])


def chain_eq(n_b, backend=Backend.COLLECTIVE):
    b = BasisDescriptor(backend, (1, n_b, 1))
    return b, build_collective_zero_T(b, [[0, 1], [1, 2]])


def random_density(rng, basis):
    d = basis.dim
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = a @ a.conj().T
    return DensityMatrix(m / m.trace(), basis)


class TestRhs:
    def test_ground_state_is_stationary(self):
        b, eq = chain_eq(4)
        assert np.linalg.norm(lindblad_rhs(eq, ground_state(b))) == 0.0

    def test_output_hermitian_traceless(self):
        rng = np.random.default_rng(5)
        b, eq = chain_eq(3)
        for _ in range(5):
            out = lindblad_rhs(eq, random_density(rng, b))
            assert abs(out.trace()) < 1e-12
            assert np.max(np.abs(out - out.conj().T)) < 1e-12

    def test_basis_mismatch_rejected(self):
        b, eq = chain_eq(2)
        other = ground_state(BasisDescriptor(Backend.COLLECTIVE, (1, 3, 1)))
        with pytest.raises(ValueError):
            lindblad_rhs(eq, other)

    def test_single_qubit_decay_law(self):
        # closed form: excited population exp(-2 tau) in scaled time
        b, eq = single_qubit_eq()
        rho0 = product_state(b, [1])
        traj = evolve(eq, rho0, 3.0, 0.1, observables={"pe": lambda r: r.matrix[0, 0].real})
        expected = np.exp(-2.0 * traj.times)
        assert np.max(np.abs(traj.observables["pe"] - expected)) < 1e-8

    def test_negative_rate_rejected(self):
        b, _ = single_qubit_eq()
        op = reservoir_jump(b, [0])
        with pytest.raises(ValueError):
            LindbladTerm(op, -0.5)

    def test_terms_must_share_basis(self):
        b, _ = single_qubit_eq()
        other = BasisDescriptor(Backend.COLLECTIVE, (2,))
        term = LindbladTerm(reservoir_jump(other, [0]), 1.0)
        with pytest.raises(ValueError):
            MasterEquation((term,), b)


def random_order_zero_density(rng, basis):
    """Random state with no coherence between different excitation numbers."""
    n = excitation_numbers(basis)
    m = random_density(rng, basis).matrix.copy()
    m[n[:, None] != n[None, :]] = 0.0  # a pinching keeps the matrix positive
    return DensityMatrix(m, basis)


class TestSector:
    @pytest.mark.parametrize(
        "backend, pops, kwargs",
        [
            (Backend.COLLECTIVE, (1, 3, 1), {}),
            (Backend.COLLECTIVE, (1, 3, 1), {"nbar": 0.25}),
            (
                Backend.FULL,
                (1, 2, 1),
                {"nbar": 0.25, "include_individual": True, "gamma_dep_over_gamma": 0.1},
            ),
        ],
    )
    def test_superoperator_matches_matrix_rhs(self, backend, pops, kwargs):
        rng = np.random.default_rng(11)
        b = BasisDescriptor(backend, pops)
        eq = build_realistic(b, [[0, 1], [1, 2]], **kwargs)
        for _ in range(3):
            rho = random_order_zero_density(rng, b)
            sector = _Sector(eq, rho.matrix)
            assert sector.keys.size < b.dim**2
            reference = lindblad_rhs(eq, rho)
            # the matrix rhs has no weight outside the kept elements
            assert np.max(np.abs(sector.unpack(sector.pack(reference)) - reference)) < 1e-12
            packed = sector.liouvillian @ sector.pack(rho.matrix)
            assert np.max(np.abs(packed - sector.pack(reference))) < 1e-12

    def test_coherent_qubit_keeps_orders_plus_minus_one(self):
        b, eq = single_qubit_eq()
        plus = np.full((2, 2), 0.5, dtype=complex)  # |+><+|, index 0 excited
        rho0 = product_state(b, [plus])
        n = excitation_numbers(b)
        sector = _Sector(eq, rho0.matrix)
        rows, cols = np.divmod(sector.keys, b.dim)
        assert set(n[rows] - n[cols]) == {-1, 0, 1}
        traj = evolve(
            eq,
            rho0,
            2.0,
            0.1,
            observables={
                "coherence": lambda r: r.matrix[0, 1].real,
                "pe": lambda r: r.matrix[0, 0].real,
            },
        )
        t = traj.times
        assert np.max(np.abs(traj.observables["coherence"] - 0.5 * np.exp(-t))) < 1e-8
        assert np.max(np.abs(traj.observables["pe"] - 0.5 * np.exp(-2.0 * t))) < 1e-8

    @pytest.mark.parametrize("jump", [[[0, 1], [1, 0]], [[0, -1j], [1j, 0]]], ids=["x", "y"])
    def test_jump_without_fixed_shift_keeps_every_element(self, jump):
        b = BasisDescriptor(Backend.COLLECTIVE, (1,))
        sigma = Operator(np.array(jump, dtype=complex), b)
        eq = MasterEquation((LindbladTerm(sigma, 1.0),), b)
        rho0 = product_state(b, [1])
        assert _Sector(eq, rho0.matrix).keys.size == b.dim**2
        traj = evolve(eq, rho0, 2.0, 0.1, observables={"pe": lambda r: r.matrix[0, 0].real})
        expected = 0.5 * (1.0 + np.exp(-4.0 * traj.times))
        assert np.max(np.abs(traj.observables["pe"] - expected)) < 1e-8

    def test_error_norm_counts_every_matrix_element(self):
        # dividing by d^2, not by the sector size, keeps the step sequence
        # of stepping the full matrix
        rng = np.random.default_rng(3)
        b, eq = chain_eq(3)
        rho0 = product_state(b, [0, 3, 0])
        stepper = _Stepper(eq, rho0.matrix)
        x = rng.normal(size=stepper.y.size) + 1j * rng.normal(size=stepper.y.size)
        full = stepper.sector.unpack(x)
        assert stepper._rms(x) == pytest.approx(np.sqrt(np.mean(np.abs(full) ** 2)), rel=1e-12)


def random_hermitian(rng, d, real=False):
    a = rng.normal(size=(d, d))
    if not real:
        a = a + 1j * rng.normal(size=(d, d))
    return a + a.conj().T


def _sigma_y_pair():
    """Full (1,1) with a sigma_y jump on the first spin (complex) and collective decay."""
    b = BasisDescriptor(Backend.FULL, (1, 1))
    sigma_y = Operator(np.kron(np.array([[0, -1j], [1j, 0]]), np.eye(2)), b)
    terms = (LindbladTerm(sigma_y, 1.0), LindbladTerm(reservoir_jump(b, [0, 1]), 0.5))
    return b, MasterEquation(terms, b)


class TestCoordinates:
    @pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
    def test_euclidean_norm_is_frobenius_norm(self, real):
        rng = np.random.default_rng(21)
        b = BasisDescriptor(Backend.COLLECTIVE, (1, 3, 1))
        eq = build_collective_zero_T(b, [[0, 1], [1, 2]])
        for _ in range(3):
            rho = random_hermitian(rng, b.dim, real)  # every coherence order: all kept
            sector = _Sector(eq, rho)
            assert sector.keys.size == b.dim**2
            assert np.linalg.norm(sector.pack(rho)) == pytest.approx(
                np.linalg.norm(rho), rel=1e-13
            )

    @pytest.mark.parametrize("case", ["sigma-y", "thermal"])
    def test_complex_input_keeps_im_coordinates(self, case):
        rng = np.random.default_rng(22)
        if case == "sigma-y":  # a complex jump
            b, eq = _sigma_y_pair()
        else:  # real jumps, with a raising channel
            b = BasisDescriptor(Backend.COLLECTIVE, (1, 2, 1))
            eq = build_realistic(b, [[0, 1], [1, 2]], nbar=0.3)
        for _ in range(3):
            rho = random_density(rng, b)  # complex, every coherence order
            sector = _Sector(eq, rho.matrix)
            # d real diagonal entries, then Re and Im of each of the d(d-1)/2 pairs
            assert sector.levels.size == b.dim**2
            assert sector.liouvillian.dtype == np.float64
            reference = lindblad_rhs(eq, rho)
            x = sector.liouvillian @ sector.pack(rho.matrix)
            assert np.max(np.abs(x - sector.pack(reference))) < 1e-12
            assert np.max(np.abs(sector.unpack(x) - reference)) < 1e-12

    def test_real_preset_keeps_one_coordinate_per_pair(self):
        cfg = preset("fig4-chain4")[0]
        eq, rho0 = build_master_equation(cfg), build_initial_state(cfg)
        sector = _Sector(eq, rho0.matrix)
        rows, cols = np.divmod(sector.keys, eq.basis.dim)
        assert sector.levels.size == np.count_nonzero(rows <= cols)
        assert sector.levels.size == (sector.keys.size + np.count_nonzero(rows == cols)) // 2

    def test_levels_are_sorted_sums_of_excitation_numbers(self):
        b = BasisDescriptor(Backend.COLLECTIVE, (1, 2, 1))
        eq = build_collective_zero_T(b, [[0, 1], [1, 2]])
        plus = np.full((2, 2), 0.5, dtype=complex)
        sector = _Sector(eq, product_state(b, [plus, 2, 0]).matrix)
        n = excitation_numbers(b)
        assert np.all(np.diff(sector.levels) <= 0)
        # every coordinate's level is n(i) + n(j) of the elements it reads
        rows, cols = np.divmod(sector.keys, b.dim)
        reads = sector._to_coordinates.tocoo()
        assert np.array_equal(
            sector.levels[reads.row], n[rows[reads.col]] + n[cols[reads.col]]
        )

    @pytest.mark.parametrize("case", ["real", "complex"])
    def test_unpack_is_exactly_hermitian(self, case):
        rng = np.random.default_rng(24)
        if case == "real":
            b, eq = chain_eq(3)
            rho0 = product_state(b, [0, 3, 0]).matrix
        else:
            b, eq = _sigma_y_pair()
            rho0 = random_density(rng, b).matrix
        sector = _Sector(eq, rho0)
        m = sector.unpack(rng.normal(size=sector.levels.size))
        assert np.array_equal(m, m.conj().T)
        assert np.all(m.diagonal().imag == 0.0)

    def test_plus_i_coherence_decays_with_im_coordinates(self):
        # |+i> = (|e> + i|g>)/sqrt(2) under D[sigma-]: rho_eg = -(i/2) e^{-tau}
        b, eq = single_qubit_eq()
        plus_i = np.array([[0.5, -0.5j], [0.5j, 0.5]])  # index 0 excited
        rho0 = product_state(b, [plus_i])
        assert _Sector(eq, rho0.matrix).levels.size == 4  # Im coordinate kept
        traj = evolve(
            eq,
            rho0,
            2.0,
            0.1,
            observables={
                "re": lambda r: r.matrix[0, 1].real,
                "im": lambda r: r.matrix[0, 1].imag,
                "pe": lambda r: r.matrix[0, 0].real,
            },
        )
        t = traj.times
        assert np.max(np.abs(traj.observables["re"])) < 1e-12
        assert np.max(np.abs(traj.observables["im"] + 0.5 * np.exp(-t))) < 1e-8
        assert np.max(np.abs(traj.observables["pe"] - 0.5 * np.exp(-2.0 * t))) < 1e-8
        assert np.array_equal(traj.final_rho.matrix, traj.final_rho.matrix.conj().T)


class TestSolverStats:
    @staticmethod
    def _identity_holds(stats):
        return stats.rhs_calls == 2 + 6 * (stats.accepted + stats.rejected)

    def test_chain4_to_a_quarter_takes_422_rhs_calls(self):
        cfg = preset("fig4-chain4")[0]
        eq, rho0 = build_master_equation(cfg), build_initial_state(cfg)
        stats = evolve(eq, rho0, 0.25, 0.25).stats
        assert stats.rhs_calls == 422
        assert self._identity_holds(stats)
        assert 0.0 <= stats.worst_trace_drift <= dynamics.TRACE_DRIFT_TOL

    def test_rejected_steps_are_counted(self):
        # the thermal (1,2,1) run rejects steps in its stiff stretch
        b, eq = _collective_121(nbar=0.25)
        stats = evolve(eq, product_state(b, [1, 0, 0]), 10.0, 1.0).stats
        assert stats.rejected > 0
        assert self._identity_holds(stats)

    def test_trace_drift_retries_count_as_rejected(self, monkeypatch):
        original = _Stepper._attempt
        spoiled = []

        def attempt(self, h):
            y_new, k7, err = original(self, h)
            if err <= 1.0 and len(spoiled) < 3:
                spoiled.append(h)
                y_new = y_new.copy()
                y_new[self.sector.diagonal[0]] += 1e-6  # a trace drift of 1e-6
            return y_new, k7, err

        monkeypatch.setattr(_Stepper, "_attempt", attempt)
        b, eq = chain_eq(3)
        traj = evolve(eq, product_state(b, [0, 3, 0]), 1.0, 0.5)
        assert len(spoiled) == 3
        assert traj.stats.rejected >= 3
        assert self._identity_holds(traj.stats)
        assert traj.stats.worst_trace_drift < dynamics.TRACE_DRIFT_TOL


class TestBuilders:
    def test_chain_of_three_has_two_reservoirs(self):
        b, eq = chain_eq(5)
        assert len(eq.terms) == 2
        assert all(t.rate == 1.0 for t in eq.terms)
        ja = reservoir_jump(b, [0, 1]).toarray()
        jc = reservoir_jump(b, [1, 2]).toarray()
        assert np.allclose(eq.terms[0].jump.toarray(), ja)
        assert np.allclose(eq.terms[1].jump.toarray(), jc)

    def test_star_has_three_reservoirs(self):
        b = BasisDescriptor(Backend.COLLECTIVE, (1, 1, 1, 4))
        eq = build_collective_zero_T(b, [[0, 3], [1, 3], [2, 3]])
        assert len(eq.terms) == 3

    def test_empty_reservoir_list_rejected(self):
        b, _ = single_qubit_eq()
        with pytest.raises(ValueError):
            build_collective_zero_T(b, [])

    def test_realistic_default_reduces_to_zero_T(self):
        b, ref = chain_eq(3)
        eq = build_realistic(b, [[0, 1], [1, 2]])
        assert len(eq.terms) == len(ref.terms)
        for t, r in zip(eq.terms, ref.terms):
            assert t.rate == r.rate
            assert np.allclose(t.jump.toarray(), r.jump.toarray())

    def test_thermal_collective_term_count(self):
        b, _ = chain_eq(3)
        eq = build_realistic(b, [[0, 1], [1, 2]], nbar=0.25)
        assert len(eq.terms) == 4
        rates = sorted(t.rate for t in eq.terms)
        assert rates == [0.25, 0.25, 1.25, 1.25]

    def test_three_spin_full_noise_has_thirteen_terms(self):
        b = BasisDescriptor(Backend.FULL, (1, 1, 1))
        eq = build_realistic(
            b, [[0, 1], [1, 2]], nbar=0.5, include_individual=True, gamma_dep_over_gamma=0.1
        )
        assert len(eq.terms) == 13

    def test_individual_terms_require_full_backend(self):
        b, _ = chain_eq(2)
        with pytest.raises(UnsupportedConfigurationError):
            build_realistic(b, [[0, 1], [1, 2]], include_individual=True)
        with pytest.raises(UnsupportedConfigurationError):
            build_realistic(b, [[0, 1], [1, 2]], gamma_dep_over_gamma=0.1)

    def test_spin_cap_needs_override(self):
        b = BasisDescriptor(Backend.FULL, (1, 12, 1))
        with pytest.raises(UnsupportedConfigurationError):
            build_realistic(b, [[0, 1], [1, 2]])

    def test_large_run_notice_is_logged(self, monkeypatch, caplog, capsys):
        monkeypatch.setattr(dynamics, "INDIVIDUAL_SPIN_CAP", 1)
        b = BasisDescriptor(Backend.FULL, (1, 1, 1))
        with caplog.at_level(logging.WARNING, logger="qlre.dynamics"):
            build_realistic(b, [[0, 1], [1, 2]], allow_large=True)
        [record] = caplog.records
        assert record.name == "qlre.dynamics"
        assert record.levelno == logging.WARNING
        assert record.getMessage() == "large full-backend run: dimension 8, density matrix ~0 MiB"
        assert capsys.readouterr() == ("", "")

    @pytest.mark.parametrize("bad", [-0.1, float("nan")])
    def test_invalid_rates_rejected(self, bad):
        b, _ = chain_eq(2)
        with pytest.raises(ValueError):
            build_realistic(b, [[0, 1], [1, 2]], nbar=bad)
        with pytest.raises(ValueError):
            build_realistic(b, [[0, 1], [1, 2]], gamma_dep_over_gamma=bad)


class TestEvolve:
    def test_empty_equation_constant_trajectory(self):
        b = BasisDescriptor(Backend.COLLECTIVE, (2,))
        eq = MasterEquation((), b)
        rho0 = product_state(b, [1])
        traj = evolve(eq, rho0, 1.0, 0.2, keep=[0])
        for snap in traj.snapshots:
            assert trace_distance(snap, rho0) < 1e-12

    def test_sample_grid_hits_endpoints(self):
        b, eq = single_qubit_eq()
        traj = evolve(eq, product_state(b, [1]), 1.0, 0.3)
        assert traj.times[0] == 0.0
        assert traj.times[-1] == pytest.approx(1.0)

    def test_final_state_valid_density_matrix(self):
        b, eq = chain_eq(4)
        rho0 = product_state(b, [0, 4, 0])
        traj = evolve(eq, rho0, 5.0, 0.5)
        final = traj.final_rho
        assert abs(final.matrix.trace() - 1) < 1e-8
        evals = np.linalg.eigvalsh(final.matrix)
        assert evals[0] > -1e-9

    def test_intro_pair_entanglement_rises_to_known_value(self):
        b = BasisDescriptor(Backend.COLLECTIVE, (1, 1))
        eq = build_collective_zero_T(b, [[0, 1]])
        rho0 = product_state(b, [1, 0])

        def eof(r):
            return entanglement_of_formation(DensityMatrix(r.matrix, r.basis))

        traj = evolve(eq, rho0, 25.0, 0.25, observables={"eof": eof})
        series = traj.observables["eof"]
        # tiny integrator-scale wiggle is allowed once the curve saturates
        assert np.all(np.diff(series) > -1e-7)
        assert series[-1] == pytest.approx(0.3546, abs=1e-3)

    def test_superradiant_relaxation_speeds_up_with_population(self):
        crossing = {}
        for n_b in (3, 6, 12):
            b, eq = chain_eq(n_b)
            rho0 = product_state(b, [0, n_b, 0])
            jz = embed(collective_jz(n_b, Backend.COLLECTIVE), b, 1)
            traj = evolve(
                eq, rho0, 6.0, 0.02, observables={"jz": lambda r, op=jz: expectation(r, op)}
            )
            series = traj.observables["jz"] / n_b
            below = np.nonzero(series < 0.0)[0]
            crossing[n_b] = traj.times[below[0]]
        assert crossing[3] > crossing[6] > crossing[12]

    def test_collective_decay_never_raises_total_excitation(self):
        rng = np.random.default_rng(17)
        b, eq = chain_eq(3)
        jz_total = None
        for m, n in enumerate(b.domain_pops):
            op = embed(collective_jz(n, Backend.COLLECTIVE), b, m)
            jz_total = op.toarray() if jz_total is None else jz_total + op.toarray()
        from qlre.hilbert import Operator

        jz_op = Operator(jz_total, b)
        for _ in range(4):
            levels = [rng.integers(0, n + 1) for n in b.domain_pops]
            traj = evolve(
                eq,
                product_state(b, levels),
                4.0,
                0.2,
                observables={"jz": lambda r: expectation(r, jz_op)},
            )
            assert np.all(np.diff(traj.observables["jz"]) < 1e-9)

    def test_backend_agreement_on_reduced_states(self):
        bc, eqc = chain_eq(3, Backend.COLLECTIVE)
        bf, eqf = chain_eq(3, Backend.FULL)
        rho_c = product_state(bc, [0, 3, 0])
        traj_c = evolve(eqc, rho_c, 3.0, 0.5, keep=[0, 2])
        traj_f = evolve(eqf, to_full_basis(rho_c), 3.0, 0.5, keep=[0, 2])
        for sc, sf in zip(traj_c.snapshots, traj_f.snapshots):
            assert trace_distance(sc, to_collective_basis(sf)) < 1e-8

    @pytest.mark.parametrize("bad_dt", [0.0, -1.0])
    def test_invalid_sampling_rejected(self, bad_dt):
        b, eq = single_qubit_eq()
        with pytest.raises(ValueError):
            evolve(eq, product_state(b, [1]), 1.0, bad_dt)


class TestSteadyState:
    def test_ground_state_returns_immediately(self):
        b, eq = chain_eq(3)
        g = ground_state(b)
        res = steady_state(eq, g)
        assert res.elapsed_scaled_time == 0.0
        assert res.rho is g

    def test_known_chain_value(self):
        b, eq = chain_eq(12)
        rho0 = product_state(b, [0, 12, 0])
        res = steady_state(eq, rho0)
        assert res.residual < 1e-10
        red = partial_trace(res.rho, [0, 2])
        assert entanglement_of_formation(red) == pytest.approx(0.315, abs=5e-3)

    def test_nonconvergence_raises(self):
        b, eq = chain_eq(4)
        rho0 = product_state(b, [0, 4, 0])
        with pytest.raises(ConvergenceFailure):
            steady_state(eq, rho0, max_scaled_time=0.5)

    def test_invalid_tolerance(self):
        b, eq = single_qubit_eq()
        with pytest.raises(ValueError):
            steady_state(eq, ground_state(b), tol=0.0)


class TestExpectation:
    def test_single_spin_values(self):
        b = BasisDescriptor(Backend.COLLECTIVE, (1,))
        jz = collective_jz(1, Backend.COLLECTIVE)
        assert expectation(product_state(b, [0]), jz) == pytest.approx(-0.5)
        assert expectation(product_state(b, [1]), jz) == pytest.approx(0.5)

    def test_fully_excited_domain_normalized(self):
        n = 6
        b = BasisDescriptor(Backend.COLLECTIVE, (n,))
        jz = collective_jz(n, Backend.COLLECTIVE)
        assert expectation(product_state(b, [n]), jz) / n == pytest.approx(0.5)

    def test_non_hermitian_rejected(self):
        b = BasisDescriptor(Backend.COLLECTIVE, (1,))
        jm = collective_lowering(1, Backend.COLLECTIVE)
        with pytest.raises(ValueError):
            expectation(product_state(b, [0]), jm)

    def test_basis_mismatch_rejected(self):
        b = BasisDescriptor(Backend.COLLECTIVE, (1,))
        jz = collective_jz(2, Backend.COLLECTIVE)
        with pytest.raises(ValueError):
            expectation(product_state(b, [0]), jz)


class TestHalfMaxTime:
    def test_plateau_series(self):
        assert half_max_time([0, 1, 1], [0, 1, 2]) == pytest.approx(0.5)

    def test_monotone_ramp(self):
        t = np.linspace(0, 1, 101)
        assert half_max_time(t.copy(), t) == pytest.approx(0.5, abs=1e-9)

    def test_starts_above_half(self):
        assert half_max_time([1.0, 0.2, 0.1], [0, 1, 2]) == 0.0

    def test_all_zero_undefined(self):
        with pytest.raises(UndefinedResultError):
            half_max_time([0.0, 0.0], [0.0, 1.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            half_max_time([0.0, 1.0], [0.0])


class TestTrajectoryType:
    def test_times_must_increase(self):
        b = BasisDescriptor(Backend.COLLECTIVE, (1,))
        rho = ground_state(b)
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0, 0.0, 1.0]), {}, None, rho)

    def test_series_length_checked(self):
        b = BasisDescriptor(Backend.COLLECTIVE, (1,))
        rho = ground_state(b)
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0, 1.0]), {"x": np.array([1.0])}, None, rho)


def projected_steady_state(eq, rho0):
    """P_inf rho0 from an SVD of the dense sector Liouvillian.

    The right singular vectors of zero singular value span the stationary
    states, the left ones the conserved quantities J; the projector keeps
    each weight Tr(J^dag rho0).
    """
    sector = _Sector(eq, rho0.matrix)
    L = sector.liouvillian.toarray()
    u, s, vh = np.linalg.svd(L)
    k = int(np.sum(s < 1e-10 * s[0]))
    stationary = vh[L.shape[0] - k :].conj().T
    conserved = u[:, L.shape[0] - k :]
    weights = np.linalg.solve(conserved.conj().T @ stationary, conserved.conj().T)
    y = stationary @ (weights @ sector.pack(rho0.matrix))
    return DensityMatrix(sector.unpack(y), eq.basis, validate=False)


def _collective_121(**kwargs):
    b = BasisDescriptor(Backend.COLLECTIVE, (1, 2, 1))
    return b, build_realistic(b, [[0, 1], [1, 2]], **kwargs)


def _steady_case(name):
    plus = np.full((2, 2), 0.5, dtype=complex)  # |+><+|, index 0 excited
    if name in ("udd", "udu", "duu"):
        b, eq = _collective_121()
        levels = {"udd": [1, 0, 0], "udu": [1, 0, 1], "duu": [0, 2, 1]}[name]
        return eq, product_state(b, levels)
    if name == "intro-pair":
        b = BasisDescriptor(Backend.COLLECTIVE, (1, 1))
        return build_collective_zero_T(b, [[0, 1]]), product_state(b, [1, 0])
    if name == "full-decay-dephasing":
        b = BasisDescriptor(Backend.FULL, (1, 2, 1))
        eq = build_realistic(
            b, [[0, 1], [1, 2]], include_individual=True, gamma_dep_over_gamma=0.1
        )
        return eq, product_state(b, ["u", "ud", "d"])
    if name == "coherent-plus":
        b, eq = _collective_121()
        return eq, product_state(b, [plus, 2, 0])
    if name == "thermal":
        b, eq = _collective_121(nbar=0.25)
        return eq, product_state(b, [1, 0, 0])
    if name == "sigma-x":
        b = BasisDescriptor(Backend.COLLECTIVE, (1,))
        sigma = Operator(np.array([[0, 1], [1, 0]], dtype=complex), b)
        return MasterEquation((LindbladTerm(sigma, 1.0),), b), product_state(b, [1])
    raise KeyError(name)


_LEVEL_SWEEP_CASES = ["udd", "udu", "duu", "intro-pair", "full-decay-dephasing", "coherent-plus"]
_EXPLICIT_CASES = ["thermal", "sigma-x"]


class TestImplicitSteadyState:
    @pytest.fixture
    def explicit_calls(self, monkeypatch):
        calls = []
        original = dynamics._integrate_to_steady_state

        def recording(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(dynamics, "_integrate_to_steady_state", recording)
        return calls

    @pytest.mark.parametrize("name", _LEVEL_SWEEP_CASES + _EXPLICIT_CASES)
    def test_matches_projected_initial_state(self, name, explicit_calls):
        eq, rho0 = _steady_case(name)
        # the explicit integrator stops ~2 tol away in trace distance on the
        # thermal case; a tighter tol lets it land as close as the sweep
        tol = 1e-12 if name in _EXPLICIT_CASES else dynamics.STEADY_STATE_TOL
        res = steady_state(eq, rho0, tol=tol)
        assert bool(explicit_calls) == (name in _EXPLICIT_CASES)
        assert trace_distance(res.rho, projected_steady_state(eq, rho0)) < 1e-10
        assert 0.0 < res.elapsed_scaled_time <= dynamics.MAX_SCALED_TIME
        assert res.residual < tol
        assert np.linalg.norm(lindblad_rhs(eq, res.rho)) < tol
        assert abs(res.rho.matrix.trace() - 1.0) < 1e-12
        assert np.array_equal(res.rho.matrix, res.rho.matrix.conj().T)

    def test_degenerate_kernel_keeps_initial_weights(self):
        # the three (1,2,1) patterns relax onto different dark-state mixtures
        limits = [steady_state(*_steady_case(p)).rho for p in ("udd", "udu", "duu")]
        assert trace_distance(limits[0], limits[1]) > 1e-3
        assert trace_distance(limits[0], limits[2]) > 1e-3
        assert trace_distance(limits[1], limits[2]) > 1e-3

    def test_coherences_survive_between_levels(self):
        eq, rho0 = _steady_case("coherent-plus")
        n = excitation_numbers(eq.basis)
        rho = steady_state(eq, rho0).rho.matrix
        assert np.max(np.abs(rho[n[:, None] - n[None, :] == 1])) > 1e-3

    def test_steps_of_one_unit_up_to_the_limit(self):
        eq, rho0 = _steady_case("udd")
        res = steady_state(eq, rho0, max_scaled_time=60.0)
        assert res.elapsed_scaled_time == int(res.elapsed_scaled_time) <= 60.0
        with pytest.raises(ConvergenceFailure):
            steady_state(eq, rho0, max_scaled_time=res.elapsed_scaled_time - 0.5)

    def test_large_level_block_falls_back(self, monkeypatch, explicit_calls):
        eq, rho0 = _steady_case("udu")
        monkeypatch.setattr(dynamics, "LEVEL_BLOCK_LIMIT", 3)
        res = steady_state(eq, rho0)
        assert len(explicit_calls) == 1
        assert trace_distance(res.rho, projected_steady_state(eq, rho0)) < 1e-10

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_invalid_max_scaled_time(self, bad):
        b, eq = chain_eq(2)
        with pytest.raises(ValueError, match="max_scaled_time"):
            steady_state(eq, product_state(b, [0, 2, 0]), max_scaled_time=bad)
