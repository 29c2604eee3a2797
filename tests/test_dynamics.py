import dataclasses
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
    NumericalFailure,
    UndefinedResultError,
    UnsupportedConfigurationError,
)
from qlre.hilbert import (
    Backend,
    BasisDescriptor,
    DensityMatrix,
    Operator,
    PureState,
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
from qlre.scenarios import (
    build_basis,
    build_initial_state,
    build_master_equation,
    compile_observables,
    preset,
)


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

    def test_rejected_steps_are_counted(self, monkeypatch):
        monkeypatch.setattr(dynamics, "SECTOR_DENSE_LIMIT", 0)
        # the thermal (1,2,1) run rejects steps in its stiff stretch
        b, eq = _collective_121(nbar=0.25)
        stats = evolve(eq, product_state(b, [1, 0, 0]), 10.0, 1.0).stats
        assert stats.rejected > 0
        assert self._identity_holds(stats)

    def test_trace_drift_retries_count_as_rejected(self, monkeypatch):
        monkeypatch.setattr(dynamics, "SECTOR_DENSE_LIMIT", 0)
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


def _fig3b(n_b):
    cfg = preset("fig3b")[n_b - 2]
    assert cfg.name == f"fig3b_nb{n_b}"
    return build_master_equation(cfg), build_initial_state(cfg)


def _attempt_cases():
    """A real sector (fig3b N_B = 4) and a complex one (sigma_y pair with a random rho)."""
    eq, rho0 = _fig3b(4)
    b, eq_y = _sigma_y_pair()
    return [(eq, rho0.matrix), (eq_y, random_density(np.random.default_rng(31), b).matrix)]


def _plain_dp5_step(stepper, h):
    """One Dormand-Prince 5(4) attempt, one stage at a time from the coefficient tuples.

    Also returns the RMS of the unsummed error terms over the same scale:
    the error estimate is a cancelling difference, so its rounding is
    relative to the terms, not to the result.
    """
    L = stepper.sector.liouvillian
    y = stepper.y
    k = [stepper.k1]
    for row in dynamics._DP_A[1:] + (dynamics._DP_B5,):
        y_new = y + h * sum(c * ki for c, ki in zip(row, k))
        k.append(L @ y_new)
    scale = stepper.atol + stepper.rtol * stepper.sector.weights * np.maximum(abs(y), abs(y_new))
    err = h * sum(c * ki for c, ki in zip(dynamics._DP_ERR, k)) / scale
    terms = h * sum(abs(c * ki) for c, ki in zip(dynamics._DP_ERR, k)) / scale
    return y_new, k[-1], stepper._rms(err), stepper._rms(terms)


class TestStackedAttempt:
    def test_table_rows_are_the_coefficient_tuples(self):
        rows = dynamics._DP_A[1:] + (dynamics._DP_B5, dynamics._DP_ERR)
        assert dynamics._DP_TABLE.shape == (len(rows), 7)
        for table_row, row in zip(dynamics._DP_TABLE, rows):
            assert np.array_equal(table_row[: len(row)], row)
            assert not np.any(table_row[len(row) :])

    @pytest.mark.parametrize("case", [0, 1], ids=["real-fig3b", "complex-sigma-y"])
    def test_attempt_matches_plain_dp5_step(self, case):
        eq, rho0 = _attempt_cases()[case]
        stepper = _Stepper(eq, rho0)
        for h in (stepper.h, 0.01, 0.05, 0.2):
            y_new, k7, err = stepper._attempt(h)
            y_ref, k7_ref, err_ref, terms = _plain_dp5_step(stepper, h)
            assert np.max(np.abs(y_new - y_ref)) <= 1e-13 * np.max(np.abs(y_ref))
            assert np.max(np.abs(k7 - k7_ref)) <= 1e-13 * np.max(np.abs(k7_ref))
            assert abs(err - err_ref) <= 1e-13 * terms
        assert stepper.rhs_calls == 2 + 6 * 4

    def test_attempt_leaves_the_state_and_derivative_alone(self):
        eq, rho0 = _attempt_cases()[0]
        stepper = _Stepper(eq, rho0)
        y, k1 = stepper.y.copy(), stepper.k1.copy()
        _, k7, _ = stepper._attempt(0.05)
        kept = k7.copy()
        stepper._attempt(0.01)  # a later attempt must not overwrite an earlier k7
        assert np.array_equal(stepper.y, y) and np.array_equal(stepper.k1, k1)
        assert np.array_equal(k7, kept)


class TestDenseSectorMap:
    def _stepper(self, monkeypatch, limit):
        monkeypatch.setattr(dynamics, "SECTOR_DENSE_LIMIT", limit)
        eq, rho0 = _fig3b(4)
        return _Stepper(eq, rho0.matrix)

    def test_dense_and_csr_maps_agree(self, monkeypatch):
        csr = self._stepper(monkeypatch, 0)
        dense = self._stepper(monkeypatch, 10**9)
        assert not isinstance(csr._map, np.ndarray)
        assert isinstance(dense._map, np.ndarray)
        rng = np.random.default_rng(32)
        for _ in range(3):
            y = rng.normal(size=csr.y.size)
            expected = csr.rhs(y)
            assert np.max(np.abs(dense.rhs(y) - expected)) <= 1e-14 * np.max(np.abs(expected))

    def test_small_preset_sectors_are_dense(self):
        eq, rho0 = _fig3b(12)
        stepper = _Stepper(eq, rho0.matrix)
        assert stepper.y.size <= dynamics.SECTOR_DENSE_LIMIT
        assert isinstance(stepper._map, np.ndarray)

    def test_evolve_agrees_on_both_maps(self, monkeypatch):
        eq, rho0 = _fig3b(4)
        runs = []
        for limit in (0, 10**9):
            monkeypatch.setattr(dynamics, "SECTOR_DENSE_LIMIT", limit)
            states = []
            record = {"state": lambda r: states.append(r) or 0.0}
            traj = evolve(eq, rho0, 8.0, 0.1, observables=record)
            if limit == 0:
                assert traj.stats.rhs_calls == 2 + 6 * (traj.stats.accepted + traj.stats.rejected)
            else:  # the propagator: no steps to count
                assert traj.stats is None
            runs.append(states)
        assert len(runs[0]) == len(runs[1]) == 81
        assert max(trace_distance(a, b) for a, b in zip(*runs)) < 1e-9


class TestStepRange:
    def test_chain4_range_keeps_422_rhs_calls(self):
        cfg = preset("fig4-chain4")[0]
        eq, rho0 = build_master_equation(cfg), build_initial_state(cfg)
        stats = evolve(eq, rho0, 0.25, 0.25).stats
        assert stats.rhs_calls == 422
        assert 0.0 < stats.min_step <= stats.max_step < 0.25

    def test_clipped_steps_are_left_out(self, monkeypatch):
        # every accepted step lands on a sample time: no unclipped step to report
        monkeypatch.setattr(dynamics, "SECTOR_DENSE_LIMIT", 0)
        b, eq = single_qubit_eq()
        monkeypatch.setattr(_Stepper, "_initial_step", lambda self: 1.0)
        stats = evolve(eq, product_state(b, [1]), 1e-3, 1e-4).stats
        assert stats.accepted == 10
        assert stats.min_step == stats.max_step == 0.0


class TestSteadyStateRecord:
    def test_sweeps_times_step_is_elapsed_time(self):
        cfg = preset("appB-oracle")[1]
        assert cfg.domains[1].population == 2
        eq, rho0 = build_master_equation(cfg), build_initial_state(cfg)
        res = steady_state(eq, rho0)
        assert res.steps > 0 and res.stats is None
        assert res.steps * 1.0 == res.elapsed_scaled_time

    def test_early_return_takes_no_steps(self):
        b, eq = chain_eq(4)
        res = steady_state(eq, ground_state(b))
        assert res.steps == 0 and res.stats is None

    def test_fallback_records_its_solver_stats(self):
        eq, rho0 = _steady_case("thermal")
        res = steady_state(eq, rho0)
        assert res.steps == 0
        assert res.stats is not None and res.stats.accepted > 0
        assert res.stats.rhs_calls == 2 + 6 * (res.stats.accepted + res.stats.rejected)
        assert 0.0 < res.stats.min_step <= res.stats.max_step


def _sample_states(eq, rho0, t_max, sample_dt, keep=None):
    """evolve's sampled states, and its trajectory."""
    states = []
    record = {"state": lambda r: states.append(r) or 0.0}
    traj = evolve(eq, rho0, t_max, sample_dt, keep=keep, observables=record)
    return states, traj


def _tight_dormand_prince(monkeypatch, *args, **kwargs):
    """The same run on the Dormand-Prince integrator at rtol 1e-12, atol 1e-14."""
    with monkeypatch.context() as patch:
        patch.setattr(dynamics, "SECTOR_DENSE_LIMIT", 0)
        patch.setattr(dynamics, "RTOL", 1e-12)
        patch.setattr(dynamics, "ATOL", 1e-14)
        states, traj = _sample_states(*args, **kwargs)
    assert traj.stats is not None
    return states, traj


class TestPropagator:
    @pytest.mark.parametrize("n_b", [2, 8, 12])
    @pytest.mark.parametrize("h", [0.1, 0.5, 2.0])
    def test_expm_matches_scipy(self, n_b, h):
        import scipy.linalg

        eq, rho0 = _fig3b(n_b)
        A = h * _Sector(eq, rho0.matrix).liouvillian.toarray()
        expected = scipy.linalg.expm(A)
        assert np.max(np.abs(dynamics._expm(A) - expected)) <= 1e-13 * np.max(np.abs(expected))

    def test_expm_of_zero_is_identity(self):
        assert np.array_equal(dynamics._expm(np.zeros((5, 5))), np.eye(5))

    def test_expm_keeps_every_taylor_term(self):
        # N^15 = 0, so exp(N / 2) is its degree-14 Taylor polynomial, unscaled
        N = np.eye(15, k=1)
        expected = sum(0.5**k / math.factorial(k) * np.eye(15, k=k) for k in range(15))
        result = dynamics._expm(0.5 * N)
        upper = np.triu_indices(15)
        assert np.max(np.abs(result[upper] / expected[upper] - 1.0)) <= 1e-13
        assert not np.any(np.tril(result, -1))

    @pytest.mark.parametrize("edge", [64.0, 96.0])
    def test_expm_scales_until_the_norm_is_at_most_a_half(self, edge):
        # ||A||_1 = 64 takes s = 7 and 96 takes s = 8: one squaring fewer
        # leaves eigenvalues of A / 2^s at +-1 and +-3/4
        a = np.array([-edge, -40.0, 3.0, edge])
        result = dynamics._expm(np.diag(a))
        assert np.max(np.abs(np.diag(result) / np.exp(a) - 1.0)) <= 1e-13
        assert not np.any(result - np.diag(np.diag(result)))

    @pytest.mark.parametrize("n_b", [4, 12])
    def test_evolve_matches_tight_dormand_prince(self, monkeypatch, n_b):
        eq, rho0 = _fig3b(n_b)
        states, traj = _sample_states(eq, rho0, 8.0, 0.1)
        assert traj.stats is None
        reference, _ = _tight_dormand_prince(monkeypatch, eq, rho0, 8.0, 0.1)
        assert len(states) == len(reference) == 81
        assert max(trace_distance(a, b) for a, b in zip(states, reference)) < 1e-11

    def test_short_last_interval_and_snapshots(self, monkeypatch):
        eq, rho0 = _fig3b(4)
        reference, ref_traj = _tight_dormand_prince(monkeypatch, eq, rho0, 1.05, 0.1, keep=[0, 2])
        states, traj = _sample_states(eq, rho0, 1.05, 0.1, keep=[0, 2])
        assert traj.times[-1] - traj.times[-2] == pytest.approx(0.05)
        assert np.array_equal(traj.times, ref_traj.times)
        assert max(trace_distance(a, b) for a, b in zip(states, reference)) < 1e-11
        snapshots = zip(traj.snapshots, ref_traj.snapshots)
        assert max(trace_distance(a, b) for a, b in snapshots) < 1e-11

    def test_single_qubit_decays_exactly(self):
        b, eq = single_qubit_eq()
        traj = evolve(
            eq, product_state(b, [1]), 3.05, 0.1, observables={"pe": lambda r: r.matrix[0, 0].real}
        )
        assert np.max(np.abs(traj.observables["pe"] - np.exp(-2.0 * traj.times))) < 1e-13

    def test_trace_drift_raises(self, monkeypatch):
        expm = dynamics._expm
        monkeypatch.setattr(dynamics, "_expm", lambda A: expm(A) * (1.0 + 1e-6))
        eq, rho0 = _fig3b(4)
        with pytest.raises(NumericalFailure, match="drifted"):
            evolve(eq, rho0, 1.0, 0.1)


# ---------------------------------------------------------------------------
# observables read off the sector coordinates, measured over all samples at once
# ---------------------------------------------------------------------------


def _proper_keeps(count):
    """Every nonempty proper subset of range(count)."""
    return [
        tuple(k for k in range(count) if mask >> k & 1) for mask in range(1, 2**count - 1)
    ]


def _readout_cases():
    """(id, equation, rho0) for 3- and 4-domain chains on both backends, and a complex sector."""
    cases = []
    for backend in Backend:
        for pops in ((1, 2, 1), (1, 2, 1, 1)):
            b = BasisDescriptor(backend, pops)
            reservoirs = [[m, m + 1] for m in range(len(pops) - 1)]
            eq = build_collective_zero_T(b, reservoirs)
            rho0 = product_state(b, [1] + [0] * (len(pops) - 1))
            cases.append((f"{backend.value}-{len(pops)}", eq, rho0))
    b = BasisDescriptor(Backend.FULL, (1, 1, 1))
    sigma_y = Operator(np.kron(np.array([[0, -1j], [1j, 0]]), np.eye(4)), b)
    terms = (LindbladTerm(sigma_y, 1.0), LindbladTerm(reservoir_jump(b, [0, 1, 2]), 0.5))
    rho0 = random_density(np.random.default_rng(41), b)
    cases.append(("sigma_y-complex", MasterEquation(terms, b), rho0))
    return cases


# every kind of observable string on the (1, 2, 1) and (1, 1, 1) chains
_ALL_KINDS = {
    (1, 2, 1): ("E_F(A,C)", "C(A,C)", "E_N(A|B)", "N(C|B)", "Jz_B", "Jz_B/N_B", "x_d"),
    (1, 1, 1): ("N_ABC", "E_N(A|C)", "C(A,B)", "Jz_A"),
}


class TestReadout:
    @pytest.mark.parametrize("case", _readout_cases(), ids=lambda c: c[0])
    def test_reduction_map_is_the_partial_trace(self, case):
        _, eq, rho0 = case
        sector = _Sector(eq, rho0.matrix)
        if case[0] == "sigma_y-complex":  # the Im coordinates are kept
            rows, cols = np.divmod(sector.keys, eq.basis.dim)
            assert sector.levels.size > np.count_nonzero(rows <= cols)
        rng = np.random.default_rng(43)
        ys = [sector.pack(rho0.matrix), rng.normal(size=sector.levels.size)]
        for keep in _proper_keeps(eq.basis.num_domains):
            R = sector.readout(dynamics.Observable(None, keep=keep))
            for y in ys:
                rho = DensityMatrix(sector.unpack(y), eq.basis, validate=False)
                expected = partial_trace(rho, keep).matrix.reshape(-1)
                assert np.max(np.abs(R @ y - expected)) <= 1e-14

    @pytest.mark.parametrize("case", _readout_cases(), ids=lambda c: c[0])
    def test_expectation_row_is_the_trace(self, case):
        _, eq, rho0 = case
        sector = _Sector(eq, rho0.matrix)
        y = np.random.default_rng(44).normal(size=sector.levels.size)
        rho = DensityMatrix(sector.unpack(y), eq.basis, validate=False)
        a = np.random.default_rng(45).normal(size=(2, eq.basis.dim, eq.basis.dim))
        hermitian = Operator(a[0] + a[0].T + 1j * (a[1] - a[1].T), eq.basis)
        operators = [hermitian] + [
            embed(collective_jz(n, eq.basis.backend), eq.basis, m)
            for m, n in enumerate(eq.basis.domain_pops)
        ]
        for op in operators:
            row = sector.readout(dynamics.Observable(None, operator=op))
            assert abs(row @ y - np.trace(rho.matrix @ op.toarray())) <= 1e-13
        amplitudes = a[0, 0] + 1j * a[1, 0]
        psi = PureState(amplitudes / np.linalg.norm(amplitudes), eq.basis)
        row = sector.readout(dynamics.Observable(None, operator=psi))
        expected = np.vdot(psi.amplitudes, rho.matrix @ psi.amplitudes)
        assert abs(row @ y - expected) <= 1e-14

    def test_non_hermitian_operator_is_refused_before_the_run(self):
        b, eq = chain_eq(2)
        lowering = reservoir_jump(b, [0, 1])
        with pytest.raises(ValueError, match="not Hermitian"):
            evolve(eq, product_state(b, [1, 0, 0]), 1.0, 0.1, observables={"j": lowering})

    def test_operator_on_another_basis_is_refused(self):
        b, eq = chain_eq(2)
        other = collective_jz(2, Backend.COLLECTIVE)
        with pytest.raises(ValueError, match="basis mismatch"):
            evolve(eq, product_state(b, [1, 0, 0]), 1.0, 0.1, observables={"j": other})

    def test_imaginary_residue_names_the_sample_time(self):
        values = np.array([0.5, 0.25 + 1e-6j, 0.1])
        with pytest.raises(NumericalFailure, match="imaginary residue 1.000e-06 at scaled time 0.2"):
            dynamics._real_parts(values, np.array([0.0, 0.2, 0.4]))


def _bare_wrappers(compiled):
    """The same observables as plain callables, evaluated sample by sample."""
    return {name: (lambda rho, ob=ob: ob(rho)) for name, ob in compiled.items()}


def _assert_batched_matches_bare(eq, rho0, t_max, sample_dt, compiled):
    batched = evolve(eq, rho0, t_max, sample_dt, observables=compiled)
    bare = evolve(eq, rho0, t_max, sample_dt, observables=_bare_wrappers(compiled))
    assert np.array_equal(batched.times, bare.times)
    for name in compiled:
        tol = 1e-12 if name.startswith(("Jz", "x_d")) else 1e-9
        gap = np.max(np.abs(batched.observables[name] - bare.observables[name]))
        assert gap <= tol, (name, gap)
    return batched, bare


class TestBatchedObservables:
    @pytest.mark.parametrize("pops", sorted(_ALL_KINDS), ids=str)
    @pytest.mark.parametrize("limit", [None, 0], ids=["propagator", "stepper"])
    def test_every_kind_matches_per_sample_evaluation(self, monkeypatch, pops, limit):
        if limit is not None:
            monkeypatch.setattr(dynamics, "SECTOR_DENSE_LIMIT", limit)
        cfg = dataclasses.replace(
            preset("fig3b")[0],
            domains=tuple(dataclasses.replace(d, population=n)
                          for d, n in zip(preset("fig3b")[0].domains, pops)),
            observables=_ALL_KINDS[pops],
        )
        eq, rho0 = build_master_equation(cfg), build_initial_state(cfg)
        compiled = compile_observables(cfg, build_basis(cfg))
        batched, _ = _assert_batched_matches_bare(eq, rho0, 4.0, 0.1, compiled)
        assert (batched.stats is None) == (limit is None)

    def test_fig3b_on_the_propagator(self):
        cfg = preset("fig3b")[2]
        assert cfg.name == "fig3b_nb4"
        eq, rho0 = build_master_equation(cfg), build_initial_state(cfg)
        compiled = compile_observables(cfg, build_basis(cfg))
        batched, _ = _assert_batched_matches_bare(eq, rho0, cfg.t_max, cfg.sample_dt, compiled)
        assert batched.stats is None and batched.times.size == 401

    def test_fig3b_on_the_stepper(self, monkeypatch):
        monkeypatch.setattr(dynamics, "SECTOR_DENSE_LIMIT", 0)
        cfg = preset("fig3b")[2]
        eq, rho0 = build_master_equation(cfg), build_initial_state(cfg)
        compiled = compile_observables(cfg, build_basis(cfg))
        batched, _ = _assert_batched_matches_bare(eq, rho0, 8.0, cfg.sample_dt, compiled)
        assert batched.stats is not None

    def test_chain4_keeps_its_422_rhs_calls(self):
        cfg = preset("fig4-chain4")[0]
        eq, rho0 = build_master_equation(cfg), build_initial_state(cfg)
        compiled = compile_observables(cfg, build_basis(cfg))
        batched, bare = _assert_batched_matches_bare(eq, rho0, 0.25, 0.25, compiled)
        assert batched.stats.rhs_calls == bare.stats.rhs_calls == 422

    def test_fig5a_on_the_stepper_to_its_horizon(self):
        # near rank-deficient reduced states the concurrence turns a changed
        # last bit into ~1e-9, so the map must sum as partial_trace does
        cfg = preset("fig5a-dephasing")[0]
        assert cfg.name == "fig5a_dep0"
        eq, rho0 = build_master_equation(cfg), build_initial_state(cfg)
        compiled = compile_observables(cfg, build_basis(cfg))
        batched, _ = _assert_batched_matches_bare(eq, rho0, cfg.t_max, cfg.sample_dt, compiled)
        assert batched.stats is not None and batched.times.size == 201

    @pytest.mark.parametrize("limit", [None, 0], ids=["propagator", "stepper"])
    def test_snapshots_are_the_partial_traces_of_the_samples(self, monkeypatch, limit):
        if limit is not None:
            monkeypatch.setattr(dynamics, "SECTOR_DENSE_LIMIT", limit)
        eq, rho0 = _fig3b(4)
        for keep in ([0, 2], [2, 1], [1]):
            states, traj = _sample_states(eq, rho0, 1.05, 0.1, keep=keep)
            assert len(traj.snapshots) == len(states) == 12
            for state, snapshot in zip(states, traj.snapshots):
                expected = partial_trace(state, keep)
                assert snapshot.basis == expected.basis
                assert np.max(np.abs(snapshot.matrix - expected.matrix)) <= 1e-14

    def test_compiled_observables_unpack_only_the_final_state(self, monkeypatch):
        calls = []
        unpack = _Sector.unpack
        monkeypatch.setattr(_Sector, "unpack", lambda self, y: calls.append(1) or unpack(self, y))
        monkeypatch.setattr(
            dynamics, "partial_trace", lambda *a: pytest.fail("partial_trace called in evolve")
        )
        cfg = preset("fig3b")[0]
        cfg = dataclasses.replace(cfg, observables=("E_F(A,C)", "Jz_B/N_B", "x_d", "N(A|B)"))
        eq, rho0 = build_master_equation(cfg), build_initial_state(cfg)
        compiled = compile_observables(cfg, build_basis(cfg))
        jz = compiled["Jz_B/N_B"].operator
        traj = evolve(eq, rho0, 8.0, 0.1, keep=[0, 2], observables={**compiled, "jz": jz})
        assert len(calls) == 1
        assert traj.times.size == len(traj.snapshots) == 81
        n_b = cfg.domains[1].population
        assert np.allclose(traj.observables["jz"], n_b * traj.observables["Jz_B/N_B"], atol=1e-14)

    def test_a_bare_callable_alone_takes_the_per_sample_path(self, monkeypatch):
        calls = []
        unpack = _Sector.unpack
        monkeypatch.setattr(_Sector, "unpack", lambda self, y: calls.append(1) or unpack(self, y))
        eq, rho0 = _fig3b(2)
        evolve(eq, rho0, 1.0, 0.1, observables={"pe": lambda r: r.matrix[0, 0].real})
        assert len(calls) == 11 + 1
