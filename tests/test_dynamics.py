import dataclasses
import logging
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from qlre import dynamics, hilbert
from qlre.dynamics import (
    _Krylov,
    _Sector,
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
    IntegrationFailure,
    MemoryGuardExceeded,
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
    single_spin_lowering,
    single_spin_z,
    to_collective_basis,
    to_full_basis,
    trace_distance,
)
from qlre.scenarios import (
    PRESET_NAMES,
    build_basis,
    build_initial_state,
    build_master_equation,
    compile_observables,
    preset,
    sweep,
)


def as_scipy(m):
    """A sector map (numpy CSR arrays) as a scipy csr_array, for sparse arithmetic in tests."""
    return sp.csr_array((m.data, m.indices, m.indptr), shape=m.shape)


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

    @pytest.mark.parametrize("family", PRESET_NAMES)
    def test_phased_jumps_give_the_real_rhs(self, family):
        # D[e^{i phi} O] = D[O]: phased jumps take the complex route, the presets' real one
        for cfg in preset(family):  # the first config whose rho0 is not stationary
            eq, rho0 = build_master_equation(cfg), build_initial_state(cfg)
            real = lindblad_rhs(eq, rho0)
            if np.any(real):
                break
        phased = MasterEquation(
            tuple(
                LindbladTerm(Operator(np.exp(1j * (0.3 + 0.7 * k)) * t.jump.matrix, eq.basis), t.rate)
                for k, t in enumerate(eq.terms)
            ),
            eq.basis,
        )
        assert all(np.any(t.jump.toarray().imag) for t in phased.terms if t.rate)
        complex_ = lindblad_rhs(phased, rho0)
        assert real.dtype == complex_.dtype == complex
        assert np.max(np.abs(complex_ - real)) <= 1e-13 * np.max(np.abs(real))

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

    def test_coordinate_norm_is_the_frobenius_norm(self):
        # the Krylov error estimate is a Euclidean norm of the coordinates; on
        # orbit coordinates too it is the Frobenius norm of the matrix
        rng = np.random.default_rng(3)
        sector = _Sector(*TestExchangeSymmetry._decay_131())
        assert sector.levels.size < _one_coordinate_per_pair(sector)  # orbits merged
        x = rng.normal(size=sector.levels.size)
        assert np.linalg.norm(x) == pytest.approx(np.linalg.norm(sector.unpack(x)), rel=1e-12)


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
            assert sector.liouvillian.data.dtype == np.float64
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
        reads = as_scipy(sector._to_elements).tocoo()
        assert np.array_equal(
            sector.levels[reads.col], n[rows[reads.row]] + n[cols[reads.row]]
        )

    def test_pack_then_unpack_round_trips_with_im_coordinates(self):
        rng = np.random.default_rng(25)
        b, eq = _sigma_y_pair()
        rho = random_density(rng, b).matrix  # complex, every coherence order
        sector = _Sector(eq, rho)
        assert sector.levels.size == b.dim**2  # Im coordinates kept
        assert np.max(np.abs(sector.unpack(sector.pack(rho)) - rho)) < 1e-15
        x = rng.normal(size=sector.levels.size)
        assert np.max(np.abs(sector.pack(sector.unpack(x)) - x)) < 1e-15

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


def reference_liouvillian(eq, sector):
    """S^H [sum r (2 O x conj(O) - A x I - I x A^T)] S on the kept elements, A = sum r O^dag O.

    Row-major vec(X rho Y^dag) = (X x conj(Y)) vec(rho); the Kronecker
    products are sparse only so that fig4-chain4 (d^2 = 38416) fits.
    """
    d = eq.basis.dim
    eye = sp.eye_array(d, format="csr")
    total = sp.csr_array((d * d, d * d), dtype=complex)
    A = sp.csr_array((d, d), dtype=complex)
    for term in eq.terms:
        O = sp.csr_array(term.jump.matrix)
        total = total + 2.0 * term.rate * sp.kron(O, O.conj(), format="csr")
        OdO = term.rate * (O.conj().T @ O)
        A = A + 0.5 * (OdO + OdO.conj().T)
    total = total - sp.kron(A, eye, format="csr") - sp.kron(eye, A.T, format="csr")
    S = as_scipy(sector._to_elements)
    return (S.conj().T @ total[sector.keys][:, sector.keys] @ S).real


def _orbit_configs():
    """Full-backend configs whose every domain is exchangeable, so orbits have many members."""
    base = preset("fig5b-individual")[0]

    def pops(*sizes, **changes):
        domains = tuple(dataclasses.replace(d, population=n) for d, n in zip(base.domains, sizes))
        return dataclasses.replace(base, domains=domains, observables=(), **changes)

    return {
        "(2,3,2)-decay-dephasing": pops(2, 3, 2, gamma_dep_over_gamma=0.1),
        "(2,2,2)-nbar": pops(2, 2, 2, nbar=0.2),
    }


def _smallest_configs():
    def smallest(name, keep=lambda cfg: True):
        configs = [cfg for cfg in preset(name) if keep(cfg)]
        return min(configs, key=lambda cfg: build_basis(cfg).dim)

    return {
        "fig3b": smallest("fig3b"),
        "fig4-chain4": smallest("fig4-chain4"),
        "fig5a": smallest("fig5a-dephasing", lambda cfg: cfg.gamma_dep_over_gamma > 0),
        "fig5b": smallest("fig5b-individual"),
        "fig5c-thermal": smallest("fig5c-thermal", lambda cfg: cfg.temperature.T_kelvin > 0),
        "fig6": smallest("fig6-star"),
        "appB": smallest("appB-oracle"),
    }


class TestAssembly:
    """The sector Liouvillian against an assembly that shares none of its code."""

    @pytest.mark.parametrize("name", sorted(_smallest_configs()))
    def test_matches_the_kronecker_reference_on_every_preset_family(self, name):
        cfg = _smallest_configs()[name]
        eq, rho0 = build_master_equation(cfg), build_initial_state(cfg)
        sector = _Sector(eq, rho0.matrix)
        L = as_scipy(sector.liouvillian)
        assert L.has_canonical_format
        assert abs(L - reference_liouvillian(eq, sector)).max() < 1e-12

    @pytest.mark.parametrize("name", sorted(_orbit_configs()))
    def test_matches_the_kronecker_reference_where_orbits_have_many_members(self, name):
        # one representative per orbit is expanded; every domain here is exchangeable
        cfg = _orbit_configs()[name]
        eq, rho0 = build_master_equation(cfg), build_initial_state(cfg).matrix
        sector = _Sector(eq, rho0)
        assert sector.levels.size < _one_coordinate_per_pair(sector)
        assert sector.lowering == (cfg.nbar == 0)
        L = as_scipy(sector.liouvillian)
        assert L.has_canonical_format
        assert abs(L - reference_liouvillian(eq, sector)).max() < 1e-12

    def test_jump_entries_are_int64_past_the_int32_flat_keys(self):
        # a CSR sigma_z diagonal at d = 65536 stores int32 indices; c * d + r
        # in int32 would wrap from d = 46341 on
        b = BasisDescriptor(Backend.FULL, (16,))
        d, O = b.dim, single_spin_z(b, 0, 0).matrix
        assert O.indices.dtype == np.int32
        c, r, v = dynamics._entries(O)
        assert c.dtype == r.dtype == np.int64
        keys = c * d + r
        assert keys.min() >= 0
        assert np.all(np.diff(keys) > 0)
        assert np.array_equal(v, O.diagonal())

    def test_non_canonical_csr_jump_gives_the_canonical_sector(self):
        # every entry stored twice, as halves, in descending column order
        b = BasisDescriptor(Backend.FULL, (1, 2, 1))
        plain = reservoir_jump(b, [0, 1]).matrix
        J = sp.csr_array(plain)
        counts = np.diff(J.indptr)
        order = np.lexsort((-J.indices, np.repeat(np.arange(b.dim), counts)))
        messy = sp.csr_array(
            (np.repeat(J.data[order] / 2, 2), np.repeat(J.indices[order], 2), 2 * J.indptr),
            shape=J.shape,
        )
        assert not messy.has_canonical_format
        rho0 = product_state(b, [1, 1, 0]).matrix
        plain_L, L, messy_L = (
            as_scipy(
                _Sector(MasterEquation((LindbladTerm(Operator(m, b), 1.0),), b), rho0).liouvillian
            )
            for m in (plain, J, messy)
        )
        assert isinstance(plain, np.ndarray)  # the dense jump reads in the CSR jump's order
        assert (L != plain_L).nnz == 0
        assert (L != messy_L).nnz == 0

    def test_complex_jump_with_im_coordinates(self):
        b, eq = _sigma_y_pair()
        rho0 = random_density(np.random.default_rng(31), b)
        sector = _Sector(eq, rho0.matrix)
        assert sector.levels.size == b.dim**2  # Im coordinates kept
        L = as_scipy(sector.liouvillian)
        assert L.has_canonical_format
        assert abs(L - reference_liouvillian(eq, sector)).max() < 1e-12

    def test_empty_equation(self):
        b = BasisDescriptor(Backend.COLLECTIVE, (2,))
        sector = _Sector(MasterEquation((), b), product_state(b, [1]).matrix)
        L = as_scipy(sector.liouvillian)
        assert L.shape == (sector.levels.size,) * 2
        assert L.nnz == 0
        assert L.has_canonical_format

    def test_zero_jump_at_a_positive_rate_changes_nothing(self):
        # a jump without entries keeps every shift fixed and adds no slot entries
        b, eq = chain_eq(3)
        zero = LindbladTerm(Operator(np.zeros((b.dim, b.dim), dtype=complex), b), 2.0)
        rho0 = product_state(b, [1, 0, 0]).matrix
        plain, padded = (
            _Sector(MasterEquation(terms, b), rho0) for terms in (eq.terms, (zero,) + eq.terms)
        )
        assert padded.lowering and np.array_equal(plain.keys, padded.keys)
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(plain.liouvillian, name), getattr(padded.liouvillian, name))

    def test_single_jump(self):
        b, eq = chain_eq(3)
        single = MasterEquation(eq.terms[:1], b)
        sector = _Sector(single, product_state(b, [1, 2, 0]).matrix)
        assert sector.lowering
        L = as_scipy(sector.liouvillian)
        assert abs(L - reference_liouvillian(single, sector)).max() < 1e-12

    def test_complex_raising_jump(self):
        # i J+ at rate 0.3 beside J- at 1: no level ordering, and the Im coordinates are kept
        b, eq = chain_eq(2)
        J = eq.terms[0].jump
        terms = (LindbladTerm(J, 1.0), LindbladTerm(Operator(1j * J.dag().matrix, b), 0.3))
        raising = MasterEquation(terms, b)
        sector = _Sector(raising, product_state(b, [1, 0, 0]).matrix)
        assert not sector.lowering
        assert sector.levels.size > _one_coordinate_per_pair(sector)
        L = as_scipy(sector.liouvillian)
        assert abs(L - reference_liouvillian(raising, sector)).max() < 1e-12

    def test_fig4_chain4_sizes(self):
        cfg = preset("fig4-chain4")[0]
        sector = _Sector(build_master_equation(cfg), build_initial_state(cfg).matrix)
        # the levels above rho0's highest excitation number are dropped
        assert sector.levels.size == 771
        assert sector.liouvillian.data.size == 8741

    def test_stored_zero_in_a_jump_is_no_entry(self):
        # an explicit 0 at (0, 0) has no shift; read as an entry it would map
        # order 0 out of the kept orders
        b = BasisDescriptor(Backend.FULL, (1, 1))
        plain = sp.csr_array(reservoir_jump(b, [0, 1]).matrix).tocoo()
        rows, cols = np.r_[plain.row, 0], np.r_[plain.col, 0]
        stored = sp.csr_array((np.r_[plain.data, 0.0], (rows, cols)), shape=plain.shape)
        assert stored.nnz == plain.nnz + 1
        rho0 = product_state(b, ["u", "d"])

        def run(O):
            eq = MasterEquation((LindbladTerm(Operator(O, b), 1.0),), b)
            return evolve(eq, rho0, 2.0, 0.1, keep=[0])

        zero, none = run(stored), run(plain.tocsr())
        for a, c in zip(zero.snapshots + [zero.final_rho], none.snapshots + [none.final_rho]):
            assert np.max(np.abs(a.matrix - c.matrix)) < 1e-12

    @pytest.mark.parametrize(
        "name, limit_mib",
        [("fig4-chain4", 4.0), ("fig5b-(1,4,1)", 2.0), ("fig5a-dep0.2-(1,7,1)", 16.0)],
    )
    def test_build_peak_memory(self, name, limit_mib):
        # each term is mapped into the coordinates as it is made: holding every
        # term's complex entries at once instead peaks at 8.3 MiB on fig4-chain4;
        # expanding every member of every orbit peaks at 129.5 MiB at (1,7,1)
        if name == "fig4-chain4":
            cfg = preset("fig4-chain4")[0]
        elif name == "fig5b-(1,4,1)":
            cfg = sweep(preset("fig5b-individual")[0], "N_B", [4])[0]
        else:
            dep = [c for c in preset("fig5a-dephasing") if c.gamma_dep_over_gamma == 0.2]
            cfg = sweep(dep[0], "N_B", [7])[0]
        eq, rho0 = build_master_equation(cfg), build_initial_state(cfg).matrix
        _Sector(eq, rho0)
        tracemalloc.start()
        try:
            _Sector(eq, rho0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= limit_mib * 2**20


def _refused(eq):
    """The same physics through an equation whose site permutations the exchange check refuses.

    A per-spin term on the first site of domain 1 becomes two half-rate
    terms, which no site permutation maps onto the other sites' terms; an
    equation without one has its first jump multiplied by the phase i,
    which keeps the Im coordinates.
    """
    b = eq.basis
    site = [single_spin_lowering(b, 1, 0).matrix, single_spin_z(b, 1, 0).matrix]
    for k, t in enumerate(eq.terms):
        if any(abs(t.jump.matrix - s).max() == 0 for s in site):
            half = LindbladTerm(t.jump, t.rate / 2)
            return MasterEquation(eq.terms[:k] + (half, half) + eq.terms[k + 1 :], b)
    first = LindbladTerm(Operator(1j * eq.terms[0].jump.matrix, b), eq.terms[0].rate)
    return MasterEquation((first,) + eq.terms[1:], b)


def _per_spin_configs():
    fig5a = preset("fig5a-dephasing")
    return {
        "fig5a": min(fig5a, key=lambda cfg: (cfg.gamma_dep_over_gamma == 0, build_basis(cfg).dim)),
        "fig5b": preset("fig5b-individual")[0],
        "appA-mixed": min(preset("appA-mixed"), key=lambda cfg: build_basis(cfg).dim),
    }


def _one_coordinate_per_pair(sector):
    rows, cols = np.divmod(sector.keys, sector.d)
    return np.count_nonzero(rows <= cols)


class TestExchangeSymmetry:
    """Orbit coordinates of exchangeable domains against runs that keep every coordinate."""

    @pytest.mark.parametrize(
        "name, size",
        [("fig5b-individual", 65), ("fig5a-dephasing", 94), ("appA-mixed", 65), ("fig4-chain4", 771)],
    )
    def test_sizes(self, name, size):
        cfg = preset(name)[-1]
        if name == "fig5b-individual":  # at (1,4,1); the fig5a preset is at (1,5,1)
            cfg = sweep(cfg, "N_B", [4])[0]
        sector = _Sector(build_master_equation(cfg), build_initial_state(cfg).matrix)
        assert sector.levels.size == size

    @pytest.mark.parametrize("name", sorted(_per_spin_configs()))
    def test_evolve_matches_the_refused_equation(self, name):
        cfg = _per_spin_configs()[name]
        eq, rho0 = build_master_equation(cfg), build_initial_state(cfg)
        refused = _refused(eq)
        assert _Sector(eq, rho0.matrix).levels.size < _Sector(refused, rho0.matrix).levels.size
        compiled = compile_observables(cfg, build_basis(cfg))
        a = evolve(eq, rho0, 4.0, cfg.sample_dt, observables=compiled)
        b = evolve(refused, rho0, 4.0, cfg.sample_dt, observables=compiled)
        assert a.stats is None and b.stats is not None  # dense against Krylov
        assert trace_distance(a.final_rho, b.final_rho) < 1e-8
        gap = np.max(np.abs(a.observables["E_F(A,C)"] - b.observables["E_F(A,C)"]))
        assert gap <= 1e-8

    @pytest.mark.parametrize("name", sorted(_per_spin_configs()))
    def test_steady_state_matches_the_refused_equation(self, name):
        cfg = _per_spin_configs()[name]
        eq, rho0 = build_master_equation(cfg), build_initial_state(cfg)
        a = steady_state(eq, rho0)
        b = steady_state(_refused(eq), rho0)
        assert a.steps == b.steps
        assert trace_distance(a.rho, b.rho) < 1e-10

    @staticmethod
    def _decay_131(rates=(1.0, 1.0, 1.0), levels=("d", 3, "d")):
        b = BasisDescriptor(Backend.FULL, (1, 3, 1))
        terms = [LindbladTerm(reservoir_jump(b, r), 1.0) for r in ([0, 1], [1, 2])]
        terms += [LindbladTerm(single_spin_lowering(b, 1, s), r) for s, r in enumerate(rates)]
        return MasterEquation(tuple(terms), b), product_state(b, list(levels)).matrix

    def test_equal_per_site_decay_merges(self):
        sector = _Sector(*self._decay_131())
        assert sector.levels.size < _one_coordinate_per_pair(sector)

    @pytest.mark.parametrize(
        "case", ["one site", "unequal rates", "bitstring rho0", "complex jump"]
    )
    def test_refusals_keep_every_coordinate(self, case):
        if case == "one site":
            eq, rho0 = self._decay_131(rates=(1.0, 0.0, 0.0))
        elif case == "unequal rates":
            eq, rho0 = self._decay_131(rates=(1.0, 1.0, 1.5))
        elif case == "bitstring rho0":
            eq, rho0 = self._decay_131(levels=("d", "uud", "d"))
        else:  # sigma_y on every site at one rate: symmetric, but complex
            eq, rho0 = self._decay_131()
            b = eq.basis
            lowering = [single_spin_lowering(b, 1, s).matrix for s in range(3)]
            y = [LindbladTerm(Operator(1j * (o - o.T), b), 0.1) for o in lowering]
            eq = MasterEquation(eq.terms + tuple(y), b)
        sector = _Sector(eq, rho0)
        expected = sector.keys.size if case == "complex jump" else _one_coordinate_per_pair(sector)
        assert sector.levels.size == expected

    def test_krylov_takes_the_same_substeps(self, monkeypatch):
        # orbit coordinates are an isometric image of the elements they merge,
        # so both runs build the same Krylov spaces
        monkeypatch.setattr(dynamics, "SECTOR_DENSE_LIMIT", 0)
        cfg = sweep(preset("fig5a-dephasing")[1], "N_B", [4])[0]
        assert cfg.gamma_dep_over_gamma == 0.02
        eq, rho0 = build_master_equation(cfg), build_initial_state(cfg)
        merged = evolve(eq, rho0, 4.0, cfg.sample_dt)
        refused = evolve(_refused(eq), rho0, 4.0, cfg.sample_dt)
        a, b = merged.stats, refused.stats
        assert (a.substeps, a.rejected, a.products) == (b.substeps, b.rejected, b.products)
        assert a.substeps > 1
        # a late estimate near roundoff moves a predicted substep by a fraction of 1 %
        assert a.min_step == pytest.approx(b.min_step, rel=1e-2)
        assert a.max_step == pytest.approx(b.max_step, rel=1e-2)
        assert trace_distance(merged.final_rho, refused.final_rho) < 1e-12


def _greedy_exchangeable(basis, entries, rho0):
    """The jump-by-jump exchange check that ``dynamics._exchangeable`` replaced, as a reference.

    ``entries`` holds each active jump's sqrt(rate)-scaled entries as (flat
    indices c * d + r, ascending, and values).  Each permuted jump takes the
    first unmatched jump with the same sorted images whose values agree to
    1e-12.
    """
    if basis.backend is not Backend.FULL:
        return []
    d, (i, j) = basis.dim, np.nonzero(rho0)

    def keeps(perm):
        if np.any(np.abs(rho0[perm[i], perm[j]] - rho0[i, j]) > 1e-12):
            return False
        unmatched = {}
        for key, v in entries:
            unmatched.setdefault(key.tobytes(), []).append(v)
        for key, v in entries:
            image = perm[key // d] * d + perm[key % d]
            order = np.argsort(image)
            same = unmatched.get(image[order].tobytes(), [])
            hit = [n for n, u in enumerate(same) if np.all(np.abs(u - v[order]) <= 1e-12)]
            if not hit:
                return False
            same.pop(hit[0])
        return True

    candidates = [m for m, N in enumerate(basis.domain_pops) if N >= 2]
    return [m for m in candidates if all(map(keeps, hilbert.site_permutations(basis, m)))]


def _both_exchangeable(eq, rho0):
    """The domains ``_exchangeable`` finds when ``_Sector`` calls it, and the reference's.

    The reference runs on the entries ``_Sector`` handed over, split by jump.
    None when ``_Sector`` keeps Im coordinates and so makes no call.
    """
    calls, check = [], dynamics._exchangeable

    def record(*args):
        calls.append((args, check(*args)))
        return calls[-1][1]

    with pytest.MonkeyPatch.context() as m:
        m.setattr(dynamics, "_exchangeable", record)
        _Sector(eq, rho0)
    if not calls:
        return None
    [((basis, (jump, c, r, v), rho, _), found)] = calls
    assert basis is eq.basis and rho is rho0
    entries = [((c * basis.dim + r)[jump == k], v[jump == k]) for k in np.unique(jump)]
    return found, _greedy_exchangeable(basis, entries, rho)


def _noise_sweep():
    configs = preset("fig5a-dephasing") + preset("fig5b-individual")
    return [cfg for base in configs for cfg in sweep(base, "N_B", list(range(2, 8)))]


class TestExchangeable:
    """The sorted-signature exchange check against the greedy, tolerant reference."""

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_presets(self, name):
        for cfg in preset(name):
            eq, rho0 = build_master_equation(cfg), build_initial_state(cfg).matrix
            new, reference = _both_exchangeable(eq, rho0)
            assert new == reference

    @pytest.mark.parametrize("name", sorted(_per_spin_configs()))
    def test_refused_equations(self, name):
        cfg = _per_spin_configs()[name]
        eq, rho0 = build_master_equation(cfg), build_initial_state(cfg).matrix
        both = _both_exchangeable(_refused(eq), rho0)
        # split terms are refused here; a phased jump keeps the Im coordinates, so
        # _Sector makes no call
        assert both == (None if name == "appA-mixed" else ([], []))

    def test_noise_sweeps(self):
        found = []
        for cfg in _noise_sweep():
            eq, rho0 = build_master_equation(cfg), build_initial_state(cfg).matrix
            new, reference = _both_exchangeable(eq, rho0)
            assert new == reference, cfg.name
            found.append(new)
        assert found.count([1]) == len(found)  # every one merges domain B

    def test_a_jump_matching_only_to_rounding_is_refused(self):
        cfg = sweep(preset("fig5b-individual")[0], "N_B", [4])[0]
        eq, rho0 = build_master_equation(cfg), build_initial_state(cfg).matrix
        b, site = eq.basis, single_spin_lowering(eq.basis, 1, 0).matrix
        terms = tuple(
            LindbladTerm(Operator(t.jump.matrix + 1e-14 * site, b), t.rate)
            if abs(t.jump.matrix - site).max() == 0
            else t
            for t in eq.terms
        )
        perturbed = MasterEquation(terms, b)
        assert sum(t is not u for t, u in zip(terms, eq.terms)) == 1
        # the greedy reference merged it; the signatures are compared bit for bit
        assert _both_exchangeable(perturbed, rho0) == ([], [1])
        assert _Sector(perturbed, rho0).levels.size == _one_coordinate_per_pair(_Sector(perturbed, rho0))
        assert _Sector(eq, rho0).levels.size < _Sector(perturbed, rho0).levels.size


class TestSolverStats:
    @staticmethod
    def _identity_holds(stats):
        # every basis that did not break down costs KRYLOV_DIM products and one more
        return stats.products == (dynamics.KRYLOV_DIM + 1) * stats.substeps

    def test_chain4_to_a_quarter_takes_62_products(self):
        # the predicted substep, tried on the first basis, replaces a first guess of 0.016
        cfg = preset("fig4-chain4")[0]
        eq, rho0 = build_master_equation(cfg), build_initial_state(cfg)
        stats = evolve(eq, rho0, 0.25, 0.25).stats
        assert (stats.substeps, stats.rejected, stats.products) == (2, 0, 62)
        assert self._identity_holds(stats)
        assert 0.0 <= stats.worst_trace_drift <= dynamics.TRACE_DRIFT_TOL

    def test_rejected_substeps_are_counted(self):
        # a predicted substep far too long for the estimate is shrunk until it
        # passes; the rejections cost no products, and the substep stays within
        # KRYLOV_TOL of the exact exponential
        eq, rho0 = _fig3b(12)
        sector = _Sector(eq, rho0.matrix)
        krylov = _Krylov(sector.liouvillian, sector.pack(rho0.matrix), 100.0)
        krylov._next = 50.0
        y = krylov.y
        krylov._restart(y, 0.0)
        assert krylov.rejected > 0 and krylov.products == 2 * (dynamics.KRYLOV_DIM + 1)
        tau = krylov._span
        assert 0.0 < tau < 50.0
        krylov.advance_to(tau, tau)
        exact = dynamics._expm(tau * sector.liouvillian.toarray()) @ y
        assert np.linalg.norm(krylov.y - exact) <= dynamics.KRYLOV_TOL

    def test_a_failed_first_trial_is_not_a_rejection(self, monkeypatch):
        # the first basis tries the predicted substep once; when its estimate
        # fails, the first guess stands and nothing is counted as rejected
        cfg = preset("fig4-chain4")[0]
        eq, rho0 = build_master_equation(cfg), build_initial_state(cfg)
        sector = _Sector(eq, rho0.matrix)
        expm, sizes = dynamics._expm, []

        def failing_trial(A):
            sizes.append(np.abs(A).sum())  # tau times |H|
            F = expm(A)
            if len(sizes) == 2:  # the trial: its last two rows make the estimate fail
                F[-2:, 0] = 1.0
            return F

        monkeypatch.setattr(dynamics, "_expm", failing_trial)
        krylov = _Krylov(sector.liouvillian, sector.pack(rho0.matrix), 0.25)
        assert len(sizes) == 2 and sizes[1] > sizes[0]
        assert (krylov.substeps, krylov.rejected, krylov.products) == (1, 0, 31)
        assert 0.01 < krylov._span < 0.02 < krylov._next

    def test_trace_drift_raises(self, monkeypatch):
        monkeypatch.setattr(dynamics, "SECTOR_DENSE_LIMIT", 0)
        expm = dynamics._expm
        monkeypatch.setattr(dynamics, "_expm", lambda A: expm(A) * (1.0 + 1e-6))
        eq, rho0 = _fig3b(4)
        with pytest.raises(NumericalFailure, match="Krylov state drifted at scaled time 0.1"):
            evolve(eq, rho0, 1.0, 0.1)

    def test_substep_underflow_raises(self, monkeypatch):
        # no substep meets a zero tolerance, so the rejections shrink it to nothing
        monkeypatch.setattr(dynamics, "SECTOR_DENSE_LIMIT", 0)
        monkeypatch.setattr(dynamics, "KRYLOV_TOL", 0.0)
        eq, rho0 = _fig3b(4)
        with pytest.raises(IntegrationFailure, match="substep underflow at scaled time 0"):
            evolve(eq, rho0, 1.0, 0.1)


class TestBuilders:
    def test_chain_of_three_has_two_reservoirs(self):
        b, eq = chain_eq(5)
        assert len(eq.terms) == 2
        assert all(t.rate == 1.0 for t in eq.terms)
        ja = reservoir_jump(b, [0, 1]).toarray()
        jc = reservoir_jump(b, [1, 2]).toarray()
        assert np.allclose(eq.terms[0].jump.toarray(), ja)
        assert np.allclose(eq.terms[1].jump.toarray(), jc)

    def test_equations_and_isometry_use_no_kronecker_products(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("built through a Kronecker product or diags_array")

        for module, name in [(hilbert, "embed"), (np, "kron"), (sp, "kron"), (sp, "diags_array")]:
            monkeypatch.setattr(module, name, refuse)
        configs = [preset(name)[-1] for name in PRESET_NAMES]  # both backends, DENSE_LIMIT crossed
        assert {build_basis(cfg).backend for cfg in configs} == set(Backend)
        assert max(build_basis(cfg).dim for cfg in configs) > hilbert.DENSE_LIMIT
        for cfg in configs:
            build_master_equation(cfg)
        hilbert.basis_isometry(BasisDescriptor(Backend.COLLECTIVE, (1, 4, 4, 1)))

    def test_star_has_three_reservoirs(self):
        b = BasisDescriptor(Backend.COLLECTIVE, (1, 1, 1, 4))
        eq = build_collective_zero_T(b, [[0, 3], [1, 3], [2, 3]])
        assert len(eq.terms) == 3

    def test_empty_reservoir_list_rejected(self):
        b, _ = single_qubit_eq()
        with pytest.raises(ValueError):
            build_collective_zero_T(b, [])

    @pytest.mark.parametrize(
        "rates, message",
        [
            ([1.0], "got 1 rates for 2 reservoirs"),
            ([1.0, 0.0], "reservoir rates must be finite and > 0"),
            ([1.0, -1.0], "reservoir rates must be finite and > 0"),
            ([math.nan, 1.0], "reservoir rates must be finite and > 0"),
            ([1.0, math.inf], "reservoir rates must be finite and > 0"),
        ],
    )
    def test_bad_rates_refused(self, rates, message):
        b = BasisDescriptor(Backend.COLLECTIVE, (1, 1, 1))
        with pytest.raises(ValueError, match=message):
            build_realistic(b, [[0, 1], [1, 2]], rates=rates)

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

    def test_channel_order_and_thermal_pairing(self):
        # collective lowering, collective raising, per-spin lowering,
        # per-spin raising, dephasing; each raising jump is the adjoint of
        # its lowering partner at multiple * nbar, the partner at multiple * (nbar + 1)
        b = BasisDescriptor(Backend.FULL, (1, 2, 1))
        nbar, gdep, rates = 0.3, 0.15, [1.0, 2.5]
        reservoirs = [[0, 1], [1, 2]]
        eq = build_realistic(b, reservoirs, nbar, True, gdep, rates=rates)
        sites = [(0, 0), (1, 0), (1, 1), (2, 0)]
        collective = [(reservoir_jump(b, r).toarray(), k) for r, k in zip(reservoirs, rates)]
        per_spin = [(single_spin_lowering(b, m, s).toarray(), 1.0) for m, s in sites]
        expected = []
        for group in (collective, per_spin):
            expected += [(J, k * (nbar + 1.0)) for J, k in group]
            expected += [(J.conj().T, k * nbar) for J, k in group]
        expected += [(single_spin_z(b, m, s).toarray(), gdep) for m, s in sites]
        assert len(eq.terms) == len(expected) == 16
        for term, (jump, rate) in zip(eq.terms, expected):
            assert term.rate == rate
            assert np.array_equal(term.jump.toarray(), jump)
        lowering, raising = eq.terms[:2] + eq.terms[4:8], eq.terms[2:4] + eq.terms[8:12]
        for low, high, k in zip(lowering, raising, rates + [1.0] * 4):
            assert (low.rate, high.rate) == (k * (nbar + 1.0), k * nbar)
            assert np.array_equal(high.jump.toarray(), low.jump.toarray().conj().T)

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

    @pytest.mark.parametrize("t_max", [0.0, -1.0, math.nan])
    def test_non_positive_horizon_refused(self, t_max):
        b, eq = single_qubit_eq()
        with pytest.raises(ValueError, match="t_max must be positive"):
            evolve(eq, product_state(b, [1]), t_max, 0.1)

    def test_non_finite_sample_count_refused(self):
        b, eq = single_qubit_eq()
        with pytest.raises(ValueError, match="sample_dt"):
            evolve(eq, product_state(b, [1]), 1e300, 1e-300)

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
        budget = rf"after {dynamics.MAX_SWEEPS} sweeps"
        with pytest.raises(ConvergenceFailure, match=budget):
            steady_state(eq, rho0, tol=1e-300)

    def test_invalid_tolerance(self):
        b, eq = single_qubit_eq()
        with pytest.raises(ValueError):
            steady_state(eq, ground_state(b), tol=0.0)

    @pytest.mark.parametrize(
        "cfg, blocks",
        [
            (sweep(preset("fig6-star")[0], "N_D", [7])[0], 8),
            (sweep(preset("fig5c-thermal")[0], "T", [0.3])[0], 1),
        ],
        ids=["fig6-N_D7-levels", "fig5c-T0.3-one-block"],
    )
    def test_sweep_is_one_implicit_euler_step(self, cfg, blocks):
        rho0 = build_initial_state(cfg)
        sector = _Sector(build_master_equation(cfg), rho0.matrix)
        sweep_ = dynamics._LevelSweep(sector, dynamics.STEADY_STEP)
        assert len(sweep_.blocks) == blocks
        m = sector.levels.size
        system = np.eye(m) - dynamics.STEADY_STEP * sector.liouvillian.toarray()
        rng = np.random.default_rng(3)
        for y in (sector.pack(rho0.matrix), rng.normal(size=m)):
            assert np.max(np.abs(sweep_.step(y) - np.linalg.solve(system, y))) < 1e-12

    def test_trace_drift_raises(self, monkeypatch):
        step = dynamics._LevelSweep.step
        monkeypatch.setattr(dynamics._LevelSweep, "step", lambda self, y: step(self, y) * 1.000001)
        b, eq = chain_eq(4)
        with pytest.raises(NumericalFailure, match="implicit Euler state drifted at scaled time 256"):
            steady_state(eq, product_state(b, [0, 4, 0]))


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

    def test_csr_operator_matches_its_dense_copy(self):
        b = BasisDescriptor(Backend.FULL, (1, 3))
        jz = Operator(sp.csr_array(embed(collective_jz(3, Backend.FULL), b, 1).matrix), b)
        assert jz.is_sparse
        rho = random_density(np.random.default_rng(7), b)
        value = expectation(rho, jz)
        assert value == pytest.approx(expectation(rho, Operator(jz.toarray(), b)), abs=1e-14)
        assert value == pytest.approx(np.trace(rho.matrix @ jz.toarray()).real, abs=1e-14)


def _with_nan(name, in_jump):
    """A preset's equation and initial state with its first jump's entries NaN, or rho0[-1, -1]."""
    cfg = preset(name)[0]
    eq, rho0 = build_master_equation(cfg), build_initial_state(cfg)
    if in_jump:
        jump = Operator(np.where(eq.terms[0].jump.matrix != 0, np.nan, 0.0), eq.basis)
        return MasterEquation((LindbladTerm(jump, 1.0),) + eq.terms[1:], eq.basis), rho0
    matrix = rho0.matrix.copy()
    matrix[-1, -1] = np.nan  # the ground state's weight: the sector stays rho0's
    return eq, DensityMatrix(matrix, eq.basis, validate=False)


class TestNonFinite:
    """A NaN state or jump ends a run with a named error: it neither hangs nor passes."""

    @pytest.mark.parametrize("in_jump", [False, True], ids=["rho0 entry", "jump"])
    def test_krylov_route_raises_at_once(self, in_jump):
        # fig4-chain4 in a fresh interpreter with a deadline, so a hanging rejection loop
        # fails the test instead of stalling the suite
        code = (
            "import warnings\n"
            "from test_dynamics import _with_nan, evolve\n"
            "warnings.simplefilter('error')\n"
            f"eq, rho0 = _with_nan('fig4-chain4', {in_jump})\n"
            "try:\n"
            "    evolve(eq, rho0, 40.0, 0.25)\n"
            "except Exception as exc:\n"
            "    print(type(exc).__name__, exc)\n"
        )
        paths = [Path(dynamics.__file__).resolve().parents[1], Path(__file__).resolve().parent]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, paths)))
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60,
            check=True,
        )
        assert done.stdout.startswith(
            "IntegrationFailure Krylov substep underflow at scaled time 0 (estimated error nan)"
        )

    @pytest.mark.parametrize("in_jump", [False, True], ids=["rho0 entry", "jump"])
    def test_dense_route_names_the_first_sample(self, in_jump):
        eq, rho0 = _with_nan("intro-pair", in_jump)
        with pytest.raises(NumericalFailure, match="propagated state drifted at scaled time 0.25"):
            evolve(eq, rho0, 1.0, 0.25)

    @pytest.mark.parametrize("in_jump", [False, True], ids=["rho0 entry", "jump"])
    def test_steady_state_raises_at_the_first_sweep(self, in_jump):
        eq, rho0 = _with_nan("fig4-chain4", in_jump)
        with pytest.raises(NumericalFailure, match="drifted at scaled time 256: trace nan"):
            steady_state(eq, rho0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rate_is_refused_by_name(self, value):
        op = collective_lowering(1, Backend.COLLECTIVE)
        with pytest.raises(ValueError, match=f"rate must be finite and >= 0, got {value!r}"):
            LindbladTerm(op, value)

    @pytest.mark.parametrize("name", ["nbar", "gamma_dep_over_gamma"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_noise_argument_is_refused_by_name(self, name, value):
        b = BasisDescriptor(Backend.FULL, (1, 1))
        with pytest.raises(ValueError, match=f"{name} must be finite and >= 0, got {value!r}"):
            build_realistic(b, [[0, 1]], **{name: value})

    def test_expectation_of_a_nan_state_raises(self):
        b = BasisDescriptor(Backend.COLLECTIVE, (1,))
        rho = DensityMatrix(np.diag([np.nan, 1.0]), b, validate=False)
        with pytest.raises(NumericalFailure, match="expectation has imaginary residue nan"):
            expectation(rho, collective_jz(1, Backend.COLLECTIVE))


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

    def test_empty_times_refused(self):
        rho = ground_state(BasisDescriptor(Backend.COLLECTIVE, (1,)))
        with pytest.raises(ValueError, match=r"^times must be a nonempty 1-D array$"):
            Trajectory(np.array([]), {}, None, rho)

    def test_snapshot_count_checked(self):
        rho = ground_state(BasisDescriptor(Backend.COLLECTIVE, (1,)))
        with pytest.raises(ValueError, match=r"^snapshot count does not match times$"):
            Trajectory(np.array([0.0, 1.0]), {}, [rho], rho)


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
# a raising or an unshifted jump: the sweep inverts the whole sector as one block
_ONE_BLOCK_CASES = ["thermal", "sigma-x"]


class TestImplicitSteadyState:
    @pytest.mark.parametrize("name", _LEVEL_SWEEP_CASES + _ONE_BLOCK_CASES)
    def test_matches_projected_initial_state(self, name):
        eq, rho0 = _steady_case(name)
        tol = 1e-12 if name in _ONE_BLOCK_CASES else dynamics.STEADY_STATE_TOL
        res = steady_state(eq, rho0, tol=tol)
        assert _Sector(eq, rho0.matrix).lowering == (name not in _ONE_BLOCK_CASES)
        assert res.steps > 0
        assert trace_distance(res.rho, projected_steady_state(eq, rho0)) < 1e-10
        assert res.elapsed_scaled_time == res.steps * dynamics.STEADY_STEP
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

    def test_elapsed_time_is_steps_times_the_fixed_step(self):
        eq, rho0 = _steady_case("udd")
        res = steady_state(eq, rho0)
        assert 0 < res.steps <= dynamics.MAX_SWEEPS
        assert res.elapsed_scaled_time == res.steps * dynamics.STEADY_STEP

    @pytest.mark.parametrize("T", [0.5, 1.0])
    def test_thermal_presets_converge_by_sweeps(self, T):
        cfg = next(c for c in preset("fig5c-thermal") if c.temperature.T_kelvin == T)
        eq, rho0 = build_master_equation(cfg), build_initial_state(cfg)
        assert not _Sector(eq, rho0.matrix).lowering
        # residual / gap: 4.0e-10 from the projection at the default tol on T0.5
        res = steady_state(eq, rho0, tol=1e-12)
        assert res.steps > 0 and res.elapsed_scaled_time == res.steps * dynamics.STEADY_STEP
        assert trace_distance(res.rho, projected_steady_state(eq, rho0)) < 1e-10

    def test_chain5_converges_by_sweeps(self):
        cfg = preset("fig4-chain5")[0]
        eq, rho0 = build_master_equation(cfg), build_initial_state(cfg)
        res = steady_state(eq, rho0)
        assert res.steps > 0
        assert res.residual < dynamics.STEADY_STATE_TOL
        assert abs(res.rho.matrix.trace() - 1.0) < 1e-12

    def test_block_above_the_limit_raises_before_inverting(self, monkeypatch):
        eq, rho0 = _steady_case("udu")
        _, sizes = np.unique(_Sector(eq, rho0.matrix).levels, return_counts=True)
        largest = int(sizes.max())
        assert largest > 3
        monkeypatch.setattr(dynamics, "LEVEL_BLOCK_LIMIT", 3)
        monkeypatch.setattr(np.linalg, "inv", lambda a: pytest.fail("inverted a block"))
        with pytest.raises(MemoryGuardExceeded, match=rf"block of {largest} coordinates") as err:
            steady_state(eq, rho0)
        assert f"{8 * largest**2} bytes" in str(err.value)


class TestOneSectorPerCall:
    @pytest.fixture
    def builds(self, monkeypatch):
        calls = []
        init = _Sector.__init__
        monkeypatch.setattr(_Sector, "__init__", lambda self, *a: calls.append(1) or init(self, *a))
        return calls

    @pytest.mark.parametrize("route", ["propagator", "krylov"])
    def test_evolve(self, builds, route):
        b, eq = chain_eq(3)
        if route == "propagator":
            rho0 = product_state(b, [0, 3, 0])
        else:  # every coherence order: 256 coordinates, above SECTOR_DENSE_LIMIT
            rho0 = random_density(np.random.default_rng(41), b)
        traj = evolve(eq, rho0, 0.5, 0.1)
        assert (traj.stats is None) == (route == "propagator")
        assert len(builds) == 1

    @pytest.mark.parametrize("case", ["udd", "thermal"])
    def test_steady_state(self, builds, case):
        res = steady_state(*_steady_case(case))
        assert res.steps > 0
        assert len(builds) == 1


def _fig3b(n_b):
    cfg = preset("fig3b")[n_b - 2]
    assert cfg.name == f"fig3b_nb{n_b}"
    return build_master_equation(cfg), build_initial_state(cfg)


def _krylov_cases():
    """A real sector (fig3b N_B = 12) and a complex one (the sigma_y readout case)."""
    eq, rho0 = _fig3b(12)
    _, eq_y, rho_y = _readout_cases()[-1]
    return [(eq, rho0.matrix), (eq_y, rho_y.matrix)]


class TestArnoldi:
    @pytest.mark.parametrize("case", [0, 1], ids=["real-fig3b", "complex-sigma-y"])
    def test_basis_is_orthonormal_and_spans_the_krylov_space(self, case):
        eq, rho0 = _krylov_cases()[case]
        sector = _Sector(eq, rho0)
        krylov = _Krylov(sector.liouvillian, sector.pack(rho0), 8.0)
        V, H, k = krylov._V, krylov._H, dynamics.KRYLOV_DIM
        assert V.shape == (k + 1, krylov.y.size)
        assert np.max(np.abs(V @ V.T - np.eye(k + 1))) <= 1e-14
        # the Arnoldi relation L V_k = V_(k+1) Hbar, with Hbar upper Hessenberg
        LV = (sector.liouvillian @ V[:k].T).T
        assert np.max(np.abs(LV - H[: k + 1, :k].T @ V)) <= 1e-12 * np.max(np.abs(LV))
        assert not np.any(np.tril(H[: k + 1, :k], -2))
        assert np.max(np.abs(V[0] - krylov.y / np.linalg.norm(krylov.y))) <= 1e-15

    @pytest.mark.parametrize("case", [0, 1], ids=["real-fig3b", "complex-sigma-y"])
    def test_samples_inside_a_substep_share_its_basis(self, case):
        eq, rho0 = _krylov_cases()[case]
        sector = _Sector(eq, rho0)
        krylov = _Krylov(sector.liouvillian, sector.pack(rho0), 8.0)
        y0, tau, L = krylov.y, krylov._span, sector.liouvillian.toarray()
        assert 0.0 < tau < math.inf and krylov.products == dynamics.KRYLOV_DIM + 1
        for before, s in zip((0.0, tau / 3, tau / 2), (tau / 3, tau / 2, tau)):
            krylov.advance_to(s, s - before)
            exact = dynamics._expm(s * L) @ y0
            assert np.linalg.norm(krylov.y - exact) <= dynamics.KRYLOV_TOL
        assert krylov.substeps == 1 and krylov.products == dynamics.KRYLOV_DIM + 1

    def test_a_sector_within_the_basis_size_breaks_down_at_once(self, monkeypatch):
        # the Krylov space of L at rho0 has 10 of the 17 dimensions: the basis
        # is exact for all time after 10 products
        monkeypatch.setattr(dynamics, "SECTOR_DENSE_LIMIT", 0)
        eq, rho0 = _fig3b(2)
        assert _Sector(eq, rho0.matrix).levels.size == 17
        states, traj = _sample_states(eq, rho0, 8.0, 0.1)
        stats = traj.stats
        assert (stats.substeps, stats.rejected, stats.products) == (1, 0, 10)
        assert stats.min_step == stats.max_step == 0.0
        monkeypatch.setattr(dynamics, "SECTOR_DENSE_LIMIT", 10**9)
        reference, _ = _sample_states(eq, rho0, 8.0, 0.1)
        assert max(trace_distance(a, b) for a, b in zip(states, reference)) <= 1e-12


class TestDenseSectorMap:
    def test_evolve_agrees_on_both_maps(self, monkeypatch):
        eq, rho0 = _fig3b(4)
        runs = []
        for limit in (0, 10**9):
            monkeypatch.setattr(dynamics, "SECTOR_DENSE_LIMIT", limit)
            states = []
            record = {"state": lambda r: states.append(r) or 0.0}
            traj = evolve(eq, rho0, 8.0, 0.1, observables=record)
            if limit == 0:
                assert TestSolverStats._identity_holds(traj.stats)
            else:  # the propagator: no substeps to count
                assert traj.stats is None
            runs.append(states)
        assert len(runs[0]) == len(runs[1]) == 81
        assert max(trace_distance(a, b) for a, b in zip(*runs)) < 1e-10


class TestStepRange:
    def test_chain4_substeps_span_samples(self):
        # the substep is carried across samples: far fewer substeps than samples
        cfg = preset("fig4-chain4")[0]
        eq, rho0 = build_master_equation(cfg), build_initial_state(cfg)
        traj = evolve(eq, rho0, cfg.t_max, cfg.sample_dt)
        stats = traj.stats
        assert traj.times.size == 161
        assert 0.0 < stats.min_step < cfg.sample_dt < stats.max_step
        assert stats.substeps < 30 and stats.rejected == 0



class TestKrylov:
    @pytest.mark.parametrize("case", ["fig6 N_D=5", "chain4"])
    def test_agrees_with_the_dense_propagator_at_every_sample(self, monkeypatch, case):
        if case == "chain4":
            cfg = preset("fig4-chain4")[0]
            t_max, sample_dt = 0.25, 0.025
        else:
            cfg = sweep(preset("fig6-star")[0], "N_D", [5])[0]
            t_max, sample_dt = cfg.t_max, cfg.sample_dt
        eq, rho0 = build_master_equation(cfg), build_initial_state(cfg)
        assert _Sector(eq, rho0.matrix).levels.size > dynamics.SECTOR_DENSE_LIMIT
        states, traj = _sample_states(eq, rho0, t_max, sample_dt)
        assert traj.stats is not None
        monkeypatch.setattr(dynamics, "SECTOR_DENSE_LIMIT", 10**9)
        reference, dense = _sample_states(eq, rho0, t_max, sample_dt)
        assert dense.stats is None and len(states) == len(reference) == traj.times.size
        assert max(trace_distance(a, b) for a, b in zip(states, reference)) <= 1e-10

    def test_an_exactly_stationary_state_breaks_down_at_once(self, monkeypatch):
        # L rho0 = 0: the first product leaves no residual, and rho0 stays put
        monkeypatch.setattr(dynamics, "SECTOR_DENSE_LIMIT", 0)
        b, eq = chain_eq(4)
        rho0 = ground_state(b)
        traj = evolve(eq, rho0, 40.0, 0.25)
        stats = traj.stats
        assert (stats.substeps, stats.products) == (1, 1)
        assert stats.min_step == stats.max_step == 0.0
        assert np.max(np.abs(traj.final_rho.matrix - rho0.matrix)) <= 1e-15

    @pytest.mark.parametrize("start", ["initial", "steady"])
    def test_a_long_run_keeps_its_accuracy(self, monkeypatch, start):
        # the error budget is per substep, and a happy breakdown weighs the rest of
        # the run, so the error grows with the substeps, not with the length; at
        # 1e-12 per unit of time the trace passes TRACE_DRIFT_TOL near t = 5500 from
        # rho0 and near 7500 from the steady state
        monkeypatch.setattr(dynamics, "SECTOR_DENSE_LIMIT", 0)
        cfg = preset("fig5a-dephasing")[-1]
        eq, rho0 = build_master_equation(cfg), build_initial_state(cfg)
        if start == "steady":
            rho0 = steady_state(eq, rho0).rho
        states, traj = _sample_states(eq, rho0, 1e4, 100.0)
        assert traj.stats.substeps < 30 and traj.stats.worst_trace_drift <= 1e-10
        monkeypatch.setattr(dynamics, "SECTOR_DENSE_LIMIT", 10**9)
        reference, _ = _sample_states(eq, rho0, 1e4, 100.0)
        assert max(trace_distance(a, b) for a, b in zip(states, reference)) <= 1e-10

    def test_no_substep_runs_past_the_end(self):
        # to t = 0.304 the third substep is cut to ~0.004, and left out of the range
        cfg = preset("fig4-chain4")[0]
        eq, rho0 = build_master_equation(cfg), build_initial_state(cfg)
        sector = _Sector(eq, rho0.matrix)
        krylov = _Krylov(sector.liouvillian, sector.pack(rho0.matrix), 0.304)
        krylov.advance_to(0.304, 0.304)
        assert krylov.substeps == 3
        assert krylov._start + krylov._span == pytest.approx(0.304, rel=1e-15)
        assert krylov._span < 0.01 < krylov.stats(0.0).min_step

    def test_a_steady_state_stays_put(self):
        cfg = sweep(preset("fig6-star")[0], "N_D", [5])[0]
        eq = build_master_equation(cfg)
        steady = steady_state(eq, build_initial_state(cfg)).rho
        traj = evolve(eq, steady, cfg.t_max, cfg.sample_dt)
        assert traj.stats is not None
        assert trace_distance(traj.final_rho, steady) <= 1e-9


class TestSteadyStateRecord:
    def test_sweeps_times_step_is_elapsed_time(self):
        cfg = preset("appB-oracle")[1]
        assert cfg.domains[1].population == 2
        eq, rho0 = build_master_equation(cfg), build_initial_state(cfg)
        res = steady_state(eq, rho0)
        assert res.steps > 0
        assert res.steps * dynamics.STEADY_STEP == res.elapsed_scaled_time

    def test_early_return_takes_no_steps(self):
        b, eq = chain_eq(4)
        res = steady_state(eq, ground_state(b))
        assert res.steps == 0


class TestSteadyStateCensus:
    @pytest.mark.parametrize("family", PRESET_NAMES)
    def test_every_preset_config(self, family):
        for cfg in preset(family):
            eq, rho0 = build_master_equation(cfg), build_initial_state(cfg)
            res = steady_state(eq, rho0)
            assert res.residual < dynamics.STEADY_STATE_TOL, cfg.name


def _sample_states(eq, rho0, t_max, sample_dt, keep=None):
    """evolve's sampled states, and its trajectory."""
    states = []
    record = {"state": lambda r: states.append(r) or 0.0}
    traj = evolve(eq, rho0, t_max, sample_dt, keep=keep, observables=record)
    return states, traj


def _tight_krylov(monkeypatch, *args, **kwargs):
    """The same run on the Krylov propagator at KRYLOV_TOL 1e-14."""
    with monkeypatch.context() as patch:
        patch.setattr(dynamics, "SECTOR_DENSE_LIMIT", 0)
        patch.setattr(dynamics, "KRYLOV_TOL", 1e-14)
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
    def test_evolve_matches_tight_krylov(self, monkeypatch, n_b):
        eq, rho0 = _fig3b(n_b)
        states, traj = _sample_states(eq, rho0, 8.0, 0.1)
        assert traj.stats is None
        reference, _ = _tight_krylov(monkeypatch, eq, rho0, 8.0, 0.1)
        assert len(states) == len(reference) == 81
        assert max(trace_distance(a, b) for a, b in zip(states, reference)) < 1e-11

    def test_short_last_interval_and_snapshots(self, monkeypatch):
        eq, rho0 = _fig3b(4)
        reference, ref_traj = _tight_krylov(monkeypatch, eq, rho0, 1.05, 0.1, keep=[0, 2])
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

    def test_trace_drift_names_the_first_drifting_sample(self, monkeypatch):
        # each interval adds 3e-9 to the trace: 9e-9 at 0.3, past TRACE_DRIFT_TOL at 0.4
        expm = dynamics._expm
        monkeypatch.setattr(dynamics, "_expm", lambda A: expm(A) * (1.0 + 3e-9))
        eq, rho0 = _fig3b(4)
        with pytest.raises(NumericalFailure, match="propagated state drifted at scaled time 0.4:"):
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
    @pytest.mark.parametrize("limit", [None, 0], ids=["propagator", "krylov"])
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

    def test_fig3b_on_krylov(self, monkeypatch):
        monkeypatch.setattr(dynamics, "SECTOR_DENSE_LIMIT", 0)
        cfg = preset("fig3b")[2]
        eq, rho0 = build_master_equation(cfg), build_initial_state(cfg)
        compiled = compile_observables(cfg, build_basis(cfg))
        batched, _ = _assert_batched_matches_bare(eq, rho0, 8.0, cfg.sample_dt, compiled)
        assert batched.stats is not None

    def test_chain4_batched_and_bare_take_the_same_62_products(self):
        cfg = preset("fig4-chain4")[0]
        eq, rho0 = build_master_equation(cfg), build_initial_state(cfg)
        compiled = compile_observables(cfg, build_basis(cfg))
        batched, bare = _assert_batched_matches_bare(eq, rho0, 0.25, 0.25, compiled)
        assert batched.stats == bare.stats
        assert (batched.stats.substeps, batched.stats.products) == (2, 62)

    def test_fig5a_on_krylov_to_its_horizon(self, monkeypatch):
        # near rank-deficient reduced states the concurrence turns a changed
        # last bit into ~1e-9, so the map must sum as partial_trace does
        monkeypatch.setattr(dynamics, "SECTOR_DENSE_LIMIT", 0)
        cfg = preset("fig5a-dephasing")[0]
        assert cfg.name == "fig5a_dep0"
        eq, rho0 = build_master_equation(cfg), build_initial_state(cfg)
        compiled = compile_observables(cfg, build_basis(cfg))
        batched, _ = _assert_batched_matches_bare(eq, rho0, cfg.t_max, cfg.sample_dt, compiled)
        assert batched.stats is not None and batched.times.size == 201

    @pytest.mark.parametrize("limit", [None, 0], ids=["propagator", "krylov"])
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


class TestReadAfterTheLoop:
    """evolve stores the samples, then reads every linear part with one product per map."""

    @pytest.mark.parametrize("limit", [None, 0], ids=["propagator", "krylov"])
    @pytest.mark.parametrize("name", ["fig5b", "appB"])
    def test_stored_samples_match_the_per_sample_path(self, monkeypatch, name, limit):
        # per-spin orbit coordinates (fig5b) and the ladder's dark state (appB)
        if limit is not None:
            monkeypatch.setattr(dynamics, "SECTOR_DENSE_LIMIT", limit)
        cfg = _smallest_configs()[name]
        eq, rho0 = build_master_equation(cfg), build_initial_state(cfg)
        compiled = compile_observables(cfg, build_basis(cfg))
        batched, _ = _assert_batched_matches_bare(eq, rho0, 2.0, 0.1, compiled)
        assert (batched.stats is None) == (limit is None)

    def test_one_product_per_readout_map_per_run(self, monkeypatch):
        products = []

        class Counted:
            def __init__(self, R):
                self.R = R

            def __matmul__(self, states):
                products.append(states.shape)
                return self.R @ states

        readout = _Sector.readout
        monkeypatch.setattr(_Sector, "readout", lambda self, ob: Counted(readout(self, ob)))
        cfg = preset("fig3b")[0]
        cfg = dataclasses.replace(cfg, observables=("E_F(A,C)", "C(A,C)", "Jz_B/N_B", "x_d"))
        eq, rho0 = build_master_equation(cfg), build_initial_state(cfg)
        compiled = compile_observables(cfg, build_basis(cfg))
        traj = evolve(eq, rho0, 8.0, 0.1, keep=[0, 2], observables=compiled)
        # E_F, C and the snapshots share the (A, C) map; Jz_B/N_B and x_d have one each
        assert len(products) == 3
        assert all(shape[1] == traj.times.size == 81 for shape in products)

    @pytest.mark.parametrize("name", ["fig3b", "fig5b", "fig4-chain4"])
    def test_residual_is_the_frobenius_norm_of_the_rhs(self, name):
        cfg = _smallest_configs()[name]
        eq, rho0 = build_master_equation(cfg), build_initial_state(cfg)
        traj = evolve(eq, rho0, 0.25, 0.05)
        if name == "fig5b":  # orbits of many members
            sector = _Sector(eq, rho0.matrix)
            assert sector.levels.size < _one_coordinate_per_pair(sector)
        assert (traj.stats is not None) == (name == "fig4-chain4")
        expected = np.linalg.norm(lindblad_rhs(eq, traj.final_rho))
        assert abs(traj.residual - expected) <= 1e-13
