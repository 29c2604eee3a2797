"""Acceptance gate: one test per shipped guarantee.

Each test pins a frozen reference number or a qualitative property of the
steady states and trajectories.  Simulated values are compared against
closed forms from the analytic-oracle module or against the frozen values;
tolerances are stated inline.  Two tests document bands that the exact
dynamics genuinely misses; their companion tests pin the exact values, and
the failure messages carry the measured numbers.
"""

import dataclasses
import math
import os
import time

import numpy as np
import pytest

from qlre.dynamics import (
    build_collective_zero_T,
    evolve,
    half_max_time,
    lindblad_rhs,
    steady_state,
)
from qlre.entanglement import (
    concurrence,
    entanglement_of_formation,
    eof_from_concurrence,
    log_negativity,
    tripartite_negativity,
)
from qlre.hilbert import (
    Backend,
    BasisDescriptor,
    partial_trace,
    product_state,
    to_collective_basis,
    to_full_basis,
    trace_distance,
)
from qlre.oracle import dark_state, edge_excited_steady, w_state, x_reduced
from qlre.scenarios import (
    InitialSpec,
    build_basis,
    build_initial_state,
    build_master_equation,
    compile_observables,
    preset,
    sweep,
)


def steady_of(cfg, tol=1e-10):
    eq = build_master_equation(cfg)
    return steady_state(eq, build_initial_state(cfg), tol=tol).rho


def run_preset_config(cfg):
    eq = build_master_equation(cfg)
    fns = compile_observables(cfg, build_basis(cfg))
    return evolve(eq, build_initial_state(cfg), cfg.t_max, cfg.sample_dt, observables=fns)


def pair_eof(rho):
    return entanglement_of_formation(partial_trace(rho, keep=[0, 2]))


def nondecreasing(values, slack=1e-9):
    return all(b >= a - slack for a, b in zip(values, values[1:]))


def strictly_decreasing(values):
    return all(b < a for a, b in zip(values, values[1:]))


@pytest.fixture(scope="module")
def pair_domain_curve():
    """Steady log-negativity across the A|B cut for N_A = 1..8, plus wall time."""
    started = time.perf_counter()
    curve = {}
    for cfg in preset("fig1a-sweep"):
        rho = steady_of(cfg)
        curve[cfg.domains[0].population] = log_negativity(rho, [0])
    return curve, time.perf_counter() - started


@pytest.fixture(scope="module")
def alternate_steady():
    """Steady edge-pair E_F for the eight product initial patterns at N_B = 4."""
    out = {}
    for cfg in preset("appA-initial-states"):
        out[cfg.name.rsplit("_", 1)[1]] = pair_eof(steady_of(cfg))
    return out


def test_criterion_01_intro_pair_steady_eof():
    cfg = preset("intro-pair")[0]
    started = time.perf_counter()
    ef = entanglement_of_formation(steady_of(cfg))
    elapsed = time.perf_counter() - started
    assert ef == pytest.approx(0.3546, abs=1e-3)
    assert elapsed < 1.0


def test_criterion_02_pair_domain_sweep(pair_domain_curve):
    curve, elapsed = pair_domain_curve
    assert sorted(curve) == list(range(1, 9))
    assert max(curve, key=curve.get) == 5
    # exact two-sector mixture value at the peak: the steady state is
    # (1/(N+1))|ground><ground| + (N/(N+1))|chi><chi| with a single
    # negative partial-transpose eigenvalue, giving
    #   E_N(N) = log2( N/(N+1) + sqrt((N+1)^2 + 4 N^3) / (N+1)^2 )
    n = 5
    exact = math.log2(n / (n + 1.0) + math.sqrt((n + 1.0) ** 2 + 4.0 * n**3) / (n + 1.0) ** 2)
    assert curve[5] == pytest.approx(exact, abs=1e-6)
    assert elapsed < 30.0


def test_criterion_02_peak_magnitude_band(pair_domain_curve):
    # The exact peak value is log2(5/6 + sqrt(536)/36) = 0.562118...,
    # which sits 0.0021 outside the quoted 0.55 +/- 0.01 window; the
    # companion test pins the exact value to 1e-6.
    curve, _ = pair_domain_curve
    assert curve[5] == pytest.approx(0.55, abs=0.01), (
        f"steady E_N at the N_A = 5 peak is {curve[5]:.10f}"
    )


def test_criterion_03_chain_steady_entanglement():
    started = time.perf_counter()
    finals, rise_times = [], []
    for cfg in preset("fig3b"):
        traj = run_preset_config(cfg)
        series = traj.observables["E_F(A,C)"]
        finals.append(float(series[-1]))
        rise_times.append(half_max_time(series, traj.times))
    elapsed = time.perf_counter() - started
    assert finals[-1] == pytest.approx(0.315, abs=0.005)  # N_B = 12
    assert nondecreasing(finals)
    assert nondecreasing(rise_times[::-1])  # t_E shrinks as N_B grows
    assert elapsed < 120.0


def test_criterion_04_edge_excited_closed_form():
    # edge_excited_steady(n) is the mixture (1 - x_d) ground + x_d dark
    for cfg in preset("appB-oracle"):
        n = cfg.domains[1].population
        rho = to_full_basis(steady_of(cfg))
        assert trace_distance(rho, edge_excited_steady(n)) < 1e-7
        c = concurrence(partial_trace(rho, keep=[0, 2]))
        assert c == pytest.approx(2.0 * n * n / (2.0 * n + 1.0) ** 2, abs=1e-6)


def test_criterion_05_dark_state_stationarity():
    for n in range(1, 9):
        rho_full = dark_state(n).projector()
        eq_full = build_collective_zero_T(rho_full.basis, [[0, 1], [1, 2]])
        assert np.linalg.norm(lindblad_rhs(eq_full, rho_full)) < 1e-10
        rho_coll = to_collective_basis(rho_full)
        eq_coll = build_collective_zero_T(rho_coll.basis, [[0, 1], [1, 2]])
        assert np.linalg.norm(lindblad_rhs(eq_coll, rho_coll)) < 1e-10


def test_criterion_06_large_population_limit():
    # analytic chain: no simulation involved
    limit = eof_from_concurrence(0.5)
    gaps = [abs(eof_from_concurrence(x_reduced(n)) - limit) for n in (10, 100, 1000)]
    assert eof_from_concurrence(x_reduced(1000)) == pytest.approx(0.354, abs=1e-3)
    assert strictly_decreasing(gaps)


def test_criterion_07_tripartite_star():
    w = tripartite_negativity(w_state().projector())
    assert w == pytest.approx(math.sqrt(2.0) / 3.0, abs=1e-9)

    started = time.perf_counter()
    star = preset("fig6-star")[0]
    values = []
    for cfg in sweep(star, "N_D", list(range(1, 12))):
        rho = steady_of(cfg)
        values.append(tripartite_negativity(partial_trace(rho, keep=[0, 1, 2])))
    elapsed = time.perf_counter() - started
    assert values[-1] == pytest.approx(0.043, abs=0.003)  # N_D = 11
    assert all(b > a for a, b in zip(values, values[1:]))
    assert elapsed < 120.0


def test_criterion_08_noise_properties():
    # collective dephasing, rate grid pinned
    rates, peaks, finals = [], [], []
    for cfg in preset("fig5a-dephasing"):
        rates.append(cfg.gamma_dep_over_gamma)
        series = run_preset_config(cfg).observables["E_F(A,C)"]
        peaks.append(float(series.max()))
        finals.append(float(series[-1]))
    assert rates == [0.0, 0.02, 0.05, 0.1, 0.2]
    assert strictly_decreasing(peaks)
    assert strictly_decreasing(finals)

    # thermal occupation: hotter reservoirs entangle strictly less
    base = preset("fig5c-thermal")[0]
    peaks, finals = [], []
    for cfg in sweep(base, "T", [0.0, 0.1, 0.2, 0.3]):
        series = run_preset_config(cfg).observables["E_F(A,C)"]
        peaks.append(float(series.max()))
        finals.append(float(series[-1]))
    assert strictly_decreasing(peaks)
    assert strictly_decreasing(finals)

    # per-spin decay: entanglement is transient and small
    series = run_preset_config(preset("fig5b-individual")[0]).observables["E_F(A,C)"]
    peak_at = int(np.argmax(series))
    peak = float(series[peak_at])
    assert 0.0 < peak < 0.02
    assert 0 < peak_at < len(series) - 1
    assert series[-1] < 0.1 * peak


@pytest.mark.skipif(
    not os.environ.get("QLRE_BIGMEM"),
    reason="2^13-dimensional full-backend run; takes ~13 s and a 2.8 GiB peak RSS, "
    "set QLRE_BIGMEM=1 to enable",
)
def test_criterion_08_individual_peak_value_bigmem():
    base = preset("fig5b-individual")[0]
    cfg = sweep(base, "N_B", [11])[0]
    eq = build_master_equation(cfg, allow_large=True)
    fns = compile_observables(cfg, build_basis(cfg))
    traj = evolve(eq, build_initial_state(cfg), 3.0, 0.05, observables=fns)
    peak = float(traj.observables["E_F(A,C)"].max())
    assert peak == pytest.approx(0.0039, abs=5e-4)


def test_criterion_09_alternate_and_mixed_initials(alternate_steady):
    # the three entangling product patterns land within 10% of each other
    trio = [alternate_steady[p] for p in ("dud", "udd", "ddu")]
    assert max(trio) <= 1.10 * min(trio)
    # the fully inverted pattern still entangles the edges
    assert alternate_steady["uuu"] > 0.0

    # preparation-fidelity sweep: dirtier initial states entangle less,
    # and the F_0 = 1 member reproduces the pure run on the same backend
    # and sample grid
    finals = {}
    for cfg in preset("appA-mixed"):
        finals[cfg.name] = float(run_preset_config(cfg).observables["E_F(A,C)"][-1])
    ordered = [finals[k] for k in sorted(finals)]
    assert nondecreasing(ordered)

    top = preset("appA-mixed")[-1]
    pure_cfg = dataclasses.replace(
        top,
        name="appA_pure_reference",
        domains=(
            top.domains[0],
            dataclasses.replace(top.domains[1], initial=InitialSpec("excited")),
            top.domains[2],
        ),
    )
    pure_final = float(run_preset_config(pure_cfg).observables["E_F(A,C)"][-1])
    assert abs(finals["appA_mixed_f1"] - pure_final) <= 1e-8


def test_criterion_09_weak_patterns_band(alternate_steady):
    weak = ("udu", "uud", "duu")
    # at the population the 0.006 band was read from (N_B = 10) the
    # property holds with a few percent to spare
    for pattern in weak:
        base = next(c for c in preset("appA-initial-states") if c.name.endswith(pattern))
        big = sweep(base, "N_B", [10])[0]
        assert pair_eof(steady_of(big)) < 0.006
    # at N_B = 4 the same patterns sit a factor 2-4 above the band
    at_four = {p: alternate_steady[p] for p in weak}
    assert max(at_four.values()) < 0.006, (
        f"weak-pattern steady E_F at N_B = 4: "
        + ", ".join(f"{p}={v:.6f}" for p, v in sorted(at_four.items()))
        + " (the 0.006 bound is satisfied at N_B = 10)"
    )


def test_criterion_10_backend_agreement():
    worst = 0.0
    for n in range(1, 6):
        bc = BasisDescriptor(Backend.COLLECTIVE, (1, n, 1))
        eqc = build_collective_zero_T(bc, [[0, 1], [1, 2]])
        rc = product_state(bc, [0, n, 0])
        tc = evolve(eqc, rc, 10.0, 2.0, keep=[0, 1, 2])
        bf = bc.counterpart()
        eqf = build_collective_zero_T(bf, [[0, 1], [1, 2]])
        tf = evolve(eqf, to_full_basis(rc), 10.0, 2.0, keep=[0, 1, 2])
        for sc, sf in zip(tc.snapshots, tf.snapshots):
            worst = max(worst, trace_distance(sc, to_collective_basis(sf)))
    assert worst < 1e-8


@pytest.mark.parametrize("name", ["fig4-chain4", "fig4-chain5"])
def test_criterion_11_long_chain_plateaus(name):
    cfg = preset(name)[0]
    traj = run_preset_config(cfg)
    series = np.asarray(traj.observables[cfg.observables[0]], dtype=float)
    times = np.asarray(traj.times, dtype=float)
    tail = series[times >= 0.8 * cfg.t_max]
    assert series[-1] > 0.0
    assert tail.max() - tail.min() < 1e-6
