import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from qlre.dynamics import evolve
from qlre.entanglement import entanglement_of_formation
from qlre.hilbert import (
    Backend,
    dicke_level_vector,
    fidelity_with_pure,
    partial_trace,
    pure_product_state,
    to_collective_basis,
)
from qlre.oracle import dark_state, edge_excited_steady
from qlre.scenarios import (
    PRESET_NAMES,
    SWEEP_PARAMETERS,
    DomainSpec,
    InitialSpec,
    ReservoirSpec,
    ScenarioConfig,
    TemperatureSpec,
    bose_einstein_nbar,
    build_basis,
    build_initial_state,
    build_master_equation,
    compile_observables,
    config_from_dict,
    config_hash,
    config_to_dict,
    effective_backend,
    hilbert_dimension,
    preset,
    resolved_nbar,
    sweep,
)

# SI definitions, written out so the thermal-occupation check does not lean
# on the same constants table the implementation uses
PLANCK = 6.62607015e-34
BOLTZMANN = 1.380649e-23


def chain_config(pops=(1, 4, 1), initials=("ground", "excited", "ground"), **kw):
    domains = tuple(DomainSpec(p, InitialSpec(k)) for p, k in zip(pops, initials))
    reservoirs = tuple(ReservoirSpec((i, i + 1)) for i in range(len(pops) - 1))
    kw.setdefault("name", "chain")
    kw.setdefault("t_max", 10.0)
    kw.setdefault("sample_dt", 0.5)
    return ScenarioConfig(domains=domains, reservoirs=reservoirs, **kw)


class TestBoseEinstein:
    def test_zero_temperature_is_exactly_zero(self):
        assert bose_einstein_nbar(1e10, 0.0) == 0.0

    def test_unit_occupation_at_log2_exponent(self):
        # h f / (k T) = ln 2  =>  exp - 1 = 1  =>  nbar = 1
        f = 1.0e10
        T = PLANCK * f / (BOLTZMANN * math.log(2.0))
        assert bose_einstein_nbar(f, T) == pytest.approx(1.0, abs=1e-12)

    def test_matches_direct_formula(self):
        f, T = 1.0e10, 0.48
        x = PLANCK * f / (BOLTZMANN * T)
        assert bose_einstein_nbar(f, T) == pytest.approx(1.0 / math.expm1(x), rel=1e-13)

    def test_matches_scipy_constants_bitwise_on_every_fig5c_temperature(self):
        # the exact SI h and k_B stand in for scipy.constants, which a run never imports
        from scipy import constants

        temperatures = [cfg.temperature for cfg in preset("fig5c-thermal")]
        assert len(temperatures) == 5
        for temp in temperatures:
            f, T = temp.omega0_over_2pi_hz, temp.T_kelvin
            expected = 1.0 / math.expm1(constants.h * f / (constants.k * T)) if T else 0.0
            assert bose_einstein_nbar(f, T) == expected

    def test_extreme_cold_underflows_to_zero(self):
        assert bose_einstein_nbar(1e10, 1e-30) == 0.0

    def test_monotone_in_temperature(self):
        vals = [bose_einstein_nbar(1e10, T) for T in (0.1, 0.2, 0.5, 1.0, 5.0)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("f,T", [(0.0, 1.0), (-1e9, 1.0), (1e10, -0.1), (math.nan, 1.0)])
    def test_bad_arguments_rejected(self, f, T):
        with pytest.raises(ValueError):
            bose_einstein_nbar(f, T)


class TestValidation:
    @pytest.mark.parametrize(
        "field, kwargs",
        [
            ("domains", dict(domains=5)),
            ("reservoirs", dict(reservoirs=5)),
            ("observables", dict(observables=5)),
            ("reservoirs[0].domains", dict(reservoirs=(ReservoirSpec(5),))),
        ],
    )
    def test_non_iterable_named(self, field, kwargs):
        fields = dict(
            name="x", domains=(DomainSpec(1), DomainSpec(2)), reservoirs=(ReservoirSpec((0, 1)),)
        )
        with pytest.raises(ValueError, match=rf"^{re.escape(field)}: expected a sequence, got 5"):
            ScenarioConfig(**dict(fields, **kwargs))

    @pytest.mark.parametrize(
        "field, expected, kwargs",
        [
            (r"domains\[0\]", "a DomainSpec", dict(domains=({"population": 1}, DomainSpec(1)))),
            (r"reservoirs\[0\]", "a ReservoirSpec", dict(reservoirs=({"domains": (0, 1)},))),
            ("temperature", "a TemperatureSpec", dict(temperature=(0.1, 1e10))),
            (
                r"domains\[0\]\.initial",
                "an InitialSpec",
                dict(domains=(DomainSpec(1, "excited"), DomainSpec(1))),
            ),
        ],
    )
    def test_value_of_the_wrong_type_named(self, field, expected, kwargs):
        fields = dict(
            name="x", domains=(DomainSpec(1), DomainSpec(1)), reservoirs=(ReservoirSpec((0, 1)),)
        )
        with pytest.raises(ValueError, match=rf"^{field}: expected {expected}, got "):
            ScenarioConfig(**dict(fields, **kwargs))

    @pytest.mark.parametrize(
        "init, message",
        [
            (InitialSpec("up"), "unknown kind 'up'"),
            (
                InitialSpec("ground", a=1.0, b=0.0),
                "'ground' initial does not take mixture weights",
            ),
        ],
    )
    def test_malformed_initial_named(self, init, message):
        with pytest.raises(ValueError, match=rf"^domains\[1\]\.initial: {re.escape(message)}"):
            ScenarioConfig(
                name="x",
                domains=(DomainSpec(1), DomainSpec(1, init)),
                reservoirs=(ReservoirSpec((0, 1)),),
            )

    def test_single_domain_rejected(self):
        with pytest.raises(ValueError, match="domains"):
            ScenarioConfig(
                name="x",
                domains=(DomainSpec(1),),
                reservoirs=(ReservoirSpec((0,)),),
            )

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            chain_config(backend="sparse")

    @pytest.mark.parametrize("name", ["../../tmp/evil", "a/b", ".hidden", "", "sp ace", "a\\b"])
    def test_unsafe_names_rejected(self, name):
        with pytest.raises(ValueError, match="name"):
            chain_config(name=name)

    def test_sweep_names_with_exponents_are_accepted(self):
        out = sweep(chain_config(backend="full"), "gamma_dep_over_gamma", [1e-5])
        assert out[0].name == "chain_gamma_dep_over_gamma1e-05"

    def test_dicke_needs_count(self):
        with pytest.raises(ValueError, match=r"domains\[1\]\.initial"):
            chain_config(initials=("ground", "dicke", "ground"))

    def test_dicke_count_range_checked(self):
        domains = (
            DomainSpec(1, InitialSpec("ground")),
            DomainSpec(4, InitialSpec("dicke", dicke_k=5)),
            DomainSpec(1, InitialSpec("ground")),
        )
        with pytest.raises(ValueError, match="outside"):
            ScenarioConfig(
                name="x",
                domains=domains,
                reservoirs=(ReservoirSpec((0, 1)), ReservoirSpec((1, 2))),
            )

    def test_ground_with_dicke_count_rejected(self):
        domains = (
            DomainSpec(1, InitialSpec("ground", dicke_k=1)),
            DomainSpec(1, InitialSpec("ground")),
        )
        with pytest.raises(ValueError, match="does not take a dicke count"):
            ScenarioConfig(name="x", domains=domains, reservoirs=(ReservoirSpec((0, 1)),))

    def test_mixed_weights_must_normalize(self):
        domains = (
            DomainSpec(1, InitialSpec("ground")),
            DomainSpec(2, InitialSpec("mixed", a=0.5, b=0.5)),
        )
        with pytest.raises(ValueError, match="mixed weights"):
            ScenarioConfig(name="x", domains=domains, reservoirs=(ReservoirSpec((0, 1)),))

    def test_collective_backend_refuses_per_spin_noise(self):
        with pytest.raises(ValueError, match="backend"):
            chain_config(backend="collective", include_individual=True)
        with pytest.raises(ValueError, match="backend"):
            chain_config(backend="collective", gamma_dep_over_gamma=0.1)

    @pytest.mark.parametrize(
        "backend, noise",
        [
            ("full", {}),
            ("auto", {"gamma_dep_over_gamma": 0.1}),
            ("auto", {"include_individual": True}),
        ],
        ids=["full", "auto-dephasing", "auto-individual"],
    )
    def test_full_backend_refuses_symmetric_mixture(self, backend, noise):
        domains = (
            DomainSpec(1, InitialSpec("ground")),
            DomainSpec(2, InitialSpec("mixed", a=2.0 / 3.0, b=1.0 / 9.0)),
        )
        with pytest.raises(ValueError, match="mixed_basis"):
            ScenarioConfig(
                name="x",
                domains=domains,
                reservoirs=(ReservoirSpec((0, 1)),),
                backend=backend,
                mixed_basis="symmetric",
                **noise,
            )

    def test_reservoir_index_range(self):
        with pytest.raises(ValueError, match=r"reservoirs\[0\]\.domains"):
            ScenarioConfig(
                name="x",
                domains=(DomainSpec(1), DomainSpec(1)),
                reservoirs=(ReservoirSpec((0, 2)),),
            )

    @pytest.mark.parametrize(
        "field, domains, reservoir",
        [
            (r"domains\[1\]\.population", (DomainSpec(1), DomainSpec(True)), (0, 1)),
            (
                r"domains\[1\]\.initial",
                (DomainSpec(1), DomainSpec(2, InitialSpec("dicke", dicke_k=True))),
                (0, 1),
            ),
            (r"reservoirs\[0\]\.domains", (DomainSpec(1), DomainSpec(1)), (False, True)),
        ],
    )
    def test_boolean_is_not_an_integer(self, field, domains, reservoir):
        with pytest.raises(ValueError, match=field):
            ScenarioConfig(name="x", domains=domains, reservoirs=(ReservoirSpec(reservoir),))

    @pytest.mark.parametrize(
        "field, kw, message",
        [
            ("nbar", {"nbar": True}, "expected a number"),
            ("t_max", {"t_max": "40"}, "expected a number"),
            ("gamma_dep_over_gamma", {"gamma_dep_over_gamma": False}, "expected a number"),
            ("t_max", {"t_max": 10**400}, "must be finite"),  # beyond the float range
        ],
    )
    def test_non_number_named(self, field, kw, message):
        with pytest.raises(ValueError, match=f"^{field}: {message}"):
            chain_config(**kw)

    def test_boolean_rate_is_not_a_number(self):
        with pytest.raises(ValueError, match=r"reservoirs\[0\]\.rate: expected a number"):
            ScenarioConfig(
                name="x",
                domains=(DomainSpec(1), DomainSpec(1)),
                reservoirs=(ReservoirSpec((0, 1), rate=True),),
            )

    @pytest.mark.parametrize(
        "edit",
        [
            lambda c: replace(c, t_max=10, sample_dt=0.5),
            lambda c: replace(c, nbar=-0.0, gamma_dep_over_gamma=np.float32(0.0)),
            lambda c: replace(c, reservoirs=(ReservoirSpec([0, 1], rate=1),) + c.reservoirs[1:]),
            lambda c: replace(c, domains=(DomainSpec(np.int64(1)),) + c.domains[1:]),
        ],
    )
    def test_equal_configs_hash_alike(self, edit):
        cfg = chain_config()
        other = edit(cfg)
        assert other == cfg
        assert config_hash(other) == config_hash(cfg)
        assert config_hash(config_from_dict(config_to_dict(other))) == config_hash(cfg)

    def test_reservoir_duplicate_domain(self):
        with pytest.raises(ValueError, match="duplicate"):
            ScenarioConfig(
                name="x",
                domains=(DomainSpec(1), DomainSpec(1)),
                reservoirs=(ReservoirSpec((1, 1)),),
            )

    def test_reservoir_rate_strictly_positive(self):
        with pytest.raises(ValueError, match=r"reservoirs\[0\]\.rate"):
            ScenarioConfig(
                name="x",
                domains=(DomainSpec(1), DomainSpec(1)),
                reservoirs=(ReservoirSpec((0, 1), rate=0.0),),
            )

    def test_nbar_and_temperature_conflict(self):
        with pytest.raises(ValueError, match="nbar"):
            chain_config(nbar=0.5, temperature=TemperatureSpec(0.5, 1e10))

    def test_negative_nbar_rejected(self):
        with pytest.raises(ValueError, match="nbar"):
            chain_config(nbar=-0.1)

    def test_sample_interval_exceeding_horizon(self):
        with pytest.raises(ValueError, match="sample_dt"):
            chain_config(t_max=1.0, sample_dt=2.0)

    @pytest.mark.parametrize(
        "obs,message",
        [
            ("E_F(A,B)", "single-spin"),
            ("E_F(A,A)", "same domain twice"),
            ("E_N(B|B)", "same domain twice"),
            ("Jz_A/N_C", "different domain"),
            ("Jz_Q", "outside the declared domains"),
            ("E_F(A;C)", "unrecognized"),
            ("purity", "unrecognized"),
        ],
    )
    def test_observable_grammar_errors(self, obs, message):
        with pytest.raises(ValueError, match=message):
            chain_config(observables=(obs,))

    def test_tripartite_needs_three_single_spin_domains(self):
        with pytest.raises(ValueError, match="N_ABC"):
            ScenarioConfig(
                name="x",
                domains=(DomainSpec(1), DomainSpec(1)),
                reservoirs=(ReservoirSpec((0, 1)),),
                observables=("N_ABC",),
            )

    def test_tripartite_needs_single_spin_domains(self):
        with pytest.raises(
            ValueError,
            match=r"^observables\[0\]: N_ABC needs single-spin domains A, B, C; domain 1 has more$",
        ):
            chain_config(pops=(1, 2, 1), observables=("N_ABC",))

    def test_unknown_mixed_basis_named(self):
        with pytest.raises(ValueError, match=r"^mixed_basis: unknown value 'ladder'"):
            chain_config(mixed_basis="ladder")

    def test_dark_weight_needs_single_spin_edges(self):
        with pytest.raises(ValueError, match="x_d"):
            chain_config(pops=(2, 4, 1), initials=("ground", "excited", "ground"),
                         observables=("x_d",))


class TestBackendSelection:
    def test_plain_chain_stays_collective(self):
        cfg = chain_config()
        assert effective_backend(cfg) is Backend.COLLECTIVE
        assert hilbert_dimension(cfg) == 2 * 5 * 2

    def test_per_spin_noise_forces_full(self):
        cfg = chain_config(include_individual=True)
        assert effective_backend(cfg) is Backend.FULL
        assert hilbert_dimension(cfg) == 2 * 16 * 2

    def test_dephasing_forces_full(self):
        assert effective_backend(chain_config(gamma_dep_over_gamma=0.05)) is Backend.FULL

    def test_full_identity_mixture_forces_full(self):
        domains = (
            DomainSpec(1, InitialSpec("ground")),
            DomainSpec(3, InitialSpec("mixed", a=0.5, b=0.5 / 8.0)),
            DomainSpec(1, InitialSpec("ground")),
        )
        cfg = ScenarioConfig(
            name="x",
            domains=domains,
            reservoirs=(ReservoirSpec((0, 1)), ReservoirSpec((1, 2))),
        )
        assert effective_backend(cfg) is Backend.FULL

    def test_symmetric_mixture_stays_collective(self):
        domains = (
            DomainSpec(1, InitialSpec("ground")),
            DomainSpec(3, InitialSpec("mixed", a=0.6, b=0.1)),
            DomainSpec(1, InitialSpec("ground")),
        )
        cfg = ScenarioConfig(
            name="x",
            domains=domains,
            reservoirs=(ReservoirSpec((0, 1)), ReservoirSpec((1, 2))),
            mixed_basis="symmetric",
        )
        assert effective_backend(cfg) is Backend.COLLECTIVE

    def test_explicit_backend_wins(self):
        assert effective_backend(chain_config(backend="full")) is Backend.FULL


class TestInitialStates:
    @pytest.mark.parametrize("backend", ["collective", "full"])
    def test_ground_and_excited_levels(self, backend):
        cfg = chain_config(backend=backend)
        rho = build_initial_state(cfg)
        basis = build_basis(cfg)
        psi = pure_product_state(basis, [0, 4, 0])
        assert fidelity_with_pure(rho, psi) == pytest.approx(1.0, abs=1e-14)

    def test_dicke_level(self):
        domains = (
            DomainSpec(1, InitialSpec("ground")),
            DomainSpec(4, InitialSpec("dicke", dicke_k=2)),
            DomainSpec(1, InitialSpec("ground")),
        )
        cfg = ScenarioConfig(
            name="x",
            domains=domains,
            reservoirs=(ReservoirSpec((0, 1)), ReservoirSpec((1, 2))),
            backend="full",
        )
        rho = build_initial_state(cfg)
        psi = pure_product_state(
            build_basis(cfg),
            [0, dicke_level_vector(4, 2, Backend.FULL), 0],
        )
        assert fidelity_with_pure(rho, psi) == pytest.approx(1.0, abs=1e-13)

    def test_mixed_preparation_structure(self):
        n = 3
        a, b = 0.65, 0.35 / 2**n
        domains = (
            DomainSpec(1, InitialSpec("ground")),
            DomainSpec(n, InitialSpec("mixed", a=a, b=b)),
            DomainSpec(1, InitialSpec("ground")),
        )
        cfg = ScenarioConfig(
            name="x",
            domains=domains,
            reservoirs=(ReservoirSpec((0, 1)), ReservoirSpec((1, 2))),
        )
        rho = build_initial_state(cfg)
        assert rho.matrix.trace() == pytest.approx(1.0, abs=1e-12)
        block = partial_trace(rho, keep=[1]).matrix
        # diagonal mixture: identity floor everywhere, excited level lifted
        assert block[0, 0] == pytest.approx(a + b)
        assert np.allclose(np.diag(np.diag(block)), block)
        assert np.all(np.diag(block).real[1:] == pytest.approx(b))

    def test_unit_fidelity_mixture_is_exactly_pure(self):
        f0 = 1.0
        b = (1.0 - f0) / (2**4 - 1)
        domains = (
            DomainSpec(1, InitialSpec("ground")),
            DomainSpec(4, InitialSpec("mixed", a=f0 - b, b=b)),
            DomainSpec(1, InitialSpec("ground")),
        )
        cfg = ScenarioConfig(
            name="x",
            domains=domains,
            reservoirs=(ReservoirSpec((0, 1)), ReservoirSpec((1, 2))),
        )
        pure = chain_config(backend="full")
        assert np.array_equal(build_initial_state(cfg).matrix, build_initial_state(pure).matrix)


class TestObservables:
    def test_pair_eof_matches_direct_evaluation(self):
        cfg = chain_config(observables=("E_F(A,C)",))
        fns = compile_observables(cfg, build_basis(cfg))
        rho = to_collective_basis(edge_excited_steady(4))
        expected = entanglement_of_formation(partial_trace(rho, keep=[0, 2]))
        assert fns["E_F(A,C)"](rho) == pytest.approx(expected, abs=1e-12)

    def test_jz_normalized_endpoints(self):
        cfg = chain_config(observables=("Jz_B/N_B",))
        fns = compile_observables(cfg, build_basis(cfg))
        up = build_initial_state(cfg)
        assert fns["Jz_B/N_B"](up) == pytest.approx(0.5, abs=1e-12)
        down = build_initial_state(chain_config(initials=("ground", "ground", "ground")))
        assert fns["Jz_B/N_B"](down) == pytest.approx(-0.5, abs=1e-12)

    def test_dark_weight_is_unity_on_dark_state(self):
        cfg = chain_config(observables=("x_d",))
        fns = compile_observables(cfg, build_basis(cfg))
        psi = to_collective_basis(dark_state(4))
        assert fns["x_d"](psi.projector()) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n_b", range(1, 13))
    def test_dark_state_on_the_ladder_is_the_projected_closed_form(self, n_b):
        psi = dark_state(n_b, Backend.COLLECTIVE)
        expected = to_collective_basis(dark_state(n_b))
        assert psi.basis == expected.basis
        assert np.max(np.abs(psi.amplitudes - expected.amplitudes)) <= 1e-15

    def test_negativity_of_product_state_vanishes(self):
        cfg = chain_config(pops=(1, 1), initials=("excited", "ground"),
                           observables=("E_N(A|B)", "N(A|B)"))
        fns = compile_observables(cfg, build_basis(cfg))
        rho = build_initial_state(cfg)
        assert fns["E_N(A|B)"](rho) == pytest.approx(0.0, abs=1e-12)
        assert fns["N(A|B)"](rho) == pytest.approx(0.0, abs=1e-12)


class TestPresets:
    def test_names_are_sorted_and_complete(self):
        assert PRESET_NAMES == tuple(sorted(PRESET_NAMES))
        assert len(PRESET_NAMES) == 13

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_every_config_is_buildable(self, name):
        configs = preset(name)
        assert configs
        seen = set()
        for cfg in configs:
            assert cfg.name not in seen
            seen.add(cfg.name)
            assert cfg.observables
            assert hilbert_dimension(cfg) <= 512
            rho = build_initial_state(cfg)
            assert rho.matrix.trace() == pytest.approx(1.0, abs=1e-12)

    def test_unknown_name_lists_alternatives(self):
        with pytest.raises(ValueError, match="valid names"):
            preset("fig7")

    def test_population_sweep_presets(self):
        pops = [cfg.domains[1].population for cfg in preset("fig3b")]
        assert pops == list(range(2, 13))
        assert len(preset("fig1a-sweep")) == 8

    def test_alternate_initial_patterns_cover_all_eight(self):
        kinds = set()
        for cfg in preset("appA-initial-states"):
            kinds.add(tuple(d.initial.kind for d in cfg.domains))
        assert len(kinds) == 8

    def test_thermal_family_carries_temperature_blocks(self):
        for cfg in preset("fig5c-thermal"):
            assert cfg.temperature is not None
            assert effective_backend(cfg) is Backend.COLLECTIVE

    def test_star_topology_shares_the_hub(self):
        cfg = preset("fig6-star")[0]
        assert [tuple(r.domains) for r in cfg.reservoirs] == [(0, 3), (1, 3), (2, 3)]

    def test_mixed_family_runs_on_full_backend(self):
        for cfg in preset("appA-mixed"):
            assert effective_backend(cfg) is Backend.FULL
            a = cfg.domains[1].initial.a
            b = cfg.domains[1].initial.b
            assert a + b * 2 ** cfg.domains[1].population == pytest.approx(1.0, abs=1e-12)


# The name and config_hash of every preset config, in preset order.  Names are
# output file names and benchmark reference keys, and the hash covers every
# field, so a changed preset fails here under its own name.
_PINNED_PRESETS = {
    "appA-initial-states": [
        ("appA_ddd", "ac9a43d12d5d2ca5"),
        ("appA_dud", "f18df4bca880a30e"),
        ("appA_udd", "e066f99a5053e785"),
        ("appA_ddu", "db9b8d0aa37e0221"),
        ("appA_uuu", "f9211bc80a5bf36f"),
        ("appA_udu", "da64e809a41957d8"),
        ("appA_uud", "00087693c44b04c6"),
        ("appA_duu", "80f16be5548f8780"),
    ],
    "appA-mixed": [
        ("appA_mixed_f0.5", "080a7f74b17aaff5"),
        ("appA_mixed_f0.6", "f82e45ebc0a142b5"),
        ("appA_mixed_f0.7", "c0f218a1097e8e6e"),
        ("appA_mixed_f0.8", "57df624531c3b4b9"),
        ("appA_mixed_f0.9", "cf3dcdfe8c620e59"),
        ("appA_mixed_f1", "d915e80758c3e1a7"),
    ],
    "appB-oracle": [
        ("appB_nb1", "06cc6fd98bf536de"),
        ("appB_nb2", "08892564e4b5b9ba"),
        ("appB_nb3", "61267a85b0e1a79e"),
        ("appB_nb4", "eed1bfa2f1e7c39a"),
        ("appB_nb5", "39893b4a9f93d91f"),
        ("appB_nb6", "91d69f63f46330b9"),
        ("appB_nb7", "00c4b91a830d1fa2"),
        ("appB_nb8", "913367495b7f982b"),
    ],
    "fig1a-sweep": [
        ("fig1a_na1", "fa72ef3e11b49f20"),
        ("fig1a_na2", "6540490f5534a069"),
        ("fig1a_na3", "9d6f03abe81b95c0"),
        ("fig1a_na4", "3c0265fa97586579"),
        ("fig1a_na5", "886988ed0498af8e"),
        ("fig1a_na6", "6f6cf5b2157ae4a2"),
        ("fig1a_na7", "bc75db3fa26cabd1"),
        ("fig1a_na8", "9e264bb16d3fad86"),
    ],
    "fig3a": [
        ("fig3a_nb3", "cf1aad1695b44283"),
        ("fig3a_nb6", "e77a746dc4ee2ae7"),
        ("fig3a_nb9", "ed562c0f714c8fbd"),
        ("fig3a_nb12", "a152b13c55ef0d03"),
    ],
    "fig3b": [
        ("fig3b_nb2", "f8fb54d9467a930f"),
        ("fig3b_nb3", "0e0129b396b41846"),
        ("fig3b_nb4", "96a71189bac1c60a"),
        ("fig3b_nb5", "2d2da5b788668bc5"),
        ("fig3b_nb6", "9c8fd67e8c3a3ad5"),
        ("fig3b_nb7", "6119f7af730b0e72"),
        ("fig3b_nb8", "8cbd7b8b9ffd568c"),
        ("fig3b_nb9", "9b43eb294fc04635"),
        ("fig3b_nb10", "006013a2981670cc"),
        ("fig3b_nb11", "6874dbae84d913b6"),
        ("fig3b_nb12", "4ab8432cf67c0b14"),
    ],
    "fig4-chain4": [
        ("fig4_chain4", "3e1933ec746cd861"),
    ],
    "fig4-chain5": [
        ("fig4_chain5", "a2dfe4cbc3504181"),
    ],
    "fig5a-dephasing": [
        ("fig5a_dep0", "537c3b4ba4b18887"),
        ("fig5a_dep0.02", "90ad0ea909d33ba1"),
        ("fig5a_dep0.05", "f7b9e3d7276b4fff"),
        ("fig5a_dep0.1", "35a469dd168345ad"),
        ("fig5a_dep0.2", "77cec9e70922d9d2"),
    ],
    "fig5b-individual": [
        ("fig5b_individual", "ebc14998338c202c"),
    ],
    "fig5c-thermal": [
        ("fig5c_T0", "66493f261440988b"),
        ("fig5c_T0.1", "c9dd5ba99678124b"),
        ("fig5c_T0.3", "ab3fa2a249a61d7d"),
        ("fig5c_T0.5", "d5f93079c0c095b5"),
        ("fig5c_T1", "1a048df7ead38dc7"),
    ],
    "fig6-star": [
        ("fig6_star_nd11", "73da0c0835a0708a"),
    ],
    "intro-pair": [
        ("intro-pair", "8a5a16fe1aceca27"),
    ],
}


class TestPinnedPresets:
    def test_every_family_is_pinned(self):
        assert tuple(_PINNED_PRESETS) == PRESET_NAMES

    @pytest.mark.parametrize("family", PRESET_NAMES)
    def test_names_and_hashes(self, family):
        assert [(cfg.name, config_hash(cfg)) for cfg in preset(family)] == _PINNED_PRESETS[family]


class TestSweep:
    def test_population_sweep_renames_and_resizes(self):
        base = chain_config()
        out = sweep(base, "N_B", [2, 6])
        assert [c.name for c in out] == ["chain_N_B2", "chain_N_B6"]
        assert [c.domains[1].population for c in out] == [2, 6]
        # base untouched
        assert base.domains[1].population == 4

    def test_star_sweep_needs_fourth_domain(self):
        with pytest.raises(ValueError, match="N_D"):
            sweep(chain_config(), "N_D", [3])

    def test_temperature_sweep_requires_temperature_block(self):
        with pytest.raises(ValueError, match="temperature"):
            sweep(chain_config(), "T", [0.1])
        base = preset("fig5c-thermal")[0]
        out = sweep(base, "T", [0.25])
        assert out[0].temperature.T_kelvin == 0.25
        assert out[0].temperature.omega0_over_2pi_hz == base.temperature.omega0_over_2pi_hz

    def test_dephasing_sweep_accepts_symbolic_spelling(self):
        base = chain_config(backend="full")
        out = sweep(base, "γ_dep_over_γ", [0.05])
        assert out[0].gamma_dep_over_gamma == 0.05

    def test_fidelity_sweep_solves_weights(self):
        base = preset("appA-mixed")[0]
        out = sweep(base, "F_0", [0.75])
        init = out[0].domains[1].initial
        assert init.a + init.b == pytest.approx(0.75, abs=1e-12)
        assert init.a + init.b * 2**4 == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("f0", [0.0, 1.5])
    def test_fidelity_outside_the_unit_interval_refused(self, f0):
        with pytest.raises(ValueError, match=r"^parameter F_0: fidelity must lie in \(0, 1\]"):
            sweep(preset("appA-mixed")[0], "F_0", [f0])

    def test_fidelity_sweep_needs_one_mixed_domain(self):
        with pytest.raises(ValueError, match="mixed"):
            sweep(chain_config(), "F_0", [0.9])

    def test_population_sweep_preserves_preparation_fidelity(self):
        base = preset("appA-mixed")[2]
        f0 = base.domains[1].initial.a + base.domains[1].initial.b
        out = sweep(base, "N_B", [6])[0]
        init = out.domains[1].initial
        assert init.a + init.b == pytest.approx(f0, abs=1e-12)
        assert init.a + init.b * 2**6 == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "parameter, value", [("F_0", 0.6), ("F_0", 0.8), ("N_B", 3), ("N_B", 5)]
    )
    def test_symmetric_mixed_sweep_keeps_fidelity_on_the_ladder(self, parameter, value):
        # B at a + b = 0.6 with a + 5 b = 1: the identity spans the N + 1 ladder levels
        base = chain_config(mixed_basis="symmetric")
        mixed = DomainSpec(4, InitialSpec("mixed", a=0.5, b=0.1))
        base = replace(base, domains=(base.domains[0], mixed, base.domains[2]))
        cfg = sweep(base, parameter, [value])[0]
        init, n = cfg.domains[1].initial, cfg.domains[1].population
        assert init.a + init.b == pytest.approx(value if parameter == "F_0" else 0.6, abs=1e-12)
        assert init.a + init.b * (n + 1) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("value", [4.5, True, 0])
    @pytest.mark.parametrize("family", ["fig3a", "appA-mixed"])
    def test_non_integer_population_named(self, family, value):
        # neither truncated to 4 nor read as 1, nor used to solve mixture weights
        with pytest.raises(ValueError, match=r"domains\[1\]\.population"):
            sweep(preset(family)[0], "N_B", [value])

    def test_huge_mixed_population_named_not_overflowed(self):
        # the weights underflow to b = 0, which cannot sum to one
        with pytest.raises(ValueError, match=r"^domains\[1\]\.initial: mixed weights"):
            sweep(preset("appA-mixed")[0], "N_B", [2000])

    @pytest.mark.parametrize("n", [1, 2, 5, 11, 30, 59])
    def test_mixed_weights_keep_their_closed_form(self, n):
        for base in preset("appA-mixed"):
            f0 = base.domains[1].initial.a + base.domains[1].initial.b
            init = sweep(base, "N_B", [n])[0].domains[1].initial
            b = (1.0 - f0) / (2**n - 1)
            assert (init.a, init.b) == (f0 - b, b)

    @pytest.mark.parametrize(
        "family, parameter, field",
        [
            ("fig5c-thermal", "T", "temperature.T_kelvin"),
            ("fig5a-dephasing", "gamma_dep_over_gamma", "gamma_dep_over_gamma"),
            ("appA-mixed", "F_0", "parameter F_0"),
        ],
    )
    def test_boolean_value_named(self, family, parameter, field):
        with pytest.raises(ValueError, match=f"^{field}: expected a number, got True"):
            sweep(preset(family)[0], parameter, [True])

    def test_empty_values_rejected(self):
        with pytest.raises(ValueError, match="at least one value"):
            sweep(chain_config(), "N_B", [])

    def test_unknown_parameter_lists_choices(self):
        with pytest.raises(ValueError, match="valid names"):
            sweep(chain_config(), "N_Q", [1])
        assert "N_B" in SWEEP_PARAMETERS


def _replace_temperature_by_nbar(d, value):
    del d["temperature"]
    d["nbar"] = value


class TestJsonRoundTrip:
    def sample(self):
        return ScenarioConfig(
            name="sample",
            domains=(
                DomainSpec(1, InitialSpec("excited")),
                DomainSpec(3, InitialSpec("dicke", dicke_k=1)),
                DomainSpec(1, InitialSpec("ground")),
            ),
            reservoirs=(ReservoirSpec((0, 1), rate=1.0), ReservoirSpec((1, 2), rate=2.0)),
            temperature=TemperatureSpec(0.48, 1e10),
            t_max=12.0,
            sample_dt=0.5,
            observables=("E_F(A,C)", "Jz_B/N_B"),
        )

    def test_round_trip_identity(self):
        cfg = self.sample()
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_round_trip_mixed_preparation(self):
        domains = (
            DomainSpec(1, InitialSpec("ground")),
            DomainSpec(2, InitialSpec("mixed", a=0.7, b=0.075)),
        )
        cfg = ScenarioConfig(name="m", domains=domains, reservoirs=(ReservoirSpec((0, 1)),))
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_hash_is_stable_and_discriminating(self):
        cfg = self.sample()
        h = config_hash(cfg)
        assert h == config_hash(config_from_dict(config_to_dict(cfg)))
        assert len(h) == 16
        other = sweep(cfg, "T", [0.49])[0]
        assert config_hash(other) != h

    def test_hash_ignores_json_key_order(self):
        d = config_to_dict(self.sample())
        scrambled = json.loads(json.dumps(dict(reversed(list(d.items())))))
        assert config_hash(config_from_dict(scrambled)) == config_hash(self.sample())

    def test_unknown_top_level_key(self):
        d = config_to_dict(self.sample())
        d["gamma"] = 1.0
        with pytest.raises(ValueError, match="unknown keys.*gamma"):
            config_from_dict(d)

    def test_unknown_domain_key(self):
        d = config_to_dict(self.sample())
        d["domains"][0]["spin"] = 0.5
        with pytest.raises(ValueError, match=r"domains\[0\]"):
            config_from_dict(d)

    def test_unknown_reservoir_key(self):
        d = config_to_dict(self.sample())
        d["reservoirs"][1]["temp"] = 1.0
        with pytest.raises(ValueError, match=r"reservoirs\[1\]"):
            config_from_dict(d)

    def test_missing_required_keys(self):
        with pytest.raises(ValueError, match="name"):
            config_from_dict({"domains": [], "reservoirs": []})

    def test_nbar_temperature_conflict_from_json(self):
        d = config_to_dict(self.sample())
        d["nbar"] = 0.3
        with pytest.raises(ValueError, match="nbar"):
            config_from_dict(d)

    @pytest.mark.parametrize("bad", [None, [1], {"x": 1}, "0.5", True])
    @pytest.mark.parametrize(
        "field, edit",
        [
            ("nbar", _replace_temperature_by_nbar),
            (r"reservoirs\[0\]\.rate", lambda d, v: d["reservoirs"][0].update(rate=v)),
            ("temperature.T_kelvin", lambda d, v: d["temperature"].update(T_kelvin=v)),
            ("t_max", lambda d, v: d.update(t_max=v)),
            ("gamma_dep_over_gamma", lambda d, v: d.update(gamma_dep_over_gamma=v)),
        ],
    )
    def test_non_numeric_field_named(self, field, edit, bad):
        d = config_to_dict(self.sample())
        edit(d, bad)
        with pytest.raises(ValueError, match=field):
            config_from_dict(d)

    @pytest.mark.parametrize(
        "field, edit",
        [
            (r"domains\[1\]\.population", lambda d: d["domains"][1].update(population=True)),
            (
                r"domains\[1\]\.initial\.dicke",
                lambda d: d["domains"][1].update(initial={"dicke": True}),
            ),
            (
                r"reservoirs\[0\]\.domains",
                lambda d: d["reservoirs"][0].update(domains=[False, True]),
            ),
        ],
    )
    def test_boolean_integer_field_named(self, field, edit):
        d = config_to_dict(self.sample())
        edit(d)
        with pytest.raises(ValueError, match=field):
            config_from_dict(d)

    @pytest.mark.parametrize("bad", [None, [0.5]])
    def test_non_numeric_mixture_weight_named(self, bad):
        d = config_to_dict(self.sample())
        d["domains"][1]["initial"] = {"mixed": {"a": bad, "b": 0.1}}
        with pytest.raises(ValueError, match=r"domains\[1\]\.initial\.mixed\.a"):
            config_from_dict(d)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda d: d.update(t_max=12),
            lambda d: d["reservoirs"][0].update(rate=1),
            lambda d: d["temperature"].update(omega0_over_2pi_hz=10**10),
            lambda d: d.update(gamma_dep_over_gamma=0),
        ],
    )
    def test_integer_valued_numbers_hash_as_floats(self, edit):
        cfg = self.sample()
        d = config_to_dict(cfg)
        edit(d)
        loaded = config_from_dict(d)
        assert loaded == cfg and config_hash(loaded) == config_hash(cfg)
        again = config_from_dict(config_to_dict(loaded))
        assert config_hash(again) == config_hash(cfg)

    def test_malformed_temperature_block(self):
        d = config_to_dict(self.sample())
        d["temperature"] = {"T_kelvin": 0.48}
        with pytest.raises(ValueError, match="temperature"):
            config_from_dict(d)

    def test_non_object_config_refused(self):
        with pytest.raises(ValueError, match=r"^config: expected an object, got \[1\]$"):
            config_from_dict([1])

    def test_unknown_initial_string_named(self):
        d = config_to_dict(self.sample())
        d["domains"][0]["initial"] = "up"
        with pytest.raises(ValueError, match=r"^domains\[0\]\.initial: unknown initial 'up'$"):
            config_from_dict(d)

    @pytest.mark.parametrize(
        "message, edit",
        [
            ("name: missing required key", lambda d: d.pop("name")),
            (
                r"domains\[1\]\.population: missing required key",
                lambda d: d["domains"][1].clear(),
            ),
            (
                r"reservoirs\[0\]\.domains: missing required key",
                lambda d: d["reservoirs"][0].clear(),
            ),
            (
                r"temperature\.T_kelvin: missing required key",
                lambda d: d["temperature"].pop("T_kelvin"),
            ),
            (r"temperature: unknown keys \['x'\]", lambda d: d["temperature"].update(x=1)),
            ("temperature: expected an object, got 1", lambda d: d.update(temperature=1)),
        ],
    )
    def test_keys_are_the_spec_fields(self, message, edit):
        d = config_to_dict(self.sample())
        edit(d)
        with pytest.raises(ValueError, match=f"^{message}$"):
            config_from_dict(d)

    def test_defaulted_fields_may_be_left_out(self):
        d = {
            "name": "short",
            "domains": [{"population": 1, "initial": "excited"}, {"population": 2}],
            "reservoirs": [{"domains": [0, 1]}],
        }
        cfg = config_from_dict(d)
        domains = (DomainSpec(1, InitialSpec("excited")), DomainSpec(2))
        assert cfg == ScenarioConfig("short", domains, (ReservoirSpec((0, 1)),))


class TestEquationAssembly:
    def test_temperature_resolves_through_bose_einstein(self):
        cfg = chain_config(temperature=TemperatureSpec(0.48, 1e10))
        assert resolved_nbar(cfg) == bose_einstein_nbar(1e10, 0.48)
        assert resolved_nbar(chain_config(nbar=0.25)) == 0.25

    def test_reservoir_rates_scale_the_terms(self):
        cfg = ScenarioConfig(
            name="x",
            domains=(DomainSpec(1), DomainSpec(1)),
            reservoirs=(ReservoirSpec((0, 1), rate=2.5),),
            nbar=0.2,
        )
        eq = build_master_equation(cfg)
        rates = sorted(t.rate for t in eq.terms)
        assert rates == pytest.approx([2.5 * 0.2, 2.5 * 1.2])

    def test_zero_temperature_drops_raising_terms(self):
        eq = build_master_equation(chain_config())
        assert len(eq.terms) == 2

    def test_compiled_scenario_reaches_known_steady_state(self):
        # end-to-end: declarative config -> equation -> trajectory -> measure
        cfg = chain_config(
            pops=(1, 2, 1),
            initials=("excited", "ground", "ground"),
            t_max=40.0,
            sample_dt=2.0,
            observables=("C(A,C)",),
        )
        rho0 = build_initial_state(cfg)
        eq = build_master_equation(cfg)
        fns = compile_observables(cfg, build_basis(cfg))
        traj = evolve(eq, rho0, cfg.t_max, cfg.sample_dt, observables=fns)
        # concurrence between the edges relaxes onto 2 N_B^2 / (2 N_B + 1)^2
        assert traj.observables["C(A,C)"][-1] == pytest.approx(8.0 / 25.0, abs=1e-7)
