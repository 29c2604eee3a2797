"""Declarative scenario layer: domain/reservoir layouts, initial-state
library, thermal occupation, named presets, and parameter sweeps.

A scenario is an immutable value object.  Building a basis, an initial
state, or a master equation from it never mutates the config, so sweep
outputs can be run independently (and in parallel by the cli)."""

from __future__ import annotations

import json
import math
import numbers
import re
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .dynamics import MasterEquation, Observable, build_realistic
from .entanglement import (
    concurrence_array,
    eof_from_concurrence_array,
    log_negativity_array,
    negativity_array,
    tripartite_negativity_array,
)
from .hilbert import (
    Backend,
    BasisDescriptor,
    DensityMatrix,
    PureState,
    collective_jz,
    embed,
    product_state,
)
from .oracle import dark_state

# bench/tracing.py times the scalar measures, expectation, fidelity_with_pure
# and partial_trace by rebinding them in this module, so they stay importable
# here although nothing here calls them; no other import carries a noqa.
from .dynamics import expectation  # noqa: F401
from .entanglement import (  # noqa: F401
    concurrence,
    entanglement_of_formation,
    log_negativity,
    negativity,
    tripartite_negativity,
)
from .hilbert import fidelity_with_pure, partial_trace  # noqa: F401

__all__ = [
    "TemperatureSpec",
    "InitialSpec",
    "DomainSpec",
    "ReservoirSpec",
    "ScenarioConfig",
    "PRESET_NAMES",
    "SWEEP_PARAMETERS",
    "bose_einstein_nbar",
    "resolved_nbar",
    "effective_backend",
    "hilbert_dimension",
    "build_basis",
    "build_initial_state",
    "build_master_equation",
    "compile_observables",
    "preset",
    "sweep",
    "config_to_dict",
    "config_from_dict",
    "config_hash",
]


# ---------------------------------------------------------------------------
# thermal occupation
# ---------------------------------------------------------------------------


# the exact SI values, equal to scipy.constants.h and .k; importing scipy.constants
# would add ~20 MiB to every run
PLANCK = 6.62607015e-34  # J s
BOLTZMANN = 1.380649e-23  # J / K


def bose_einstein_nbar(omega0_over_2pi_hz: float, T_kelvin: float) -> float:
    """Mean thermal photon number of a reservoir mode.

    Takes the mode frequency as omega0/2pi in hertz and the temperature in
    kelvin; h*f/(k_B*T) is evaluated with the exact SI h and k_B.  T = 0 returns
    exactly 0, as does any exponent large enough to underflow.
    """
    f = float(omega0_over_2pi_hz)
    T = float(T_kelvin)
    if not math.isfinite(f) or f <= 0:
        raise ValueError(f"omega0_over_2pi_hz must be finite and > 0, got {f!r}")
    if not math.isfinite(T) or T < 0:
        raise ValueError(f"T_kelvin must be finite and >= 0, got {T!r}")
    if T == 0.0:
        return 0.0
    x = PLANCK * f / (BOLTZMANN * T)
    if x > 700.0:  # exp would overflow; the occupation is indistinguishable from 0
        return 0.0
    return 1.0 / math.expm1(x)


# ---------------------------------------------------------------------------
# config value objects
# ---------------------------------------------------------------------------

_BACKEND_CHOICES = ("auto", "collective", "full")
_MIXED_BASIS_CHOICES = ("full", "symmetric")
_INITIAL_KINDS = ("ground", "excited", "dicke", "mixed")

SWEEP_PARAMETERS = ("N_B", "T", "gamma_dep_over_gamma", "F_0", "N_D")


@dataclass(frozen=True)
class TemperatureSpec:
    """Reservoir temperature block; resolved to nbar when the equation is built."""

    T_kelvin: float
    omega0_over_2pi_hz: float


@dataclass(frozen=True)
class InitialSpec:
    """Per-domain initial state.

    kind 'ground' or 'excited' need no parameters; 'dicke' carries the
    excitation count k; 'mixed' carries the weights (a, b) of the fully
    excited projector and the identity.
    """

    kind: str = "ground"
    dicke_k: Optional[int] = None
    a: Optional[float] = None
    b: Optional[float] = None


@dataclass(frozen=True)
class DomainSpec:
    population: int
    initial: InitialSpec = field(default_factory=InitialSpec)


@dataclass(frozen=True)
class ReservoirSpec:
    domains: tuple
    rate: float = 1.0


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    domains: tuple
    reservoirs: tuple
    nbar: float = 0.0
    temperature: Optional[TemperatureSpec] = None
    include_individual: bool = False
    gamma_dep_over_gamma: float = 0.0
    backend: str = "auto"
    mixed_basis: str = "full"
    t_max: float = 40.0
    sample_dt: float = 0.1
    observables: tuple = ()

    def __post_init__(self):
        for name in ("domains", "reservoirs", "observables"):
            object.__setattr__(self, name, _as_tuple(name, getattr(self, name)))
        _validate_config(self)


def _fail(fieldname: str, message: str):
    raise ValueError(f"{fieldname}: {message}")


def _as_tuple(fieldname: str, value) -> tuple:
    """value as a tuple; a value that is not iterable is refused by field name."""
    try:
        return tuple(value)
    except TypeError:
        _fail(fieldname, f"expected a sequence, got {value!r}")


def _is_int(value) -> bool:
    """An integer, but not a boolean (``bool`` subclasses ``int``)."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_finite(fieldname: str, value, minimum=None, strict=False) -> float:
    """A real number that is not a boolean, as a finite float (-0.0 becomes 0.0)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        _fail(fieldname, f"expected a number, got {value!r}")
    try:
        v = float(value) + 0.0
    except OverflowError:  # an integer beyond the float range
        v = math.inf
    if not math.isfinite(v):
        _fail(fieldname, f"must be finite, got {value!r}")
    if minimum is not None:
        if strict and v <= minimum:
            _fail(fieldname, f"must be > {minimum}, got {v}")
        if not strict and v < minimum:
            _fail(fieldname, f"must be >= {minimum}, got {v}")
    return v


def _validate_initial(
    fieldname: str, init: InitialSpec, population: int, mixed_basis: str
) -> InitialSpec:
    if not isinstance(init, InitialSpec):
        _fail(fieldname, f"expected an InitialSpec, got {init!r}")
    if init.kind not in _INITIAL_KINDS:
        _fail(fieldname, f"unknown kind {init.kind!r}, expected one of {_INITIAL_KINDS}")
    if init.kind != "dicke" and init.dicke_k is not None:
        _fail(fieldname, f"{init.kind!r} initial does not take a dicke count")
    if init.kind != "mixed" and (init.a is not None or init.b is not None):
        _fail(fieldname, f"{init.kind!r} initial does not take mixture weights")
    if init.kind == "dicke":
        if not _is_int(init.dicke_k):
            _fail(fieldname + ".dicke", f"expected an integer count, got {init.dicke_k!r}")
        if not 0 <= init.dicke_k <= population:
            _fail(fieldname + ".dicke", f"dicke k={init.dicke_k} outside [0, {population}]")
        return replace(init, dicke_k=int(init.dicke_k))
    if init.kind == "mixed":
        a = _check_finite(fieldname + ".mixed.a", init.a, minimum=0.0)
        b = _check_finite(fieldname + ".mixed.b", init.b, minimum=0.0)
        # as a float: 2**population of a huge population would not fit in memory
        if mixed_basis == "full":
            side = 2.0**population if population < 1024 else math.inf
        else:
            side = float(population + 1)
        total = a + b * side if b else a
        if abs(total - 1.0) > 1e-9:
            _fail(
                fieldname,
                f"mixed weights must satisfy a + b*{side:g} = 1, got {total!r}",
            )
        return replace(init, a=a, b=b)
    return init


# Names become output file names, so they may not carry path separators
# or start with a dot.
_NAME_PATTERN = re.compile(r"[A-Za-z0-9_+-][A-Za-z0-9_.+-]*")


def _validate_config(cfg: ScenarioConfig):
    """Check every field of cfg, naming the first bad one, and store it normalized.

    Numbers are stored as floats and counts as ints, in cfg and in its nested
    specs, so configs that compare equal also hash alike."""

    def store(fieldname, value):
        object.__setattr__(cfg, fieldname, value)

    if not isinstance(cfg.name, str) or not _NAME_PATTERN.fullmatch(cfg.name):
        _fail(
            "name",
            f"must be a nonempty string of letters, digits and '_.+-' "
            f"not starting with '.', got {cfg.name!r}",
        )
    if len(cfg.domains) < 2:
        _fail("domains", f"need at least 2 domains, got {len(cfg.domains)}")
    if cfg.backend not in _BACKEND_CHOICES:
        _fail("backend", f"unknown value {cfg.backend!r}, expected one of {_BACKEND_CHOICES}")
    if cfg.mixed_basis not in _MIXED_BASIS_CHOICES:
        _fail(
            "mixed_basis",
            f"unknown value {cfg.mixed_basis!r}, expected one of {_MIXED_BASIS_CHOICES}",
        )
    domains = []
    for i, dom in enumerate(cfg.domains):
        if not isinstance(dom, DomainSpec):
            _fail(f"domains[{i}]", f"expected a DomainSpec, got {dom!r}")
        if not _is_int(dom.population) or dom.population < 1:
            _fail(f"domains[{i}].population", f"must be an integer >= 1, got {dom.population!r}")
        init = _validate_initial(
            f"domains[{i}].initial", dom.initial, dom.population, cfg.mixed_basis
        )
        domains.append(replace(dom, population=int(dom.population), initial=init))
    store("domains", tuple(domains))
    if not cfg.reservoirs:
        _fail("reservoirs", "need at least one reservoir")
    reservoirs = []
    for i, res in enumerate(cfg.reservoirs):
        if not isinstance(res, ReservoirSpec):
            _fail(f"reservoirs[{i}]", f"expected a ReservoirSpec, got {res!r}")
        idx = _as_tuple(f"reservoirs[{i}].domains", res.domains)
        if not idx:
            _fail(f"reservoirs[{i}].domains", "must reference at least one domain")
        for j in idx:
            if not _is_int(j) or not 0 <= j < len(cfg.domains):
                _fail(
                    f"reservoirs[{i}].domains",
                    f"index {j!r} outside 0..{len(cfg.domains) - 1}",
                )
        if len(set(idx)) != len(idx):
            _fail(f"reservoirs[{i}].domains", f"duplicate domain index in {idx}")
        rate = _check_finite(f"reservoirs[{i}].rate", res.rate, minimum=0.0, strict=True)
        reservoirs.append(replace(res, domains=tuple(int(j) for j in idx), rate=rate))
    store("reservoirs", tuple(reservoirs))
    store("nbar", _check_finite("nbar", cfg.nbar, minimum=0.0))
    if cfg.temperature is not None:
        if not isinstance(cfg.temperature, TemperatureSpec):
            _fail("temperature", f"expected a TemperatureSpec, got {cfg.temperature!r}")
        if cfg.nbar != 0.0:
            _fail("nbar", "give either a direct nbar or a temperature block, not both")
        temp = cfg.temperature
        T = _check_finite("temperature.T_kelvin", temp.T_kelvin, minimum=0.0)
        f = _check_finite(
            "temperature.omega0_over_2pi_hz", temp.omega0_over_2pi_hz, minimum=0.0, strict=True
        )
        store("temperature", replace(temp, T_kelvin=T, omega0_over_2pi_hz=f))
    store(
        "gamma_dep_over_gamma",
        _check_finite("gamma_dep_over_gamma", cfg.gamma_dep_over_gamma, minimum=0.0),
    )
    if not isinstance(cfg.include_individual, bool):
        _fail("include_individual", f"must be a boolean, got {cfg.include_individual!r}")
    store("t_max", _check_finite("t_max", cfg.t_max, minimum=0.0, strict=True))
    store("sample_dt", _check_finite("sample_dt", cfg.sample_dt, minimum=0.0, strict=True))
    if cfg.sample_dt > cfg.t_max:
        _fail("sample_dt", f"sampling interval {cfg.sample_dt} exceeds t_max {cfg.t_max}")
    if cfg.backend == "collective" and _needs_full(cfg):
        _fail(
            "backend",
            "per-spin noise and full-identity mixed preparation require the "
            "full backend; use backend 'full' or 'auto'",
        )
    symmetric = _has_mixed(cfg) and cfg.mixed_basis == "symmetric"
    if symmetric and effective_backend(cfg) is Backend.FULL:
        _fail(
            "mixed_basis",
            "symmetric mixed preparation lives on the ladder basis, and this configuration "
            "runs on the full backend; use mixed_basis 'full', or the collective backend "
            "without per-spin noise",
        )
    for i, obs in enumerate(cfg.observables):
        if not isinstance(obs, str):
            _fail(f"observables[{i}]", f"expected a string, got {obs!r}")
        _parse_observable(f"observables[{i}]", obs, cfg)


def _has_mixed(cfg: ScenarioConfig) -> bool:
    return any(d.initial.kind == "mixed" for d in cfg.domains)


def _needs_full(cfg: ScenarioConfig) -> bool:
    """Per-spin noise and full-identity mixed preparation leave the ladder."""
    return (
        cfg.include_individual
        or cfg.gamma_dep_over_gamma > 0
        or (_has_mixed(cfg) and cfg.mixed_basis == "full")
    )


# ---------------------------------------------------------------------------
# derived quantities and builders
# ---------------------------------------------------------------------------


def resolved_nbar(cfg: ScenarioConfig) -> float:
    if cfg.temperature is not None:
        return bose_einstein_nbar(cfg.temperature.omega0_over_2pi_hz, cfg.temperature.T_kelvin)
    return cfg.nbar


def effective_backend(cfg: ScenarioConfig) -> Backend:
    if cfg.backend == "collective":
        return Backend.COLLECTIVE
    if cfg.backend == "full":
        return Backend.FULL
    return Backend.FULL if _needs_full(cfg) else Backend.COLLECTIVE


def hilbert_dimension(cfg: ScenarioConfig) -> int:
    """Total dimension under the effective backend; pure arithmetic, no allocation."""
    return build_basis(cfg).dim


def build_basis(cfg: ScenarioConfig) -> BasisDescriptor:
    return BasisDescriptor(effective_backend(cfg), tuple(d.population for d in cfg.domains))


def _mixed_domain_matrix(population: int, a: float, b: float, backend: Backend) -> np.ndarray:
    dim = 2**population if backend is Backend.FULL else population + 1
    m = b * np.eye(dim, dtype=complex)
    m[0, 0] += a  # index 0 is the all-up bitstring, on the ladder the fully excited level
    return m


def build_initial_state(cfg: ScenarioConfig) -> DensityMatrix:
    basis = build_basis(cfg)
    levels = []
    for dom in cfg.domains:
        init = dom.initial
        if init.kind == "ground":
            levels.append(0)
        elif init.kind == "excited":
            levels.append(dom.population)
        elif init.kind == "dicke":
            levels.append(init.dicke_k)
        else:  # mixed: _validate_config has matched mixed_basis to the backend
            levels.append(_mixed_domain_matrix(dom.population, init.a, init.b, basis.backend))
    return product_state(basis, levels)


def build_master_equation(cfg: ScenarioConfig, allow_large: bool = False) -> MasterEquation:
    basis = build_basis(cfg)
    return build_realistic(
        basis,
        [tuple(r.domains) for r in cfg.reservoirs],
        nbar=resolved_nbar(cfg),
        include_individual=cfg.include_individual,
        gamma_dep_over_gamma=cfg.gamma_dep_over_gamma,
        allow_large=allow_large,
        rates=[r.rate for r in cfg.reservoirs],
    )


# ---------------------------------------------------------------------------
# observables
# ---------------------------------------------------------------------------

_PAIR_RE = re.compile(r"^(E_F|C)\(([A-Z]),([A-Z])\)$")
_NEG_RE = re.compile(r"^(E_N|N)\(([A-Z])\|([A-Z])\)$")
_JZ_RE = re.compile(r"^Jz_([A-Z])(?:/N_([A-Z]))?$")


def _domain_index(fieldname: str, letter: str, cfg: ScenarioConfig) -> int:
    idx = ord(letter) - ord("A")
    if not 0 <= idx < len(cfg.domains):
        _fail(fieldname, f"domain letter {letter!r} outside the declared domains")
    return idx


def _parse_observable(fieldname: str, text: str, cfg: ScenarioConfig) -> Callable[..., Observable]:
    """Validate one observable string; returns the function of the run's basis that builds it."""
    m = _PAIR_RE.match(text) or _NEG_RE.match(text)
    if m:
        kind, la, lb = m.groups()
        i, j = _domain_index(fieldname, la, cfg), _domain_index(fieldname, lb, cfg)
        if i == j:
            _fail(fieldname, f"{text!r} names the same domain twice")
        keep = tuple(sorted((i, j)))
        if kind in ("E_N", "N"):
            fn = log_negativity_array if kind == "E_N" else negativity_array
            part = [keep.index(i)]
            return lambda basis: Observable(
                lambda v, t: fn(v, [basis.domain_dims[k] for k in keep], part), keep=keep
            )
        for k in (i, j):
            if cfg.domains[k].population != 1:
                _fail(fieldname, f"{kind} needs single-spin domains, domain {k} has more")
        measure = _eof if kind == "E_F" else concurrence_array
        return lambda basis: Observable(measure, keep=keep)
    m = _JZ_RE.match(text)
    if m:
        la, lnorm = m.groups()
        i = _domain_index(fieldname, la, cfg)
        if lnorm is not None and lnorm != la:
            _fail(fieldname, f"{text!r} normalizes by a different domain")
        n = cfg.domains[i].population
        scale = 1.0 / n if lnorm is not None else 1.0
        return lambda basis: Observable(
            lambda v, t: scale * v, operator=embed(collective_jz(n, basis.backend), basis, i)
        )
    if text == "N_ABC":
        if len(cfg.domains) < 3:
            _fail(fieldname, "N_ABC needs at least three domains")
        for k in range(3):
            if cfg.domains[k].population != 1:
                _fail(fieldname, f"N_ABC needs single-spin domains A, B, C; domain {k} has more")
        return lambda basis: Observable(lambda v, t: tripartite_negativity_array(v), keep=(0, 1, 2))
    if text == "x_d":
        pops = tuple(d.population for d in cfg.domains)
        if len(pops) != 3 or pops[0] != 1 or pops[2] != 1:
            _fail(fieldname, "x_d is defined for the (1, N_B, 1) chain only")
        return lambda basis: Observable(
            lambda v, t: np.clip(v, 0.0, 1.0), operator=_dark_state(basis, pops[1])
        )
    _fail(fieldname, f"unrecognized observable {text!r}")


def _eof(mats: np.ndarray, times: Optional[np.ndarray]) -> np.ndarray:
    return eof_from_concurrence_array(concurrence_array(mats, times))


def compile_observables(cfg: ScenarioConfig, basis: BasisDescriptor) -> dict:
    """Map each observable string to an ``Observable``: a linear part of rho, then a measure.

    E_F, C, E_N, N and N_ABC reduce rho to their domains, then apply an
    entanglement measure; Jz_X is Tr(Jz rho), over N_X when normalized; x_d
    is the dark-state weight Tr(|d><d| rho), clamped to [0, 1], with |d> built
    on the run's basis (``_dark_state``).  Each string is parsed once per
    call, by ``_parse_observable``, the parser that validates the config, and
    the builder it returns makes the Observable.  No map is built here:
    ``evolve`` builds those on its sector coordinates.
    """
    return {
        text: _parse_observable(f"observables[{i}]", text, cfg)(basis)
        for i, text in enumerate(cfg.observables)
    }


def _dark_state(basis: BasisDescriptor, n_b: int) -> PureState:
    """``oracle.dark_state`` of the (1, n_b, 1) chain on the run's basis.

    On the collective ladder, index 2 (n_b + 1) a + 2 b + c with b the
    central domain's down-spins, its three amplitudes are placed directly:
    sqrt(x_d) on the excitation at A (0, n_b, 1) and at C (1, n_b, 0), and
    -sqrt(x_d / n_b) on B's symmetric single excitation (1, n_b - 1, 1).
    """
    if basis.backend is Backend.FULL:
        return dark_state(n_b)
    norm = math.sqrt(n_b / (2.0 * n_b + 1.0))
    amplitudes = np.zeros(basis.dim, dtype=complex)
    amplitudes[[2 * n_b + 1, 4 * n_b + 2, 4 * n_b + 1]] = norm, norm, -norm / math.sqrt(n_b)
    return PureState(amplitudes, basis)


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------


def _dom(population, kind="ground", **kw):
    return DomainSpec(population, InitialSpec(kind, **kw))


def _mixed_f0(population: int, f0: float) -> InitialSpec:
    """Solve the fully-excited/identity weights from the target fidelity.

    b = (1 - f0) / (2^N - 1), scaled by 2^-N so that a population beyond the
    float range gives b = 0 (which the validator refuses) and no OverflowError.
    """
    b = math.ldexp(1.0 - f0, -population) / (1.0 - math.ldexp(1.0, -population))
    return InitialSpec("mixed", a=f0 - b, b=b)


def _chain(name, pops, initials, reservoirs=None, **kw):
    domains = tuple(_dom(p, k) for p, k in zip(pops, initials))
    if reservoirs is None:
        reservoirs = [(i, i + 1) for i in range(len(pops) - 1)]
    return ScenarioConfig(
        name=name,
        domains=domains,
        reservoirs=tuple(ReservoirSpec(tuple(r)) for r in reservoirs),
        **kw,
    )


_FIG5_DEP_RATES = (0.0, 0.02, 0.05, 0.1, 0.2)
_FIG5_TEMPERATURES = (0.0, 0.1, 0.3, 0.5, 1.0)
_FIG5_OMEGA0_OVER_2PI = 1.0e10
_APPA_PATTERNS = ("ddd", "dud", "udd", "ddu", "uuu", "udu", "uud", "duu")
_APPA_F0_GRID = (0.5, 0.6, 0.7, 0.8, 0.9, 1.0)


def _preset_intro_pair():
    return [
        _chain(
            "intro-pair",
            (1, 1),
            ("excited", "ground"),
            reservoirs=[(0, 1)],
            t_max=25.0,
            sample_dt=0.25,
            observables=("E_F(A,B)",),
        )
    ]


def _preset_fig1a():
    configs = []
    for n_a in range(1, 9):
        configs.append(
            _chain(
                f"fig1a_na{n_a}",
                (n_a, 1),
                ("excited", "ground"),
                reservoirs=[(0, 1)],
                t_max=40.0,
                sample_dt=0.2,
                observables=("E_N(A|B)",),
            )
        )
    return configs


def _preset_fig3(n_b_values, tag):
    configs = []
    for n_b in n_b_values:
        configs.append(
            _chain(
                f"{tag}_nb{n_b}",
                (1, n_b, 1),
                ("ground", "excited", "ground"),
                t_max=40.0,
                sample_dt=0.1,
                observables=("E_F(A,C)", "Jz_B/N_B"),
            )
        )
    return configs


def _preset_fig4(name, pops, t_max):
    initials = ["ground"] * len(pops)
    initials[1] = "excited"
    outer = chr(ord("A") + len(pops) - 1)
    # Longer chains saturate noticeably more slowly than the three-domain
    # runs, so the horizon is chosen per chain; the tail of each ends up
    # flat to well under 1e-6.
    return [
        _chain(
            name,
            pops,
            initials,
            t_max=t_max,
            sample_dt=t_max / 160.0,
            observables=(f"E_F(A,{outer})",),
        )
    ]


def _preset_fig5a():
    configs = []
    for g in _FIG5_DEP_RATES:
        configs.append(
            _chain(
                f"fig5a_dep{g:g}",
                (1, 5, 1),
                ("ground", "excited", "ground"),
                backend="full",
                gamma_dep_over_gamma=g,
                t_max=20.0,
                sample_dt=0.1,
                observables=("E_F(A,C)",),
            )
        )
    return configs


def _preset_fig5b():
    return [
        _chain(
            "fig5b_individual",
            (1, 5, 1),
            ("ground", "excited", "ground"),
            backend="full",
            include_individual=True,
            t_max=20.0,
            sample_dt=0.1,
            observables=("E_F(A,C)",),
        )
    ]


def _preset_fig5c():
    configs = []
    for T in _FIG5_TEMPERATURES:
        cfg = _chain(
            f"fig5c_T{T:g}",
            (1, 11, 1),
            ("ground", "excited", "ground"),
            t_max=30.0,
            sample_dt=0.1,
            observables=("E_F(A,C)",),
        )
        configs.append(
            replace(cfg, temperature=TemperatureSpec(T, _FIG5_OMEGA0_OVER_2PI))
        )
    return configs


def _preset_fig6(n_d=11):
    return [
        ScenarioConfig(
            name=f"fig6_star_nd{n_d}",
            domains=(
                _dom(1, "ground"),
                _dom(1, "ground"),
                _dom(1, "ground"),
                _dom(n_d, "excited"),
            ),
            reservoirs=(
                ReservoirSpec((0, 3)),
                ReservoirSpec((1, 3)),
                ReservoirSpec((2, 3)),
            ),
            t_max=60.0,
            sample_dt=0.25,
            observables=("N_ABC",),
        )
    ]


def _preset_appA():
    configs = []
    kinds = {"d": "ground", "u": "excited"}
    for pat in _APPA_PATTERNS:
        configs.append(
            _chain(
                f"appA_{pat}",
                (1, 4, 1),
                tuple(kinds[c] for c in pat),
                t_max=40.0,
                sample_dt=0.1,
                observables=("E_F(A,C)",),
            )
        )
    return configs


def _preset_appA_mixed():
    configs = []
    n_b = 4
    for f0 in _APPA_F0_GRID:
        configs.append(
            ScenarioConfig(
                name=f"appA_mixed_f{f0:g}",
                domains=(
                    _dom(1, "ground"),
                    DomainSpec(n_b, _mixed_f0(n_b, f0)),
                    _dom(1, "ground"),
                ),
                reservoirs=(ReservoirSpec((0, 1)), ReservoirSpec((1, 2))),
                backend="full",
                t_max=40.0,
                sample_dt=0.1,
                observables=("E_F(A,C)",),
            )
        )
    return configs


def _preset_appB():
    configs = []
    for n_b in range(1, 9):
        configs.append(
            _chain(
                f"appB_nb{n_b}",
                (1, n_b, 1),
                ("excited", "ground", "ground"),
                t_max=40.0,
                sample_dt=0.2,
                observables=("C(A,C)", "x_d"),
            )
        )
    return configs


_PRESETS = {
    "intro-pair": _preset_intro_pair,
    "fig1a-sweep": _preset_fig1a,
    "fig3a": lambda: _preset_fig3((3, 6, 9, 12), "fig3a"),
    "fig3b": lambda: _preset_fig3(range(2, 13), "fig3b"),
    "fig4-chain4": lambda: _preset_fig4("fig4_chain4", (1, 6, 6, 1), t_max=40.0),
    "fig4-chain5": lambda: _preset_fig4("fig4_chain5", (1, 4, 4, 4, 1), t_max=80.0),
    "fig5a-dephasing": _preset_fig5a,
    "fig5b-individual": _preset_fig5b,
    "fig5c-thermal": _preset_fig5c,
    "fig6-star": _preset_fig6,
    "appA-initial-states": _preset_appA,
    "appA-mixed": _preset_appA_mixed,
    "appB-oracle": _preset_appB,
}

PRESET_NAMES = tuple(sorted(_PRESETS))


def preset(name: str):
    """Fully resolved config list for a named scenario family."""
    try:
        factory = _PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown preset {name!r}; valid names: {', '.join(PRESET_NAMES)}"
        ) from None
    return factory()


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def _format_value(value) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return f"{value:g}" if isinstance(value, float) else str(value)


def _sweep_one(base: ScenarioConfig, parameter: str, value) -> ScenarioConfig:
    name = f"{base.name}_{parameter}{_format_value(value)}"
    if parameter in ("N_B", "N_D"):
        idx = 1 if parameter == "N_B" else 3
        if idx >= len(base.domains):
            raise ValueError(
                f"parameter {parameter} needs a domain at index {idx}; "
                f"config has {len(base.domains)}"
            )
        init = base.domains[idx].initial
        if init.kind == "mixed" and _is_int(value) and value >= 1:
            # preserve the preparation fidelity a + b across the size change;
            # the validator refuses any other population before the weights
            init = _mixed_f0(value, init.a + init.b)
        domains = list(base.domains)
        domains[idx] = DomainSpec(value, init)
        return replace(base, name=name, domains=tuple(domains))
    if parameter == "T":
        if base.temperature is None:
            raise ValueError("parameter T needs a config with a temperature block")
        temp = TemperatureSpec(value, base.temperature.omega0_over_2pi_hz)
        return replace(base, name=name, temperature=temp)
    if parameter == "gamma_dep_over_gamma":
        return replace(base, name=name, gamma_dep_over_gamma=value)
    if parameter == "F_0":
        mixed_idx = [i for i, d in enumerate(base.domains) if d.initial.kind == "mixed"]
        if len(mixed_idx) != 1:
            raise ValueError(
                f"parameter F_0 needs exactly one mixed domain, found {len(mixed_idx)}"
            )
        f0 = _check_finite(f"parameter {parameter}", value)
        if not 0.0 < f0 <= 1.0:
            raise ValueError(f"parameter F_0: fidelity must lie in (0, 1], got {value!r}")
        i = mixed_idx[0]
        domains = list(base.domains)
        domains[i] = DomainSpec(domains[i].population, _mixed_f0(domains[i].population, f0))
        return replace(base, name=name, domains=tuple(domains))
    raise ValueError(
        f"unknown sweep parameter {parameter!r}; valid names: {', '.join(SWEEP_PARAMETERS)}"
    )


def sweep(base: ScenarioConfig, parameter: str, values: Sequence):
    """One config per value, all other fields unchanged."""
    if parameter == "γ_dep_over_γ":  # accept the symbolic spelling
        parameter = "gamma_dep_over_gamma"
    if not len(values):
        raise ValueError("sweep needs at least one value")
    return [_sweep_one(base, parameter, v) for v in values]


# ---------------------------------------------------------------------------
# JSON round trip
# ---------------------------------------------------------------------------


def _initial_to_json(init: InitialSpec):
    if init.kind in ("ground", "excited"):
        return init.kind
    if init.kind == "dicke":
        return {"dicke": init.dicke_k}
    return {"mixed": {"a": init.a, "b": init.b}}


def _initial_from_json(fieldname: str, data) -> InitialSpec:
    if isinstance(data, str):
        if data not in ("ground", "excited"):
            _fail(fieldname, f"unknown initial {data!r}")
        return InitialSpec(data)
    if isinstance(data, dict):
        if set(data) == {"dicke"}:
            return InitialSpec("dicke", dicke_k=data["dicke"])
        if set(data) == {"mixed"}:
            inner = data["mixed"]
            if not isinstance(inner, dict) or set(inner) != {"a", "b"}:
                _fail(fieldname + ".mixed", "expected an object with keys 'a' and 'b'")
            return InitialSpec("mixed", a=inner["a"], b=inner["b"])
        _fail(fieldname, f"unknown initial object with keys {sorted(data)}")
    _fail(fieldname, f"expected a string or object, got {data!r}")


def config_to_dict(cfg: ScenarioConfig) -> dict:
    out = {
        "name": cfg.name,
        "domains": [
            {"population": d.population, "initial": _initial_to_json(d.initial)}
            for d in cfg.domains
        ],
        "reservoirs": [
            {"domains": list(r.domains), "rate": r.rate} for r in cfg.reservoirs
        ],
        "include_individual": cfg.include_individual,
        "gamma_dep_over_gamma": cfg.gamma_dep_over_gamma,
        "backend": cfg.backend,
        "mixed_basis": cfg.mixed_basis,
        "t_max": cfg.t_max,
        "sample_dt": cfg.sample_dt,
        "observables": list(cfg.observables),
    }
    if cfg.temperature is not None:
        out["temperature"] = {
            "T_kelvin": cfg.temperature.T_kelvin,
            "omega0_over_2pi_hz": cfg.temperature.omega0_over_2pi_hz,
        }
    else:
        out["nbar"] = cfg.nbar
    return out


def config_from_dict(data: dict) -> ScenarioConfig:
    """Load a config from its JSON form; only the JSON shape is checked here,
    ``ScenarioConfig`` checks and normalizes the values."""
    if not isinstance(data, dict):
        _fail("config", f"expected a JSON object, got {type(data).__name__}")
    unknown = set(data) - {f.name for f in fields(ScenarioConfig)}
    if unknown:
        _fail("config", f"unknown keys {sorted(unknown)}")
    for key in ("name", "domains", "reservoirs"):
        if key not in data:
            _fail(key, "missing required key")
    domains = []
    if not isinstance(data["domains"], list):
        _fail("domains", "expected a list")
    for i, d in enumerate(data["domains"]):
        if not isinstance(d, dict):
            _fail(f"domains[{i}]", f"expected an object, got {d!r}")
        unknown = set(d) - {"population", "initial"}
        if unknown:
            _fail(f"domains[{i}]", f"unknown keys {sorted(unknown)}")
        if "population" not in d:
            _fail(f"domains[{i}].population", "missing required key")
        init = _initial_from_json(f"domains[{i}].initial", d.get("initial", "ground"))
        domains.append(DomainSpec(d["population"], init))
    reservoirs = []
    if not isinstance(data["reservoirs"], list):
        _fail("reservoirs", "expected a list")
    for i, r in enumerate(data["reservoirs"]):
        if not isinstance(r, dict):
            _fail(f"reservoirs[{i}]", f"expected an object, got {r!r}")
        unknown = set(r) - {"domains", "rate"}
        if unknown:
            _fail(f"reservoirs[{i}]", f"unknown keys {sorted(unknown)}")
        if "domains" not in r or not isinstance(r["domains"], list):
            _fail(f"reservoirs[{i}].domains", "expected a list of domain indices")
        reservoirs.append(ReservoirSpec(tuple(r["domains"]), r.get("rate", 1.0)))
    kwargs = dict(data, domains=domains, reservoirs=reservoirs)
    if "temperature" in data:
        t = data["temperature"]
        if not isinstance(t, dict) or set(t) != {"T_kelvin", "omega0_over_2pi_hz"}:
            _fail(
                "temperature",
                "expected an object with keys 'T_kelvin' and 'omega0_over_2pi_hz'",
            )
        kwargs["temperature"] = TemperatureSpec(**t)
    if "observables" in data and not isinstance(data["observables"], list):
        _fail("observables", "expected a list of strings")
    return ScenarioConfig(**kwargs)


def config_hash(cfg: ScenarioConfig) -> str:
    """Stable hex digest of the resolved config; identical configs hash alike."""
    import hashlib  # loads OpenSSL's libcrypto; only run_config and simulate hash

    canon = json.dumps(config_to_dict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]
