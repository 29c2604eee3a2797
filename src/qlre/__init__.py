"""Dissipative entanglement generation between collectively damped spin domains."""

from types import ModuleType as _ModuleType

from .dynamics import (
    LindbladTerm,
    MasterEquation,
    Observable,
    SteadyStateResult,
    Trajectory,
    build_collective_zero_T,
    build_realistic,
    evolve,
    expectation,
    half_max_time,
    lindblad_rhs,
    steady_state,
)
from .entanglement import (
    EntanglementReport,
    concurrence,
    entanglement_of_formation,
    entanglement_report,
    eof_from_concurrence,
    log_negativity,
    negativity,
    partial_transpose,
    tripartite_negativity,
)
from .errors import (
    ConvergenceFailure,
    IntegrationFailure,
    MemoryGuardExceeded,
    NumericalFailure,
    QlreError,
    UndefinedResultError,
    UnsupportedConfigurationError,
)
from .hilbert import (
    Backend,
    BasisDescriptor,
    DensityMatrix,
    Operator,
    PureState,
    collective_jz,
    collective_lowering,
    embed,
    ground_state,
    partial_trace,
    product_state,
    pure_product_state,
    reservoir_jump,
    single_spin_lowering,
    single_spin_z,
    to_collective_basis,
    to_full_basis,
    trace_distance,
)
from .oracle import (
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
from .scenarios import (
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

__version__ = "0.1.0"

# every name imported above that is not private and not a submodule, plus the version
__all__ = [
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
] + ["__version__"]
