"""Heat exchange between correlated thermal states and contextuality bounds.

Simulate energy-conserving heat exchange for correlated two-qubit and
two-qutrit thermal states, verify stochastic-reversibility channel
decompositions, evaluate noncontextual bounds on the heat, and locate the
critical times where anomalous heat flow certifies contextuality.
"""

from .errors import (
    ConfigError,
    DecompositionError,
    DimensionError,
    HeatctxError,
    NonThermalMarginalsError,
    NotAStateError,
    NumericsError,
    ParamError,
    SupportError,
)
from .linalg import (
    HermitianOp,
    UnitaryOp,
    dagger,
    eig_hermitian,
    expm_hermitian_generator,
    kron,
    partial_trace,
)
from .states import (
    DensityMatrix,
    TwoQubitThermalParams,
    TwoQutritThermalParams,
    entropies,
    mutual_information,
    qutrit_hamiltonian,
    relative_entropy,
    two_qubit_thermal,
    two_qutrit_thermal,
    von_neumann_entropy,
    zeeman_hamiltonian,
)
from .dynamics import (
    NonResonantInteraction,
    PartialSwapInteraction,
    ResonantInteraction,
    evolve_interaction_picture,
    evolve_on_grid,
    interaction_unitary,
    swap_operator,
)
from .thermo import (
    HeatResult,
    clausius_report,
    heat_trace,
    qutrit_heat_coefficients,
)
from .contextuality import (
    Crossing,
    DecompositionReport,
    NcBound,
    Superoperator,
    choi_matrix,
    extract_stochastic_reversibility,
    find_critical_times,
    find_minimal_pd,
    nc_bound_theorem1,
    nc_bound_theorem2,
    qutrit_critical_times_analytic,
    sequential_b_factors,
    trace_preservation_residual,
    unitary_to_superoperator,
)
from .scenarios import (
    ScenarioConfig,
    SweepRecord,
    SweepResult,
    TimeGrid,
    builtin_micadei,
    builtin_qutrit_demo,
    emit,
    format_csv,
    format_json,
    run_sweep,
)

__version__ = "0.1.0"
