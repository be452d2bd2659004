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
    kron_all,
    partial_trace,
)
from .states import (
    DensityMatrix,
    TwoQubitThermalParams,
    TwoQutritThermalParams,
    entropies,
    gibbs_state,
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
    check_energy_conservation,
    evolve_interaction_picture,
    evolve_on_grid,
    interaction_unitary,
    resonant_decomposition_factors,
    swap_operator,
)
from .thermo import (
    HeatResult,
    clausius_report,
    heat_closed_form_2qubit_thermal,
    heat_closed_form_qutrit,
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
    UnitScales,
    builtin_micadei,
    builtin_qutrit_demo,
    emit,
    format_csv,
    format_json,
    from_natural_units,
    run_sweep,
    to_natural_units,
)

__version__ = "0.1.0"
