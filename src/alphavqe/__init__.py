"""Depth-aware Bayesian phase and expectation estimation with a variational
eigensolver, on a dense statevector simulator.

The package splits into beliefs and risks (`bayes`), measurement schedules and
trade-off laws (`schedules`), the estimation loop (`engine`), the simulator
and rotation-operator construction (`statevector`), gated expectation
estimation (`expectation`), the eigensolver (`vqe`), and a CSV-emitting
command line (`cli`).
"""

from .bayes import (
    DegenerateUpdateError,
    ExperimentSetting,
    GridBelief,
    NormalBelief,
    bayes_risk,
    bayes_risk_quadrature,
    exact_update,
    likelihood,
    max_variance_gain,
    rejection_filter_update,
    risk_envelope,
    variance_gain,
)
from .engine import (
    EnsembleResult,
    EstimationTimeout,
    EstimationTrace,
    SyntheticOracle,
    TraceRow,
    circular_distance,
    ensemble_run,
    run_estimation,
)
from .expectation import (
    CollapseResult,
    ExpectationResult,
    Stage1Result,
    TwoStageConfig,
    collapse_distribution,
    collapse_state,
    hoeffding_bound,
    stage1_gate,
    statistical_estimate,
    two_stage_estimate,
)
from .rand import child_seed, rng_for
from .schedules import (
    AlphaQPE,
    alpha_max,
    analytic_risk_curve,
    n_min,
    n_min_restarts,
    next_setting,
    predicted_iterations,
)
from .statevector import (
    Ansatz,
    RotationOperator,
    apply_pauli,
    build_rotation_operator,
    pauli_expectation,
    prepare,
    run_phase_circuit,
    sample_pauli_outcomes,
    validate_pauli,
    zero_state,
)
from .vqe import (
    Hamiltonian,
    HamiltonianParseError,
    VQEResult,
    bundled_hamiltonian,
    dense_matrix,
    estimate_energy,
    exact_ground_energy,
    load_hamiltonian,
    optimize,
    parse_hamiltonian,
)

__version__ = "0.1.0"
