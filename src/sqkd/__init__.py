"""Semiquantum key distribution simulator and robustness harness.

The quantum originator (Bob) always sends |+>; the classical party (Alice)
either reflects each qubit untouched or measures it in the computational
basis and resends her result.  This package simulates full protocol runs
against a pluggable eavesdropper, and numerically verifies that any attack
inducing zero error on the CTRL and TEST checks yields zero information.
"""

from .analysis import (
    ConstraintReport,
    LeakageReport,
    ProductStructureReport,
    TheoremReport,
    constraint_check,
    eve_leakage,
    product_structure_check,
    theorem_check,
)
from .attacks import (
    ATTACK_NAMES,
    AttackSpec,
    Gate,
    RoundTemplate,
    build_attack,
    cnot_parity_attack,
    identity_attack,
    measure_resend_z_attack,
    phase_probe_attack,
    swap_attack,
)
from .engine import (
    DensityMatrix,
    StateVector,
    SubnormalizedVector,
    SubsystemLayout,
    Unitary,
    apply_unitary,
    measure,
    partial_trace,
    project,
    purity,
    tensor,
    trace_distance,
)
from .protocol import (
    EXACT_ROUND_CAP,
    ProtocolConfig,
    RoundRecord,
    RunStats,
    Transcript,
    classical_phase,
    run_protocol,
    sift_equivalence_check,
)

__version__ = "0.1.0"

__all__ = [
    "ATTACK_NAMES",
    "AttackSpec",
    "ConstraintReport",
    "DensityMatrix",
    "EXACT_ROUND_CAP",
    "Gate",
    "LeakageReport",
    "ProductStructureReport",
    "ProtocolConfig",
    "RoundRecord",
    "RoundTemplate",
    "RunStats",
    "StateVector",
    "SubnormalizedVector",
    "SubsystemLayout",
    "TheoremReport",
    "Transcript",
    "Unitary",
    "apply_unitary",
    "build_attack",
    "classical_phase",
    "cnot_parity_attack",
    "constraint_check",
    "eve_leakage",
    "identity_attack",
    "measure",
    "measure_resend_z_attack",
    "partial_trace",
    "phase_probe_attack",
    "product_structure_check",
    "project",
    "purity",
    "run_protocol",
    "sift_equivalence_check",
    "swap_attack",
    "tensor",
    "theorem_check",
    "trace_distance",
]
