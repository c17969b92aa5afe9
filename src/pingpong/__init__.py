"""Desk-scale simulator and analysis toolkit for the ping-pong quantum
communication protocol under ancilla-based eavesdropping attacks.

The package computes detection probabilities and comparative information
quantities (travel, ancilla and composite entropies plus Holevo bounds)
for arbitrary ancilla attacks, audits a built-in counterexample whose
composite entropy has a disputed claimed value, and numerically maps the
maximal-information-versus-detection frontier.
"""

__version__ = "0.1.0"

from .attack import (
    AttackSpec,
    EncodingEnsemble,
    InvalidAttackError,
    apply_attack,
    builtin_attack,
    detection_probability,
    post_encoding_ensemble,
    validate_attack,
)
from .metrics import (
    ClaimDeviation,
    InfoReport,
    binary_entropy,
    entropy_inequality_check,
    holevo_bound,
    information_report,
)
from .protocol import (
    MonteCarloStats,
    ProtocolConfig,
    bell_pair,
    make_config,
    monte_carlo,
    run_message_round,
)
from .qlinalg import (
    DensityMatrix,
    StateVector,
    UnitaryOperator,
    basis_state,
    partial_trace,
    to_density,
    von_neumann_entropy,
)
from .search import (
    AttackFamily,
    CurvePoint,
    SweepConfig,
    full_unitary_family,
    maximize_information,
    product_family,
    sample_random_attack,
    sweep,
)

__all__ = [
    "AttackFamily",
    "AttackSpec",
    "ClaimDeviation",
    "CurvePoint",
    "DensityMatrix",
    "EncodingEnsemble",
    "InfoReport",
    "InvalidAttackError",
    "MonteCarloStats",
    "ProtocolConfig",
    "StateVector",
    "SweepConfig",
    "UnitaryOperator",
    "apply_attack",
    "basis_state",
    "bell_pair",
    "binary_entropy",
    "builtin_attack",
    "detection_probability",
    "entropy_inequality_check",
    "full_unitary_family",
    "holevo_bound",
    "information_report",
    "make_config",
    "maximize_information",
    "monte_carlo",
    "partial_trace",
    "post_encoding_ensemble",
    "product_family",
    "run_message_round",
    "sample_random_attack",
    "sweep",
    "to_density",
    "validate_attack",
    "von_neumann_entropy",
]
