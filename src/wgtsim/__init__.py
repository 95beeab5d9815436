"""wgtsim: decentralized gradient-tracking simulator with privacy diagnostics.

Simulates two gradient-tracking update laws over directed strongly
connected networks — a baseline whose tracker messages leak private
gradients to an eavesdropper, and a weighted variant whose vanishing
gradient-weight sequence makes the recoverable quantity decay to zero —
together with the attacker models, linear-system audits, and
convergence-theory monitors needed to measure both sides of that trade.
"""

from .adversary import (
    AttackReport,
    AuditReport,
    TwoAgentObservations,
    audit_gradient_system,
    audit_state_system,
    infer_gradient,
    z_stream,
)
from .engine import (
    ConstantLambda,
    LambdaSchedule,
    NetworkState,
    RunReport,
    Scenario,
    StepSizes,
    Transcript,
    replay,
    run,
)
from .errors import ConfigError, DivergenceError, NumericalError
from .graph import DirectedGraph, directed_ring, sensor_network_6
from .monitor import (
    AdmissibilityReport,
    ContractionEstimates,
    admissibility_report,
    det_criterion,
    error_propagation,
    limit_propagation,
    metric_vector,
    scalar_recursion_bounds,
    spectral_radius,
)
from .objective import ObjectiveEnsemble, QuadraticObjective, make_sensor_scenario
from .weights import WeightSchedule, contraction_radii, phi_static

__version__ = "0.1.0"

__all__ = [
    "AttackReport",
    "AuditReport",
    "TwoAgentObservations",
    "audit_gradient_system",
    "audit_state_system",
    "infer_gradient",
    "z_stream",
    "ConstantLambda",
    "LambdaSchedule",
    "NetworkState",
    "RunReport",
    "Scenario",
    "StepSizes",
    "Transcript",
    "replay",
    "run",
    "ConfigError",
    "DivergenceError",
    "NumericalError",
    "DirectedGraph",
    "directed_ring",
    "sensor_network_6",
    "AdmissibilityReport",
    "ContractionEstimates",
    "admissibility_report",
    "det_criterion",
    "error_propagation",
    "limit_propagation",
    "metric_vector",
    "scalar_recursion_bounds",
    "spectral_radius",
    "QuadraticObjective",
    "ObjectiveEnsemble",
    "make_sensor_scenario",
    "WeightSchedule",
    "contraction_radii",
    "phi_static",
    "__version__",
]
