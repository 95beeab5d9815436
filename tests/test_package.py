"""The package's public names."""

import wgtsim

# wgtsim.__all__ before it was built from the modules' own __all__ lists
PUBLIC_NAMES = [
    "AttackReport", "AuditReport", "TwoAgentObservations", "audit_gradient_system",
    "audit_state_system", "infer_gradient", "z_stream", "ConstantLambda", "LambdaSchedule",
    "NetworkState", "RunReport", "Scenario", "StepSizes", "Transcript", "replay", "run",
    "ConfigError", "DivergenceError", "NumericalError", "DirectedGraph", "directed_ring",
    "sensor_network_6", "AdmissibilityReport", "ContractionEstimates", "admissibility_report",
    "det_criterion", "error_propagation", "limit_propagation", "metric_vector",
    "scalar_recursion_bounds", "spectral_radius", "QuadraticObjective", "ObjectiveEnsemble",
    "make_sensor_scenario", "WeightSchedule", "contraction_radii", "phi_static", "__version__",
]


def test_public_names_resolve():
    assert set(PUBLIC_NAMES) <= set(wgtsim.__all__)
    assert len(wgtsim.__all__) == len(set(wgtsim.__all__))
    for name in wgtsim.__all__:
        assert getattr(wgtsim, name) is not None, name
