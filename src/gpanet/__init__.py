"""Geometric preferential attachment graphs on the sphere.

Generators for the base, hybrid, and self-loop attachment models, a
spherical-cap spatial index, and the measurement toolkit used to check their
degree laws, diameters, communities, and concentration behavior.
"""

from .sphere import angular_distance, cap_area, sample_uniform, SPHERE_RADIUS
from .capindex import CapIndex
from .graph import EdgeKind, EvolvingGraph
from .models import (
    ModelConfig,
    GenerationTrace,
    default_probes,
    generate,
)
from .metrics import (
    CommunityReport,
    ConcentrationReport,
    DegreeHistogram,
    DiameterReport,
    ExpanderScanReport,
    PowerLawFit,
    TreeStats,
    analytic_fk,
    community_check,
    concentration_report,
    degree_histogram,
    diameter,
    expander_scan,
    fit_power_law_exponent,
    long_degree_sum,
    r_neighborhood,
    urt_stats,
)
from .harness import (
    DerivedParameters,
    ExperimentSpec,
    derive_parameters,
    run_experiment,
)

__version__ = "0.1.0"

__all__ = [
    "angular_distance", "cap_area", "sample_uniform", "SPHERE_RADIUS",
    "CapIndex", "EdgeKind", "EvolvingGraph",
    "ModelConfig", "GenerationTrace", "default_probes",
    "generate",
    "CommunityReport", "ConcentrationReport", "DegreeHistogram",
    "DiameterReport", "ExpanderScanReport", "PowerLawFit", "TreeStats",
    "analytic_fk", "community_check", "concentration_report",
    "degree_histogram", "diameter", "expander_scan",
    "fit_power_law_exponent", "long_degree_sum", "r_neighborhood",
    "urt_stats",
    "DerivedParameters", "ExperimentSpec", "derive_parameters",
    "run_experiment",
    "__version__",
]
