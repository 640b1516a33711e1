"""Exact quadratization and power-series solution of generalized-polynomial ODEs.

Pipeline: parse a monomial system (:mod:`spquad.parse`), analyze its domain
and singular structure (:mod:`spquad.sigmapi`), rewrite it as a homogeneous
quadratic system (:mod:`spquad.quadratize`), compute Taylor coefficients,
radius bounds and analytic continuations (:mod:`spquad.series`), and
cross-check against a fixed-step RK4 reference (:mod:`spquad.oracle`).
"""

from . import errors
from .jets import TimeJet
from .oracle import CompareReport, Trajectory, compare, rk4
from .parse import (SourceSpan, parse_frame, parse_ode, serialize_frame,
                    serialize_ode)
from .quadratize import (QuadraticFrame, Quadratization,
                         add_fictitious_monomial, driver_frame,
                         driver_type_ode, inverse_driver, inverse_joint_frame,
                         phi_eval, quadratize_canonical, quadratize_inclusive)
from .series import (CoefficientTensor, IndexMultiset, RadiusWarning,
                     SeriesSolution, bound_envelope, continue_to,
                     convergence_bound, evaluate, observable_series, support,
                     taylor)
from .sigmapi import (DecompositionStage, DomainClass, DomainDescriptor,
                      Monomial, SigmaPiOde, StructureReport, analyze_domain,
                      decompose_global, project, structure)

__version__ = "0.1.0"

__all__ = [
    "TimeJet", "Monomial", "SigmaPiOde", "DomainClass", "DomainDescriptor",
    "StructureReport", "DecompositionStage", "analyze_domain", "structure",
    "project", "decompose_global",
    "Quadratization", "QuadraticFrame", "quadratize_canonical",
    "quadratize_inclusive", "inverse_driver", "inverse_joint_frame",
    "driver_frame", "driver_type_ode", "phi_eval", "add_fictitious_monomial",
    "SeriesSolution", "CoefficientTensor", "IndexMultiset", "RadiusWarning",
    "support", "taylor",
    "convergence_bound", "bound_envelope", "evaluate", "continue_to",
    "observable_series",
    "Trajectory", "CompareReport", "rk4", "compare",
    "parse_ode", "serialize_ode", "parse_frame", "serialize_frame",
    "SourceSpan", "errors",
]
