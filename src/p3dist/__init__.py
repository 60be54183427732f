"""Exact symbolic analysis of codimension-one distributions and foliations
by curves on projective 3-space, over the rationals."""

from .distribution import (
    ChernTriple,
    DistReport,
    SingInvariants,
    StabilityVerdict,
    classify,
    invariants,
    is_integrable,
    line_family_invariants,
    singular_scheme,
    split_test,
    splitruim_invariants,
    table1,
    validate_oneform,
)
from .errors import InternalInconsistency, P3DistError, ValidationError
from .exterior import ExtForm, VField, contract, exterior_derivative, radial_field, wedge
from .foliation import (
    FoliationCurveReport,
    analyze,
    classify_degree1,
    conormal_invariants,
    contraction_check,
    line_sing_invariants,
    sing_scheme_v,
)
from .grammar import format_poly, parse_poly
from .groebner import Ideal, buchberger, colon, intersect, saturate
from .hilbert import HilbertData, dimension_degree, hilbert
from .linalg import compute_tF, h0_tangent_twist, minimal_section
from .logarithmic import (
    LogType,
    audit_log_form,
    build_log_form,
    exclusion_check,
    exclusion_sweep,
    expected_curve_degree,
    expected_isolated_count,
)
from .poly import Poly

__version__ = "0.1.0"

__all__ = [
    "ChernTriple", "DistReport", "SingInvariants", "StabilityVerdict",
    "classify", "invariants", "is_integrable",
    "line_family_invariants", "singular_scheme", "split_test",
    "splitruim_invariants", "table1", "validate_oneform",
    "InternalInconsistency", "P3DistError", "ValidationError",
    "ExtForm", "VField", "contract", "exterior_derivative", "radial_field",
    "wedge",
    "FoliationCurveReport", "analyze", "classify_degree1",
    "conormal_invariants", "contraction_check", "line_sing_invariants",
    "sing_scheme_v",
    "format_poly", "parse_poly",
    "Ideal", "buchberger", "colon", "intersect", "saturate",
    "HilbertData", "dimension_degree", "hilbert",
    "compute_tF", "h0_tangent_twist", "minimal_section",
    "LogType", "audit_log_form", "build_log_form", "exclusion_check",
    "exclusion_sweep", "expected_curve_degree", "expected_isolated_count",
    "Poly",
]
