"""Multi-centered dilatations of finitely presented algebras, with
machine-verified structural isomorphisms, a finite-ring oracle, and
finite-level congruence-group checks."""

from .poly import Field, PolyRing, Polynomial, QQ, GREVLEX, LEX, block_order
from .groebner import (
    Limits,
    ResourceLimitError,
    buchberger_reduced,
    ideal_cofactors,
    normal_form,
)
from .ideals import IdealHandle, colon, eliminate, intersect
from .algebras import AlgebraHom, PresentedAlgebra, check_hom, hom_kernel, is_nzd, maps_equal
from .dilatation import (
    Center,
    DilatationResult,
    MultiCenter,
    base_change_compare,
    center_kernel,
    check_exceptional,
    conic_iso,
    detect_common_base,
    dilate,
    forget_map,
    iterate_iso,
    localize_compare,
    monopoly_iso,
    open_immersion_iso,
    two_stage_iso,
    universal_factor,
)
from .report import Report, VerificationFinding
from .rost import RostInput, rost_space, rost_subalgebra_check

__all__ = [
    "AlgebraHom",
    "Center",
    "DilatationResult",
    "Field",
    "GREVLEX",
    "IdealHandle",
    "LEX",
    "Limits",
    "MultiCenter",
    "PolyRing",
    "Polynomial",
    "PresentedAlgebra",
    "QQ",
    "Report",
    "ResourceLimitError",
    "RostInput",
    "VerificationFinding",
    "base_change_compare",
    "block_order",
    "buchberger_reduced",
    "center_kernel",
    "check_exceptional",
    "check_hom",
    "colon",
    "conic_iso",
    "detect_common_base",
    "dilate",
    "eliminate",
    "forget_map",
    "hom_kernel",
    "ideal_cofactors",
    "intersect",
    "is_nzd",
    "iterate_iso",
    "localize_compare",
    "maps_equal",
    "monopoly_iso",
    "normal_form",
    "open_immersion_iso",
    "rost_space",
    "rost_subalgebra_check",
    "two_stage_iso",
    "universal_factor",
]
