"""Desk-scale calculus for anyons in 2+1 dimensions.

Subpackages cover Minkowski/covering-group algebra, space-like cone paths and
winding numbers, exact statistics-phase arithmetic, the symbolic charged field
engine with twist and CPT conjugations, a finite clock-shift lattice oracle,
and numerically verified fractional-spin representations.
"""

from .cones import (
    ConePath,
    LiftedArc,
    ReferenceFrame,
    SeparationError,
    WindingError,
    act,
    causally_separated,
    cone_path,
    precedes,
    reflect_path,
    relative_winding,
    relative_winding_scan,
    standard_wedge_path,
    wedge_path,
)
from .minkowski import (
    CoveringLorentz,
    CoveringPoincare,
    LiftError,
    LorentzMatrix,
    MVec3,
    cover_boost1,
    cover_compose,
    cover_inverse,
    cover_rotation,
    minkowski_inner,
    polar_rotation_angle,
    reflect_conjugate,
)
from .sectors import (
    AnyonModel,
    CyclotomicPhase,
    monodromy_prefactor,
    r_phase,
    sector_phase,
    twist_phase,
    validate_model,
)

__version__ = "0.1.0"

__all__ = [
    "AnyonModel", "ConePath", "CoveringLorentz", "CoveringPoincare",
    "CyclotomicPhase", "LiftError", "LiftedArc", "LorentzMatrix", "MVec3",
    "ReferenceFrame", "SeparationError", "WindingError",
    "act", "causally_separated", "cone_path", "cover_boost1", "cover_compose",
    "cover_inverse", "cover_rotation", "minkowski_inner",
    "monodromy_prefactor", "polar_rotation_angle", "precedes", "r_phase",
    "reflect_conjugate", "reflect_path", "relative_winding",
    "relative_winding_scan", "sector_phase", "standard_wedge_path",
    "twist_phase", "validate_model", "wedge_path",
]
