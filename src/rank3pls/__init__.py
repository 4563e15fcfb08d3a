"""Rank-3 imprimitive group actions and the partial linear spaces they classify."""

from .gfield import Field, SubfieldView, field_make, is_primitive_prime_divisor
from .incidence import (IncidenceStructure, fingerprint, is_connected,
                        is_proper, validate_pls)
from .omega import OmegaSpace, build_omega, classify_action, induce_action
from .permcore import PermGroup, flag_transitive_on_line

__version__ = "0.1.0"

__all__ = [
    "Field", "SubfieldView", "field_make", "is_primitive_prime_divisor",
    "IncidenceStructure", "fingerprint", "is_connected", "is_proper",
    "validate_pls",
    "OmegaSpace", "build_omega", "classify_action", "induce_action",
    "PermGroup", "flag_transitive_on_line",
]
