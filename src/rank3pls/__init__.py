"""Rank-3 imprimitive group actions and the partial linear spaces they classify."""

from .gfield import (Field, SubfieldView, coset_index, field_make,
                     is_primitive_prime_divisor, trace_to_subfield)
from .incidence import (IncidenceStructure, fingerprint, is_connected,
                        is_proper, preserved_by, validate_pls)
from .omega import OmegaSpace, build_omega, classify_action, induce_action
from .permcore import PermGroup, flag_transitive_on_line

__version__ = "0.1.0"

__all__ = [
    "Field", "SubfieldView", "coset_index", "field_make",
    "is_primitive_prime_divisor", "trace_to_subfield",
    "IncidenceStructure", "fingerprint", "is_connected", "is_proper",
    "preserved_by", "validate_pls",
    "OmegaSpace", "build_omega", "classify_action", "induce_action",
    "PermGroup", "flag_transitive_on_line",
]
