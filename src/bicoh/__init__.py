"""bicoh: exact local cohomology of bigraded modules over a prime field.

The package computes, degree by degree and without truncation error,
local cohomology of finitely generated bigraded modules over
S = F_p[x_1..x_m, y_1..y_n] with respect to the ideals P = (x), Q = (y)
and the graded maximal ideal, and verifies a web of duality identities
relating the three theories on concrete modules.
"""

from .errors import BicohError
from .linalg import DEFAULT_PRIME, homology_dim
from .poly import Bidegree, Polynomial, RingSpec, monomial_basis, parse_poly
from .groebner import FreeModule, GroebnerBasis, ModuleElement, buchberger, normal_form, syzygies
from .resolution import (
    FreeResolution,
    ModuleProfile,
    Presentation,
    ext_presentation,
    free_presentation,
    hilbert_table,
    minimal_presentation,
    profile,
    quotient_by_polys,
    quotient_presentation,
    resolve,
    zero_presentation,
)
from .strands import strand
from .cohomology import (
    cech_oracle,
    cohomological_dimension,
    ext_table,
    local_coh_table,
    oracle_table,
)
from .tables import CohomologyTable, DimTable, Window, matlis_flip
from .tame import limit_profile_check, reg_scan, strand_nonvanishing, tame_scan

__version__ = "0.1.0"

__all__ = [
    "BicohError",
    "Bidegree",
    "CohomologyTable",
    "DEFAULT_PRIME",
    "DimTable",
    "FreeModule",
    "FreeResolution",
    "GroebnerBasis",
    "ModuleElement",
    "ModuleProfile",
    "Polynomial",
    "Presentation",
    "RingSpec",
    "Window",
    "buchberger",
    "cech_oracle",
    "cohomological_dimension",
    "ext_presentation",
    "ext_table",
    "free_presentation",
    "hilbert_table",
    "homology_dim",
    "limit_profile_check",
    "local_coh_table",
    "matlis_flip",
    "minimal_presentation",
    "monomial_basis",
    "normal_form",
    "oracle_table",
    "parse_poly",
    "profile",
    "quotient_by_polys",
    "quotient_presentation",
    "reg_scan",
    "resolve",
    "strand",
    "strand_nonvanishing",
    "syzygies",
    "tame_scan",
    "zero_presentation",
]
