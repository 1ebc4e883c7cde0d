"""Exact arithmetic and identity verification for the extended Catalan
arrangement Cat(B2, m): candidate basis derivations, their recurrence and
evaluation identities, and the Saito-criterion determinant check.
"""

from .rational import beta_half, binomial, falling_factorial
from .poly import (
    BiPoly,
    LinearForm,
    UniPoly,
    UniRatFunc,
    XMY_FORM,
    XPY_FORM,
    X_FORM,
    ff_linear_poly,
    ff_poly,
    ff_unipoly,
    ff_unirat,
)
from .constructions import (
    basis_derivation,
    clear_caches,
    defining_poly,
    deformed_poly,
    deformed_tail,
    deformed_term,
    halfint_closed,
    halfint_combo,
    halfint_tail,
    halfint_term,
    integral_poly,
    integral_poly_coeff,
    poly_from_coeffs,
    saito_constant,
    saito_constant_integral,
    saito_determinant,
    tail_closed,
    tail_combo,
    telescope_cleared_sides,
)
from .checks import CHECK_NAMES, CheckReport

__version__ = "0.1.0"

__all__ = [
    "BiPoly",
    "CHECK_NAMES",
    "CheckReport",
    "LinearForm",
    "UniPoly",
    "UniRatFunc",
    "XMY_FORM",
    "XPY_FORM",
    "X_FORM",
    "basis_derivation",
    "beta_half",
    "binomial",
    "clear_caches",
    "defining_poly",
    "deformed_poly",
    "deformed_tail",
    "deformed_term",
    "falling_factorial",
    "ff_linear_poly",
    "ff_poly",
    "ff_unipoly",
    "ff_unirat",
    "halfint_closed",
    "halfint_combo",
    "halfint_tail",
    "halfint_term",
    "integral_poly",
    "integral_poly_coeff",
    "poly_from_coeffs",
    "saito_constant",
    "saito_constant_integral",
    "saito_determinant",
    "tail_closed",
    "tail_combo",
    "telescope_cleared_sides",
    "__version__",
]
