"""Multiplication-table arithmetic.

Multiplicity counts for single products, exact censuses of distinct
products M(n), explicit upper bounds for the divisor functions d and
sigma, and partial zeta identities over the table, with verification
sweeps for all of them.
"""

from .divisors import (
    divisor_count,
    divisor_list,
    divisor_sum,
    incomplete_divisor_count,
    incomplete_divisor_integral,
)
from .multiplicity import (
    boundary_indicator,
    multiplicity_direct,
    multiplicity_formula,
    table_multiplicities,
)
from .products import (
    TableCensus,
    census,
    count_distinct_segmented,
)
from .bounds import (
    BoundReport,
    EULER_GAMMA,
    NICOLAS_C,
    ROBIN_C,
    ROBIN_C_ALTERNATE,
    divisor_bound_at,
    nicolas_bound,
    nicolas_shape_check,
    reference_densities,
    robin_bound,
    sigma_bound_at,
    verify_bracket_sweep,
    verify_divisor_bound,
    verify_integral_bracket,
    verify_sigma_bound,
    verify_theorem_lower_bound,
    verify_theorem_sweep,
)
from .series import (
    SeriesComparison,
    verify_identities_sweep,
    verify_square_identity,
    zeta_partial,
    zeta_square_truncation,
)

__version__ = "0.1.0"

__all__ = [
    "divisor_count",
    "divisor_list",
    "divisor_sum",
    "incomplete_divisor_count",
    "incomplete_divisor_integral",
    "boundary_indicator",
    "multiplicity_direct",
    "multiplicity_formula",
    "table_multiplicities",
    "TableCensus",
    "census",
    "count_distinct_segmented",
    "BoundReport",
    "EULER_GAMMA",
    "NICOLAS_C",
    "ROBIN_C",
    "ROBIN_C_ALTERNATE",
    "divisor_bound_at",
    "nicolas_bound",
    "nicolas_shape_check",
    "reference_densities",
    "robin_bound",
    "sigma_bound_at",
    "verify_bracket_sweep",
    "verify_divisor_bound",
    "verify_integral_bracket",
    "verify_sigma_bound",
    "verify_theorem_lower_bound",
    "verify_theorem_sweep",
    "SeriesComparison",
    "verify_identities_sweep",
    "verify_square_identity",
    "zeta_partial",
    "zeta_square_truncation",
    "__version__",
]
