"""binpart: exact binomial partition sums and certified bound verification.

Core objects: partition tables (exact, arbitrary precision, plain tuples
indexed by n), the p(n,k) triangle with its unimodality structure,
tail-bounded enclosures of the Euler product (raw endpoint pairs),
certified inequality checks, and Ado-type dimension bounds for nilpotent
Lie algebras.  Everything exported here is run by one of the six
commands of `binpart.cli`; test-only oracles live with the tests.
"""

from .binomial_sums import (
    DiagonalTable,
    build_triangle,
    dominance_check,
    dominance_weights,
    iter_central_binomials,
    iter_triangle_rows,
    iter_triangle_tails,
    peak_k,
    peak_sign_sum,
    pnk_direct,
    strict_sides,
    triangle_row,
    verify_unimodal_profile,
)
from .checks import (
    central_binomial_check,
    diagonal_bound_check,
    growth_chain_check,
    partition_bound_check,
    product_bound_check,
    row_bound_check,
    subdiagonal_bound_check,
)
from .intervals import decide_with_escalation
from .lie import (
    best_bound,
    birkhoff_bound,
    corollary_bound,
    filiform_bound,
    reed_bound,
)
from .partitions import (
    build_partition_table,
    build_restricted_table,
    check_generating_functions,
    rademacher_partition_number,
)
from .qseries import (
    EnclosureWidthError,
    enclose_euler_product,
    euler_product_upper,
)
