"""dpnull: DP-coloring certification via polynomial coefficients over F_t.

Covers of graphs are modeled exactly (label sets over a small finite field
plus per-edge partial matchings); colorability certificates come from
nonzero coefficients of edge-product polynomials, extracted by sparse
expansion and independently by a grid sum, and every positive certificate
is cross-validated against a brute-force transversal oracle.
"""

from .budget import Budget, BudgetExceeded
from .errors import FormatError, MethodDisagreement, NotUniquelyColorable, PreconditionError
from .ff import FieldError, FieldSpec, make_field
from .graphs import (
    Graph,
    GraphError,
    Orientation,
    chromatic_number,
    complete,
    complete_bipartite,
    complete_bipartite_minus_matching,
    cone,
    cycle,
    cycle_power,
    empty_graph,
    from_edges,
    join,
    parse_graph_name,
    path,
    read_graph,
    spanning_tree,
    tree_catalog,
    unique_k_analysis,
    write_graph,
)
from .poly import (
    EdgeProductPolynomial,
    Factor,
    Grid,
    alon_tarsi_diff,
    coefficient_at,
    find_qualifying_monomial,
    from_graph,
)
from .cover import (
    Cover,
    Saturation,
    apply_relabeling,
    classify_saturation,
    count_transversals,
    cover_from_lists,
    cover_from_pattern,
    exact_dp_chromatic,
    f_dp_exhaustive,
    h_coloring_search,
    is_good_cover,
    read_cover,
    transversals,
    tree_normalize,
    uncolorable_cover_c3k_square,
    validate,
    write_cover,
)
from .certify import (
    Certificate,
    Dp3Result,
    FailureReport,
    certify_cone_bipartite,
    certify_cone_unique3,
    certify_dp3,
    certify_good_cover,
    certify_order3_cover,
    certify_unique_list,
    dp_chromatic_bounds,
)

__version__ = "0.1.0"
