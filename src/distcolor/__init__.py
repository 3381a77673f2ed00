"""Distance-graph coloring toolkit.

Constructs the uniform-subset distance graphs G(n, r, s), builds explicit
proper colorings, computes closed-form chromatic-number bounds, and
certifies exact values at desk scale with exact solver oracles.
"""

from .bounds import (
    Bound,
    BoundsReport,
    aggregate,
    counting_lower_bound,
    divisibility_lower_bound,
    eq2_reference,
    independence_upper_bound,
    next_prime_upper,
    theorem3_upper,
)
from .colorings import (
    Circle,
    CircleBipartition,
    CircleGraph,
    Coloring,
    Method,
    Violation,
    best_construction,
    bipartition_circles,
    circle,
    circle_graph,
    color_bose_chowla,
    color_sum,
    color_symmetric,
    color_theorem1,
    f_select,
    verify_proper,
)
from .distgraph import (
    GraphSpec,
    RSubset,
    canonical,
    degree,
    edge_count,
    edges,
    is_edge,
    neighbors,
    rank,
    root_orbits,
    unrank,
    vertex_count,
    vertices,
)
from .exact import (
    AdjacencyMatrix,
    Exhausted,
    SolveLimits,
    exact_chromatic_number,
    exact_independence_number,
    greedy_coloring,
)
from .gf import BhSet, FieldSpec, bose_chowla_set, discrete_log_table, field_add, field_build, field_mul, field_pow, verify_bh
from .numtheory import (
    ConditionReport,
    check_t1_condition,
    is_prime,
    legendre_symbol,
    mod_inverse,
    multiplicative_order,
    next_prime,
    primes_in_class,
    theorem1_prime,
)

__version__ = "0.1.0"
