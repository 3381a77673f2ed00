"""Reference constructions that the tests compare the package against.

``circle`` walks the paper's map one point at a time, independent of the
coset tables behind ``colorings.circle_graph``; ``complete`` and
``empty`` are the two extreme graphs for the exact solvers.
``pairwise_proper`` and ``relabel_by_degree`` check a coloring and
renumber a graph one vertex pair at a time, against the solvers'
bit-parallel ``_proper`` and ``_by_degree``. ``dataclass_twin`` gives a
record class's frozen-dataclass twin, whose value semantics the record
must match.
"""

import dataclasses

from distcolor.bounds import BoundsReport
from distcolor.colorings import Circle, CircleBipartition, CircleGraph, Coloring, Violation
from distcolor.distgraph import GraphSpec
from distcolor.errors import BadInput, InvalidPrime
from distcolor.exact import AdjacencyMatrix, Exhausted, SolveLimits
from distcolor.gf import BhSet, FieldSpec
from distcolor.numtheory import ConditionReport, is_prime

# each record's fields in order, a (name, default) pair where it has a default
RECORD_FIELDS = {
    ConditionReport: ["p", "order_of_two", "condition_holds", ("witness_r", None)],
    GraphSpec: ["n", "r", "s"],
    Coloring: ["spec", "labels", "method", "palette_bound"],
    Violation: ["u", "v", "shared_color"],
    Circle: ["parameter", "points"],
    CircleGraph: ["p", "circles", "edges"],
    CircleBipartition: ["p", "graph", "classes", "sides"],
    FieldSpec: ["q", "h", "modulus_poly"],
    BhSet: ["q", "h", "modulus", "elements"],
    BoundsReport: ["spec", "lower", "upper", "best_lower", "best_upper", "exact"],
    AdjacencyMatrix: ["order", "rows"],
    SolveLimits: [("max_nodes", 5_000_000), ("time_budget", 60.0)],
    Exhausted: ["lower", ("upper", None)],
}


def dataclass_twin(cls: type) -> type:
    """A frozen dataclass with the name, fields and defaults of a record class."""
    fields = [
        f if isinstance(f, str) else (f[0], object, dataclasses.field(default=f[1]))
        for f in RECORD_FIELDS[cls]
    ]
    return dataclasses.make_dataclass(cls.__name__, fields, frozen=True)


def circle(p: int, i: int, j: int) -> Circle:
    """The circle through j with parameter i, walked by t -> (t + i) / 2 mod p."""
    if p <= 3 or not is_prime(p):
        raise InvalidPrime(f"need a prime p > 3, got {p}")
    i, j = i % p, j % p
    if i == j:
        raise BadInput("the parameter is a fixed point, pick j != i")
    inv2 = pow(2, -1, p)
    pts = [j]
    t = (j + i) * inv2 % p
    while t != j:
        pts.append(t)
        t = (t + i) * inv2 % p
    lo = pts.index(min(pts))
    return Circle(i, tuple(pts[lo:] + pts[:lo]))


def complete(m: int) -> AdjacencyMatrix:
    """K_m: every vertex adjacent to every other."""
    full = (1 << m) - 1
    return AdjacencyMatrix(m, tuple(full ^ (1 << v) for v in range(m)))


def empty(m: int) -> AdjacencyMatrix:
    """m vertices and no edge."""
    return AdjacencyMatrix(m, (0,) * m)


def pairwise_proper(g: AdjacencyMatrix, assign: list[int], k: int) -> bool:
    """A color in 0..k-1 per vertex, and different colors at the ends of every edge."""
    if len(assign) != g.order or any(not 0 <= c < k for c in assign):
        return False
    pairs = ((v, w) for v in range(g.order) for w in range(v + 1, g.order) if g.rows[v] >> w & 1)
    return all(assign[v] != assign[w] for v, w in pairs)


def relabel_by_degree(rows: list[int]) -> tuple[list[int], list[int], list[int]]:
    """(label, pos, rows) renumbered by descending degree, ties to the lower vertex.

    New vertex i is old vertex label[i], and old vertex v is new vertex pos[v].
    """
    n = len(rows)
    label = sorted(range(n), key=lambda v: (-bin(rows[v]).count("1"), v))
    pos = [label.index(v) for v in range(n)]
    new = [0] * n
    for i, v in enumerate(label):
        for w in range(n):
            if rows[v] >> w & 1:
                new[i] |= 1 << pos[w]
    return label, pos, new
