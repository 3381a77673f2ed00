"""Vertex enumeration, ranking, and adjacency for the graphs G(n, r, s).

Vertices are the r-element subsets of {0, ..., n-1}, kept as strictly
increasing tuples. Two vertices are adjacent when their intersection has
exactly s elements. Dense vertex indexing uses the combinatorial number
system in colexicographic order, so ranks are stable as n grows.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Iterator

from ._record import Record
from .errors import BadInput, OutOfRange, TooLarge

RSubset = tuple[int, ...]

# Full edge enumeration is refused beyond this many vertices.
MAX_ENUMERATION_VERTICES = 10**6


class GraphSpec(Record):
    """The triple (n, r, s) defining a distance graph G(n, r, s)."""

    n: int
    r: int
    s: int

    def __post_init__(self) -> None:
        if not 0 <= self.s < self.r <= self.n:
            raise BadInput(f"need 0 <= s < r <= n, got (n={self.n}, r={self.r}, s={self.s})")


def canonical(spec: GraphSpec) -> GraphSpec:
    """G(n, n - r, n - 2r + s) when r > n - r and that spec exists, else spec.

    Complementing every r-set maps G(n, r, s) isomorphically onto
    G(n, n - r, n - 2r + s). When n - 2r + s < 0 no two r-sets share
    exactly s elements, the graph has no edges, and spec is kept.
    """
    n, r, s = spec.n, spec.r, spec.s
    if r > n - r and n - 2 * r + s >= 0:
        return GraphSpec(n, n - r, n - 2 * r + s)
    return spec


def vertex_count(spec: GraphSpec) -> int:
    """Number of vertices, C(n, r)."""
    return math.comb(spec.n, spec.r)


def capped_vertex_count(spec: GraphSpec, cap: int, what: str = "enumeration") -> int:
    """C(n, r), or TooLarge when it exceeds cap, in O(log cap) steps.

    The partial products C(n - k + i, i), k = min(r, n - r), at least double
    with each i; past 2^64 * cap they stop and the message names C(n, r).
    """
    n, k, stop = spec.n, min(spec.r, spec.n - spec.r), (cap + 1) << 64
    count, i = 1, 0
    while i < k and count <= stop:
        i += 1
        count = count * (n - k + i) // i
    if count > cap:
        shown = count if i == k and count <= stop else f"C({n}, {spec.r})"
        raise TooLarge(f"{shown} vertices exceeds the {what} cap {cap}")
    return count


def degree(spec: GraphSpec) -> int:
    """Common degree of every vertex, C(r, s) * C(n - r, r - s)."""
    return math.comb(spec.r, spec.s) * math.comb(spec.n - spec.r, spec.r - spec.s)


def _validate_vertex(spec: GraphSpec, v: RSubset) -> None:
    if len(v) != spec.r:
        raise BadInput(f"vertex {v} does not have {spec.r} elements")
    if any(v[i] >= v[i + 1] for i in range(len(v) - 1)):
        raise BadInput(f"vertex {v} is not strictly increasing")
    if v and (v[0] < 0 or v[-1] >= spec.n):
        raise BadInput(f"vertex {v} leaves the ground set of size {spec.n}")


def rank(spec: GraphSpec, v: RSubset) -> int:
    """Colexicographic rank of a vertex in [0, C(n, r))."""
    _validate_vertex(spec, v)
    return sum(math.comb(c, j + 1) for j, c in enumerate(v))


def unrank(spec: GraphSpec, k: int) -> RSubset:
    """Vertex with colexicographic rank k; inverse of rank."""
    if not 0 <= k < vertex_count(spec):
        raise OutOfRange(f"rank {k} outside [0, {vertex_count(spec)})")
    out = []
    for j in range(spec.r, 0, -1):
        c = j - 1
        while math.comb(c + 1, j) <= k:
            c += 1
        out.append(c)
        k -= math.comb(c, j)
    return tuple(reversed(out))


def vertices(spec: GraphSpec) -> list[RSubset]:
    """All vertices in colexicographic (rank) order, as built: no sort.

    Over the descending ground set, combinations yields each r-set largest
    element first, in lexicographic order of those descending tuples; that
    is colex order reversed.
    """
    capped_vertex_count(spec, MAX_ENUMERATION_VERTICES)
    return [t[::-1] for t in combinations(range(spec.n - 1, -1, -1), spec.r)][::-1]


def vertex_masks(spec: GraphSpec) -> list[int]:
    """The bitmask sum(1 << x for x in v) of every vertex, in colex order.

    Built level by level with no tuples: the k-sets of range(n - r + k),
    the only k-sets that start an r-set, come block by block of their top
    t as mask(w + {t}) = mask(w) | 1 << t over the (k-1)-sets w of range(t).
    """
    capped_vertex_count(spec, MAX_ENUMERATION_VERTICES)
    n, r = spec.n, spec.r
    masks = [0]
    for k in range(1, r + 1):
        level: list[int] = []
        for t in range(k - 1, n - r + k):
            level += map((1 << t).__or__, masks[: math.comb(t, k - 1)])
        masks = level
    return masks


def is_edge(spec: GraphSpec, u: RSubset, v: RSubset) -> bool:
    """True iff u and v are distinct and share exactly s elements."""
    return u != v and len(set(u) & set(v)) == spec.s


def neighbors(spec: GraphSpec, v: RSubset) -> list[RSubset]:
    """All neighbors of v, in colexicographic order.

    A neighbor keeps exactly s elements of v and draws the other r - s
    from outside v, so each one is produced exactly once.
    """
    _validate_vertex(spec, v)
    inside = set(v)
    outside = [x for x in range(spec.n) if x not in inside]
    out = []
    # new elements outermost: when fewer than r - s lie outside v there
    # are none, and the C(r, s) cores are never enumerated
    for new in combinations(outside, spec.r - spec.s):
        for keep in combinations(v, spec.s):
            out.append(tuple(sorted(keep + new)))
    out.sort(key=lambda t: t[::-1])
    return out


def edges(spec: GraphSpec) -> Iterator[tuple[int, int]]:
    """Stream every unordered edge once as a (rank, rank) pair.

    Pairs come in ascending lexicographic order of (low rank, high rank).
    """
    count = capped_vertex_count(spec, MAX_ENUMERATION_VERTICES)
    for ru in range(count):
        u = unrank(spec, ru)
        for rv in sorted(rank(spec, w) for w in neighbors(spec, u)):
            if rv > ru:
                yield ru, rv
