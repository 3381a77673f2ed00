"""Explicit proper colorings of G(n, r, s) and an independent verifier.

Four construction families:

- ``theorem1``: G(n, 3, 2) in n - 2 (or n - 1) colors, available when a
  prime p in {n - 2, n - 1} has 2 of odd multiplicative order. Built from
  a two-coloring of the "circle graph" over Z_p. The circle C(i, j) is the
  coset i + (j - i)<2> of the subgroup <2> of Z_p^* and its neighbor lies
  on the negated coset, so the two-coloring is a rule on differences:
  class 1 on the coset holding the least member of c<2> and -c<2>, class
  2 on its negative. When -1 is in <2> the circle graph has an odd
  p-cycle and no two-coloring exists.
- ``sum``: G(n, r, r - 1) in n colors, label = sum of elements mod n.
- ``bose-chowla``: G(n, r, s) for prime n in n^(r-s) - 1 colors, label =
  sum of B_(r-s) set members picked by the vertex's elements.
- ``symmetric``: G(n, r, s) for prime n in n^(r-s) colors, label = the
  first r - s elementary symmetric polynomial values mod n, packed base n.

``verify_proper`` checks any coloring from the graph's structure and the
label array alone, so it is independent of every construction above. For
s = r - 1 it checks that each star (the vertices through one (r-1)-core,
a clique) has distinct labels; otherwise it tests the pairs inside each
label class, the only pairs that can be monochromatic edges.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, replace
from enum import Enum
from itertools import combinations

# edges and check_t1_condition are unused here; perfbench/spans.py rebinds
# them when it traces a run.
from .distgraph import MAX_ENUMERATION_VERTICES, GraphSpec, RSubset, edges, is_edge, unrank
from .distgraph import capped_vertex_count, vertex_count, vertices
from .errors import BadInput, IncompleteColoring, InternalContradiction, InvalidPrime, NotPrime
from .errors import OddCycle, UnsupportedN
from .gf import bose_chowla_set
from .numtheory import check_t1_condition, is_prime, mod_inverse, theorem1_prime


class Method(str, Enum):
    """Provenance tag for a coloring construction."""

    THEOREM1 = "theorem1"
    SUM_MOD_N = "sum"
    BOSE_CHOWLA = "bose-chowla"
    SYMMETRIC_POLY = "symmetric"


@dataclass(frozen=True)
class Coloring:
    """A total color assignment, indexed by colex vertex rank."""

    spec: GraphSpec
    labels: tuple[int, ...]
    method: Method
    palette_bound: int

    def __post_init__(self) -> None:
        count = capped_vertex_count(self.spec, MAX_ENUMERATION_VERTICES)
        if len(self.labels) != count:
            raise IncompleteColoring(f"{len(self.labels)} labels for {count} vertices")
        # one pass each at C level: exact ints (no bool), then the range
        labels = self.labels
        if labels and (
            set(map(type, labels)) != {int} or min(labels) < 0 or max(labels) >= self.palette_bound
        ):
            raise BadInput(f"labels must be integers in [0, {self.palette_bound})")

    @property
    def colors_used(self) -> int:
        return len(set(self.labels))


@dataclass(frozen=True)
class Violation:
    """A monochromatic edge found by the verifier."""

    u: RSubset
    v: RSubset
    shared_color: int


@dataclass(frozen=True)
class Circle:
    """Cyclic orbit of a point of Z_p under t -> (t + i) / 2.

    ``points`` starts at the smallest member and follows the map, so two
    rotations of the same orbit compare equal. The parameter i is the
    unique fixed point of the map and never lies on the circle.
    """

    parameter: int
    points: tuple[int, ...]


@dataclass(frozen=True)
class CircleGraph:
    """All circles mod p, adjacent when their parameter/start pairs swap.

    ``circles`` is sorted by (parameter, smallest point); ``edges`` holds
    the ascending (index, index) pairs, the lower index first.
    """

    p: int
    circles: tuple[Circle, ...]
    edges: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class CircleBipartition:
    """A proper 2-coloring of a circle graph; ``sides[c]`` is the class of each C(i, i + c)."""

    p: int
    graph: CircleGraph
    classes: tuple[int, ...]
    sides: tuple[int, ...]


def _require_odd_prime_gt3(p: int) -> None:
    if p <= 3 or not is_prime(p):
        raise InvalidPrime(f"need a prime p > 3, got {p}")


def _least_first(pts: list[int]) -> tuple[int, ...]:
    """A cyclic sequence rotated to start at its smallest member."""
    lo = pts.index(min(pts))
    return tuple(pts[lo:] + pts[:lo])


def circle(p: int, i: int, j: int) -> Circle:
    """The circle through j with parameter i, walked by the paper's map; the tests' reference."""
    _require_odd_prime_gt3(p)
    i, j = i % p, j % p
    if i == j:
        raise BadInput("the parameter is a fixed point, pick j != i")
    inv2 = mod_inverse(2, p)
    pts = [j]
    t = (j + i) * inv2 % p
    while t != j:
        pts.append(t)
        t = (t + i) * inv2 % p
    return Circle(i, _least_first(pts))


def _cosets_of_2(p: int) -> list[list[int]]:
    """The cosets of <2> in Z_p^* by least member d, each as its cycle d, d/2, d/4, ...; O(p)."""
    inv2 = (p + 1) // 2  # the inverse of 2 mod p
    seen: set[int] = set()
    cosets: list[list[int]] = []
    for d in range(1, p):
        if d not in seen:
            cosets.append([d])
            while (t := cosets[-1][-1] * inv2 % p) != d:
                cosets[-1].append(t)
            seen.update(cosets[-1])
    return cosets


def circle_graph(p: int) -> CircleGraph:
    """Build every circle mod p and join C(i, j) with C(j, i).

    Writing t = i + d turns t -> (t + i) / 2 into d -> d / 2, so circle
    C(i, i + d) is i plus the cycle of d from ``_cosets_of_2``, rotated to
    its smallest point; circles are sorted by (parameter, smallest point).
    The flat index ``at[i * p + t]`` is the circle of parameter i through t;
    the circles of each parameter i must cover Z_p minus {i} exactly once.
    """
    _require_odd_prime_gt3(p)
    cosets = _cosets_of_2(p)
    circles = [Circle(i, _least_first([(i + d) % p for d in c])) for i in range(p) for c in cosets]
    circles.sort(key=lambda c: (c.parameter, c.points[0]))
    at = [-1] * (p * p)
    for k, c in enumerate(circles):
        for t in c.points:
            at[c.parameter * p + t] = k
    # the slots (i, i), and only they, stay empty; p - 1 points per parameter
    # then fill its p - 1 other slots with no slot written twice
    if at.count(-1) != p or at[:: p + 1].count(-1) != p or sum(map(len, cosets)) != p - 1:
        raise InternalContradiction(f"the circles mod {p} do not split Z_p minus each parameter")
    # i < j puts C(i, j) in an earlier parameter block than C(j, i)
    edges = sorted((at[i * p + j], at[j * p + i]) for i in range(p) for j in range(i + 1, p))
    if any(e == f for e, f in zip(edges, edges[1:])):  # one edge per unordered parameter pair
        raise InternalContradiction(f"a repeated circle-graph edge mod {p}")
    return CircleGraph(p, tuple(circles), tuple(edges))


def _circle_sides(p: int) -> tuple[int, ...]:
    """Class 1 or 2 of every circle C(i, i + c), indexed by c (index 0 unused).

    C(i, i + c) is the coset i + c<2> of <2> in Z_p^* and its neighbor
    C(i + c, i) lies on i + c - c<2>: each edge joins difference coset D to
    -D. If -1 is not in <2>, the circles on D are one side of the component
    of {D, -D}; class 1 goes to the coset holding the least member of D and
    -D, as breadth-first layering from the least circle of parameter 0 does.
    Z_p^* is cyclic, so -1 (its only element of order 2) is in <2> iff
    ord(2) is even; then i, i + u, i + 2u, ... (u in D) close an odd p-cycle.
    """
    cosets = _cosets_of_2(p)
    if len(cosets[0]) % 2 == 0:  # cosets[0] is <2> itself
        raise OddCycle(f"odd cycle in the circle graph mod {p}")
    sides = [0] * p
    for cycle in cosets:  # by least member, so of D and -D the one holding the smaller comes first
        if not sides[cycle[0]]:
            for d in cycle:
                sides[d], sides[p - d] = 1, 2
    return tuple(sides)


def bipartition_circles(p: int) -> CircleBipartition:
    """Two-color the circle graph by ``_circle_sides``; OddCycle when p fails the condition."""
    g = circle_graph(p)
    sides = _circle_sides(p)
    classes = tuple(sides[(c.points[0] - c.parameter) % p] for c in g.circles)
    return CircleBipartition(p, g, classes, sides)


def _f(side: int, index: int, x: int, y: int) -> int:
    """f_index(x, y) for a circle C(x, y) in class ``side``."""
    return x if (side == 1) == (index == 1) else y


def f_select(bip: CircleBipartition, index: int, x: int, y: int) -> int:
    """The pair functions f_1, f_2: pick one element of {x, y} each.

    f_1 returns the parameter side when the circle through (x, y) is in
    class 1, the start side otherwise; f_2 picks the opposite element.
    Symmetry in (x, y) holds because swapping arguments swaps the circle
    for its neighbor, which sits in the other class.
    """
    if index not in (1, 2):
        raise BadInput(f"index must be 1 or 2, got {index}")
    if x % bip.p == y % bip.p:
        raise BadInput("need two distinct residues")
    return _f(bip.sides[(y - x) % bip.p], index, x, y)


def _sum_labels(n: int, r: int) -> list[int]:
    """sum(v) mod n for every r-set v of range(n), in colex order, block by block.

    The r-sets with one upper part u = (x2 < ... < xr) take consecutive
    ranks for x1 = 0, ..., x2 - 1 (x2 reads n when r = 1), and their labels
    (x1 + sum(u)) mod n are one slice of range(n) written twice. The upper
    parts run in colex order, from a reversed ``combinations`` pass over
    the descending ground set as in ``vertices``.
    """
    cycle = list(range(n)) * 2
    labels: list[int] = []
    for u in reversed(list(combinations(range(n - 1, 0, -1), r - 1))):
        start = sum(u) % n
        labels += cycle[start : start + (u[-1] if u else n)]
    return labels


def color_theorem1(n: int) -> Coloring:
    """Color G(n, 3, 2) with n - 2 (preferred) or n - 1 colors.

    Requires a prime p in {n - 2, n - 1}, p > 3, for which no power of 2
    is -1 mod p. Triples split by how they meet the top one or two ground
    elements:

    - no special element: label x1 + x2 + x3 mod p,
    - both specials (only when p = n - 2): label 3 * x1 mod p,
    - one special m: label x1 + x2 + f_i(x1, x2) mod p, with f_1 for the
      lower special and f_2 for the higher one.

    The ranks below C(p, 3) are exactly the triples inside Z_p, so that
    prefix is the sum coloring of G(p, 3, 2), built by ``_sum_labels``
    with no vertex tuples; the blocks x3 = p and x3 = p + 1 follow in colex
    order. The n = p + 1 case is the p + 2 coloring restricted to triples
    that avoid the largest ground element, so no relabeling is needed.
    """
    # the cap comes first: on a huge n the prime search's trial division
    # and the O(p) circle walk can run for hours; n < 3 has no spec and no
    # qualifying prime
    if n >= 3:
        capped_vertex_count(GraphSpec(n, 3, 2), MAX_ENUMERATION_VERTICES)
    p = theorem1_prime(n)
    if p is None:
        raise UnsupportedN(f"no qualifying prime at n - 2 or n - 1 for n = {n}")
    sides = _circle_sides(p)
    labels = _sum_labels(p, 3)
    for x3 in range(p, n):  # one special element x3, f_1 at p and f_2 at p + 1
        index = x3 - p + 1
        for x2 in range(1, p):
            labels += [(x1 + x2 + _f(sides[x2 - x1], index, x1, x2)) % p for x1 in range(x2)]
    if n == p + 2:  # both specials: x2 = p, x3 = p + 1
        labels += [3 * x1 % p for x1 in range(p)]
    return Coloring(GraphSpec(n, 3, 2), tuple(labels), Method.THEOREM1, p)


def color_sum(n: int, r: int) -> Coloring:
    """Color G(n, r, r - 1) with n colors: label = sum of elements mod n.

    Adjacent vertices differ in one element, so their labels differ by a
    nonzero residue. The labels come block by block from ``_sum_labels``,
    with no vertex tuples.
    """
    spec = GraphSpec(n, r, r - 1)
    capped_vertex_count(spec, MAX_ENUMERATION_VERTICES)
    return Coloring(spec, tuple(_sum_labels(n, r)), Method.SUM_MOD_N, n)


def _symmetric_values(v: RSubset, h: int, mod: int) -> list[int]:
    """First h elementary symmetric polynomial values of v, mod mod."""
    coeffs = [1] + [0] * h
    for x in v:
        for i in range(h, 0, -1):
            coeffs[i] = (coeffs[i] + coeffs[i - 1] * x) % mod
    return coeffs[1:]


def color_symmetric(n: int, r: int, s: int) -> Coloring:
    """Color G(n, r, s) for prime n with at most n^(r-s) colors.

    The label packs (sigma_1, ..., sigma_h) mod n in base n, sigma_1 most
    significant, where h = r - s. Two adjacent vertices sharing s
    elements and agreeing on all h values would, by Vieta's relations,
    have equal remainders, forcing the vertices to coincide.
    """
    if not is_prime(n):
        raise NotPrime(f"{n} is not prime")
    spec = GraphSpec(n, r, s)
    h = r - s
    labels = []
    for v in vertices(spec):
        label = 0
        for value in _symmetric_values(v, h, n):
            label = label * n + value
        labels.append(label)
    return Coloring(spec, tuple(labels), Method.SYMMETRIC_POLY, n**h)


def color_bose_chowla(n: int, r: int, s: int) -> Coloring:
    """Color G(n, r, s) for prime n with at most n^(r-s) - 1 colors.

    Each ground element e is assigned the e-th member a_e of a B_h set
    mod n^h - 1 (h = r - s) and a vertex gets the sum of its members'
    weights. Adjacent vertices differ in two h-element multisets of
    weights, whose sums are distinct by the B_h property. For h = 1 the
    identity weights a_e = e mod n suffice (a B_1 set), giving the plain
    sum coloring with palette n.

    Same-label vertices meet in strictly fewer than s elements: a shared
    core of exactly s would make the two complementary h-multisets
    distinct with equal weight sums.
    """
    if not is_prime(n):
        raise NotPrime(f"{n} is not prime")
    spec = GraphSpec(n, r, s)
    h = r - s
    if h == 1:
        weights: range | tuple[int, ...] = range(n)  # O(1) memory before the vertex cap
        modulus = n
    else:
        bh = bose_chowla_set(n, h)
        weights = bh.elements
        modulus = bh.modulus
    labels = tuple(sum(weights[x] for x in v) % modulus for v in vertices(spec))
    return Coloring(spec, labels, Method.BOSE_CHOWLA, modulus)


def best_construction(spec: GraphSpec) -> Coloring | None:
    """The construction with the smallest palette bound below V, or None.

    Candidates are theorem1 (G(n, 3, 2) with a qualifying prime), sum
    (s = r - 1) and bose-chowla (prime n); symmetric never beats
    bose-chowla. Palette bounds are compared before anything is built,
    ties go to the earlier candidate in that order, and a candidate whose
    bound is not below the vertex count is skipped. Labels are renumbered
    0..k-1 in order of first appearance; the palette bound is kept.
    """
    n, r, s = spec.n, spec.r, spec.s
    candidates = []
    p = theorem1_prime(n) if (r, s) == (3, 2) else None
    if p is not None:
        candidates.append((p, lambda: color_theorem1(n)))
    if s == r - 1:
        candidates.append((n, lambda: color_sum(n, r)))
    if is_prime(n):
        bound = n if r - s == 1 else n ** (r - s) - 1
        candidates.append((bound, lambda: color_bose_chowla(n, r, s)))
    candidates = [c for c in candidates if c[0] < vertex_count(spec)]
    if not candidates:
        return None
    coloring = min(candidates, key=lambda c: c[0])[1]()
    first: dict[int, int] = {}
    return replace(coloring, labels=tuple(first.setdefault(c, len(first)) for c in coloring.labels))


def _first_star_conflict(spec: GraphSpec, labels: tuple[int, ...]) -> tuple[int, int] | None:
    """Smallest same-label (rank, rank) pair inside a star, for s = r - 1.

    The star of an (r-1)-core holds the core plus one outside element x;
    its members pairwise share the core, and every edge lies in the star
    of its ends' intersection. Member ranks ascend with x.
    """
    n, r = spec.n, spec.r
    binom = [[math.comb(x, j) for x in range(n)] for j in range(r + 1)]
    best = None
    for core in combinations(range(n), r - 1):
        # colex rank of core + {x}: x sits at position i, the number of core
        # elements below it, and the core elements above it move up one
        i, below, above = 0, 0, sum(binom[j + 2][c] for j, c in enumerate(core))
        ranks: list[int] = []
        for x in range(n):
            if i < r - 1 and x == core[i]:
                below += binom[i + 1][x]
                above -= binom[i + 2][x]
                i += 1
            else:
                ranks.append(below + binom[i + 1][x] + above)
        star = [labels[k] for k in ranks]
        if len(set(star)) < len(star):
            first: dict[int, int] = {}
            for k, c in zip(ranks, star):
                j = first.setdefault(c, k)
                if j != k and (best is None or (j, k) < best):
                    best = (j, k)
    return best


def _first_class_conflict(spec: GraphSpec, labels: tuple[int, ...]) -> tuple[int, int] | None:
    """Smallest adjacent (rank, rank) pair inside one label class.

    Members ascend, so a class stops at its first adjacent pair, or at a
    low end above the best low end found so far.
    """
    masks = [sum(1 << x for x in v) for v in vertices(spec)]
    classes: dict[int, list[int]] = defaultdict(list)
    for k, c in enumerate(labels):
        classes[c].append(k)
    best = None
    for members in classes.values():
        for i, a in enumerate(members):
            if best is not None and a > best[0]:
                break
            adjacent = (b for b in members[i + 1 :] if (masks[a] & masks[b]).bit_count() == spec.s)
            b = next(adjacent, None)
            if b is not None:
                best = (a, b)
                break
    return best


def verify_proper(spec: GraphSpec, coloring: Coloring) -> Violation | None:
    """Return the first monochromatic edge, the smallest (rank, rank) pair, or None.

    For s = r - 1 every star over an (r-1)-core is a clique and the stars
    cover every edge, so each star must have distinct labels (V * r label
    lookups). Otherwise only pairs inside a label class can conflict, and
    those are tested (at most alpha * V pairs when proper). A reported
    pair is re-checked with is_edge and the labels before it is returned.
    """
    if coloring.spec != spec:  # a Coloring's spec is within the enumeration cap
        raise BadInput(f"coloring is for {coloring.spec}, not {spec}")
    labels = coloring.labels
    find = _first_star_conflict if spec.s == spec.r - 1 else _first_class_conflict
    pair = find(spec, labels)
    if pair is None:
        return None
    u, v = unrank(spec, pair[0]), unrank(spec, pair[1])
    if labels[pair[0]] != labels[pair[1]] or not is_edge(spec, u, v):
        raise InternalContradiction(f"verifier reported {u} and {v}, which do not conflict")
    return Violation(u, v, labels[pair[0]])
