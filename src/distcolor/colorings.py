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
a clique) has distinct labels: no (core, label) key may repeat among the
V * r incidences. The keys are built from slices at C level and checked in
sets of bounded size, a run of core tops at a time, so Python steps go per
slice, not per key. Otherwise it tests the pairs inside each label class,
the only pairs that can be monochromatic edges.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, replace
from enum import Enum
from itertools import combinations
from operator import add

# edges and check_t1_condition are unused here; perfbench/spans.py rebinds
# them when it traces a run.
from .distgraph import MAX_ENUMERATION_VERTICES, GraphSpec, RSubset, edges, is_edge, unrank
from .distgraph import capped_vertex_count, vertex_count, vertex_masks, vertices
from .errors import BadInput, IncompleteColoring, InternalContradiction, InvalidPrime, NotPrime
from .errors import OddCycle, UnsupportedN
from .gf import bose_chowla_set
from .numtheory import check_t1_condition, is_prime, theorem1_prime


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


def _least_first(pts: list[int]) -> tuple[int, ...]:
    """A cyclic sequence rotated to start at its smallest member."""
    lo = pts.index(min(pts))
    return tuple(pts[lo:] + pts[:lo])


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
    if p <= 3 or not is_prime(p):
        raise InvalidPrime(f"need a prime p > 3, got {p}")
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
    capped_vertex_count(spec, MAX_ENUMERATION_VERTICES)  # before the B_h set, which can take seconds
    h = r - s
    if h == 1:
        weights: range | tuple[int, ...] = range(n)
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


class _StarRuns:
    """The (core, label) incidences of G(n, r, r - 1), cut into runs of bounded size.

    An incidence is a vertex k and an (r-1)-core c inside it, with key
    ``mult * rank(c) + labels[k]``. Iterating yields runs (floor, chunks);
    a run holds every incidence of its cores, those whose top lies in a
    range of consecutive tops. A chunk (start, count, shift, arrays) stands
    for the ranks k = start + j, j < count, once per array a, with key
    a[j] + shift + labels[k] (a None reads as zeros). Every member of a
    run's cores ranks floor or more, and floors ascend.

    Level m is the m-sets of range(N), vertex ranks vb + colex rank, cores
    cb + colex rank. The block of top t takes ranks C(t, m) on, and its
    vertex at position q is w + {t} with w the (m-1)-set of rank q:
    dropping t leaves a core of rank q, dropping the i-th element of w one
    of rank C(t, m - 1) + drops[m - 1][i][q] / mult. So the cores with tops
    in [t0, t1) meet block x > t0 in the positions C(t0, m - 1) to
    C(min(x, t1), m - 1), and block t in [t0, t1) in its m - 1 drop arrays.

    Runs group consecutive tops up to ``size`` incidences. A top with more
    is split by its cores' second tops: the cores with top t are c + {t},
    c an (m-2)-set of range(t), so their members below t are the level m - 1
    incidences of range(t), and a frame (m, N, vb, cb, t) adds to each of
    those runs its slices of the blocks above t. At level 2 a top has one
    core and N - 1 incidences and is never split.
    """

    def __init__(self, n: int, r: int, mult: int, size: int) -> None:
        self.n, self.r, self.mult, self.size = n, r, mult, size
        self.binom = [[math.comb(x, j) for j in range(r + 1)] for x in range(n + 1)]
        # drops[k][i][q] / mult: the rank of the k-set of rank q less its
        # i-th element, built block by block up to block ends[k]
        self.drops: dict[int, list[list[int]]] = {}
        self.ends: dict[int, int] = {}

    def __iter__(self):
        if self.r == 1:  # one star: the empty core, in every vertex
            yield 0, [(0, self.n, 0, [None])]
        else:
            yield from self._runs(self.r, self.n, 0, 0, self.r - 2, self.n, [])

    def _drop_arrays(self, k: int, length: int) -> list:
        if k == 1:  # the 1-sets less their element: all the empty set, rank 0
            return [None]
        arrays = self.drops.setdefault(k, [[] for _ in range(k)])
        x = self.ends.get(k, k - 1)
        while len(arrays[0]) < length:  # block x: the k-sets w + {x}, w of rank q < C(x, k - 1)
            width = self.binom[x][k - 1]
            base = self.mult * width
            arrays[k - 1] += range(0, base, self.mult)
            for i, lower in enumerate(self._drop_arrays(k - 1, width)):
                arrays[i] += [base] * width if lower is None else map(base.__add__, lower[:width])
            x += 1
        self.ends[k] = x
        return arrays

    def _chunks(self, m, N, vb, cb, t0, t1, frames):
        binom, mult = self.binom, self.mult
        lo, hi = binom[t0][m - 1], binom[t1][m - 1]
        cores = [list(range(mult * (cb + lo), mult * (cb + hi), mult))]
        out = [
            (fvb + binom[x][f] + cb + lo - fcb, hi - lo, 0, cores)
            for f, fN, fvb, fcb, ft in frames
            for x in range(ft + 1, fN)
        ]
        out += (
            (vb + binom[x][m] + lo, binom[min(x, t1)][m - 1] - lo, 0, cores) for x in range(t0 + 1, N)
        )
        for t in range(t0, t1):
            if width := binom[t][m - 1]:  # block t; its cores with top t start at cb + width
                arrays = self._drop_arrays(m - 1, width)
                out.append((vb + binom[t][m], width, mult * (cb + width), arrays))
        return out

    def _runs(self, m, N, vb, cb, lo, hi, frames):
        # the (m-1)-cores of range(N) with top t in [lo, hi), N - m + 1 members each
        binom, size = self.binom, self.size
        weight = [binom[t][m - 2] * (N - m + 1) for t in range(hi)]
        t = lo
        while t < hi:
            if m > 2 and weight[t] > size:
                inner = (vb + binom[t][m], cb + binom[t][m - 1])
                yield from self._runs(m - 1, t, *inner, m - 3, t, frames + [(m, N, vb, cb, t)])
                t += 1
                continue
            t0, total = t, weight[t]
            t += 1
            while t < hi and total + weight[t] <= size:
                total += weight[t]
                t += 1
            # every member of a core with top t ranks C(t, r) or more
            floor = binom[frames[0][4] if frames else t0][self.r]
            yield floor, self._chunks(m, N, vb, cb, t0, t, frames)


def _star_run_size(n: int) -> int:
    """Incidences per star-check run: about 1 MiB of keys, and enough to
    spread the run's n or so slice steps over many keys."""
    return max(10**4, 64 * n)


def _first_star_conflict(spec: GraphSpec, labels: tuple[int, ...]) -> tuple[int, int] | None:
    """Smallest same-label (rank, rank) pair inside a star, for s = r - 1.

    The star of an (r-1)-core holds the core plus one outside element; its
    members pairwise share the core, and every edge lies in the star of its
    ends' intersection. So the coloring is proper iff no key mult * core +
    label occurs twice among the V * r incidences, checked run by run in
    sets at C level, one Python step per slice of keys. A run with a
    repeated key is walked: the two smallest ranks of each repeated key
    are the smallest same-label pair of its star, and the smallest pair of
    all runs is the first violation. Runs stop once their floor passes the
    low end of the best pair.
    """
    mult = max(labels) + 1

    def keys(start, count, shift, arrays):
        part = labels[start : start + count]
        if shift:  # shift + label, from a table of mult new ints when that is fewer
            add_shift = list(range(shift, shift + mult)).__getitem__ if count > mult else shift.__add__
            part = map(add_shift, part) if len(arrays) == 1 else list(map(add_shift, part))
        return [part if a is None else map(add, a, part) for a in arrays]  # map stops with part

    best = None
    for floor, chunks in _StarRuns(spec.n, spec.r, mult, _star_run_size(spec.n)):
        if best is not None and best[0] < floor:
            break
        seen: set[int] = set()
        for chunk in chunks:
            for part in keys(*chunk):
                seen.update(part)
        if len(seen) < sum(count * len(arrays) for _, count, _, arrays in chunks):
            members: dict[int, list[int]] = defaultdict(list)
            for chunk in chunks:
                for part in keys(*chunk):
                    for k, key in zip(range(chunk[0], chunk[0] + chunk[1]), part):
                        members[key].append(k)
            pair = min(tuple(sorted(ks)[:2]) for ks in members.values() if len(ks) > 1)
            best = pair if best is None else min(best, pair)
    return best


def _first_class_conflict(spec: GraphSpec, labels: tuple[int, ...]) -> tuple[int, int] | None:
    """Smallest adjacent (rank, rank) pair inside one label class.

    Members ascend, so a class stops at its first adjacent pair, or at a
    low end above the best low end found so far.
    """
    masks = vertex_masks(spec)
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
    cover every edge, so each star must have distinct labels: no repeat
    among V * r (core, label) keys, checked at C level in sets of bounded
    size. Otherwise only pairs inside a label class can conflict, and
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
