"""Exact chromatic and independence numbers for small graphs.

Both solvers run branch and bound over bitset adjacency rows, stay fully
deterministic, and respect node/time budgets: hitting a budget yields an
``Exhausted`` value carrying the best proven bounds instead of raising.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterator, Sequence

# edges is unused here; perfbench/spans.py rebinds it when it traces a run.
from .distgraph import GraphSpec, capped_vertex_count, edges, vertices
from .errors import BadInput, InternalContradiction, TooLarge

# One vertex cap per solver, sized for desk-scale searches: the DSATUR
# search for chi costs far more per vertex than the clique search for
# alpha. from_graph_spec builds no more rows than the larger cap.
CHI_MAX_VERTICES = 120
ALPHA_MAX_VERTICES = 500


def _bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class AdjacencyMatrix:
    """Symmetric, irreflexive adjacency held as one bitmask row per vertex."""

    order: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.rows) != self.order:
            raise BadInput(f"{len(self.rows)} rows for order {self.order}")
        full = (1 << self.order) - 1
        for i, row in enumerate(self.rows):
            if row & ~full:
                raise BadInput(f"row {i} has bits outside the vertex range")
            if row >> i & 1:
                raise BadInput(f"self-loop at vertex {i}")
        for i, row in enumerate(self.rows):
            for j in _bits(row):
                if not self.rows[j] >> i & 1:
                    raise BadInput(f"edge {i}-{j} is not symmetric")

    @classmethod
    def from_graph_spec(cls, spec: GraphSpec) -> "AdjacencyMatrix":
        """Rows in rank order: bit j of row i is set iff the r-sets share s elements.

        s < r keeps the rows irreflexive.
        """
        count = capped_vertex_count(spec, ALPHA_MAX_VERTICES, "matrix")
        masks = [sum(1 << x for x in v) for v in vertices(spec)]
        s = spec.s
        rows = [sum(1 << j for j, b in enumerate(masks) if (a & b).bit_count() == s) for a in masks]
        return cls(count, tuple(rows))

    @classmethod
    def complete(cls, m: int) -> "AdjacencyMatrix":
        full = (1 << m) - 1
        return cls(m, tuple(full ^ (1 << v) for v in range(m)))

    @classmethod
    def empty(cls, m: int) -> "AdjacencyMatrix":
        return cls(m, (0,) * m)


@dataclass(frozen=True)
class SolveLimits:
    """Search budgets; every field must be positive (NaN is not)."""

    max_nodes: int = 5_000_000
    time_budget: float = 60.0

    def __post_init__(self) -> None:
        if not (self.max_nodes > 0 and self.time_budget > 0):
            raise BadInput("all solve limits must be positive")


@dataclass(frozen=True)
class Exhausted:
    """Budget ran out before a proof; carries the best bounds found."""

    lower: int
    upper: int | None = None


def _dsatur_assignment(g: AdjacencyMatrix) -> list[int]:
    """Greedy coloring in saturation-degree order; returns color per vertex."""
    n = g.order
    colors = [-1] * n
    nbr_masks = [0] * n
    degrees = [row.bit_count() for row in g.rows]
    for _ in range(n):
        pick, key = -1, (-1, -1)
        for v in range(n):
            if colors[v] < 0:
                k = (nbr_masks[v].bit_count(), degrees[v])
                if k > key:
                    pick, key = v, k
        c = 0
        while nbr_masks[pick] >> c & 1:
            c += 1
        colors[pick] = c
        for w in _bits(g.rows[pick]):
            nbr_masks[w] |= 1 << c
    return colors


def greedy_coloring(g: AdjacencyMatrix) -> int:
    """Number of colors the saturation-degree greedy uses; bounds chi above."""
    if g.order == 0:
        return 0
    return max(_dsatur_assignment(g)) + 1


def _greedy_clique(g: AdjacencyMatrix) -> list[int]:
    """Grow a clique from a max-degree seed; bounds chi below."""
    n = g.order
    if n == 0:
        return []
    seed = max(range(n), key=lambda v: (g.rows[v].bit_count(), -v))
    clique = [seed]
    cand = g.rows[seed]
    while cand:
        pick = max(_bits(cand), key=lambda v: ((g.rows[v] & cand).bit_count(), -v))
        clique.append(pick)
        cand &= g.rows[pick]
    return clique


def exact_chromatic_number(
    g: AdjacencyMatrix,
    limits: SolveLimits = SolveLimits(),
    initial: Sequence[int] | None = None,
    root_orbits: Sequence[int] | None = None,
) -> int | Exhausted:
    """Exact chi(g) by DSATUR branch and bound.

    A greedily found clique is precolored (sound by color symmetry); the
    lower bound is the larger of the clique size and ceil(V / alpha),
    where alpha comes from a node-capped independence probe. Search
    exhaustion below the incumbent proves optimality. Deterministic
    whenever the budgets are not hit.

    ``initial``, a color per vertex in 0..k-1, is re-checked and replaces
    the DSATUR incumbent when k is smaller; it only ever lowers the upper
    side. BadInput when its length is wrong or it is not proper.
    ``root_orbits`` is re-checked and goes to the alpha probe; see
    exact_independence_number.
    """
    if g.order > CHI_MAX_VERTICES:
        raise TooLarge(f"{g.order} vertices exceeds the chi solver cap {CHI_MAX_VERTICES}")
    n = g.order
    if n == 0:
        return 0
    if root_orbits is not None:
        _check_root_orbits(g, root_orbits)
    deadline = time.monotonic() + limits.time_budget
    clique = _greedy_clique(g)
    lb = len(clique)
    greedy = _dsatur_assignment(g)
    best = max(greedy) + 1
    best_assign = greedy[:]
    if initial is not None:
        seed = list(initial)
        k = max(seed, default=0) + 1
        if len(seed) != n or not _proper(g, seed, k):
            raise BadInput("the initial coloring is not a proper coloring of this graph")
        if k < best:
            best, best_assign = k, seed
    if lb < best:
        probe = SolveLimits(max_nodes=200_000, time_budget=limits.time_budget)
        alpha = exact_independence_number(g, probe, root_orbits)
        if not isinstance(alpha, Exhausted):
            lb = max(lb, -(-n // alpha))
    if lb >= best:
        return best

    colors = [-1] * n
    nbr_masks = [0] * n
    adj = [list(_bits(row)) for row in g.rows]
    for idx, v in enumerate(clique):
        colors[v] = idx
        for w in adj[v]:
            nbr_masks[w] |= 1 << idx
    # DSATUR key (saturation, degree) packed as saturation * n + degree
    score = [nbr_masks[v].bit_count() * n + g.rows[v].bit_count() for v in range(n)]
    nodes = 0
    hit = False

    def walk(used: int, uncolored: tuple[int, ...]) -> None:
        nonlocal best, best_assign, nodes, hit
        if hit or best == lb:
            return
        if not uncolored:
            best = used  # branching already kept used < best
            best_assign = colors[:]
            return
        nodes += 1
        if nodes > limits.max_nodes or (nodes & 0xFF == 0 and time.monotonic() > deadline):
            hit = True
            return
        # uncolored holds the uncolored vertices in ascending order; max
        # keeps the first of equal keys, so ties go to the lowest vertex
        pick = max(uncolored, key=score.__getitem__)
        i = uncolored.index(pick)
        rest = uncolored[:i] + uncolored[i + 1 :]
        for c in range(min(used + 1, best - 1)):
            if nbr_masks[pick] >> c & 1:
                continue
            colors[pick] = c
            bit = 1 << c
            touched = []
            for w in adj[pick]:
                if colors[w] < 0 and not nbr_masks[w] & bit:
                    nbr_masks[w] |= bit
                    score[w] += n
                    touched.append(w)
            walk(max(used, c + 1), rest)
            for w in touched:
                nbr_masks[w] ^= bit
                score[w] -= n
            colors[pick] = -1
            if hit or best == lb:
                return

    walk(len(clique), tuple(v for v in range(n) if colors[v] < 0))
    if not _proper(g, best_assign, best):
        raise InternalContradiction(f"the incumbent is not a proper {best}-coloring")
    if hit:
        return Exhausted(lower=lb, upper=best)
    return best


def _proper(g: AdjacencyMatrix, assign: list[int], k: int) -> bool:
    """True iff every color lies in 0..k-1 and no edge joins two equal colors."""
    if any(not 0 <= c < k for c in assign):
        return False
    return not any(assign[v] == assign[w] for v in range(g.order) for w in _bits(g.rows[v]))


def _relabel(mask: int, pos: dict[int, int]) -> int:
    return sum(1 << pos[w] for w in _bits(mask))


def _check_root_orbits(g: AdjacencyMatrix, root_orbits: Sequence[int]) -> None:
    """BadInput unless the masks partition the non-neighbors of vertex 0."""
    full = (1 << g.order) - 1
    union = 0
    for orbit in root_orbits:
        if not 0 < orbit <= full or orbit & union:
            raise BadInput("root orbits must be nonempty, disjoint masks of vertices")
        union |= orbit
    if union != full ^ g.rows[0] ^ 1:
        raise BadInput("root orbits must cover exactly the non-neighbors of vertex 0")


def exact_independence_number(
    g: AdjacencyMatrix,
    limits: SolveLimits = SolveLimits(),
    root_orbits: Sequence[int] | None = None,
) -> int | Exhausted:
    """Exact alpha(g) as a maximum clique search on the complement.

    Candidates are bounded by a greedy clique cover (a coloring of the
    complement subgraph), the standard bitset scheme. The certificate set
    is kept and re-checked before returning.

    ``root_orbits`` passes in a symmetry that the solver cannot check: g
    is vertex-transitive, and the masks are the orbits, on the
    non-neighbors of vertex 0, of the automorphisms that fix vertex 0.
    The search then fixes vertex 0 at depth 1 and, at depth 2, branches
    once per orbit on its lowest member and drops the whole orbit from
    the candidates before the next branch (orbital branching, Ostrowski,
    Linderoth, Rossi and Smriglio, Math. Program. 126, 2011); deeper
    levels run the plain search. This is sound: by transitivity some
    maximum independent set I holds vertex 0. When |I| > 1, let O be the
    first orbit that meets I. An automorphism fixing vertex 0 maps a
    member of I ∩ O onto O's branch vertex and keeps every orbit as a
    set, so the image of I is as large, holds both branch vertices and
    avoids the orbits before O: the branch on O finds it. When |I| = 1,
    the greedy incumbent already has size 1. BadInput when the masks do
    not partition the non-neighbors of vertex 0.
    """
    if g.order > ALPHA_MAX_VERTICES:
        raise TooLarge(f"{g.order} vertices exceeds the alpha solver cap {ALPHA_MAX_VERTICES}")
    n = g.order
    if n == 0:
        return 0
    if root_orbits is not None:
        _check_root_orbits(g, root_orbits)
    full = (1 << n) - 1
    # clique search on the complement; relabel by descending complement
    # degree, which sharpens the greedy clique-cover bound
    comp0 = [~g.rows[v] & (full ^ (1 << v)) for v in range(n)]
    label = sorted(range(n), key=lambda v: (-comp0[v].bit_count(), v))
    pos = {v: i for i, v in enumerate(label)}
    comp = [_relabel(comp0[v], pos) for v in label]

    # greedy independent set in g (original labels), lowest degree first
    chosen_mask = 0
    blocked = 0
    for v in sorted(range(n), key=lambda v: (g.rows[v].bit_count(), v)):
        if not blocked >> v & 1:
            chosen_mask |= 1 << v
            blocked |= g.rows[v] | (1 << v)
    best = chosen_mask.bit_count()
    best_mask = _relabel(chosen_mask, pos)

    deadline = time.monotonic() + limits.time_budget
    nodes = 0
    hit = False

    def expand(size: int, cand: int, picked: int) -> None:
        nonlocal best, best_mask, nodes, hit
        nodes += 1
        if nodes > limits.max_nodes or (nodes & 0xFF == 0 and time.monotonic() > deadline):
            hit = True
            return
        if cand == 0:
            if size > best:
                best = size
                best_mask = picked
            return
        if size + cand.bit_count() <= best:
            return
        # greedy clique-cover bound: vertices in one class are pairwise
        # adjacent in g, so each class adds at most one to the set
        order: list[int] = []
        bounds: list[int] = []
        classes = 0
        uncovered = cand
        while uncovered:
            classes += 1
            avail = uncovered
            while avail:
                v = (avail & -avail).bit_length() - 1
                avail &= ~(comp[v] | (1 << v))
                uncovered ^= 1 << v
                order.append(v)
                bounds.append(size + classes)
        for i in range(len(order) - 1, -1, -1):
            if bounds[i] <= best:
                return
            v = order[i]
            expand(size + 1, cand & comp[v], picked | (1 << v))
            if hit:
                return
            cand ^= 1 << v

    if root_orbits is None:
        expand(0, full, 0)
    else:
        root = pos[0]
        live = comp[root]
        for orbit in (_relabel(o, pos) for o in root_orbits):
            v = (orbit & -orbit).bit_length() - 1
            expand(2, live & comp[v], 1 << root | 1 << v)
            if hit:
                break
            live ^= orbit
    result_mask = sum(1 << label[i] for i in range(n) if best_mask >> i & 1)
    if not _independent(g, result_mask) or result_mask.bit_count() != best:
        raise InternalContradiction(f"the incumbent is not an independent set of size {best}")
    if hit:
        return Exhausted(lower=best, upper=None)
    return best


def _independent(g: AdjacencyMatrix, mask: int) -> bool:
    return not any(g.rows[v] & mask for v in _bits(mask))
