"""Exact chromatic and independence numbers for small graphs.

Both solvers run branch and bound over bitset adjacency rows, stay fully
deterministic, and respect node/time budgets: hitting a budget yields an
``Exhausted`` value carrying the best proven bounds instead of raising.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Generator, Iterator, Sequence

# edges is unused here; perfbench/spans.py rebinds it when it traces a run.
from .distgraph import GraphSpec, capped_vertex_count, edges, vertex_masks
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


def _holds(sets: Sequence[int]) -> list[int]:
    """holds[e]: the vertices whose set holds element e."""
    holds = [0] * max(sets, default=0).bit_length()
    for v, m in enumerate(sets):
        for e in _bits(m):
            holds[e] |= 1 << v
    return holds


def _meets(holds: Sequence[int], cell: int, full: int) -> list[int]:
    """at_least[t]: the vertices of full that hold t or more elements of cell.

    One bit-parallel pass per element of cell; t runs to |cell|, and a
    vertex holds exactly t elements iff it is in at_least[t] & ~at_least[t + 1].
    """
    at_least = [full] + [0] * cell.bit_count()
    for i, e in enumerate(_bits(cell), 1):
        for t in range(i, 0, -1):
            at_least[t] |= at_least[t - 1] & holds[e]
    return at_least


def _transposed(packed: int, stride: int) -> int:
    """The stride x stride bit matrix with entry (i, j) at bit i * stride + j, transposed.

    stride is a power of two and at least 8. For each bit b of an index,
    one masked delta swap trades bit b between the row and the column of
    every entry; after all of them every (i, j) has moved to (j, i).
    """
    width = stride // 8
    b = stride // 2
    while b:
        # rows with bit b clear, holding the columns with bit b set
        columns = ((1 << stride) - 1) // ((1 << 2 * b) - 1) * ((1 << b) - 1) << b
        block = columns.to_bytes(width, "little") * b + bytes(width * b)
        mask = int.from_bytes(block * (stride // (2 * b)), "little")
        shift = b * (stride - 1)
        swap = (packed ^ packed >> shift) & mask
        packed ^= swap ^ swap << shift
        b //= 2
    return packed


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
        # all rows in one int, row i at bit i * stride, compared with its transpose
        stride = max(8, 1 << (self.order - 1).bit_length())
        width = stride // 8
        packed = int.from_bytes(b"".join(row.to_bytes(width, "little") for row in self.rows), "little")
        mirrored = _transposed(packed, stride)
        if mirrored == packed:
            return
        columns = mirrored.to_bytes(width * self.order, "little")
        for i, row in enumerate(self.rows):
            column = int.from_bytes(columns[i * width : (i + 1) * width], "little")
            upper = (row & ~column) >> (i + 1) << (i + 1)
            if upper:
                raise BadInput(f"edge {i}-{(upper & -upper).bit_length() - 1} is not symmetric")
        raise BadInput("an edge below the diagonal has no mirror above it")

    @classmethod
    def from_graph_spec(cls, spec: GraphSpec) -> "AdjacencyMatrix":
        """Rows in rank order: bit j of row i is set iff the r-sets share s elements.

        Row i is the vertices holding exactly s elements of r-set i, from
        _meets; s < r keeps the rows irreflexive.
        """
        count = capped_vertex_count(spec, ALPHA_MAX_VERTICES, "matrix")
        masks = vertex_masks(spec)
        holds, full, s = _holds(masks), (1 << count) - 1, spec.s
        rows = []
        for a in masks:
            at = _meets(holds, a, full)
            rows.append(at[s] & ~at[s + 1])
        return cls(count, tuple(rows))


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


def _by_degree(rows: Sequence[int]) -> tuple[Sequence[int], Sequence[int], list[int]]:
    """Relabel by descending degree, ties to the lower vertex.

    New vertex i is old vertex label[i]; returns label, its inverse pos
    and the relabeled rows. On a regular graph, as every G(n, r, s) and its
    complement are, label and pos are range(n) and the rows are unchanged.
    """
    n = len(rows)
    label = sorted(range(n), key=lambda v: (-rows[v].bit_count(), v))
    if label == list(range(n)):
        return range(n), range(n), list(rows)
    pos = sorted(range(n), key=label.__getitem__)
    return label, pos, [_relabel(rows[v], pos) for v in label]


def _pick(uncolored: int, planes: Sequence[int]) -> int:
    """Bit of the lowest uncolored vertex of highest saturation (bit i in planes[i])."""
    for plane in reversed(planes):
        if uncolored & plane:
            uncolored &= plane
    return uncolored & -uncolored


def _increment(planes: list[int], mask: int) -> list[int]:
    """Bit-sliced counters plus one at each vertex of mask, by ripple carry."""
    planes = planes[:]
    i = 0
    while mask:
        plane = planes[i]
        planes[i] = plane ^ mask
        mask &= plane
        i += 1
    return planes


def _dsatur_assignment(label: Sequence[int], rows: Sequence[int]) -> list[int]:
    """Greedy coloring in saturation-degree order; returns color per vertex.

    label and rows come from _by_degree, so the pick is the one
    exact_chromatic_number branches on: highest saturation, then highest
    degree, then lowest vertex. Colors are in the original labels.
    """
    colors = [0] * len(rows)
    # forbid[c]: the vertices with a neighbor colored c; the last mask
    # stays empty, so the search for a free color always ends
    forbid = [0]
    # a saturation never exceeds the degree
    planes = [0] * max(map(int.bit_count, rows), default=0).bit_length()
    uncolored = (1 << len(rows)) - 1
    while uncolored:
        low = _pick(uncolored, planes)
        uncolored ^= low
        v = low.bit_length() - 1
        c = next(c for c, mask in enumerate(forbid) if not mask & low)
        if c == len(forbid) - 1:
            forbid.append(0)
        planes = _increment(planes, rows[v] & ~forbid[c])
        forbid[c] |= rows[v]
        colors[label[v]] = c
    return colors


def greedy_coloring(g: AdjacencyMatrix) -> int:
    """Number of colors the saturation-degree greedy uses; bounds chi above."""
    if g.order == 0:
        return 0
    label, _, rows = _by_degree(g.rows)
    return max(_dsatur_assignment(label, rows)) + 1


def _greedy_clique(g: AdjacencyMatrix) -> list[int]:
    """Grow a clique from a max-degree seed; bounds chi below."""
    n = g.order
    seed = max(range(n), key=lambda v: (g.rows[v].bit_count(), -v))
    clique = [seed]
    cand = g.rows[seed]
    while cand:
        pick = max(_bits(cand), key=lambda v: ((g.rows[v] & cand).bit_count(), -v))
        clique.append(pick)
        cand &= g.rows[pick]
    return clique


def _root_orbits(spec: GraphSpec, sets: Sequence[int]) -> list[int]:
    """Vertex 0's non-neighbors other than itself, by t = |sets[v] ∩ sets[0]|.

    One mask per t with t != s and t < r that is nonempty, in ascending t;
    sets are the vertex masks of spec. The permutations of the ground set
    that fix sets[0] carry any r-set onto any other that meets it as often,
    so these are the orbits of vertex 0's stabilizer on its non-neighbors.
    """
    by_meet = [0] * (spec.r + 1)  # t = r is vertex 0 alone: the sets are distinct
    for v, m in enumerate(sets):
        by_meet[(m & sets[0]).bit_count()] |= 1 << v
    return [orbit for t, orbit in enumerate(by_meet[:-1]) if t != spec.s and orbit]


def exact_chromatic_number(
    g: AdjacencyMatrix | GraphSpec,
    limits: SolveLimits = SolveLimits(),
    initial: Sequence[int] | None = None,
) -> int | Exhausted:
    """Exact chi(g) by DSATUR branch and bound.

    A greedily found clique is precolored (sound by color symmetry); the
    lower bound is the larger of the clique size and ceil(V / alpha),
    where alpha comes from a node-capped independence probe. Search
    exhaustion below the incumbent proves optimality. Deterministic
    whenever the budgets are not hit. Every return re-checks the
    incumbent: InternalContradiction if improper or below the lower bound.

    ``initial``, a color per vertex in 0..k-1, is re-checked and replaces
    the DSATUR incumbent when k is smaller; it only ever lowers the upper
    side. BadInput when its length is wrong or it is not proper.

    A GraphSpec g is solved on AdjacencyMatrix.from_graph_spec(g), whose
    vertices are the r-sets in rank order (vertex_masks), and every
    permutation of the ground set is an automorphism of that graph. The
    alpha probe then gets vertex 0's root orbits (_root_orbits; see
    exact_independence_number), and a second search, the ascent (_ascent),
    decides k-colorability for k = lb, lb + 1, ... one color class at a
    time under that symmetry. It runs 256 of its own nodes at each of
    DSATUR's clock polls; each refuted k raises the lower bound, and a
    k-coloring it finds becomes the incumbent once every smaller k is
    refuted. DSATUR's tree is unchanged and ends as soon as the bounds
    meet. Each search counts its own nodes against ``limits.max_nodes``;
    the deadline is shared. An AdjacencyMatrix g gets DSATUR alone.
    """
    spec, g = (g, AdjacencyMatrix.from_graph_spec(g)) if isinstance(g, GraphSpec) else (None, g)
    if g.order > CHI_MAX_VERTICES:
        raise TooLarge(f"{g.order} vertices exceeds the chi solver cap {CHI_MAX_VERTICES}")
    n = g.order
    if n == 0:
        return 0
    sets = None if spec is None else vertex_masks(spec)
    deadline = time.monotonic() + limits.time_budget
    clique = _greedy_clique(g)
    lb = len(clique)
    # the masks use _by_degree labels, where the lowest set bit is the
    # DSATUR tie-break: highest degree, then lowest vertex; colors keeps
    # the caller's labels
    label, pos, rows = _by_degree(g.rows)
    greedy = _dsatur_assignment(label, rows)
    best = max(greedy) + 1
    best_assign = greedy[:]
    if initial is not None:
        seed = list(initial)
        k = max(seed, default=0) + 1
        if len(seed) != n or not _proper(g, seed, k):
            raise BadInput("the initial coloring is not a proper coloring of this graph")
        if k < best:
            best, best_assign = k, seed
    alpha = n  # bounds every color class until the probe proves better
    if lb < best:
        probe = SolveLimits(max_nodes=200_000, time_budget=limits.time_budget)
        probed = _alpha(g, probe, None if sets is None else _root_orbits(spec, sets))
        if not isinstance(probed, Exhausted):
            alpha = probed
            lb = max(lb, -(-n // alpha))
    hit = False
    if lb < best:  # else the bounds already meet: no search
        colors = [0] * n
        forbid = [0] * (best - 1)  # forbid[c]: the vertices with a neighbor colored c
        # planes[i] holds bit i of every vertex's saturation, the number of
        # forbid masks that hold it. Every color stays below the starting
        # best - 1 (the clique's lb < best, and branching keeps c < best - 1),
        # so no saturation passes best - 1 and the planes never overflow.
        planes = [0] * (best - 1).bit_length()
        uncolored = (1 << n) - 1
        for idx, v in enumerate(clique):
            colors[v] = idx
            planes = _increment(planes, rows[pos[v]] & ~forbid[idx])
            forbid[idx] |= rows[pos[v]]
            uncolored ^= 1 << pos[v]
        nodes = 0
        ascent = None if sets is None else _ascent(g.rows, sets, alpha, lb, limits.max_nodes)

        def climb() -> bool:
            """Run the ascent to its next pause; True once the bounds meet."""
            nonlocal lb, best, best_assign
            lower, _, found = next(ascent, (lb, 0, None))
            lb = lower
            if found is not None:
                best, best_assign = lower, found
            return best == lb

        def walk(used: int, uncolored: int, planes: list[int]) -> None:
            nonlocal best, best_assign, nodes, hit
            if used >= best:
                return
            if not uncolored:
                best = used
                best_assign = colors[:]
                return
            nodes += 1
            if nodes > limits.max_nodes or (nodes & 0xFF == 0 and time.monotonic() > deadline):
                hit = True
                return
            if ascent is not None and nodes & 0xFF == 0 and climb():
                return
            low = _pick(uncolored, planes)
            pick = low.bit_length() - 1
            rest = uncolored ^ low
            row = rows[pick]
            v = label[pick]
            for c in range(min(used + 1, best - 1)):
                old = forbid[c]
                if old & low:
                    continue
                colors[v] = c
                forbid[c] = old | row
                walk(max(used, c + 1), rest, _increment(planes, row & ~old))
                forbid[c] = old
                if hit or best == lb:
                    return

        walk(len(clique), uncolored, planes)
        del walk  # it calls itself: unbound, the call's state is freed without a collection
    if not _proper(g, best_assign, best):
        raise InternalContradiction(f"the incumbent is not a proper {best}-coloring")
    if lb > best:
        raise InternalContradiction(f"lower bound {lb} exceeds a proper {best}-coloring")
    return Exhausted(lower=lb, upper=best) if hit else best


def _ascent(
    rows: Sequence[int], sets: Sequence[int], alpha: int, k: int, max_nodes: int
) -> Iterator[tuple[int, int, list[int] | None]]:
    """Decide k-colorability for k, k + 1, ... one color class at a time.

    Yields (lower, nodes, coloring): every k below lower is refuted, and
    nodes counts this search alone. It pauses after every 256 nodes and
    after each refutation. A k-coloring found is yielded once and ends
    the search; so does passing max_nodes, without one.

    Classes are built in order 0, 1, ..., and class j holds the lowest
    uncolored vertex and is a maximal independent set of the uncolored
    graph G[U]; any k-coloring can be rearranged to satisfy both. While
    class j is open, the candidates are the uncolored vertices that are
    not adjacent to it and not excluded. A node branches on the orbit of
    the lowest candidate: the left child adds that vertex, the right one
    excludes the whole orbit from class j. A node is cut when the class
    cannot reach |U| - (k - j - 1) * alpha vertices, since the classes
    after it hold at most alpha each, and a class that closes while an
    excluded vertex has no neighbor in it is not maximal.

    The group is the product of Sym(cell) over a partition of the ground
    set; sets are a spec's vertex masks and rows its graph, so each of its
    members is an automorphism. Elements a and b share a cell iff the
    transposition (a b) maps every closed class onto itself; that is an
    equivalence, so each closing class only splits the cells before it,
    one representative per part. Each vertex added
    to the open class splits them by its set. So the group fixes the
    closed classes, the open class and, since it only shrinks, every
    excluded orbit: the candidates are fixed, and an automorphism moves
    any solution through a member of the orbit onto one through its
    lowest member (orbital branching, Ostrowski, Linderoth, Rossi and
    Smriglio, Math. Program. 126, 2011). An r-set's orbit is the r-sets
    that meet each cell as often as it does.
    """
    n = len(rows)
    holds = _holds(sets)
    ground = (1 << len(holds)) - 1
    full = (1 << n) - 1
    colors = [0] * n
    nodes = 0

    # meets[cell]: _meets of the cell. Cells are intersections of a few
    # r-sets and their complements, and recur
    meets: dict[int, list[int]] = {}
    # splits[(cells, cls)]: split's parts, shared and never mutated; about half the calls hit
    splits: dict[tuple[tuple[int, ...], int], list[int]] = {}

    def orbit(m: int, cells: list[int]) -> int:
        # |w| = |m|, so meeting each cell that m meets at least as often suffices
        out = full
        for cell in cells:
            t = (m & cell).bit_count()
            if t:
                at_least = meets.get(cell)
                if at_least is None:
                    at_least = meets[cell] = _meets(holds, cell, full)
                out &= at_least[t]
        return out

    def split(cells: list[int], cls: int) -> list[int]:
        key = (tuple(cells), cls)
        if key in splits:
            return splits[key]
        members = {sets[v] for v in _bits(cls)}

        def swap_fixes(both: int) -> bool:
            # both: the bits of two elements; True iff swapping them maps the class onto itself
            return all((m ^ both) in members for m in members if m & both not in (0, both))

        out = []
        for cell in cells:
            parts: list[int] = []  # each part's lowest element represents it
            for a in _bits(cell):
                i = next((i for i, p in enumerate(parts) if swap_fixes(p & -p | 1 << a)), len(parts))
                if i == len(parts):
                    parts.append(0)
                parts[i] |= 1 << a
            out += parts
        splits[key] = out
        return out

    def refine(cells: list[int], m: int) -> list[int]:
        out = []
        for cell in cells:
            inside = cell & m
            if inside and inside != cell:
                out += (inside, cell ^ inside)
            else:
                out.append(cell)
        return out

    def color(j: int, uncolored: int, base: list[int]) -> Generator[tuple[int, int, None], None, bool]:
        """True iff classes j, j + 1, ... below k color uncolored; base: the cells."""
        if not uncolored:
            return True
        if uncolored.bit_count() > (k - j) * alpha:
            return False
        need = uncolored.bit_count() - (k - j - 1) * alpha

        def grow(
            cls: int, reach: int, cand: int, excluded: int, cells: list[int]
        ) -> Generator[tuple[int, int, None], None, bool]:
            # reach: the class's neighbors; the right branches run as this loop
            nonlocal nodes
            while True:
                nodes += 1
                if nodes > max_nodes:
                    return False
                if not nodes & 0xFF:
                    yield k, nodes, None
                if cls.bit_count() + cand.bit_count() < need:
                    return False
                if not cand:
                    if excluded & ~reach:
                        return False
                    for v in _bits(cls):
                        colors[v] = j
                    return (yield from color(j + 1, uncolored ^ cls, split(base, cls)))
                low = cand & -cand
                v = low.bit_length() - 1
                orb = orbit(sets[v], cells)
                if orb & ~cand:
                    raise InternalContradiction("a candidate's orbit leaves the candidates")
                left = refine(cells, sets[v])
                if (yield from grow(cls | low, reach | rows[v], cand & ~rows[v] ^ low, excluded, left)):
                    return True
                cand ^= orb
                excluded |= orb

        low = uncolored & -uncolored
        u = low.bit_length() - 1
        try:
            return (yield from grow(low, rows[u], uncolored & ~rows[u] ^ low, 0, refine(base, sets[u])))
        finally:  # also when the caller closes the paused search
            del grow  # it calls itself: unbound, the class's state is freed without a collection

    try:
        while True:
            found = yield from color(0, full, [ground])
            if nodes > max_nodes:
                return
            if found:
                yield k, nodes, colors[:]
                return
            k += 1
            yield k, nodes, None
    finally:
        del color  # grow calls it, so it holds itself; unbound, as above


def _proper(g: AdjacencyMatrix, assign: list[int], k: int) -> bool:
    """True iff each vertex has a color in 0..k-1 and no row meets its own color's class."""
    if len(assign) != g.order or any(not 0 <= c < k for c in assign):
        return False
    classes: dict[int, int] = {}  # by the colors used: k may be far above them
    for v, c in enumerate(assign):
        classes[c] = classes.get(c, 0) | 1 << v
    return not any(row & classes[c] for row, c in zip(g.rows, assign))


def _relabel(mask: int, pos: Sequence[int]) -> int:
    return sum(1 << pos[w] for w in _bits(mask))


def exact_independence_number(
    g: AdjacencyMatrix | GraphSpec,
    limits: SolveLimits = SolveLimits(),
) -> int | Exhausted:
    """Exact alpha(g) as a maximum clique search on the complement.

    Candidates are bounded by a greedy clique cover (a coloring of the
    complement subgraph), the standard bitset scheme. The certificate set
    is kept and re-checked before returning.

    A GraphSpec g is solved on AdjacencyMatrix.from_graph_spec(g), where
    every permutation of the ground set is an automorphism: the graph is
    vertex-transitive, and the permutations fixing vertex 0's set A carry
    any r-set onto any other that meets A as often. The root orbits are
    therefore vertex 0's non-neighbors, grouped by |a ∩ A| (_root_orbits),
    and an AdjacencyMatrix g gets the plain search. The search
    then fixes vertex 0 at depth 1 and, at depth 2, branches once per
    orbit on its lowest member and drops the whole orbit from the
    candidates before the next branch (orbital branching, Ostrowski,
    Linderoth, Rossi and Smriglio, Math. Program. 126, 2011); deeper
    levels run the plain search. This is sound: by transitivity some
    maximum independent set I holds vertex 0. When |I| > 1, let O be the
    first orbit that meets I. An automorphism fixing vertex 0 maps a
    member of I ∩ O onto O's branch vertex and keeps every orbit as a
    set, so the image of I is as large, holds both branch vertices and
    avoids the orbits before O: the branch on O finds it. When |I| = 1,
    the greedy incumbent already has size 1.
    """
    spec, g = (g, AdjacencyMatrix.from_graph_spec(g)) if isinstance(g, GraphSpec) else (None, g)
    if g.order > ALPHA_MAX_VERTICES:
        raise TooLarge(f"{g.order} vertices exceeds the alpha solver cap {ALPHA_MAX_VERTICES}")
    if g.order == 0:
        return 0
    return _alpha(g, limits, None if spec is None else _root_orbits(spec, vertex_masks(spec)))


def _alpha(g: AdjacencyMatrix, limits: SolveLimits, orbits: list[int] | None) -> int | Exhausted:
    """exact_independence_number on a checked g of order 1 or more; orbits from _root_orbits."""
    n = g.order
    full = (1 << n) - 1
    # clique search on the complement; relabel by descending complement
    # degree, which sharpens the greedy clique-cover bound
    label, pos, comp = _by_degree([~g.rows[v] & (full ^ (1 << v)) for v in range(n)])
    ordered = isinstance(label, range)  # _by_degree kept every label: nothing to map

    # greedy independent set in g (original labels), lowest degree first
    chosen_mask = 0
    blocked = 0
    for v in sorted(range(n), key=lambda v: (g.rows[v].bit_count(), v)):
        if not blocked >> v & 1:
            chosen_mask |= 1 << v
            blocked |= g.rows[v] | (1 << v)
    best = chosen_mask.bit_count()
    best_mask = chosen_mask if ordered else _relabel(chosen_mask, pos)

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

    if orbits is None:
        expand(0, full, 0)
    else:
        root = pos[0]
        live = comp[root]
        for orbit in (o if ordered else _relabel(o, pos) for o in orbits):
            v = (orbit & -orbit).bit_length() - 1
            expand(2, live & comp[v], 1 << root | 1 << v)
            if hit:
                break
            live ^= orbit
    del expand  # it calls itself: unbound, the call's state is freed without a collection
    result_mask = best_mask if ordered else _relabel(best_mask, label)
    if not _independent(g, result_mask) or result_mask.bit_count() != best:
        raise InternalContradiction(f"the incumbent is not an independent set of size {best}")
    if hit:
        return Exhausted(lower=best, upper=None)
    return best


def _independent(g: AdjacencyMatrix, mask: int) -> bool:
    return not any(g.rows[v] & mask for v in _bits(mask))
