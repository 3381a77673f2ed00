"""The bit-parallel DSATUR kernel against the per-neighbor search it replaced.

reference_chromatic_number and reference_dsatur_assignment are copies of
the per-neighbor DSATUR solver (per-vertex color masks, a packed
(saturation, degree) score and a max() pick over a tuple of uncolored
vertices). The reference shares the kernel's pruning rule: its walk
enters no branch that already uses as many colors as the incumbent. The
kernel must visit the same search tree, node for node; the check is
equal results, Exhausted bounds included, at every node budget of a
Fibonacci sweep, on regular G(n, r, s), Mycielski graphs and irregular
graphs where the degree tie-break decides picks.
"""

import random
import time
from typing import Sequence

import pytest

from distcolor.distgraph import GraphSpec, vertex_count
from distcolor import exact
from distcolor.exact import (
    CHI_MAX_VERTICES,
    AdjacencyMatrix,
    Exhausted,
    SolveLimits,
    _bits,
    _greedy_clique,
    _proper,
    exact_chromatic_number,
    exact_independence_number,
    greedy_coloring,
)
from distcolor.errors import BadInput, InternalContradiction, TooLarge
from reference import complete



def reference_dsatur_assignment(g: AdjacencyMatrix) -> list[int]:
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


def reference_chromatic_number(
    g: AdjacencyMatrix,
    limits: SolveLimits = SolveLimits(),
    initial: Sequence[int] | None = None,
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
    """
    if g.order > CHI_MAX_VERTICES:
        raise TooLarge(f"{g.order} vertices exceeds the chi solver cap {CHI_MAX_VERTICES}")
    n = g.order
    if n == 0:
        return 0
    deadline = time.monotonic() + limits.time_budget
    clique = _greedy_clique(g)
    lb = len(clique)
    greedy = reference_dsatur_assignment(g)
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
        alpha = exact_independence_number(g, probe)
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
        if used >= best:
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


def fibonacci_budgets(limit=7000):
    budgets, a, b = [], 1, 2
    while a <= limit:
        budgets.append(a)
        a, b = b, a + b
    return budgets


def from_edges(n, pairs):
    rows = [0] * n
    for v, w in pairs:
        rows[v] |= 1 << w
        rows[w] |= 1 << v
    return AdjacencyMatrix(n, tuple(rows))


def mycielskian(g):
    # vertices v, their shadows n + v (adjacent to v's neighbors), and a hub
    n = g.order
    pairs = [(v, w) for v in range(n) for w in _bits(g.rows[v]) if v < w]
    pairs += [(n + v, w) for v in range(n) for w in _bits(g.rows[v])]
    pairs += [(n + v, 2 * n) for v in range(n)]
    return from_edges(2 * n + 1, pairs)


def mycielski(k):
    # M2 = K2, M3 = C5, M4 = the Grotzsch graph; chi(Mk) = k
    g = complete(2)
    for _ in range(k - 2):
        g = mycielskian(g)
    return g


def random_graph(n, p, seed):
    rng = random.Random(seed)
    return from_edges(n, [(v, w) for v in range(n) for w in range(v + 1, n) if rng.random() < p])


def cycle(n):
    return from_edges(n, [(v, (v + 1) % n) for v in range(n)])


# irregular graphs, where the static-degree tie-break decides picks that
# no G(n, r, s) (all regular) exercises
IRREGULAR = {
    "random-30-0.3": random_graph(30, 0.3, 1),
    "random-40-0.5": random_graph(40, 0.5, 2),
    "mycielskian-C7": mycielskian(cycle(7)),
}


def assert_same_search(g, name):
    # a budget past the reference's own node count repeats its full result
    for budget in fibonacci_budgets():
        limits = SolveLimits(max_nodes=budget, time_budget=1e9)
        want = reference_chromatic_number(g, limits)
        assert exact_chromatic_number(g, limits) == want, (name, budget)
        if not isinstance(want, Exhausted):
            break


def assert_same_greedy(g, name):
    want = reference_dsatur_assignment(g)
    label, _, rows = exact._by_degree(g.rows)
    assert exact._dsatur_assignment(label, rows) == want, name
    assert greedy_coloring(g) == max(want, default=-1) + 1, name


def test_kernel_matches_reference_on_specs():
    # the window of test_oracle_sandwich_window: every spec with C(n, r) <= 40
    cases = 0
    for n in range(2, 13):
        for r in range(1, n + 1):
            if vertex_count(GraphSpec(n, r, 0)) > 40:
                continue
            for s in range(r):
                g = AdjacencyMatrix.from_graph_spec(GraphSpec(n, r, s))
                assert_same_greedy(g, (n, r, s))
                assert_same_search(g, (n, r, s))
                cases += 1
    assert cases == 200


def test_saturation_fills_the_top_plane():
    # G(7, 2, 0) searches from a 5-coloring, so saturation reaches 4 = 2^2
    # and needs all (5 - 1).bit_length() = 3 planes
    g = AdjacencyMatrix.from_graph_spec(GraphSpec(7, 2, 0))
    assert greedy_coloring(g) == 5
    assert_same_search(g, "G(7, 2, 0)")


@pytest.mark.parametrize("k", [3, 4, 5])
def test_kernel_matches_reference_on_mycielski(k):
    g = mycielski(k)
    assert_same_greedy(g, k)
    assert_same_search(g, k)
    assert exact_chromatic_number(g) == k


@pytest.mark.parametrize("name", sorted(IRREGULAR))
def test_kernel_matches_reference_on_irregular_graphs(name):
    g = IRREGULAR[name]
    degrees = [row.bit_count() for row in g.rows]
    assert len(set(degrees)) > 1 and degrees != sorted(degrees, reverse=True), name
    assert_same_greedy(g, name)
    assert_same_search(g, name)


def interval(result):
    # a resolved value v is the interval [v, v]; alpha has no upper side
    if isinstance(result, Exhausted):
        return result.lower, result.upper
    return result, result


def assert_more_budget_never_worse(g, name):
    # along the Fibonacci budgets, each report nests inside the one before:
    # chi's lower side never falls and its upper side never rises, and
    # alpha's lower side never falls
    for solve in (exact_chromatic_number, exact_independence_number):
        lower, upper = 0, None
        for budget in fibonacci_budgets():
            result = solve(g, SolveLimits(max_nodes=budget, time_budget=1e9))
            low, up = interval(result)
            assert low >= lower, (name, solve.__name__, budget)
            if upper is not None:
                assert up <= upper, (name, solve.__name__, budget)
            lower, upper = low, up
            if not isinstance(result, Exhausted):
                break


def test_more_budget_never_gives_a_worse_report():
    graphs = {
        (n, r, s): AdjacencyMatrix.from_graph_spec(GraphSpec(n, r, s))
        for n in range(2, 13)
        for r in range(1, n + 1)
        if vertex_count(GraphSpec(n, r, 0)) <= 40
        for s in range(r)
    }
    graphs.update({f"M{k}": mycielski(k) for k in (3, 4, 5)})
    graphs.update(IRREGULAR)
    graphs.update({args: random_graph(*args) for args in [(24, 0.6, 36), (28, 0.6, 45)]})
    for name, g in graphs.items():
        assert_more_budget_never_worse(g, name)


@pytest.mark.parametrize("args, nodes", [((24, 0.6, 36), 18), ((28, 0.6, 45), 40)])
def test_lowered_incumbent_prunes_its_siblings(args, nodes):
    # before siblings were pruned on the live incumbent, (24, 0.6, 36)
    # reported upper 7 at budgets 48-59, 8 from 60 to 636 and resolved at
    # 637 nodes; (28, 0.6, 45) resolved at 169
    g = random_graph(*args)
    limits = lambda nodes: SolveLimits(max_nodes=nodes, time_budget=1e9)  # noqa: E731
    assert isinstance(exact_chromatic_number(g, limits(nodes - 1)), Exhausted)
    assert exact_chromatic_number(g, limits(nodes)) == 7
