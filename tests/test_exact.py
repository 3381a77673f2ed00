"""Tests for the exact chromatic- and independence-number solvers.

Small instances are cross-checked against brute-force oracles written
here (plain backtracking colorability, subset enumeration); larger ones
against analytic certificates.
"""

import math

import pytest

from distcolor.bounds import aggregate, counting_lower_bound, independence_upper_bound
from distcolor.colorings import best_construction
from distcolor.distgraph import GraphSpec, canonical, edges, root_orbits, vertex_count, vertices
from distcolor.errors import BadInput, InternalContradiction, TooLarge
from distcolor import exact
from distcolor.exact import (
    AdjacencyMatrix,
    Exhausted,
    SolveLimits,
    exact_chromatic_number,
    exact_independence_number,
    greedy_coloring,
)


def brute_colorable(adj, k):
    n = len(adj)
    assign = [-1] * n

    def place(v):
        if v == n:
            return True
        used = max(assign[:v], default=-1)
        for c in range(min(used + 1, k - 1) + 1):
            if all(assign[w] != c for w in adj[v]):
                assign[v] = c
                if place(v + 1):
                    return True
                assign[v] = -1
        return False

    return place(0)


def brute_chromatic(g: AdjacencyMatrix) -> int:
    adj = [[w for w in range(g.order) if g.rows[v] >> w & 1] for v in range(g.order)]
    k = 1
    while not brute_colorable(adj, k):
        k += 1
    return k


def brute_independence(g: AdjacencyMatrix) -> int:
    best = 0
    for mask in range(1 << g.order):
        ok = True
        m = mask
        while m:
            v = (m & -m).bit_length() - 1
            if g.rows[v] & mask:
                ok = False
                break
            m &= m - 1
        if ok:
            best = max(best, mask.bit_count())
    return best


def from_spec(n, r, s):
    return AdjacencyMatrix.from_graph_spec(GraphSpec(n, r, s))


def test_adjacency_validation():
    with pytest.raises(BadInput):
        AdjacencyMatrix(2, (1, 0))  # self-loop at vertex 0
    with pytest.raises(BadInput):
        AdjacencyMatrix(2, (2, 0))  # asymmetric
    with pytest.raises(BadInput):
        AdjacencyMatrix(1, (0, 0))


def test_chromatic_trivial():
    assert exact_chromatic_number(AdjacencyMatrix.complete(4)) == 4
    assert exact_chromatic_number(from_spec(4, 1, 0)) == 4  # same graph, built from a spec
    assert exact_chromatic_number(AdjacencyMatrix.empty(10)) == 1
    assert exact_chromatic_number(AdjacencyMatrix.empty(0)) == 0


def test_chromatic_g532():
    g = from_spec(5, 3, 2)
    assert exact_chromatic_number(g) == 5
    assert brute_chromatic(g) == 5
    # complement bijection: same value on the isomorphic G(5, 2, 1)
    assert exact_chromatic_number(from_spec(5, 2, 1)) == 5


def test_chromatic_matches_brute_force():
    for n, r, s in [(5, 2, 0), (5, 2, 1), (6, 2, 1), (4, 2, 1), (6, 5, 4), (5, 3, 1)]:
        g = from_spec(n, r, s)
        assert exact_chromatic_number(g) == brute_chromatic(g), (n, r, s)


def test_chromatic_cap():
    with pytest.raises(TooLarge):
        exact_chromatic_number(AdjacencyMatrix.empty(121))


def test_independence_cap():
    with pytest.raises(TooLarge):
        exact_independence_number(AdjacencyMatrix.empty(501))
    with pytest.raises(TooLarge):
        AdjacencyMatrix.from_graph_spec(GraphSpec(12, 5, 2))  # 792 vertices
    # budgets leave the cap at 500, above the chi solver's 120
    assert exact_independence_number(AdjacencyMatrix.empty(200), SolveLimits(max_nodes=10)) == 200


def test_from_graph_spec_matches_edge_stream():
    # every spec with C(n, r) <= 84 and n <= 14: all of them with
    # 2 <= r <= n - 2, plus the complete (r = 1), complete-or-edgeless
    # (r = n - 1) and single-vertex (r = n) families, whose larger n only
    # repeat the same shapes; complement specs (r > n - r) are included
    for n in range(1, 15):
        for r in range(1, n + 1):
            count = vertex_count(GraphSpec(n, r, 0))
            if count > 84:
                continue
            for s in range(r):
                spec = GraphSpec(n, r, s)
                rows = [0] * count
                for a, b in edges(spec):
                    rows[a] |= 1 << b
                    rows[b] |= 1 << a
                assert AdjacencyMatrix.from_graph_spec(spec).rows == tuple(rows), spec


def test_chromatic_exhaustion():
    g = from_spec(7, 3, 2)
    result = exact_chromatic_number(g, SolveLimits(max_nodes=1))
    assert isinstance(result, Exhausted)
    assert result.lower <= 6 <= result.upper  # chi(G(7, 3, 2)) = 6
    full = exact_chromatic_number(g)
    assert result.lower <= full <= result.upper


def test_chromatic_deterministic():
    g = from_spec(7, 3, 1)
    assert exact_chromatic_number(g) == exact_chromatic_number(g)


def test_independence_trivial():
    assert exact_independence_number(AdjacencyMatrix.complete(6)) == 1
    assert exact_independence_number(AdjacencyMatrix.empty(7)) == 7
    assert exact_independence_number(AdjacencyMatrix.empty(0)) == 0


def test_independence_g532():
    g = from_spec(5, 3, 2)
    alpha = exact_independence_number(g)
    assert alpha == brute_independence(g) == 2
    assert alpha <= independence_upper_bound(5, 3) == 3


def test_independence_g932():
    g = from_spec(9, 3, 2)
    alpha = exact_independence_number(g)
    assert alpha == 12 == independence_upper_bound(9, 3)
    # certificate: the 12 lines of the 3x3 affine plane, as point triples
    spec = GraphSpec(9, 3, 2)
    verts = vertices(spec)
    lines = []
    for m in range(3):  # slopes
        for b in range(3):
            lines.append(tuple(sorted(3 * x + (m * x + b) % 3 for x in range(3))))
    for c in range(3):  # vertical lines
        lines.append(tuple(sorted(3 * c + y for y in range(3))))
    assert len(set(lines)) == 12
    for i, u in enumerate(lines):
        for v in lines[i + 1 :]:
            assert len(set(u) & set(v)) <= 1
    assert all(line in verts for line in lines)


def test_independence_exhaustion():
    g = from_spec(9, 3, 2)
    result = exact_independence_number(g, SolveLimits(max_nodes=2))
    assert isinstance(result, Exhausted)
    assert result.lower <= 12


def test_greedy_coloring():
    assert greedy_coloring(AdjacencyMatrix.complete(6)) == 6
    assert greedy_coloring(AdjacencyMatrix.empty(4)) == 1
    value = greedy_coloring(from_spec(5, 3, 2))
    assert 5 <= value <= 10


def test_greedy_exact_counting_sandwich():
    for n in (5, 6, 7):
        g = from_spec(n, 3, 2)
        chi = exact_chromatic_number(g)
        assert greedy_coloring(g) >= chi >= counting_lower_bound(n, 3)


def test_sum_coloring_bound_realized():
    for n in (5, 6, 7):
        for r in (2, 3, 4):
            if r < n:
                assert exact_chromatic_number(from_spec(n, r, r - 1)) <= n


def test_oracle_sandwich_window():
    # every spec with C(n, r) <= 40 within a bounded n window
    for n in range(2, 13):
        for r in range(1, n + 1):
            if vertex_count(GraphSpec(n, r, 0)) > 40:
                continue
            for s in range(r):
                spec = GraphSpec(n, r, s)
                report = aggregate(n, r, s)
                chi = exact_chromatic_number(AdjacencyMatrix.from_graph_spec(spec))
                assert not isinstance(chi, Exhausted), (n, r, s)
                assert report.best_lower <= chi <= report.best_upper, (n, r, s)


def test_independence_within_upper_bound_window():
    # curated s = r - 1 instances with C(n, r) <= 200 that solve quickly
    cases = [(n, 2) for n in range(4, 15)] + [(7, 3), (8, 3), (9, 3), (8, 4), (9, 7), (10, 8)]
    for n, r in cases:
        alpha = exact_independence_number(from_spec(n, r, r - 1))
        assert not isinstance(alpha, Exhausted), (n, r)
        assert alpha <= independence_upper_bound(n, r), (n, r)


def test_independence_line_graphs_match_matchings():
    # alpha of G(n, 2, 1) is the matching number floor(n / 2)
    for n in range(4, 15):
        assert exact_independence_number(from_spec(n, 2, 1)) == n // 2


def test_independence_erdos_ko_rado():
    # Erdos-Ko-Rado (1961): alpha(G(n, r, 0)) = C(n - 1, r - 1) for n >= 2r,
    # the star of one element; every r >= 2 with C(n, r) <= 84
    cases = 0
    for r in range(2, 5):
        for n in range(2 * r, 14):
            if vertex_count(GraphSpec(n, r, 0)) > 84:
                continue
            assert exact_independence_number(from_spec(n, r, 0)) == math.comb(n - 1, r - 1), (n, r)
            cases += 1
    assert cases == 15


def test_independence_spencer_packing_number():
    # alpha(G(n, 3, 2)) is the packing number of triples on n points,
    # D(n) = floor((n / 3) floor((n - 1) / 2)) - [n = 5 mod 6]
    # (Schonheim 1966; Spencer 1968)
    def packing(n):
        return n * ((n - 1) // 2) // 3 - (n % 6 == 5)

    assert [packing(n) for n in range(5, 10)] == [2, 4, 7, 8, 12]
    for n in range(5, 10):
        assert exact_independence_number(from_spec(n, 3, 2)) == packing(n), n


def test_solve_limits_reject_non_positive_and_nan():
    for max_nodes, time_budget in ((0, 1.0), (-1, 1.0), (10, 0.0), (10, -1.0), (10, math.nan)):
        with pytest.raises(BadInput):
            SolveLimits(max_nodes, time_budget)
    assert SolveLimits(1, 1e-9).time_budget == 1e-9


def test_kneser_chromatic_number_lovasz():
    # Lovasz (1978): chi(G(n, r, 0)) = n - 2r + 2, and 1 for the edgeless
    # n < 2r; n <= 12 covers every r >= 2 with C(n, r) <= 56 and an edge
    for n in range(2, 13):
        for r in range(2, n + 1):
            if vertex_count(GraphSpec(n, r, 0)) > 56:
                continue
            expected = max(1, n - 2 * r + 2)
            assert exact_chromatic_number(from_spec(n, r, 0)) == expected, (n, r)
            report = aggregate(n, r, 0)
            assert report.best_lower <= expected <= report.best_upper, (n, r)


def test_seeded_matches_unseeded():
    # every spec with C(n, r) <= 21, which bounds n by 21 (r = n - 1)
    seeded = 0
    for n in range(1, 22):
        for r in range(1, n + 1):
            if vertex_count(GraphSpec(n, r, 0)) > 21:
                continue
            for s in range(r):
                spec = GraphSpec(n, r, s)
                chi = exact_chromatic_number(AdjacencyMatrix.from_graph_spec(spec))
                for target in {spec, canonical(spec)}:
                    seed = best_construction(target)
                    labels = None if seed is None else seed.labels
                    seeded += labels is not None
                    g = AdjacencyMatrix.from_graph_spec(target)
                    assert exact_chromatic_number(g, initial=labels) == chi, (spec, target)
    assert seeded > 0


def test_initial_coloring_rejected():
    g = from_spec(5, 2, 1)
    with pytest.raises(BadInput):
        exact_chromatic_number(g, initial=[0] * 10)  # monochromatic edges
    with pytest.raises(BadInput):
        exact_chromatic_number(g, initial=list(range(9)))  # one label short
    with pytest.raises(BadInput):
        exact_chromatic_number(g, initial=[-1] + list(range(1, 10)))
    assert exact_chromatic_number(g, initial=list(range(10))) == 5  # proper, not better


def test_initial_coloring_tightens_exhausted_upper():
    g = from_spec(9, 2, 1)
    seed = best_construction(GraphSpec(9, 2, 1))
    assert exact_chromatic_number(g, SolveLimits(max_nodes=1), seed.labels) == 9


def test_unseeded_node_counts_pinned():
    # values taken from the solver before seeding: the budget at which the
    # result flips pins the number of nodes the unseeded search visits
    limits = lambda nodes: SolveLimits(max_nodes=nodes, time_budget=1e9)  # noqa: E731
    g = from_spec(10, 2, 0)
    assert exact_chromatic_number(g, limits(36665)) == Exhausted(lower=5, upper=8)
    assert exact_chromatic_number(g, limits(36666)) == 8
    g = from_spec(9, 2, 1)
    assert exact_chromatic_number(g, limits(32)) == Exhausted(lower=9, upper=11)
    assert exact_chromatic_number(g, limits(33)) == Exhausted(lower=9, upper=10)
    assert exact_chromatic_number(g, limits(1000)) == Exhausted(lower=9, upper=10)


def test_root_orbit_search_matches_plain_search():
    # the window of test_from_graph_spec_matches_edge_stream; the chi
    # searches share a node budget, and their alpha probes set the lower
    # side, so a probe that differs shows as a different result
    limits = SolveLimits(max_nodes=1000, time_budget=1e9)
    cases = 0
    for n in range(1, 15):
        for r in range(1, n + 1):
            if vertex_count(GraphSpec(n, r, 0)) > 84:
                continue
            for s in range(r):
                spec = GraphSpec(n, r, s)
                g = AdjacencyMatrix.from_graph_spec(spec)
                orbits = root_orbits(spec)
                alpha = exact_independence_number(g)
                assert exact_independence_number(g, root_orbits=orbits) == alpha, spec
                chi = exact_chromatic_number(g, limits)
                assert exact_chromatic_number(g, limits, root_orbits=orbits) == chi, spec
                cases += 1
    assert cases == 322


def test_root_orbits_cut_the_alpha_search():
    # the plain search visits 70,566 nodes on G(10, 4, 2), the orbit search
    # 306, and 712 when it keeps each orbit after branching on it
    spec = GraphSpec(10, 4, 2)
    g = AdjacencyMatrix.from_graph_spec(spec)
    limits = SolveLimits(max_nodes=500, time_budget=1e9)
    assert isinstance(exact_independence_number(g, limits), Exhausted)
    assert exact_independence_number(g, limits, root_orbits(spec)) == 12


def test_root_orbits_must_partition_the_non_neighbors():
    spec = GraphSpec(7, 3, 1)
    g = AdjacencyMatrix.from_graph_spec(spec)
    far, near = root_orbits(spec)  # 0 and 2 elements of {0, 1, 2}
    low = far & -far
    neighbor = g.rows[0] & -g.rows[0]
    bad = [
        [far, near | low],  # overlap
        [far ^ low, near],  # a non-neighbor missed
        [far | neighbor, near],  # a neighbor included
        [far | 1, near],  # vertex 0 included
        [far, near, 0],  # an empty orbit
        [far, near, 1 << g.order],  # a vertex out of range
    ]
    for orbits in bad:
        with pytest.raises(BadInput):
            exact_independence_number(g, root_orbits=orbits)
        with pytest.raises(BadInput):
            exact_chromatic_number(g, root_orbits=orbits)


def test_certificate_rechecks_raise(monkeypatch):
    # raised explicitly, so they also run under python -O
    monkeypatch.setattr(exact, "_proper", lambda g, assign, k: False)
    with pytest.raises(InternalContradiction):
        exact_chromatic_number(from_spec(5, 3, 2))
    monkeypatch.setattr(exact, "_independent", lambda g, mask: False)
    with pytest.raises(InternalContradiction):
        exact_independence_number(from_spec(5, 3, 2))
