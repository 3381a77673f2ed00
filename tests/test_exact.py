"""Tests for the exact chromatic- and independence-number solvers.

Small instances are cross-checked against brute-force oracles written
here (plain backtracking colorability, subset enumeration); larger ones
against analytic certificates.
"""

import gc
import math
import random
from itertools import combinations, permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from distcolor import cli
from distcolor.bounds import aggregate, counting_lower_bound, independence_upper_bound
from distcolor.colorings import best_construction, color_theorem1, verify_proper
from distcolor.distgraph import GraphSpec, canonical, edges, vertex_count, vertices
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
from reference import complete, empty, pairwise_proper, relabel_by_degree
from test_exact_kernel import IRREGULAR


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
        AdjacencyMatrix(2, (0, 1))  # asymmetric, its one edge below the diagonal
    with pytest.raises(BadInput):
        AdjacencyMatrix(1, (0, 0))


def test_adjacency_rejects_bits_outside_the_vertex_range():
    with pytest.raises(BadInput, match="row 0 has bits outside the vertex range"):
        AdjacencyMatrix(2, (4, 0))


def reference_symmetry_error(rows):
    """The first symmetry complaint, bit by bit: an unmirrored edge above the diagonal first."""
    for i, row in enumerate(rows):
        for j in range(i + 1, len(rows)):
            if row >> j & 1 and not rows[j] >> i & 1:
                return f"edge {i}-{j} is not symmetric"
    if any(row >> j & 1 and not rows[j] >> i & 1 for i, row in enumerate(rows) for j in range(i)):
        return "an edge below the diagonal has no mirror above it"
    return None


def test_adjacency_symmetry_check_matches_bit_by_bit_reference():
    rng = random.Random(8)
    # orders around the strides 8, 16, 32 and 64 of the packed check
    for order in (0, 1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 33, 64, 65):
        for flips in (0, 0, 1, 1, 2, 5):
            rows = [0] * order
            for i in range(order):
                for j in range(i + 1, order):
                    if rng.random() < 0.4:
                        rows[i] |= 1 << j
                        rows[j] |= 1 << i
            for _ in range(flips if order > 1 else 0):
                i, j = rng.sample(range(order), 2)
                rows[i] ^= 1 << j
            expected = reference_symmetry_error(rows)
            if expected is None:
                assert AdjacencyMatrix(order, tuple(rows)).rows == tuple(rows)
            else:
                with pytest.raises(BadInput, match=f"^{expected}$"):
                    AdjacencyMatrix(order, tuple(rows))


def test_chromatic_trivial():
    assert exact_chromatic_number(complete(4)) == 4
    assert exact_chromatic_number(from_spec(4, 1, 0)) == 4  # same graph, built from a spec
    assert exact_chromatic_number(empty(10)) == 1
    assert exact_chromatic_number(empty(0)) == 0


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
        exact_chromatic_number(empty(121))


def test_independence_cap():
    with pytest.raises(TooLarge):
        exact_independence_number(empty(501))
    with pytest.raises(TooLarge):
        AdjacencyMatrix.from_graph_spec(GraphSpec(12, 5, 2))  # 792 vertices
    # budgets leave the cap at 500, above the chi solver's 120
    assert exact_independence_number(empty(200), SolveLimits(max_nodes=10)) == 200


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


def test_from_graph_spec_matches_pairwise_definition():
    # the bit-parallel rows against |a ∩ b| = s pair by pair, on every spec
    # with n <= 15 and C(n, r) <= 500, up to the matrix cap
    cases = 0
    for n in range(1, 16):
        for r in range(1, n + 1):
            if vertex_count(GraphSpec(n, r, 0)) > 500:
                continue
            sets = masks(vertices(GraphSpec(n, r, 0)))
            meet = [[(a & b).bit_count() for b in sets] for a in sets]
            for s in range(r):
                rows = tuple(sum(1 << j for j, t in enumerate(row) if t == s) for row in meet)
                assert AdjacencyMatrix.from_graph_spec(GraphSpec(n, r, s)).rows == rows, (n, r, s)
                cases += 1
    assert cases == 514


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
    assert exact_independence_number(complete(6)) == 1
    assert exact_independence_number(empty(7)) == 7
    assert exact_independence_number(empty(0)) == 0


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
    assert greedy_coloring(complete(6)) == 6
    assert greedy_coloring(empty(4)) == 1
    assert greedy_coloring(empty(0)) == 0
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


def test_solve_workload_node_count_pinned():
    # the library path on a matrix, so DSATUR alone: exact chi -n 11 -r 2 -s 0
    # has no construction seed, and the search refutes 8-colorings in 218,131
    # nodes (the CLI, which passes the spec, stops at 7,680; see
    # test_ascent_node_counts_pinned). Before the walk pruned branches
    # that use as many colors as the live incumbent it took 224,186, the
    # count of both the per-neighbor search and the bit-parallel kernel
    spec = canonical(GraphSpec(11, 2, 0))
    assert best_construction(spec) is None
    g = AdjacencyMatrix.from_graph_spec(spec)
    limits = lambda nodes: SolveLimits(max_nodes=nodes, time_budget=1e9)  # noqa: E731
    assert exact_chromatic_number(g, limits(218130)) == Exhausted(lower=6, upper=9)
    assert exact_chromatic_number(g, limits(218131)) == 9


def test_root_orbit_search_matches_plain_search(monkeypatch):
    # the window of test_from_graph_spec_matches_edge_stream; the chi
    # searches share a node budget, and their alpha probes set the lower
    # side, so a probe that differs shows as a different result. The
    # ascent is switched off, so the spec's symmetry reaches chi only through its probe
    monkeypatch.setattr(exact, "_ascent", lambda *args: iter(()))
    limits = SolveLimits(max_nodes=1000, time_budget=1e9)
    cases = 0
    for n in range(1, 15):
        for r in range(1, n + 1):
            if vertex_count(GraphSpec(n, r, 0)) > 84:
                continue
            for s in range(r):
                spec = GraphSpec(n, r, s)
                g = AdjacencyMatrix.from_graph_spec(spec)
                alpha = exact_independence_number(g)
                assert exact_independence_number(spec) == alpha, spec
                chi = exact_chromatic_number(g, limits)
                assert exact_chromatic_number(spec, limits) == chi, spec
                cases += 1
    assert cases == 322


def test_root_orbits_cut_the_alpha_search():
    # the plain search visits 70,566 nodes on G(10, 4, 2), the orbit search
    # 306, and 712 when it keeps each orbit after branching on it
    spec = GraphSpec(10, 4, 2)
    g = AdjacencyMatrix.from_graph_spec(spec)
    limits = lambda nodes: SolveLimits(max_nodes=nodes, time_budget=1e9)  # noqa: E731
    assert isinstance(exact_independence_number(g, limits(500)), Exhausted)
    assert exact_independence_number(spec, limits(305)) == Exhausted(lower=12)
    assert exact_independence_number(spec, limits(306)) == 12


def test_root_orbits_are_the_stabilizer_orbits():
    # brute force: apply every permutation of the ground set that fixes
    # vertex 0 = {0, ..., r - 1} to each of its non-neighbors; the solver
    # derives its root orbits from the spec's vertex masks
    for n in range(1, 7):
        for r in range(1, n + 1):
            for s in range(r):
                spec = GraphSpec(n, r, s)
                verts = vertices(spec)
                index = {v: k for k, v in enumerate(verts)}
                root = set(verts[0])
                fixing = [p for p in permutations(range(n)) if {p[x] for x in root} == root]
                orbits = {
                    sum(1 << k for k in {index[tuple(sorted(p[x] for x in v))] for p in fixing})
                    for v in verts[1:]
                    if len(root & set(v)) != s
                }
                got = exact._root_orbits(spec, masks(verts))
                assert sorted(got) == sorted(orbits), spec
                meet = [len(root & set(verts[(m & -m).bit_length() - 1])) for m in got]
                assert meet == sorted(set(meet)), spec  # ascending t


def test_certificate_rechecks_raise(monkeypatch):
    # raised explicitly, so they also run under python -O
    monkeypatch.setattr(exact, "_proper", lambda g, assign, k: False)
    with pytest.raises(InternalContradiction):
        exact_chromatic_number(from_spec(5, 3, 2))
    monkeypatch.setattr(exact, "_independent", lambda g, mask: False)
    with pytest.raises(InternalContradiction):
        exact_independence_number(from_spec(5, 3, 2))


def test_early_exit_rechecks_the_incumbent(monkeypatch):
    # when the bounds meet before any search, the answer still passes the
    # one exit: an improper incumbent or a lower bound above it is caught
    cycle5 = AdjacencyMatrix(5, tuple(1 << (v + 1) % 5 | 1 << (v - 1) % 5 for v in range(5)))
    monkeypatch.setattr(exact, "_dsatur_assignment", lambda label, rows: [v % 3 for v in range(len(rows))])
    with pytest.raises(InternalContradiction, match="not a proper 3-coloring"):
        exact_chromatic_number(complete(4))  # clique 4, incumbent 3
    monkeypatch.setattr(exact, "_dsatur_assignment", lambda label, rows: [v % 2 for v in range(len(rows))])
    with pytest.raises(InternalContradiction, match="not a proper 2-coloring"):
        exact_chromatic_number(cycle5)  # ceil(5 / 2) = 3, incumbent 2
    monkeypatch.undo()
    monkeypatch.setattr(exact, "_greedy_clique", lambda g: list(range(g.order + 1)))
    with pytest.raises(InternalContradiction, match="lower bound 5 exceeds a proper 4-coloring"):
        exact_chromatic_number(complete(4))


@st.composite
def colored_graphs(draw):
    # any symmetric graph on up to 12 vertices, regular or not, with k from
    # 1 and colors that mostly lie in 0..k-1 but may be negative or >= k
    n = draw(st.integers(0, 12))
    pairs = list(combinations(range(n), 2))
    edges = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    rows = [0] * n
    for (v, w), edge in zip(pairs, edges):
        if edge:
            rows[v] |= 1 << w
            rows[w] |= 1 << v
    k = draw(st.integers(1, 5))
    colors = st.integers(0, k - 1) | st.integers(-2, k + 2)
    return AdjacencyMatrix(n, tuple(rows)), draw(st.lists(colors, min_size=n, max_size=n)), k


@settings(max_examples=400, deadline=None)
@given(colored_graphs())
@example((complete(3), [0, 1, 2], 1))  # colors >= k
@example((complete(2), [0, 0], 1))  # k = 1 on an edge
@example((empty(3), [0, 0, 0], 1))  # k = 1 with no edge
@example((empty(2), [0, -1], 2))  # a negative color
def test_proper_matches_pairwise_reference(case):
    g, assign, k = case
    assert exact._proper(g, assign, k) == pairwise_proper(g, assign, k)


def test_proper_matches_pairwise_reference_on_irregular_graphs():
    rng = random.Random(24)
    for name, g in IRREGULAR.items():
        label, _, rows = exact._by_degree(g.rows)
        greedy = exact._dsatur_assignment(label, rows)
        k = max(greedy) + 1
        assert exact._proper(g, greedy, k) and pairwise_proper(g, greedy, k), name
        assert not exact._proper(g, greedy, k - 1), name
        assert not exact._proper(g, greedy[:-1], k), name  # one vertex short
        for _ in range(50):
            assign = [rng.randrange(k) for _ in range(g.order)]
            assert exact._proper(g, assign, k) == pairwise_proper(g, assign, k), name


def complement_rows(g):
    full = (1 << g.order) - 1
    return [~row & full ^ 1 << v for v, row in enumerate(g.rows)]


def test_by_degree_is_the_identity_on_specs():
    # every G(n, r, s) is regular, and so is its complement: the order by
    # descending degree is the identity and the rows come back as they
    # are. r <= n / 2 covers every spec up to canonical's isomorphism
    cases = 0
    for n in range(2, 121):
        for r in range(1, n // 2 + 1):
            if math.comb(n, r) > 120:
                break
            for s in range(r):
                g = from_spec(n, r, s)
                for rows in (list(g.rows), complement_rows(g)):
                    label, pos, got = exact._by_degree(rows)
                    assert list(label) == list(pos) == list(range(g.order)), (n, r, s)
                    assert got == rows, (n, r, s)
                cases += 1
    assert cases == 164


def test_by_degree_matches_bit_by_bit_relabel_on_irregular_graphs():
    for name, g in IRREGULAR.items():
        for rows in (list(g.rows), complement_rows(g)):
            label, pos, got = exact._by_degree(rows)
            assert (list(label), list(pos), got) == relabel_by_degree(rows), name
            assert list(label) != list(range(g.order)), name


def test_regular_solves_never_relabel(capsys, monkeypatch):
    def refuse(mask, pos):
        raise AssertionError("a regular graph was relabeled")

    monkeypatch.setattr(exact, "_relabel", refuse)
    assert cli.main(["exact", "chi", "-n", "11", "-r", "2", "-s", "0", "--format", "text"]) == 0
    assert capsys.readouterr().out == "chi(G(11, 2, 0)) = 9\n"
    assert cli.main(["exact", "alpha", "-n", "10", "-r", "4", "-s", "2", "--format", "text"]) == 0
    assert capsys.readouterr().out == "alpha(G(10, 4, 2)) = 12\n"


def test_spec_solves_build_one_matrix(monkeypatch):
    # a solve on a spec builds its rows once, and exact chi hands its alpha
    # probe the root orbits of that one build
    calls = dict.fromkeys(["from_graph_spec", "_alpha"], 0)
    build, search = AdjacencyMatrix.from_graph_spec, exact._alpha

    def counted_build(spec):
        calls["from_graph_spec"] += 1
        return build(spec)

    def counted_search(*args):
        calls["_alpha"] += 1
        return search(*args)

    monkeypatch.setattr(AdjacencyMatrix, "from_graph_spec", staticmethod(counted_build))
    monkeypatch.setattr(exact, "_alpha", counted_search)
    for spec, chi, alpha in [(GraphSpec(11, 2, 0), 9, 10), (GraphSpec(9, 3, 2), 7, 12)]:
        assert exact_chromatic_number(spec) == chi
        assert calls == {"from_graph_spec": 1, "_alpha": 1}, spec  # the probe ran, on the one build
        assert exact_independence_number(spec) == alpha
        assert calls == {"from_graph_spec": 2, "_alpha": 2}, spec
        calls.update(dict.fromkeys(calls, 0))


def masks(verts):
    return [sum(1 << x for x in v) for v in verts]


def ascend(spec, k, max_nodes):
    # runs the ascent alone from k; (lower, coloring or None, nodes at each refutation)
    g = AdjacencyMatrix.from_graph_spec(spec)
    alpha = exact_independence_number(g)
    lower, found, refuted = k, None, {}
    for lower, nodes, found in exact._ascent(g.rows, masks(vertices(spec)), alpha, k, max_nodes):
        if lower > k:
            refuted.setdefault(lower - 1, nodes)
    return lower, found, refuted


def test_ascent_never_passes_chi():
    # the decision oracle: from k = 1 every refuted k lies below chi, which
    # the seeded plain search proves, and a coloring found is a proper
    # chi-coloring; every spec with 2 <= r <= n - 1 and C(n, r) <= 56
    cases = found = 0
    for n in range(2, 15):
        for r in range(2, n):
            if vertex_count(GraphSpec(n, r, 0)) > 56:
                continue
            for s in range(r):
                spec = canonical(GraphSpec(n, r, s))
                g = AdjacencyMatrix.from_graph_spec(spec)
                seed = best_construction(spec)
                chi = exact_chromatic_number(g, initial=None if seed is None else seed.labels)
                assert not isinstance(chi, Exhausted), (n, r, s)
                lower, coloring, _ = ascend(spec, 1, 20_000)
                assert lower <= chi, (n, r, s)
                if coloring is not None:
                    assert lower == chi and brute_proper(g, coloring, chi), (n, r, s)
                    found += 1
                cases += 1
    assert (cases, found) == (166, 158)


def brute_proper(g, coloring, k):
    pairs = ((v, w) for v in range(g.order) for w in range(g.order) if g.rows[v] >> w & 1)
    return all(coloring[v] != coloring[w] for v, w in pairs) and set(coloring) == set(range(k))


def test_ascent_meets_lovasz():
    # chi(G(n, r, 0)) = n - 2r + 2: refuted below it, a coloring found at it
    for n, r in [(5, 2), (6, 2), (7, 2), (8, 2), (9, 2), (10, 2), (6, 3), (7, 3), (8, 3), (8, 4)]:
        spec = GraphSpec(n, r, 0)
        lower, coloring, _ = ascend(spec, 1, 200_000)
        assert lower == n - 2 * r + 2, (n, r)
        assert brute_proper(AdjacencyMatrix.from_graph_spec(spec), coloring, lower), (n, r)


def test_ascent_agrees_with_plain_search():
    # the window of test_root_orbit_search_matches_plain_search at one node
    # budget: on the spec the interval lies inside the plain one, and where
    # both resolve they agree. 11 intervals narrow, among them G(8, 3, 2),
    # G(9, 3, 2), G(9, 6, 5) and G(10, 2, 0), which resolve
    limits = SolveLimits(max_nodes=3000, time_budget=1e9)
    cases = narrower = 0
    for n in range(1, 15):
        for r in range(1, n + 1):
            if vertex_count(GraphSpec(n, r, 0)) > 84:
                continue
            for s in range(r):
                spec = GraphSpec(n, r, s)
                g = AdjacencyMatrix.from_graph_spec(spec)
                plain = exact_chromatic_number(g, limits)
                symmetric = exact_chromatic_number(spec, limits)
                lo, hi = (plain, plain) if isinstance(plain, int) else (plain.lower, plain.upper)
                if isinstance(symmetric, int):
                    assert lo <= symmetric <= hi, spec
                else:
                    assert lo <= symmetric.lower and symmetric.upper <= hi, spec
                    assert not isinstance(plain, int), spec
                narrower += symmetric != plain
                cases += 1
    assert (cases, narrower) == (322, 11)


def test_ascent_node_counts_pinned():
    # exact chi -n 11 -r 2 -s 0 as the CLI runs it: the ascent refutes 6, 7
    # and 8 at 62, 1,038 and 7,006 of its own nodes; DSATUR, which alone
    # needs 218,131, stops at its poll at 7,680, when the bounds meet
    spec = GraphSpec(11, 2, 0)
    assert ascend(spec, 6, 10**6)[2] == {6: 62, 7: 1038, 8: 7006}
    limits = lambda nodes: SolveLimits(max_nodes=nodes, time_budget=1e9)  # noqa: E731
    assert exact_chromatic_number(spec, limits(7679)) == Exhausted(lower=8, upper=9)
    assert exact_chromatic_number(spec, limits(7680)) == 9


def cyclic_garbage(call):
    """The objects that call leaves for the cycle collector; 0 when reference counts free all."""
    gc.collect()
    gc.disable()
    try:
        call()
        return gc.collect()
    finally:
        gc.enable()


def test_solver_calls_leave_no_cyclic_garbage(capsys):
    # the recursive closures and the ascent's generators call themselves;
    # every return path unbinds them, so a finished call's rows, sets and
    # tables go at once instead of at the next full collection
    spec = GraphSpec(11, 2, 0)
    budget = SolveLimits(max_nodes=1000, time_budget=1e9)
    small = AdjacencyMatrix.from_graph_spec(GraphSpec(8, 2, 0))  # searched, not settled by its bounds
    calls = {
        "chi on a spec": lambda: exact_chromatic_number(spec),
        "chi on a budget": lambda: exact_chromatic_number(spec, budget),
        "chi, DSATUR alone": lambda: exact_chromatic_number(small),
        "alpha on a spec": lambda: exact_independence_number(spec),
        "alpha on a budget": lambda: exact_independence_number(spec, SolveLimits(max_nodes=3)),
        "ascent to a coloring": lambda: ascend(GraphSpec(7, 2, 0), 3, 10**6),
        "theorem1 and verify": lambda: verify_proper(GraphSpec(9, 3, 2), color_theorem1(9)),
    }
    assert isinstance(calls["chi on a budget"](), Exhausted)
    assert isinstance(calls["alpha on a budget"](), Exhausted)
    lower, found, _ = calls["ascent to a coloring"]()
    assert lower == 5 and found is not None
    for name, call in calls.items():
        assert cyclic_garbage(call) == 0, name
    # and through the CLI, once its parser is built
    main = lambda: cli.main(["exact", "chi", "-n", "11", "-r", "2", "-s", "0"])  # noqa: E731
    main()
    assert cyclic_garbage(main) == 0
    capsys.readouterr()


@pytest.mark.parametrize("n", [10, 11, 12, 13])
def test_cli_kneser_chi_is_lovasz(capsys, n):
    assert cli.main(["exact", "chi", "-n", str(n), "-r", "2", "-s", "0", "--format", "text"]) == 0
    assert capsys.readouterr().out == f"chi(G({n}, 2, 0)) = {n - 2}\n"
