"""Tests for circles, the pair functions, and all four colorings."""

import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distcolor import colorings
from distcolor.colorings import (
    Circle,
    Coloring,
    Method,
    Violation,
    best_construction,
    bipartition_circles,
    circle_graph,
    color_bose_chowla,
    color_sum,
    color_symmetric,
    color_theorem1,
    f_select,
    verify_proper,
)
from distcolor.distgraph import GraphSpec, is_edge, neighbors, rank, vertex_count, vertices
from distcolor.errors import (
    BadInput,
    IncompleteColoring,
    InternalContradiction,
    InvalidPrime,
    NotPrime,
    OddCycle,
    TooLarge,
    UnsupportedN,
)
from distcolor.numtheory import _order, check_t1_condition, next_prime, primes_in_class, theorem1_prime
from reference import circle


def odd_primes_to(limit):
    return [p for p in primes_in_class(limit, 0, 1) if p > 3]


def test_circle_worked_example():
    c = circle(7, 1, 5)
    assert c == Circle(parameter=1, points=(2, 5, 3))
    assert circle(7, 1, 2) == c
    assert circle(7, 1, 3) == c


def test_circle_rejects_fixed_point():
    with pytest.raises(BadInput):
        circle(7, 4, 4)


def test_circle_length_is_order_of_two():
    for i in range(11):
        for j in range(11):
            if i != j:
                assert len(circle(11, i, j).points) == _order(2, 11)


def test_circle_closed_form():
    # orbit points satisfy j_m = (j + (2^m - 1) i) / 2^m
    for p in (7, 11, 13):
        inv2 = pow(2, -1, p)
        for i in (0, 1, p - 1):
            for j in range(p):
                if j == i:
                    continue
                pts = circle(p, i, j).points
                k = len(pts)
                start = pts.index(j)
                power, inv_power = 1, 1
                for m in range(1, k + 1):
                    power = power * 2 % p
                    inv_power = inv_power * inv2 % p
                    expected = (j + (power - 1) * i) * inv_power % p
                    assert expected == pts[(start + m) % k]


def test_circle_graph_p7():
    g = circle_graph(7)
    assert len(g.circles) == 14
    assert all(sum(k in e for e in g.edges) == 3 for k in range(len(g.circles)))
    assert len(g.edges) == 21


def test_circle_graph_p11():
    g = circle_graph(11)
    assert len(g.circles) == 11  # order of 2 mod 11 is 10
    assert len(g.edges) == 55


def brute_circle_graph(p):
    """The circle graph straight from the definition: one ``circle`` per (i, j)."""
    circles = {circle(p, i, j) for i in range(p) for j in range(p) if j != i}
    circles = sorted(circles, key=lambda c: (c.parameter, c.points[0]))
    index = {(c.parameter, t): k for k, c in enumerate(circles) for t in c.points}
    edges = {tuple(sorted((index[i, j], index[j, i]))) for i in range(p) for j in range(i + 1, p)}
    return tuple(circles), tuple(sorted(edges))


def test_circle_graph_matches_the_definition():
    for p in odd_primes_to(199):
        g = circle_graph(p)
        assert all(c == circle(p, c.parameter, c.points[0]) for c in g.circles), p
        if p <= 50:
            assert (g.circles, g.edges) == brute_circle_graph(p), p


def test_coset_builds_do_not_walk_circles():
    assert not hasattr(colorings, "circle")  # the one-circle walk lives in the tests only
    assert len(circle_graph(23).circles) == 23 * 22 // 11  # order of 2 mod 23 is 11
    assert color_theorem1(25).palette_bound == 23


def test_circle_builds_reject_non_primes():
    for build in (lambda: circle(9, 1, 2), lambda: circle_graph(9), lambda: bipartition_circles(3)):
        with pytest.raises(InvalidPrime, match="need a prime p > 3"):
            build()


def test_circle_graph_index_is_flat():
    tracemalloc.start()
    g = circle_graph(199)
    retained, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert len(g.edges) == 199 * 198 // 2
    assert peak <= 1.6 * retained


@pytest.mark.parametrize("damage", ["dropped point", "repeated coset"])
def test_circle_graph_rejects_a_broken_coset_table(monkeypatch, damage):
    cosets_of_2 = colorings._cosets_of_2

    def broken(p):
        cosets = cosets_of_2(p)
        if damage == "dropped point":
            cosets[1].remove(10)  # no circle of parameter i passes through i + 10
        else:
            cosets.append(cosets[0])
        return cosets

    monkeypatch.setattr(colorings, "_cosets_of_2", broken)
    with pytest.raises(InternalContradiction, match="do not split Z_p"):
        circle_graph(23)


def test_circles_partition_per_parameter():
    for p in (7, 11):
        g = circle_graph(p)
        for i in range(p):
            points = [pt for c in g.circles if c.parameter == i for pt in c.points]
            assert sorted(points) == [x for x in range(p) if x != i]


def test_bipartition_valid():
    for p in (7, 23):
        bip = bipartition_circles(p)
        assert set(bip.classes) <= {1, 2}
        for v, w in bip.graph.edges:
            assert bip.classes[v] != bip.classes[w]


def test_bipartition_odd_cycle_when_condition_fails():
    # p = 5 violates the precondition (2^2 = -1); the graph is K5
    failing = [p for p in odd_primes_to(199) if not check_t1_condition(p).condition_holds]
    assert failing[:3] == [5, 11, 13] and len(failing) == 30
    for p in failing:
        with pytest.raises(OddCycle, match=f"odd cycle in the circle graph mod {p}$"):
            bipartition_circles(p)


def test_bipartition_deterministic():
    assert bipartition_circles(23).classes == bipartition_circles(23).classes


def test_f_select_pair_properties():
    for p in (7, 23):
        bip = bipartition_circles(p)
        inv2 = pow(2, -1, p)
        for x in range(p):
            for y in range(p):
                if x == y:
                    continue
                f1 = f_select(bip, 1, x, y)
                f2 = f_select(bip, 2, x, y)
                assert {f1, f2} == {x, y}
                assert f1 == f_select(bip, 1, y, x)
                assert f2 == f_select(bip, 2, y, x)
                mid = (x + y) * inv2 % p
                for index in (1, 2):
                    if f_select(bip, index, x, y) == x:
                        assert f_select(bip, index, mid, x) != mid
    with pytest.raises(BadInput):
        f_select(bip, 1, 3, 3)
    with pytest.raises(BadInput):
        f_select(bip, 3, 1, 2)


def test_color_theorem1_n9():
    col = color_theorem1(9)
    assert col.spec == GraphSpec(9, 3, 2)
    assert col.method is Method.THEOREM1
    assert col.palette_bound == 7
    assert col.colors_used <= 7
    assert verify_proper(col.spec, col) is None


def test_color_theorem1_n8():
    col = color_theorem1(8)
    assert col.palette_bound == 7
    assert col.colors_used <= 7
    assert verify_proper(col.spec, col) is None


def test_color_theorem1_unsupported():
    with pytest.raises(UnsupportedN):
        color_theorem1(7)  # 5 fails the condition, 6 is composite


def test_best_construction_picks_smallest_palette():
    cases = [
        ((9, 3, 2), Method.THEOREM1, 7),  # theorem1 7 beats sum 9
        ((8, 3, 2), Method.THEOREM1, 7),
        ((7, 3, 2), Method.SUM_MOD_N, 7),  # tie with bose-chowla 7 goes to sum
        ((9, 2, 1), Method.SUM_MOD_N, 9),
        ((11, 4, 2), Method.BOSE_CHOWLA, 120),  # 11^2 - 1 < C(11, 4)
    ]
    for (n, r, s), method, palette in cases:
        spec = GraphSpec(n, r, s)
        col = best_construction(spec)
        assert (col.spec, col.method, col.palette_bound) == (spec, method, palette)
        # renumbered 0..k-1 in order of first appearance
        first = list(dict.fromkeys(col.labels))
        assert first == list(range(col.colors_used))
        assert verify_proper(spec, col) is None
    assert best_construction(GraphSpec(10, 2, 0)) is None  # nothing applies
    assert best_construction(GraphSpec(5, 4, 3)) is None  # palette 5 is not below C(5, 4)
    assert best_construction(GraphSpec(7, 3, 1)) is None  # 7^2 - 1 >= C(7, 3)


def test_color_theorem1_larger_prime():
    # p = 23, both ground-set sizes; exercises the stream verifier too
    col = color_theorem1(25)
    assert col.palette_bound == 23
    assert verify_proper(col.spec, col) is None
    col = color_theorem1(24)
    assert col.palette_bound == 23
    assert verify_proper(col.spec, col) is None


def test_color_theorem1_restriction_consistency():
    # the n = p + 1 coloring is the n = p + 2 coloring on triples
    # avoiding the top element
    big, small = color_theorem1(9), color_theorem1(8)
    spec9, spec8 = big.spec, small.spec
    for v in vertices(spec8):
        assert small.labels[rank(spec8, v)] == big.labels[rank(spec9, v)]


def test_color_theorem1_case_classes():
    # one adjacent pair from every class combination gets distinct colors
    col = color_theorem1(9)
    spec = col.spec
    pairs = [
        ((0, 1, 2), (0, 1, 3)),  # V0 - V0
        ((0, 7, 8), (1, 7, 8)),  # V2 - V2
        ((0, 1, 7), (0, 7, 8)),  # W1 - V2
        ((0, 1, 8), (0, 7, 8)),  # W2 - V2
        ((0, 1, 7), (0, 1, 2)),  # W1 - V0
        ((0, 1, 8), (0, 1, 2)),  # W2 - V0
        ((0, 1, 7), (0, 1, 8)),  # W1 - W2
        ((0, 1, 7), (0, 2, 7)),  # W1 - W1
        ((0, 1, 8), (0, 2, 8)),  # W2 - W2
    ]
    for u, v in pairs:
        assert is_edge(spec, u, v)
        assert col.labels[rank(spec, u)] != col.labels[rank(spec, v)]


def test_color_sum():
    col = color_sum(5, 3)
    spec = col.spec
    assert col.labels[rank(spec, (0, 1, 2))] == 3
    assert col.palette_bound == 5
    assert verify_proper(spec, col) is None
    col = color_sum(12, 5)
    assert col.colors_used <= 12
    assert verify_proper(col.spec, col) is None


def theorem1_per_triple(n):
    """color_theorem1's labels by its three rules, one triple of vertices() at a time."""
    p = theorem1_prime(n)
    sides = colorings._circle_sides(p)
    labels = []
    for x1, x2, x3 in vertices(GraphSpec(n, 3, 2)):
        if x3 < p:
            c = x1 + x2 + x3
        elif x2 >= p:
            c = 3 * x1
        else:
            c = x1 + x2 + colorings._f(sides[x2 - x1], 1 if x3 == p else 2, x1, x2)
        labels.append(c % p)
    return tuple(labels)


def test_color_theorem1_blocks_match_per_triple_rules():
    # every n up to 120 with a qualifying prime, at p = n - 2 and at p = n - 1
    offsets = set()
    for n in range(5, 121):
        p = theorem1_prime(n)
        if p is None:
            continue
        offsets.add(n - p)
        col = color_theorem1(n)
        assert col.labels == theorem1_per_triple(n)
        # the ranks below C(p, 3) are the triples inside Z_p: the sum coloring of G(p, 3, 2)
        assert col.labels[: math.comb(p, 3)] == color_sum(p, 3).labels
    assert offsets == {1, 2}


def test_color_sum_blocks_match_vertex_sums():
    for n in range(1, 15):
        for r in range(1, n + 1):
            col = color_sum(n, r)
            assert col.labels == tuple(sum(v) % n for v in vertices(col.spec))


def test_color_symmetric():
    col = color_symmetric(5, 3, 1)
    spec = col.spec
    # {1, 2, 3}: sigma1 = 6 = 1, sigma2 = 11 = 1, label = 1 * 5 + 1
    assert col.labels[rank(spec, (1, 2, 3))] == 6
    assert col.palette_bound == 25
    assert verify_proper(spec, col) is None
    with pytest.raises(NotPrime):
        color_symmetric(6, 3, 1)


def test_color_bose_chowla():
    col = color_bose_chowla(5, 3, 1)
    assert col.palette_bound == 24
    assert verify_proper(col.spec, col) is None
    col = color_bose_chowla(7, 4, 2)
    assert col.palette_bound == 48
    assert verify_proper(col.spec, col) is None
    with pytest.raises(NotPrime):
        color_bose_chowla(6, 3, 1)


def test_color_bose_chowla_h1_fallback():
    col = color_bose_chowla(5, 3, 2)
    assert col.palette_bound == 5
    assert col.labels == color_sum(5, 3).labels
    assert verify_proper(col.spec, col) is None
    # the n weights are not materialized before the vertex cap refuses the spec
    tracemalloc.start()
    with pytest.raises(TooLarge):
        color_bose_chowla(next_prime(2 * 10**6), 2, 1)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 10**6


def test_color_bose_chowla_caps_before_the_bh_set(monkeypatch):
    # C(1021, 3) vertices are past the cap; the B_h set mod 1021^2 - 1 alone takes most of a second
    def build(q, h):
        raise AssertionError("bose_chowla_set() called")

    monkeypatch.setattr(colorings, "bose_chowla_set", build)
    with pytest.raises(TooLarge):
        color_bose_chowla(1021, 3, 1)


def test_bose_chowla_classes_intersect_below_s():
    col = color_bose_chowla(5, 3, 1)
    verts = vertices(col.spec)
    for a in range(len(verts)):
        for b in range(a + 1, len(verts)):
            if col.labels[a] == col.labels[b]:
                assert len(set(verts[a]) & set(verts[b])) < 1


def test_prime_colorings_both_families():
    for n in (5, 7):
        for r in range(2, 5):
            for s in range(r):
                for build in (color_symmetric, color_bose_chowla):
                    col = build(n, r, s)
                    assert col.colors_used <= n ** (r - s)
                    assert verify_proper(col.spec, col) is None


def test_coloring_validation():
    spec = GraphSpec(4, 2, 1)
    with pytest.raises(IncompleteColoring):
        Coloring(spec, (0, 0, 0), Method.SUM_MOD_N, 4)
    with pytest.raises(BadInput):
        Coloring(spec, (0,) * 5 + (9,), Method.SUM_MOD_N, 4)
    # JSON true/false are not colors, alone or among valid labels
    with pytest.raises(BadInput):
        Coloring(spec, (True,) * 6, Method.SUM_MOD_N, 4)
    with pytest.raises(BadInput):
        Coloring(spec, (0, 1, 2, 3, 0, True), Method.SUM_MOD_N, 4)


def test_verify_proper_finds_first_violation():
    spec = GraphSpec(4, 2, 1)
    constant = Coloring(spec, (0,) * vertex_count(spec), Method.SUM_MOD_N, 1)
    violation = verify_proper(spec, constant)
    assert isinstance(violation, Violation)
    # oracle: first adjacent pair in (rank, rank) order
    verts = vertices(spec)
    first = next(
        (verts[a], verts[b])
        for a in range(len(verts))
        for b in range(a + 1, len(verts))
        if is_edge(spec, verts[a], verts[b])
    )
    assert (violation.u, violation.v) == first
    assert violation.shared_color == 0
    assert is_edge(spec, violation.u, violation.v)


def test_verify_proper_spec_mismatch():
    col = color_sum(5, 3)
    with pytest.raises(BadInput):
        verify_proper(GraphSpec(6, 3, 2), col)


def pairwise_first_violation(spec, labels):
    """Brute-force oracle: the first adjacent same-label pair in (rank, rank) order."""
    verts = vertices(spec)
    return next(
        (
            Violation(verts[a], verts[b], labels[a])
            for a in range(len(verts))
            for b in range(a + 1, len(verts))
            if labels[a] == labels[b] and is_edge(spec, verts[a], verts[b])
        ),
        None,
    )


def constructions(spec):
    """Every construction that builds a coloring of spec."""
    n, r, s = spec.n, spec.r, spec.s
    if s == r - 1:
        yield color_sum(n, r)
    if (r, s) == (3, 2):
        try:
            yield color_theorem1(n)
        except UnsupportedN:
            pass
    # larger GF(n^(r-s)) builds only cost time: every such spec has V <= 7
    if n in (2, 3, 5, 7) and n ** (r - s) <= 7**5:
        yield color_symmetric(n, r, s)
        yield color_bose_chowla(n, r, s)


def test_verify_proper_matches_pairwise_oracle():
    for n in range(1, 10):
        for r in range(1, n + 1):
            for s in range(r):
                spec = GraphSpec(n, r, s)
                count = vertex_count(spec)
                rng = random.Random(100 * n + 10 * r + s)
                identity = Coloring(spec, tuple(range(count)), Method.SUM_MOD_N, count)
                two_color = tuple(rng.randrange(2) for _ in range(count))
                cases = [
                    Coloring(spec, (0,) * count, Method.SUM_MOD_N, 1),
                    Coloring(spec, two_color, Method.SUM_MOD_N, 2),
                ]
                for proper in [identity, *constructions(spec)]:
                    assert verify_proper(spec, proper) is None
                    late = count - 1 - rng.randrange(min(count, 8))
                    nbrs = neighbors(spec, vertices(spec)[late])
                    if nbrs:
                        labels = list(proper.labels)
                        labels[late] = labels[rank(spec, rng.choice(nbrs))]
                        bound = proper.palette_bound
                        cases.append(Coloring(spec, tuple(labels), proper.method, bound))
                for col in cases:
                    assert verify_proper(spec, col) == pairwise_first_violation(spec, col.labels)
    # a larger s = r - 1 spec: C(25, 3) = 2300 vertices
    col = color_sum(25, 3)
    assert verify_proper(col.spec, col) is None
    constant = (0,) * vertex_count(col.spec)
    violation = verify_proper(col.spec, Coloring(col.spec, constant, Method.SUM_MOD_N, 1))
    assert violation == pairwise_first_violation(col.spec, constant)
    assert is_edge(col.spec, violation.u, violation.v)


@st.composite
def small_colorings(draw):
    n = draw(st.integers(1, 10))
    r = draw(st.integers(1, n))
    spec = GraphSpec(n, r, draw(st.integers(0, r - 1)))  # at most C(10, 5) = 252 vertices
    colors, count = draw(st.integers(1, 4)), vertex_count(spec)
    labels = draw(st.lists(st.integers(0, colors - 1), min_size=count, max_size=count))
    return Coloring(spec, tuple(labels), Method.SUM_MOD_N, colors)


@settings(deadline=None)
@given(small_colorings())
def test_verify_proper_property_matches_pairwise_oracle(col):
    assert verify_proper(col.spec, col) == pairwise_first_violation(col.spec, col.labels)


def test_palette_identity_all_methods():
    colorings = [
        color_theorem1(9),
        color_sum(8, 4),
        color_symmetric(7, 3, 1),
        color_bose_chowla(7, 3, 1),
    ]
    for col in colorings:
        assert col.colors_used <= col.palette_bound
        assert all(0 <= c < col.palette_bound for c in col.labels)


def test_circle_length_small_prime_window():
    # circle length matches the order of 2 across a small prime window
    for p in odd_primes_to(61):
        k = _order(2, p)
        seen = 0
        for i in (0, 1):
            for j in range(p):
                if j != i:
                    assert len(circle(p, i, j).points) == k
                    seen += 1
        assert seen == 2 * (p - 1)
