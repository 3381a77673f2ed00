"""Tests for vertex ranking and adjacency of G(n, r, s)."""

import math
from itertools import combinations, permutations

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from distcolor.distgraph import (
    GraphSpec,
    canonical,
    capped_vertex_count,
    degree,
    edge_count,
    edges,
    is_edge,
    neighbors,
    rank,
    root_orbits,
    unrank,
    vertex_count,
    vertices,
)
from distcolor.errors import BadInput, OutOfRange, TooLarge


def all_specs(n_max):
    for n in range(1, n_max + 1):
        for r in range(1, n + 1):
            for s in range(r):
                yield GraphSpec(n, r, s)


def test_spec_validation():
    GraphSpec(5, 3, 2)
    with pytest.raises(BadInput):
        GraphSpec(5, 3, 3)
    with pytest.raises(BadInput):
        GraphSpec(2, 3, 1)
    with pytest.raises(BadInput):
        GraphSpec(5, 0, 0)


def test_vertex_count():
    assert vertex_count(GraphSpec(9, 3, 2)) == 84
    assert vertex_count(GraphSpec(5, 3, 2)) == 10
    assert vertex_count(GraphSpec(6, 6, 2)) == 1


def test_rank_unrank_roundtrip():
    spec = GraphSpec(7, 3, 1)
    seen = set()
    for k in range(vertex_count(spec)):
        v = unrank(spec, k)
        assert rank(spec, v) == k
        seen.add(v)
    assert seen == set(combinations(range(7), 3))


@st.composite
def rank_cases(draw):
    n = draw(st.integers(1, 70))
    r = draw(st.integers(1, n))
    spec = GraphSpec(n, r, 0)
    v = tuple(sorted(draw(st.sets(st.integers(0, n - 1), min_size=r, max_size=r))))
    return spec, v, draw(st.integers(0, vertex_count(spec) - 1))


@given(rank_cases())
@example((GraphSpec(70, 35, 0), tuple(range(35, 70)), math.comb(70, 35) - 1))
@example((GraphSpec(67, 33, 0), tuple(range(0, 66, 2)), 2**63))
def test_rank_unrank_inverse_property(case):
    # n <= 60 keeps every rank below 2^63 (C(60, 30) < 1.2e17); n <= 70
    # reaches past it (C(67, 33) > 1.4e19), beyond any machine integer
    spec, v, k = case
    assert unrank(spec, rank(spec, v)) == v
    assert rank(spec, unrank(spec, k)) == k


def test_capped_vertex_count():
    for spec in all_specs(12):
        count = vertex_count(spec)
        for cap in (count - 1, count, count + 1):
            if count <= cap:
                assert capped_vertex_count(spec, cap) == count
            else:
                with pytest.raises(TooLarge, match=rf"^{count} vertices exceeds the"):
                    capped_vertex_count(spec, cap)
    # refused after about 84 partial products, never forming C(n, r) itself
    with pytest.raises(TooLarge, match=r"^C\(4000000, 2000000\) vertices exceeds the matrix"):
        capped_vertex_count(GraphSpec(4 * 10**6, 2 * 10**6, 0), 500, "matrix")
    huge_n = GraphSpec(10**4000, 2, 0)  # C(n, 2) has 8000 digits, too many to print
    with pytest.raises(TooLarge, match=r"^C\(1000"):
        capped_vertex_count(huge_n, 10**6)


def test_rank_extremes():
    for n, r in [(7, 3), (9, 4), (5, 5)]:
        spec = GraphSpec(n, r, 0)
        assert rank(spec, tuple(range(r))) == 0
        assert rank(spec, tuple(range(n - r, n))) == math.comb(n, r) - 1
    with pytest.raises(OutOfRange):
        unrank(GraphSpec(7, 3, 1), 35)
    with pytest.raises(BadInput):
        rank(GraphSpec(7, 3, 1), (0, 1))


def test_vertices_follow_rank_order():
    for spec in (GraphSpec(7, 3, 2), GraphSpec(6, 2, 1), GraphSpec(8, 4, 1)):
        assert vertices(spec) == [unrank(spec, k) for k in range(vertex_count(spec))]


def test_is_edge_examples():
    spec = GraphSpec(9, 3, 2)
    assert is_edge(spec, (0, 1, 2), (0, 1, 3))
    assert not is_edge(spec, (0, 1, 2), (0, 1, 2))
    assert is_edge(GraphSpec(5, 3, 1), (0, 1, 2), (0, 3, 4))


def test_adjacency_symmetric_irreflexive():
    for spec in all_specs(8):
        verts = vertices(spec)
        for u in verts:
            assert not is_edge(spec, u, u)
        for u, v in combinations(verts, 2):
            assert is_edge(spec, u, v) == is_edge(spec, v, u)


def test_degree_regularity():
    for spec in all_specs(8):
        verts = vertices(spec)
        expected = degree(spec)
        for v in verts:
            nbr = neighbors(spec, v)
            assert len(nbr) == len(set(nbr)) == expected
            # cross-check the generated neighborhood against is_edge
            assert set(nbr) == {u for u in verts if is_edge(spec, v, u)}


def test_edges_stream():
    spec = GraphSpec(5, 3, 2)
    stream = list(edges(spec))
    assert len(stream) == 30 == edge_count(spec)
    assert stream == sorted(stream)
    assert len(set(stream)) == 30
    verts = vertices(spec)
    for a, b in stream:
        assert a < b and is_edge(spec, verts[a], verts[b])
    # pairwise oracle: the stream covers exactly the adjacent pairs
    expected = {
        (a, b)
        for a in range(len(verts))
        for b in range(a + 1, len(verts))
        if is_edge(spec, verts[a], verts[b])
    }
    assert set(stream) == expected


def test_degree_example():
    assert degree(GraphSpec(9, 3, 2)) == 18


def test_complement_isomorphism():
    # complementing vertex sets maps G(5, 3, 2) onto G(5, 2, 1)
    big, small = GraphSpec(5, 3, 2), GraphSpec(5, 2, 1)
    ground = set(range(5))
    flip = lambda v: tuple(sorted(ground - set(v)))
    for u in vertices(big):
        for v in vertices(big):
            if u != v:
                assert is_edge(big, u, v) == is_edge(small, flip(u), flip(v))


def test_canonical_complement_isomorphism():
    assert canonical(GraphSpec(9, 7, 6)) == GraphSpec(9, 2, 1)
    assert canonical(GraphSpec(9, 2, 1)) == GraphSpec(9, 2, 1)
    assert canonical(GraphSpec(5, 4, 0)) == GraphSpec(5, 4, 0)  # edgeless, no image
    for spec in all_specs(8):
        image = canonical(spec)
        assert image.n == spec.n and image.r <= max(spec.r, spec.n - spec.r)
        if image == spec:
            assert spec.r <= spec.n - spec.r or edge_count(spec) == 0, spec
            continue
        assert image.r == spec.n - spec.r < spec.r and canonical(image) == image
        # complementing both ends preserves adjacency in both directions
        verts = vertices(spec)
        comp = [tuple(x for x in range(spec.n) if x not in v) for v in verts]
        for i, u in enumerate(verts):
            for j in range(i + 1, len(verts)):
                assert is_edge(spec, u, verts[j]) == is_edge(image, comp[i], comp[j]), spec



def test_root_orbits_are_the_stabilizer_orbits():
    # brute force: apply every permutation of the ground set that fixes
    # vertex 0 = {0, ..., r - 1} to each of its non-neighbors
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
                got = root_orbits(spec)
                assert sorted(got) == sorted(orbits), spec
                meet = [len(root & set(verts[(m & -m).bit_length() - 1])) for m in got]
                assert meet == sorted(set(meet)), spec  # ascending t
