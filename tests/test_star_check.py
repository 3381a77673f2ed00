"""The keyed star check of verify_proper against the per-core routine it replaced.

reference_first_star_conflict is that routine: it walks every (r-1)-core,
rebuilds the colex ranks of its star one element at a time and reports the
smallest same-label (rank, rank) pair of any star. verify_proper must name
the same first violation on every coloring, proper or not, for every run
size the keyed check may cut its incidences into.
"""

from __future__ import annotations

import math
import random
from itertools import combinations

import pytest

from distcolor import colorings
from distcolor.colorings import Coloring, Method, Violation, color_sum, color_theorem1, verify_proper
from distcolor.distgraph import GraphSpec, neighbors, rank, unrank, vertex_count, vertices


def reference_first_star_conflict(spec: GraphSpec, labels: tuple[int, ...]) -> tuple[int, int] | None:
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


def reference_violation(spec: GraphSpec, labels: tuple[int, ...]) -> Violation | None:
    pair = reference_first_star_conflict(spec, labels)
    if pair is None:
        return None
    return Violation(unrank(spec, pair[0]), unrank(spec, pair[1]), labels[pair[0]])


# run sizes: the shipped one (None), two that cut runs at assorted tops and
# one that splits every top down to the last level
RUN_SIZES = [None, 40, 7, 1]


def set_run_size(monkeypatch, size):
    if size is not None:
        monkeypatch.setattr(colorings, "_star_run_size", lambda n: size)


@pytest.fixture(params=RUN_SIZES, ids=lambda size: f"run-{size or 'shipped'}")
def run_size(request, monkeypatch):
    set_run_size(monkeypatch, request.param)


def relabeled(spec: GraphSpec, labels: list[int], times: int, rng: random.Random) -> tuple[int, ...]:
    """labels with ``times`` vertices each given the label of a random neighbor."""
    labels = list(labels)
    verts = vertices(spec)
    for _ in range(times):
        k = rng.randrange(len(labels))
        nbrs = neighbors(spec, verts[k])
        if nbrs:
            labels[k] = labels[rank(spec, rng.choice(nbrs))]
    return tuple(labels)


def star_specs(max_vertices: int, max_n: int):
    for n in range(1, max_n + 1):
        for r in range(1, n + 1):
            if math.comb(n, r) <= max_vertices:
                yield GraphSpec(n, r, r - 1)


def test_star_runs_cover_each_incidence_once(run_size):
    # every (core rank, vertex rank) pair once over all runs; floors ascend
    # and bound the ranks of their run
    for spec in star_specs(500, 12):
        n, r, mult = spec.n, spec.r, 3
        core_rank = (lambda c: rank(GraphSpec(n, r - 1, 0), c)) if r > 1 else (lambda c: 0)
        verts = vertices(spec)
        want = sorted((core_rank(c), k) for k, v in enumerate(verts) for c in combinations(v, r - 1))
        got, last = [], 0
        for floor, chunks in colorings._StarRuns(n, r, mult, colorings._star_run_size(n)):
            assert floor >= last
            last = floor
            for start, count, shift, arrays in chunks:
                for a in arrays:
                    for j in range(count):
                        key = (0 if a is None else a[j]) + shift
                        assert key % mult == 0 and start + j >= floor
                        got.append((key // mult, start + j))
        assert sorted(got) == want, spec


def test_star_check_matches_reference_on_relabels(monkeypatch):
    cases = []
    for spec in star_specs(2000, 22):
        count = vertex_count(spec)
        rng = random.Random(1000 * spec.n + spec.r)
        identity = Coloring(spec, tuple(range(count)), Method.SUM_MOD_N, count)
        for base in (identity, color_sum(spec.n, spec.r)):
            for times in (0, 1, 2, 40):
                labels = relabeled(spec, base.labels, times, rng)
                col = Coloring(spec, labels, base.method, base.palette_bound)
                cases.append((col, reference_violation(spec, labels)))
    assert sum(want is None for _, want in cases) > len(cases) // 5
    for size in RUN_SIZES:
        set_run_size(monkeypatch, size)
        for col, want in cases:
            # the finest cuts cost many Python steps per key, so only on small specs
            if size is None or size >= 40 or len(col.labels) <= 300:
                assert verify_proper(col.spec, col) == want, (col.spec, size)


def late_neighbor_label(spec: GraphSpec, labels: tuple[int, ...], seed: int) -> tuple[int, ...]:
    """One of the last 64 ranks takes the neighbor label whose earliest holder ranks highest."""
    count = len(labels)
    k = random.Random(seed).randrange(count - 64, count)
    first: dict[int, int] = {}
    for j in sorted(rank(spec, w) for w in neighbors(spec, unrank(spec, k))):
        first.setdefault(labels[j], j)
    out = list(labels)
    out[k] = max(first, key=lambda c: (first[c], -c))
    return tuple(out)


@pytest.mark.parametrize("n", [33, 49])
def test_star_check_matches_reference_on_theorem1_corruptions(n):
    col = color_theorem1(n)
    assert verify_proper(col.spec, col) is None
    assert reference_first_star_conflict(col.spec, col.labels) is None
    for seed in range(21):
        labels = late_neighbor_label(col.spec, col.labels, seed)
        bad = Coloring(col.spec, labels, col.method, col.palette_bound)
        violation = verify_proper(col.spec, bad)
        assert violation is not None and violation == reference_violation(col.spec, labels), seed


def test_star_check_one_star_and_one_vertex(run_size):
    # r = 1: every vertex holds the empty core, so all labels must differ
    for n in (1, 2, 5, 300):
        spec = GraphSpec(n, 1, 0)
        assert verify_proper(spec, Coloring(spec, tuple(range(n)), Method.SUM_MOD_N, n)) is None
        for a, b in [(0, n - 1), (n // 2, n - 1), (1, 2)]:
            if a < b < n:
                labels = list(range(n))
                labels[b] = labels[a]
                col = Coloring(spec, tuple(labels), Method.SUM_MOD_N, n)
                assert verify_proper(spec, col) == reference_violation(spec, col.labels)
                assert (verify_proper(spec, col).u, verify_proper(spec, col).v) == ((a,), (b,))
    # r = n: one vertex and no edges
    for n in (1, 4, 40):
        spec = GraphSpec(n, n, n - 1)
        assert verify_proper(spec, Coloring(spec, (0,), Method.SUM_MOD_N, 1)) is None


def test_star_check_big_int_keys(run_size):
    # labels near 10^30: every key mult * core + label is a many-digit int
    big = 10**30
    rng = random.Random(30)
    for n, r in [(5, 2), (9, 3), (8, 4), (13, 2), (6, 6)]:
        spec = GraphSpec(n, r, r - 1)
        base = color_sum(n, r)
        for times in (0, 1, 3):
            labels = tuple(big + c for c in relabeled(spec, base.labels, times, rng))
            col = Coloring(spec, labels, Method.SUM_MOD_N, big + n)
            assert verify_proper(spec, col) == reference_violation(spec, labels), (n, r, times)
