"""Acceptance suite: one test per headline claim, at stated tolerances.

Every test is exact (zero numeric tolerance) and enforces its wall-clock
budget. Run with ``pytest tests/test_acceptance.py -v -s`` to see one
pass line per claim.
"""

import json
import math
import time

from distcolor.bounds import (
    aggregate,
    counting_lower_bound,
    divisibility_lower_bound,
    independence_upper_bound,
)
from distcolor.cli import main
from distcolor.colorings import (
    bipartition_circles,
    color_bose_chowla,
    color_sum,
    color_symmetric,
    color_theorem1,
    f_select,
    verify_proper,
)
from distcolor.distgraph import GraphSpec, vertices
from distcolor.exact import (
    AdjacencyMatrix,
    Exhausted,
    exact_chromatic_number,
    exact_independence_number,
)
from distcolor.gf import bose_chowla_set, verify_bh
from distcolor.numtheory import _order, check_t1_condition, primes_in_class
from reference import circle


def _finish(t0: float, budget: float, message: str) -> None:
    elapsed = time.perf_counter() - t0
    print(f"PASS {message} ({elapsed:.2f}s, budget {budget:.0f}s)")
    assert elapsed < budget


def _odd_primes_to(limit: int) -> list[int]:
    return [p for p in primes_in_class(limit, 0, 1) if p > 3]


def test_chi_of_g932_is_exactly_seven(tmp_path, capsys):
    t0 = time.perf_counter()
    path = tmp_path / "cert9.json"
    assert main(["color", "--method", "theorem1", "-n", "9", "--out", str(path)]) == 0
    capsys.readouterr()
    data = json.loads(path.read_text())
    assert data["proper"] is True
    assert data["colors_used"] <= 7
    assert counting_lower_bound(9, 3) == 7
    col = color_theorem1(9)
    assert verify_proper(col.spec, col) is None
    _finish(t0, 1.0, "chi(G(9,3,2)) = 7: construction meets the counting bound")


def test_chi_of_g832_is_exactly_seven(capsys):
    t0 = time.perf_counter()
    col = color_theorem1(8)
    assert col.colors_used <= 7
    assert verify_proper(col.spec, col) is None
    assert (8 - 3) % 2 == 1  # odd gap: the stronger parity case applies
    assert counting_lower_bound(8, 3) == 7
    _finish(t0, 1.0, "chi(G(8,3,2)) = 7: construction meets the parity bound")


def _trial_division_prime(m: int) -> bool:
    if m < 2:
        return False
    d = 2
    while d * d <= m:
        if m % d == 0:
            return False
        d += 1
    return True


def test_odd_order_condition_holds_for_7_mod_8_primes_to_5000():
    t0 = time.perf_counter()
    window = primes_in_class(5000, 7, 8)
    oracle = [m for m in range(2, 5001) if m % 8 == 7 and _trial_division_prime(m)]
    assert window == oracle
    for p in window:
        assert check_t1_condition(p).condition_holds, p
    assert check_t1_condition(73).condition_holds
    _finish(t0, 5.0, f"odd-order condition holds for all {len(window)} primes 8k-1 <= 5000, and 73")


def test_circle_length_and_closed_form_to_199():
    t0 = time.perf_counter()
    for p in _odd_primes_to(199):
        k = _order(2, p)
        inv2 = pow(2, -1, p)
        for i in range(p):
            covered: set[int] = set()
            for j in range(p):
                if j == i or j in covered:
                    continue
                orb = circle(p, i, j)
                pts = orb.points
                assert len(pts) == k
                assert i not in pts
                # closed form j_m = (j_0 + (2^m - 1) i) / 2^m at every depth
                j0 = pts[0]
                power, inv_power = 1, 1
                for m in range(1, k + 1):
                    power = power * 2 % p
                    inv_power = inv_power * inv2 % p
                    assert (j0 + (power - 1) * i) * inv_power % p == pts[m % k]
                if k > 1:  # a non-canonical start yields the same circle
                    assert circle(p, i, pts[1]) == orb
                covered.update(pts)
            # the circles with parameter i partition everything else, so
            # every pair (i, j) was measured through its orbit
            assert len(covered) == p - 1
    _finish(t0, 10.0, "circle length = ord(2) and closed form, all p <= 199, all pairs")


def test_circle_graph_two_colorable_when_condition_holds_to_199():
    t0 = time.perf_counter()
    qualifying = [p for p in _odd_primes_to(199) if check_t1_condition(p).condition_holds]
    assert 7 in qualifying and 73 in qualifying
    for p in qualifying:
        bip = bipartition_circles(p)  # raises OddCycle on failure
        for v, w in bip.graph.edges:
            assert bip.classes[v] != bip.classes[w]
    _finish(t0, 10.0, f"circle graph 2-colored for all {len(qualifying)} qualifying p <= 199")


def test_pair_function_properties_for_7_23_31_47():
    t0 = time.perf_counter()
    for p in (7, 23, 31, 47):
        bip = bipartition_circles(p)
        inv2 = pow(2, -1, p)
        for x in range(p):
            for y in range(p):
                if x == y:
                    continue
                f1 = f_select(bip, 1, x, y)
                f2 = f_select(bip, 2, x, y)
                assert f1 in (x, y) and f2 in (x, y)  # item 1: selects an endpoint
                assert f1 == f_select(bip, 1, y, x)  # item 1: symmetric
                assert f2 == f_select(bip, 2, y, x)
                assert f1 != f2  # item 2
                mid = (x + y) * inv2 % p
                for index in (1, 2):  # item 3
                    if f_select(bip, index, x, y) == x:
                        assert f_select(bip, index, mid, x) != mid
    _finish(t0, 5.0, "pair functions satisfy all three properties for p in {7,23,31,47}")


def test_sum_coloring_proper_across_grid():
    t0 = time.perf_counter()
    cases = 0
    for n in range(4, 13):
        for r in range(2, 6):
            if r >= n:
                continue
            col = color_sum(n, r)
            assert col.colors_used <= n
            assert verify_proper(col.spec, col) is None, (n, r)
            cases += 1
    _finish(t0, 30.0, f"sum coloring proper with <= n colors on {cases} grids (n <= 12, r <= 5)")


def test_divisibility_bound_and_no_contradiction():
    t0 = time.perf_counter()
    assert divisibility_lower_bound(11, 3) == 10
    assert math.comb(11, 2) % 3 != 0
    for r in (2, 3, 5, 7, 11, 13):
        for k in range(1, 21):
            n = r * k - 1
            if n > r:
                assert divisibility_lower_bound(n, r) == n - r + 2  # never raises
    _finish(t0, 1.0, "divisibility bound: (11,3) -> 10, no contradiction through k = 20")


def test_prime_field_colorings_and_bh_sets():
    t0 = time.perf_counter()
    colorings = 0
    for n in (5, 7, 11):
        for r in range(1, 5):
            for s in range(r):
                bound = n ** (r - s)
                for build in (color_symmetric, color_bose_chowla):
                    col = build(n, r, s)
                    assert col.colors_used <= bound, (n, r, s, build.__name__)
                    assert verify_proper(col.spec, col) is None, (n, r, s, build.__name__)
                    colorings += 1
    pairs = [(q, 2) for q in (3, 5, 7, 11, 13)] + [(3, 3), (5, 3)]
    for q, h in pairs:
        bh = bose_chowla_set(q, h)
        assert verify_bh(bh.elements, h, bh.modulus), (q, h)
    _finish(
        t0,
        60.0,
        f"prime-field colorings proper on {colorings} cases; {len(pairs)} B_h sets verified",
    )


def test_bose_chowla_classes_intersect_strictly_below_s():
    t0 = time.perf_counter()
    for n, r, s in [(5, 3, 1), (7, 4, 2)]:
        col = color_bose_chowla(n, r, s)
        verts = vertices(col.spec)
        by_label: dict[int, list[int]] = {}
        for idx, label in enumerate(col.labels):
            by_label.setdefault(label, []).append(idx)
        for members in by_label.values():
            for a in range(len(members)):
                u = set(verts[members[a]])
                for b in range(a + 1, len(members)):
                    assert len(u & set(verts[members[b]])) < s, (n, r, s)
    _finish(t0, 10.0, "same-label vertices intersect in < s elements for (5,3,1) and (7,4,2)")


def test_exact_solver_oracle_sandwich():
    t0 = time.perf_counter()
    chi = exact_chromatic_number(AdjacencyMatrix.from_graph_spec(GraphSpec(5, 3, 2)))
    assert chi == 5
    report = aggregate(5, 3, 2)
    assert report.best_lower <= chi <= report.best_upper
    alpha = exact_independence_number(AdjacencyMatrix.from_graph_spec(GraphSpec(9, 3, 2)))
    assert not isinstance(alpha, Exhausted)
    assert alpha == 12 == independence_upper_bound(9, 3)
    _finish(t0, 60.0, "chi(G(5,3,2)) = 5 within bounds; alpha(G(9,3,2)) = 12 meets its bound")


def test_lower_bound_congruence_classes_to_60():
    t0 = time.perf_counter()
    for n in range(4, 61):
        strong = aggregate(n, 3, 2).best_lower >= n - 1
        assert strong == (n % 6 in (0, 2, 4, 5)), n
    _finish(t0, 5.0, "best_lower >= n-1 exactly for n = 0,2,4,5 mod 6, n <= 60")
