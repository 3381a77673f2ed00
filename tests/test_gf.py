"""Tests for GF(q^h) arithmetic and the Bose-Chowla construction.

The in-test oracle reimplements polynomial arithmetic naively (schoolbook
multiply, repeated long division) to cross-check the canonical modulus
search and the discrete-log walk; the walk's full table in turn is the
oracle for the baby-step giant-step logs behind the Bose-Chowla sets.
"""

import random
import tracemalloc
from collections import Counter
from itertools import combinations_with_replacement, product
from math import comb

import pytest

from distcolor import gf
from distcolor.errors import BadInput, InternalContradiction, NotPrime, TooLarge
from distcolor.gf import (
    FIELD_SIZE_CAP,
    FieldSpec,
    bose_chowla_set,
    discrete_log_table,
    field_build,
    field_pow,
    verify_bh,
)


# naive polynomial arithmetic oracle (coefficients ascending, length h)
def poly_mul_naive(a, b, modulus, q):
    h = len(a)
    prod = [0] * (2 * h - 1)
    for i in range(h):
        for j in range(h):
            prod[i + j] += a[i] * b[j]
    # long division by the monic modulus
    for d in range(2 * h - 2, h - 1, -1):
        c = prod[d] % q
        prod[d] = 0
        for t in range(h + 1):
            prod[d - h + t] -= c * modulus[t]
    return tuple(c % q for c in prod[:h])


def element_order_naive(f, a):
    x = a
    k = 1
    while x != f.one:
        x = poly_mul_naive(x, a, f.modulus_poly, f.q)
        k += 1
        assert k <= f.order
    return k


def first_primitive_modulus_naive(q, h):
    """Exhaustive scan in the canonical candidate order."""
    one = (1,) + (0,) * (h - 1)
    theta = (0, 1) + (0,) * (h - 2)
    for k in range(q**h):
        lower = tuple(k // q**i % q for i in range(h))
        modulus = lower + (1,)
        f = FieldSpec(q, h, modulus)
        x = theta
        order = 1
        ok = True
        while x != one:
            x = poly_mul_naive(x, theta, modulus, q)
            order += 1
            if order > q**h:
                ok = False
                break
        if ok and order == q**h - 1:
            return modulus
    raise AssertionError("no primitive modulus found")


def test_field_build_matches_exhaustive_oracle():
    for q, h in [(2, 2), (3, 2), (5, 2), (3, 3)]:
        assert field_build(q, h).modulus_poly == first_primitive_modulus_naive(q, h)


def test_field_build_is_deterministic():
    assert field_build(5, 2) == field_build(5, 2)
    assert field_build(5, 2).modulus_poly == (2, 1, 1)  # x^2 + x + 2, from the oracle


def test_field_build_rejections():
    with pytest.raises(NotPrime):
        field_build(4, 2)
    with pytest.raises(BadInput):
        field_build(2, 1)
    with pytest.raises(TooLarge):
        field_build(2, 21)
    assert 2**21 > FIELD_SIZE_CAP
    with pytest.raises(TooLarge, match=r"q\^h = 3\^1000000000 exceeds"):
        field_build(3, 10**9)  # 3^(10^9) would take minutes to form


def mul(f, a, b):
    return gf._mul_mod(a, b, f.modulus_poly, f.q)


def add(f, a, b):
    return tuple((x + y) % f.q for x, y in zip(a, b))


def test_field_axioms_exhaustive_small():
    # every field with q^h <= 49
    for q, h in [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (5, 2), (7, 2)]:
        f = field_build(q, h)
        elems = [tuple(c) for c in product(range(q), repeat=h)]
        for a, b in product(elems, repeat=2):
            assert mul(f, a, b) == mul(f, b, a)
            assert add(f, a, b) == add(f, b, a)
            assert mul(f, a, b) == poly_mul_naive(a, b, f.modulus_poly, q)
        for a, b, c in product(elems, repeat=3):
            left = mul(f, mul(f, a, b), c)
            assert left == mul(f, a, mul(f, b, c))
            dist = mul(f, a, add(f, b, c))
            assert dist == add(f, mul(f, a, b), mul(f, a, c))


def test_field_identities():
    f = field_build(7, 2)
    elems = [tuple(c) for c in product(range(7), repeat=2)]
    zero = (0,) * f.h
    for b in elems:
        assert mul(f, f.one, b) == b
        assert mul(f, zero, b) == zero
        if b != zero:
            assert field_pow(f, b, f.order - 1) == f.one  # Lagrange


def test_discrete_log_table():
    f = field_build(5, 2)
    table = discrete_log_table(f)
    assert table[f.one] == 0
    assert table[f.theta] == 1
    assert len(table) == f.order - 1
    for elem, k in table.items():
        assert field_pow(f, f.theta, k) == elem


def test_bose_chowla_passes_brute_force():
    for q, h in [(3, 2), (5, 2), (7, 2), (3, 3)]:
        bh = bose_chowla_set(q, h)
        assert bh.modulus == q**h - 1
        assert len(set(bh.elements)) == q
        assert all(0 <= e < bh.modulus for e in bh.elements)
        assert list(bh.elements) == sorted(bh.elements)
        assert verify_bh(bh.elements, h, bh.modulus)


def _primes_to(m):
    return [q for q in range(2, m + 1) if all(q % d for d in range(2, q))]


def test_bose_chowla_matches_discrete_log_table():
    # every field with q^h <= 10^4: the logs read off the full walk
    cases = [(q, h) for q in _primes_to(100) for h in range(2, 14) if q**h <= 10**4]
    assert len(cases) == 51
    for q, h in cases:
        f = field_build(q, h)
        logs = discrete_log_table(f)
        expected = sorted(logs[(c, 1) + (0,) * (h - 2)] for c in range(q))
        bh = bose_chowla_set(q, h)
        assert list(bh.elements) == expected, (q, h)
        assert verify_bh(bh.elements, h, bh.modulus), (q, h)


def _targets(q):
    return [(c, 1) for c in range(q)]


def test_logs_reject_repeated_baby_steps():
    # x^2 + 1 is irreducible over Z_3 but theta = i has order 4 < 8, so
    # the 5 baby steps theta^0..theta^4 repeat
    f = FieldSpec(3, 2, (1, 0, 1))
    with pytest.raises(InternalContradiction, match="repeats"):
        gf._logs(f, _targets(3))


def test_logs_reject_missed_giant_steps():
    # an irreducible quadratic over Z_7 whose root has order 24 of 48: the
    # 19 baby steps are distinct, but theta + c outside <theta> is never hit
    moduli = [
        (a0, a1, 1)
        for a0, a1 in product(range(1, 7), range(7))
        if all((x * x + a1 * x + a0) % 7 for x in range(7))
    ]
    f = next(FieldSpec(7, 2, m) for m in moduli if element_order_naive(FieldSpec(7, 2, m), (0, 1)) == 24)
    with pytest.raises(InternalContradiction, match="not a power"):
        gf._logs(f, _targets(7))


def test_logs_recheck_exponents(monkeypatch):
    # a giant step of theta^(1 - b) instead of theta^(-b) yields wrong exponents
    f = field_build(5, 2)
    real_pow = gf.field_pow
    monkeypatch.setattr(gf, "field_pow", lambda f, a, e: real_pow(f, a, e + 1))
    with pytest.raises(InternalContradiction, match="!="):
        gf._logs(f, _targets(5))


def test_bose_chowla_implies_lower_orders():
    # distinct h-sums force distinct j-sums for every j < h (padding)
    for q, h in [(3, 3), (5, 3)]:
        bh = bose_chowla_set(q, h)
        for j in range(2, h):
            assert verify_bh(bh.elements, j, bh.modulus)


def test_bose_chowla_deterministic():
    assert bose_chowla_set(5, 2).elements == bose_chowla_set(5, 2).elements
    assert bose_chowla_set(3, 2).elements == (1, 6, 7)  # frozen from the log walk oracle


def test_bose_chowla_rejects_composite():
    with pytest.raises(NotPrime):
        bose_chowla_set(4, 2)


def test_verify_bh_examples():
    assert verify_bh({0, 1, 3, 9}, 2, 13)
    assert not verify_bh({0, 1, 2}, 2, 8)  # 0 + 2 = 1 + 1
    assert verify_bh({5}, 3, 11)
    with pytest.raises(BadInput):
        verify_bh([1, 1, 2], 2, 9)
    with pytest.raises(BadInput):
        verify_bh([1], 2, 0)  # no residues at all
    with pytest.raises(BadInput):
        verify_bh([1, 2], 2, -5)  # residues would be negative


def test_verify_bh_counts_all_multisets():
    # sanity on the oracle itself: a proper B_2 set yields C(q+1, 2) sums
    bh = bose_chowla_set(5, 2)
    sums = {sum(c) % bh.modulus for c in combinations_with_replacement(bh.elements, 2)}
    assert len(sums) == 15


def reference_is_bh(elements, h, modulus):
    """Distinct multiset sums, by sorting them all and comparing neighbors."""
    sums = sorted(sum(c) % modulus for c in combinations_with_replacement(sorted(elements), h))
    return all(a != b for a, b in zip(sums, sums[1:]))


def test_verify_bh_agrees_with_reference_on_both_sides_of_the_byte_table():
    rng = random.Random(22)
    seen = Counter()
    for _ in range(600):
        k, h = rng.randint(1, 7), rng.randint(1, 4)
        if rng.random() < 0.3:  # a progression: a + c = 2b collides for every h >= 2
            d = rng.randint(1, 9)
            elements = {rng.randint(-20, 20) + d * i for i in range(k)}
        else:
            elements = set(rng.sample(range(-50, 10**6), k))
        count = comb(len(elements) + h - 1, h)
        modulus = rng.choice([
            rng.randint(1, count),  # pigeonhole below count + 1
            rng.randint(count, 64 * count),  # marked in a byte per residue
            64 * count,
            64 * count + 1,
            rng.randint(64 * count + 1, 10**7),  # sparse: a set of the sums
        ])
        expected = reference_is_bh(elements, h, modulus)
        assert verify_bh(elements, h, modulus) is expected, (sorted(elements), h, modulus)
        side = "pigeonhole" if count > modulus else "table" if modulus <= 64 * count else "set"
        seen[side, expected] += 1
    assert {key for key, n in seen.items() if n >= 10} == {
        ("pigeonhole", False), ("table", False), ("table", True), ("set", False), ("set", True),
    }


def test_verify_bh_peak_is_a_byte_per_residue():
    # q = 101, h = 3: 176,851 sums mod 1,030,300 in a 1 MiB table, 0.98 MiB measured;
    # a set of the sums peaked at 16.8 MiB
    bh = bose_chowla_set(101, 3)
    tracemalloc.start()
    try:
        assert verify_bh(bh.elements, 3, bh.modulus)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20
