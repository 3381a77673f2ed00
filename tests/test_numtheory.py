"""Tests for the modular arithmetic primitives.

Expected values are frozen from independent oracles: trial division,
naive repeated multiplication, and brute-force power enumeration.
"""

import pytest

from distcolor.errors import InvalidPrime, NotCoprime, TooLarge, ZeroDivisor
from distcolor.numtheory import (
    _prime_factors,
    check_t1_condition,
    factor_sieve,
    is_prime,
    legendre_symbol,
    mod_inverse,
    multiplicative_order,
    next_prime,
    primes_in_class,
    sieve_factors,
    theorem1_prime,
)


def trial_division_prime(m: int) -> bool:
    if m < 2:
        return False
    d = 2
    while d * d <= m:
        if m % d == 0:
            return False
        d += 1
    return True


def naive_order(a: int, p: int) -> int:
    x = a % p
    k = 1
    while x != 1:
        x = x * a % p
        k += 1
    return k


def test_is_prime_examples():
    assert is_prime(2)
    assert is_prime(73)
    assert not is_prime(91)  # 7 * 13
    assert not is_prime(0) and not is_prime(1)


def test_is_prime_matches_trial_division():
    for m in range(2000):
        assert is_prime(m) == trial_division_prime(m), m
    # spot checks around 64-bit scale values
    assert is_prime(2**61 - 1)
    assert not is_prime(2**61 + 1)


def test_mod_inverse():
    assert mod_inverse(2, 7) == 4
    for p in (5, 7, 11, 13):
        assert mod_inverse(1, p) == 1
        for a in range(1, p):
            assert a * mod_inverse(a, p) % p == 1
    with pytest.raises(ZeroDivisor):
        mod_inverse(0, 5)
    with pytest.raises(ZeroDivisor):
        mod_inverse(10, 5)


def test_multiplicative_order_examples():
    assert multiplicative_order(2, 7) == 3
    assert naive_order(2, 73) == 9
    assert multiplicative_order(2, 73) == 9
    assert multiplicative_order(1, 13) == 1
    with pytest.raises(NotCoprime):
        multiplicative_order(0, 7)
    with pytest.raises(NotCoprime):
        multiplicative_order(21, 7)


def test_multiplicative_order_divides_group_order():
    for p in primes_in_class(200, 0, 1):
        for a in range(1, p):
            k = multiplicative_order(a, p)
            assert (p - 1) % k == 0
            assert k == naive_order(a, p)


def test_legendre_examples():
    assert legendre_symbol(2, 7) == 1
    assert legendre_symbol(2, 5) == -1  # squares mod 5 are {1, 4}
    assert legendre_symbol(0, 11) == 0
    assert legendre_symbol(22, 11) == 0
    with pytest.raises(InvalidPrime):
        legendre_symbol(3, 2)
    with pytest.raises(InvalidPrime):
        legendre_symbol(3, 15)


def test_legendre_two_formula():
    # (2/p) = (-1)^((p^2 - 1) / 8) for every odd prime
    for p in primes_in_class(1000, 0, 1):
        if p == 2:
            continue
        assert legendre_symbol(2, p) == (-1) ** ((p * p - 1) // 8)


def test_legendre_one_implies_even_part_of_order():
    # when 2 is a square its order divides (p - 1) / 2
    for p in primes_in_class(1000, 0, 1):
        if p == 2:
            continue
        if legendre_symbol(2, p) == 1:
            assert (p - 1) // 2 % multiplicative_order(2, p) == 0


def test_check_t1_condition_examples():
    rep = check_t1_condition(73)
    assert rep.condition_holds and rep.witness_r is None and rep.order_of_two == 9
    rep = check_t1_condition(7)
    assert rep.condition_holds and rep.order_of_two == 3
    rep = check_t1_condition(5)
    assert not rep.condition_holds and rep.witness_r == 2
    assert pow(2, rep.witness_r, 5) == 4  # -1 mod 5
    with pytest.raises(InvalidPrime):
        check_t1_condition(3)
    with pytest.raises(InvalidPrime):
        check_t1_condition(9)


def test_check_t1_condition_against_brute_force():
    for p in primes_in_class(500, 0, 1):
        if p <= 3:
            continue
        rep = check_t1_condition(p)
        assert (p - 1) % rep.order_of_two == 0
        brute = any(pow(2, r, p) == p - 1 for r in range(1, p))
        assert rep.condition_holds == (not brute)
        if rep.witness_r is not None:
            assert pow(2, rep.witness_r, p) == p - 1


def test_condition_on_7_mod_8_window():
    for p in primes_in_class(1000, 7, 8):
        assert check_t1_condition(p).condition_holds, p


def test_primes_in_class():
    assert primes_in_class(100, 7, 8) == [7, 23, 31, 47, 71, 79]
    assert primes_in_class(10, 1, 2) == [3, 5, 7]
    assert primes_in_class(1, 0, 8) == []
    all_primes = primes_in_class(300, 0, 1)
    assert all_primes == [m for m in range(301) if trial_division_prime(m)]


def test_next_prime():
    assert next_prime(10) == 11
    assert next_prime(7) == 7
    assert next_prime(0) == 2
    assert next_prime(90) == 97


def test_theorem1_prime_matches_candidate_scan():
    for n in range(0, 300):
        qualifying = [
            p
            for p in (n - 2, n - 1)
            if p > 3 and trial_division_prime(p) and check_t1_condition(p).condition_holds
        ]
        assert len(qualifying) <= 1, n  # n - 2 and n - 1 hold at most one odd prime
        assert theorem1_prime(n) == (qualifying[0] if qualifying else None), n
    assert theorem1_prime(9) == theorem1_prime(8) == 7
    assert theorem1_prime(7) is None  # 5 fails the condition, 6 is composite


def test_factor_sieve_matches_trial_division():
    least = factor_sieve(20000)
    assert len(least) == 20001 and least.itemsize == 2
    for m in range(20001):
        assert (least[m] == 0) == (m < 2 or trial_division_prime(m)), m
        if m:
            assert sieve_factors(m, least) == _prime_factors(m), m
    assert list(factor_sieve(3)) == [0, 0, 0, 0]
    assert len(factor_sieve(0)) == 1 and len(factor_sieve(-5)) == 0
    with pytest.raises(TooLarge):
        factor_sieve(1 << 32)
