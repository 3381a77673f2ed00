"""Deterministic integer and modular arithmetic primitives.

All residues are canonicalized to {0, ..., m-1}. Primality testing is
deterministic for every input that fits in 64 bits (fixed Miller-Rabin
witness set, no probabilistic error).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from math import isqrt
from typing import Iterator

from .errors import InvalidPrime, TooLarge

# Witness set proven complete for all n < 3.3 * 10^24, far past 2^64.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of the odd-order test for 2 modulo a prime p.

    condition_holds is true iff no power of 2 is congruent to -1 mod p;
    witness_r is the smallest exponent r with 2^r = -1 when one exists.
    """

    p: int
    order_of_two: int
    condition_holds: bool
    witness_r: int | None = None


def is_prime(m: int) -> bool:
    """Deterministic primality test (exact for all 64-bit inputs)."""
    if m < 2:
        return False
    for p in _MR_WITNESSES:
        if m % p == 0:
            return m == p
    d, s = m - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def _prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n by trial division."""
    out = []
    if n and n % 2 == 0:
        out.append(2)
        n //= n & -n  # the lowest set bit: every factor 2 at once
    d = 3
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 2
    if n > 1:
        out.append(n)
    return out


def _order(a: int, p: int) -> int:
    """Least k >= 1 with a^k = 1 mod p, for a prime p and a unit a mod p."""
    order = p - 1
    for q in _prime_factors(p - 1):
        while order % q == 0 and pow(a, order // q, p) == 1:
            order //= q
    return order


def check_t1_condition(p: int) -> ConditionReport:
    """Test whether no power of 2 equals -1 mod p (p prime, p > 3).

    Z_p^* is cyclic, so -1 is its only element of order 2. If the order d
    of 2 is even, 2^(d/2) = -1, and d/2 is least as 2^k = -1 forces d | 2k;
    if d is odd, no power of 2 has order 2.
    """
    if p <= 3 or not is_prime(p):
        raise InvalidPrime(f"need a prime p > 3, got {p}")
    d = _order(2, p)
    if d % 2 == 0:
        return ConditionReport(p, d, False, d // 2)
    return ConditionReport(p, d, True, None)


def theorem1_prime(n: int) -> int | None:
    """The prime p in {n - 2, n - 1}, p > 3, that passes the odd-order test.

    Two consecutive integers hold at most one odd prime, so the answer is
    unique; None when neither candidate qualifies.
    """
    for p in (n - 2, n - 1):
        if p > 3 and is_prime(p) and _order(2, p) % 2:
            return p
    return None


def factor_sieve(limit: int) -> array:
    """The least prime factor of each of 0..limit, 0 at 0, 1 and every prime.

    A composite m <= limit has a prime factor <= isqrt(limit), so for
    limit < 2^32 every entry fits the 16-bit array: 2 bytes per number.
    The primes up to isqrt(limit) come from a smaller sieve; they are
    written largest first, so the least factor is written last.
    """
    if limit >= 1 << 32:
        raise TooLarge(f"factor sieve limit {limit} is not below 2^32")
    least = array("H", bytes(2 * max(limit + 1, 0)))
    for q in reversed(primes_in_class(isqrt(max(limit, 0)), 0, 1)):
        least[q * q :: q] = array("H", [q]) * len(range(q * q, limit + 1, q))
    return least


def orders_of_two(limit: int) -> Iterator[tuple[int, int]]:
    """(p, order of 2 mod p) for every prime 5 <= p <= limit, ascending, from one factor_sieve.

    With p - 1 = 2^k * m, m odd, 2^(e * 2^k) = 1 iff the odd part of the
    order divides e, so stripping the primes of m at exponents scaled by
    2^k leaves that odd part. 2 is a square mod p iff p = +-1 mod 8, so
    the 2-part is 2^k for p = 3, 5 mod 8 and 1 for p = 7 mod 8 (k = 1);
    only p = 1 mod 8 squares 2^odd until it reaches 1.
    """
    least = factor_sieve(limit)
    for p in range(5, limit + 1):
        if least[p]:
            continue
        two_k = (p - 1) & -(p - 1)
        order = rest = (p - 1) // two_k  # m
        while rest > 1:
            q = least[rest] or rest
            while order % q == 0 and pow(2, order // q * two_k, p) == 1:
                order //= q
            while rest % q == 0:
                rest //= q
        if p & 7 == 1:
            x = pow(2, order, p)
            while x != 1:
                x = x * x % p
                order *= 2
        elif p & 7 != 7:
            order *= two_k
        yield p, order


def primes_in_class(limit: int, residue: int, modulus: int) -> list[int]:
    """Ascending primes p <= limit with p = residue mod modulus."""
    if limit < 2:
        return []
    least = factor_sieve(limit)
    return [p for p in range(2, limit + 1) if not least[p] and p % modulus == residue]


def next_prime(m: int) -> int:
    """Smallest prime >= m."""
    k = max(m, 2)
    while not is_prime(k):
        k += 1
    return k
