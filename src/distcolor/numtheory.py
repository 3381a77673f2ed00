"""Deterministic integer and modular arithmetic primitives.

All residues are canonicalized to {0, ..., m-1}. Primality testing is
deterministic for every input that fits in 64 bits (fixed Miller-Rabin
witness set, no probabilistic error).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from math import isqrt
from typing import Sequence

from .errors import InvalidPrime, NotCoprime, TooLarge, ZeroDivisor

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


def mod_inverse(a: int, p: int) -> int:
    """Inverse of a modulo the prime p."""
    a %= p
    if a == 0:
        raise ZeroDivisor(f"0 has no inverse mod {p}")
    return pow(a, -1, p)


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


def _order(a: int, p: int, factors: Sequence[int] | None = None) -> int:
    """Least k >= 1 with a^k = 1 mod p, for a prime p and a unit a mod p.

    ``factors``, the distinct primes dividing p - 1 when the caller has
    them, spares the trial division.
    """
    order = p - 1
    for q in _prime_factors(p - 1) if factors is None else factors:
        while order % q == 0 and pow(a, order // q, p) == 1:
            order //= q
    return order


def multiplicative_order(a: int, p: int) -> int:
    """Least k >= 1 with a^k = 1 mod the prime p; always divides p - 1."""
    if not is_prime(p):
        raise InvalidPrime(f"{p} is not prime")
    a %= p
    if a == 0:
        raise NotCoprime(f"0 is not a unit mod {p}")
    return _order(a, p)


def legendre_symbol(a: int, p: int) -> int:
    """Legendre symbol (a/p) for an odd prime p, via Euler's criterion."""
    if p == 2 or not is_prime(p):
        raise InvalidPrime(f"{p} is not an odd prime")
    e = pow(a % p, (p - 1) // 2, p)
    if e == 0:
        return 0
    return 1 if e == 1 else -1


def _t1_report(p: int, factors: Sequence[int] | None = None) -> ConditionReport:
    """The odd-order report for a p already known to be a prime > 3.

    -1 lies in the cyclic group generated by 2 iff the order d of 2 is
    even and 2^(d/2) = -1, so only one exponent needs checking.
    ``factors`` is passed to ``_order``.
    """
    d = _order(2, p, factors)
    if d % 2 == 0 and pow(2, d // 2, p) == p - 1:
        return ConditionReport(p, d, False, d // 2)
    return ConditionReport(p, d, True, None)


def check_t1_condition(p: int) -> ConditionReport:
    """Test whether no power of 2 equals -1 mod p (p prime, p > 3)."""
    if p <= 3 or not is_prime(p):
        raise InvalidPrime(f"need a prime p > 3, got {p}")
    return _t1_report(p)


def theorem1_prime(n: int) -> int | None:
    """The prime p in {n - 2, n - 1}, p > 3, that passes the odd-order test.

    Two consecutive integers hold at most one odd prime, so the answer is
    unique; None when neither candidate qualifies.
    """
    for p in (n - 2, n - 1):
        if p > 3 and is_prime(p) and _t1_report(p).condition_holds:
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


def sieve_factors(m: int, least: array) -> list[int]:
    """Distinct prime factors of m >= 1, ascending, from a factor_sieve covering m."""
    out = []
    while m > 1:
        q = least[m] or m
        out.append(q)
        m //= q
        while m % q == 0:
            m //= q
    return out


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
