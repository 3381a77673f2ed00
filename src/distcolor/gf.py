"""Arithmetic in GF(q^h) and the Bose-Chowla B_h set construction.

Field elements are coefficient tuples of length h over Z_q, constant
term first. The modulus polynomial is the canonically smallest primitive
one and the generator theta is the class of the indeterminate, so every
derived object (discrete logs, B_h sets) is reproducible across runs.
B_h sets need only q logarithms, found by baby-step giant-step; the full
discrete-log table is built by enumeration and serves as their oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement
from math import comb, isqrt
from typing import Iterable

from .errors import BadInput, InternalContradiction, NotPrime, TooLarge
from .numtheory import _prime_factors, is_prime

FieldElement = tuple[int, ...]

# The full discrete-log table enumerates the field and a B_h set keeps
# about sqrt(q * q^h) baby steps, so field sizes are capped at desk scale.
FIELD_SIZE_CAP = 1 << 20


@dataclass(frozen=True)
class FieldSpec:
    """GF(q^h) presented as Z_q[x] modulo a monic primitive polynomial.

    modulus_poly lists h + 1 coefficients in ascending degree; the class
    of x generates the full multiplicative group of order q^h - 1.
    """

    q: int
    h: int
    modulus_poly: tuple[int, ...]

    @property
    def order(self) -> int:
        return self.q**self.h

    @property
    def one(self) -> FieldElement:
        return (1,) + (0,) * (self.h - 1)

    @property
    def theta(self) -> FieldElement:
        """The multiplicative generator: the class of the indeterminate."""
        return (0, 1) + (0,) * (self.h - 2)


@dataclass(frozen=True)
class BhSet:
    """q residues mod q^h - 1 whose h-element multiset sums are distinct."""

    q: int
    h: int
    modulus: int
    elements: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(set(self.elements)) != self.q:
            raise BadInput(f"expected {self.q} distinct elements")


def _mul_mod(a: FieldElement, b: FieldElement, modulus: tuple[int, ...], q: int) -> FieldElement:
    """Product of two degree < h polynomials, reduced mod a monic modulus."""
    h = len(a)
    prod = [0] * (2 * h - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % q
    for d in range(2 * h - 2, h - 1, -1):
        c = prod[d]
        if c:
            prod[d] = 0
            base = d - h
            for t in range(h):
                prod[base + t] = (prod[base + t] - c * modulus[t]) % q
    return tuple(prod[:h])


def field_pow(f: FieldSpec, a: FieldElement, e: int) -> FieldElement:
    """a**e in GF(q^h) for e >= 0, by binary exponentiation."""
    _check_element(f, a)
    result = f.one
    base = a
    while e:
        if e & 1:
            result = _mul_mod(result, base, f.modulus_poly, f.q)
        base = _mul_mod(base, base, f.modulus_poly, f.q)
        e >>= 1
    return result


def _check_element(f: FieldSpec, a: FieldElement) -> None:
    if len(a) != f.h:
        raise BadInput(f"element {a} does not have {f.h} coefficients")


def field_build(q: int, h: int) -> FieldSpec:
    """Construct GF(q^h) behind its canonical primitive modulus polynomial.

    Candidates x^h + c_{h-1} x^{h-1} + ... + c_0 are scanned with the
    coefficient vector (c_{h-1}, ..., c_0) ascending lexicographically.
    A candidate is accepted when the class of x has multiplicative order
    exactly q^h - 1, which certifies irreducibility and primitivity at
    once (in a non-field quotient the unit group is strictly smaller).
    """
    if not is_prime(q):
        raise NotPrime(f"{q} is not prime")
    if h < 2:
        raise BadInput(f"extension degree must be at least 2, got {h}")
    if h >= FIELD_SIZE_CAP.bit_length() or q**h > FIELD_SIZE_CAP:  # q >= 2: no huge q^h
        raise TooLarge(f"q^h = {q}^{h} exceeds the cap {FIELD_SIZE_CAP}")
    size = q**h
    group = size - 1
    cofactors = [group // ell for ell in _prime_factors(group)]
    one = (1,) + (0,) * (h - 1)
    theta = (0, 1) + (0,) * (h - 2)
    for k in range(size):
        if k % q == 0:
            continue  # zero constant term, divisible by x
        lower = tuple(k // q**i % q for i in range(h))
        modulus = lower + (1,)
        f = FieldSpec(q, h, modulus)
        if field_pow(f, theta, group) != one:
            continue
        if all(field_pow(f, theta, c) != one for c in cofactors):
            return f
    raise InternalContradiction(f"no primitive polynomial found for GF({q}^{h})")


def discrete_log_table(f: FieldSpec) -> dict[FieldElement, int]:
    """Map every nonzero element theta^k to its exponent k.

    Built by one full walk through the powers of theta; the walk must
    return to 1 after exactly q^h - 1 steps.
    """
    table: dict[FieldElement, int] = {}
    e = f.one
    for k in range(f.order - 1):
        table[e] = k
        e = _mul_mod(e, f.theta, f.modulus_poly, f.q)
    if e != f.one or len(table) != f.order - 1:
        raise InternalContradiction(f"the powers of theta do not cycle through GF({f.q}^{f.h})*")
    return table


def _logs(f: FieldSpec, targets: list[FieldElement]) -> list[int]:
    """log_theta of each nonzero target by baby-step giant-step (Shanks).

    With N = q^h - 1 the b baby steps theta^j, j < b, go in a dict, and
    each target is multiplied by theta^(N - b) = theta^(-b) until it lands
    on one; b = min(isqrt(len(targets) * N) + 1, N) balances the b baby
    steps against the len(targets) * N / b giant steps. A repeated baby
    step or a target missed within ceil(N / b) giant steps means theta is
    not primitive, and each exponent is re-checked by exponentiation.
    """
    group = f.order - 1
    b = min(isqrt(len(targets) * group) + 1, group)
    baby: dict[FieldElement, int] = {}
    e = f.one
    for j in range(b):
        if e in baby:
            raise InternalContradiction(f"theta^{j} repeats theta^{baby[e]} in GF({f.q}^{f.h})")
        baby[e] = j
        e = _mul_mod(e, f.theta, f.modulus_poly, f.q)
    giant = field_pow(f, f.theta, group - b)
    logs = []
    for target in targets:
        y = target
        for i in range(-(-group // b)):
            j = baby.get(y)
            if j is not None:
                break
            y = _mul_mod(y, giant, f.modulus_poly, f.q)
        else:
            raise InternalContradiction(f"{target} is not a power of theta in GF({f.q}^{f.h})")
        k = i * b + j
        if field_pow(f, f.theta, k) != target:
            raise InternalContradiction(f"theta^{k} != {target} in GF({f.q}^{f.h})")
        logs.append(k)
    return logs


def bose_chowla_set(q: int, h: int) -> BhSet:
    """The Bose-Chowla B_h set {log_theta(theta + c) : c in GF(q)}.

    If two h-element multisets of these logs had equal sums mod q^h - 1,
    the corresponding products prod(theta + c_i) would coincide, forcing
    two distinct monic degree-h polynomials to agree at theta, which is
    impossible since theta has degree h over Z_q.
    """
    f = field_build(q, h)
    tail = (0,) * (h - 2)
    elements = sorted(_logs(f, [(c, 1) + tail for c in range(q)]))
    return BhSet(q, h, f.order - 1, tuple(elements))


def verify_bh(elements: Iterable[int], h: int, modulus: int) -> bool:
    """Brute-force check that all h-element multiset sums are distinct.

    Independent of the construction: it only adds residues. With k
    elements there are C(k + h - 1, h) sums, so more of them than
    residues fail by pigeonhole. Seen sums are marked in a byte per
    residue when the modulus is at most 64 times their number, which is
    no more memory than a set of them; a sparser modulus keeps the set.
    """
    elems = sorted(elements)
    if len(set(elems)) != len(elems):
        raise BadInput("elements must be distinct")
    if modulus < 1 or h < 1:
        raise BadInput(f"need a modulus >= 1 and h >= 1, got modulus {modulus} and h {h}")
    count = comb(len(elems) + h - 1, h)
    if count > modulus:
        return False
    sums = map(sum, combinations_with_replacement(elems, h))
    if modulus > 64 * count:
        return len({t % modulus for t in sums}) == count
    seen = bytearray(modulus)
    for t in sums:
        t %= modulus
        if seen[t]:
            return False
        seen[t] = 1
    return True
