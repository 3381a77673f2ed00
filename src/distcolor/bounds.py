"""Closed-form bounds on chi(G(n, r, s)) and a per-spec aggregator.

Source tags used in reports:

- ``ineq1``     trivial clique lower bound (exhibited clique size)
- ``thm1``      n - 2 / n - 1 upper bound for G(n, 3, 2) via circle colorings
- ``thm2A``     counting lower bound and the sum-coloring upper bound n
- ``thm2B``     divisibility lower bound n - r + 2 for prime r, n = rk - 1
- ``thm3``      n^(r-s) upper bound for prime n
- ``next_prime``  monotone embedding into the next prime ground set
- ``reference_eq2``  classical asymptotic main term, reference only
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .distgraph import GraphSpec
from .errors import InternalContradiction, OutOfValidity, TooLarge
# check_t1_condition is unused here; perfbench/spans.py rebinds it when it traces a run.
from .numtheory import check_t1_condition, is_prime, next_prime, theorem1_prime


class Bound(NamedTuple):
    value: int
    source: str


@dataclass(frozen=True)
class BoundsReport:
    """Merged lower/upper bounds for one graph, with provenance."""

    spec: GraphSpec
    lower: tuple[Bound, ...]
    upper: tuple[Bound, ...]
    best_lower: int
    best_upper: int
    exact: int | None

    def __post_init__(self) -> None:
        if self.best_lower > self.best_upper:
            raise InternalContradiction(
                f"best lower bound {self.best_lower} exceeds best upper bound {self.best_upper}"
            )


def counting_lower_bound(n: int, r: int) -> int:
    """Vertex-count over independence-number bound for G(n, r, r - 1).

    ceil((n-r+2)(n-r+1) / (2 * floor((n-r+2)/2))), which collapses to
    n - r + 1 for even n - r and n - r + 2 for odd n - r. Needs 2 <= r < n.
    """
    num = (n - r + 2) * (n - r + 1)
    den = 2 * ((n - r + 2) // 2)
    return -(-num // den)


def independence_upper_bound(n: int, r: int) -> int:
    """floor(floor((n-r+2)/2) * C(n, r-2) / C(r, 2)), bounding alpha.

    An independent set in G(n, r, r - 1) can repeat any fixed (r-2)-set
    at most floor((n-r+2)/2) times.
    """
    return (n - r + 2) // 2 * math.comb(n, r - 2) // math.comb(r, 2)


def divisibility_lower_bound(n: int, r: int) -> int | None:
    """n - r + 2 when r is prime and n = rk - 1; None otherwise.

    In an (n-r+1)-coloring every maximal clique (a star over an
    (r-1)-set) shows all colors, so each color class would have exactly
    C(n, r-1) / r vertices; that count is not an integer here. The
    non-divisibility is re-checked numerically on every call.
    """
    if not (is_prime(r) and n % r == r - 1):
        return None
    if math.comb(n, r - 1) % r == 0:
        raise InternalContradiction(
            f"C({n}, {r - 1}) is divisible by {r}; the divisibility argument is broken"
        )
    return n - r + 2


def eq2_reference(n: int, r: int, s: int) -> int:
    """Main term n^(r-s) * r! / (s! ((r-s)!)^2) of the classical bound.

    Reference value only (the vanishing correction factor is dropped),
    valid for r < 2s + 1; rounded down when the ratio is fractional.
    """
    if r >= 2 * s + 1:
        raise OutOfValidity(f"needs r < 2s + 1, got r = {r}, s = {s}")
    d = r - s
    return n**d * math.factorial(r) // (math.factorial(s) * math.factorial(d) ** 2)


def theorem3_upper(n: int, r: int, s: int) -> int | None:
    """n^(r-s) when n is prime (realized by the prime-field colorings)."""
    return n ** (r - s) if is_prime(n) else None


def next_prime_upper(n: int, r: int, s: int) -> int:
    """next_prime(n)^(r-s): G(n, r, s) embeds in the larger prime graph."""
    return next_prime(n) ** (r - s)


def aggregate(n: int, r: int, s: int) -> BoundsReport:
    """Merge every applicable bound for G(n, r, s) into one report.

    best_upper is the minimum over certified entries only; the
    reference_eq2 entry is listed for comparison but never competes,
    since its vanishing correction factor is dropped.
    """
    spec = GraphSpec(n, r, s)
    # next_prime(n) < 2n keeps every value below 2^(r * bit_length(2n)) and every
    # intermediate (C(n, r - 1), r!) below its square: fast, and printable
    if n > 10**6 or r * (2 * n).bit_length() > 10**4:
        raise TooLarge(f"bounds need n <= 10^6 and r * bit_length(2n) <= 10^4, got {n}, {r}")
    lower: list[Bound] = []
    upper: list[Bound] = []
    if s == r - 1:
        if 2 <= r < n:
            lower.append(Bound(counting_lower_bound(n, r), "thm2A"))
            db = divisibility_lower_bound(n, r)
            if db is not None:
                lower.append(Bound(db, "thm2B"))
        else:
            # degenerate r: the star through any (r-1)-set is a clique
            lower.append(Bound(n - r + 1, "ineq1"))
        upper.append(Bound(n, "thm2A"))
        p = theorem1_prime(n) if r == 3 else None
        if p is not None:
            upper.append(Bound(p, "thm1"))
    else:
        # clique: one s-core plus floor((n-s)/(r-s)) pairwise disjoint blocks
        lower.append(Bound((n - s) // (r - s), "ineq1"))
    t3 = theorem3_upper(n, r, s)
    if t3 is not None:
        upper.append(Bound(t3, "thm3"))
    upper.append(Bound(next_prime_upper(n, r, s), "next_prime"))
    best_lower = max(b.value for b in lower)
    best_upper = min(b.value for b in upper)
    if r < 2 * s + 1:
        # listed for comparison tables only; not certified, never binds
        upper.append(Bound(eq2_reference(n, r, s), "reference_eq2"))
    exact = best_lower if best_lower == best_upper else None
    return BoundsReport(spec, tuple(lower), tuple(upper), best_lower, best_upper, exact)
