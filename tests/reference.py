"""Reference constructions that the tests compare the package against.

``circle`` walks the paper's map one point at a time, independent of the
coset tables behind ``colorings.circle_graph``; ``complete`` and
``empty`` are the two extreme graphs for the exact solvers.
"""

from distcolor.colorings import Circle
from distcolor.errors import BadInput, InvalidPrime
from distcolor.exact import AdjacencyMatrix
from distcolor.numtheory import is_prime


def circle(p: int, i: int, j: int) -> Circle:
    """The circle through j with parameter i, walked by t -> (t + i) / 2 mod p."""
    if p <= 3 or not is_prime(p):
        raise InvalidPrime(f"need a prime p > 3, got {p}")
    i, j = i % p, j % p
    if i == j:
        raise BadInput("the parameter is a fixed point, pick j != i")
    inv2 = pow(2, -1, p)
    pts = [j]
    t = (j + i) * inv2 % p
    while t != j:
        pts.append(t)
        t = (t + i) * inv2 % p
    lo = pts.index(min(pts))
    return Circle(i, tuple(pts[lo:] + pts[:lo]))


def complete(m: int) -> AdjacencyMatrix:
    """K_m: every vertex adjacent to every other."""
    full = (1 << m) - 1
    return AdjacencyMatrix(m, tuple(full ^ (1 << v) for v in range(m)))


def empty(m: int) -> AdjacencyMatrix:
    """m vertices and no edge."""
    return AdjacencyMatrix(m, (0,) * m)
