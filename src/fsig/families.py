"""Built-in generator families with their closed-form signatures.

Segre products of two polynomial rings and Veronese subrings, plus the
Eulerian numbers in both their recurrence and alternating-sum forms.  All
values are exact.
"""

from fractions import Fraction
from math import comb, factorial
from operator import index

from .errors import InvalidParams
from .exact import Vector
from .semigroup import SemigroupPresentation


def binomial(m: int, k: int) -> int:
    """Binomial coefficient with the vanishing convention outside 0 <= k <= m."""
    if k < 0 or m < 0 or k > m:
        return 0
    return comb(m, k)


def eulerian(d: int, s: int) -> int:
    """Eulerian number A(d, s): permutations of d objects with s-1 descents.

    Computed row by row from A(1,1) = 1 by the recurrence
    A(m,k) = k A(m-1,k) + (m-k+1) A(m-1,k-1), keeping only the columns
    k <= s; zero outside 1 <= s <= d.
    """
    if (d := index(d)) < 1:
        raise ValueError("d must be a positive integer")
    if (s := index(s)) < 1 or s > d:
        return 0
    row = [0, 1] + [0] * (s - 1)  # row[k] = A(m, k), starting at m = 1
    for m in range(2, d + 1):
        for k in range(min(m, s), 0, -1):  # descending, so row[k-1] is still A(m-1, k-1)
            row[k] = k * row[k] + (m - k + 1) * row[k - 1]
    return row[s]


def eulerian_alternating_sum(d: int, s: int) -> int:
    """A(d, s) via the inclusion-exclusion formula; mutual oracle for eulerian."""
    if d < 1:
        raise ValueError("d must be a positive integer")
    return sum((-1) ** i * binomial(d + 1, i) * (s - i) ** d for i in range(s + 1))


def segre_generators(r: int, s: int) -> SemigroupPresentation:
    """Generators x_i y_j of the Segre product of two polynomial rings.

    r*s generators e_i + f_j in N^(r+s); the ring has dimension r + s - 1.
    """
    if (r := index(r)) < 2 or (s := index(s)) < 2:
        raise InvalidParams("segre requires r >= 2 and s >= 2")
    gens = []
    for i in range(r):
        for j in range(s):
            v = [0] * (r + s)
            v[i] = 1
            v[r + j] = 1
            gens.append(tuple(v))
    return SemigroupPresentation(r + s, tuple(gens), name=f"segre({r},{s})")


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def veronese_generators(d: int, n: int) -> SemigroupPresentation:
    """All degree-n monomials in d variables, as exponent vectors."""
    if (d := index(d)) < 1 or (n := index(n)) < 1:
        raise InvalidParams("veronese requires d >= 1 and n >= 1")
    gens: tuple[Vector, ...] = tuple(_compositions(n, d))
    return SemigroupPresentation(d, gens, name=f"veronese({d},{n})")


def segre_aq_closed_form(r: int, s: int, q: int) -> int:
    """Closed-form free rank of the Segre product at q."""
    if (r := index(r)) < 2 or (s := index(s)) < 2:
        raise InvalidParams("segre requires r >= 2 and s >= 2")
    if (q := index(q)) < 1:
        raise ValueError("q must be a positive integer")
    d = r + s - 1
    return sum(
        (-1) ** i * binomial(d + 1, i) * binomial(q * (s - i) + d - s, d)
        for i in range(s + 1)
    )


def segre_signature(r: int, s: int) -> Fraction:
    """F-signature of the Segre product: A(r+s-1, s) / (r+s-1)!."""
    if (r := index(r)) < 2 or (s := index(s)) < 2:
        raise InvalidParams("segre requires r >= 2 and s >= 2")
    d = r + s - 1
    return Fraction(eulerian(d, s), factorial(d))


def veronese_signature(d: int, n: int) -> Fraction:
    """F-signature of the degree-n Veronese subring in d variables.

    1/n for d >= 2.  For d = 1 the subring is generated by a single power
    and is itself a polynomial ring, so the signature is 1 regardless of n.
    """
    if (d := index(d)) < 1 or (n := index(n)) < 1:
        raise InvalidParams("veronese requires d >= 1 and n >= 1")
    if d == 1:
        return Fraction(1)
    return Fraction(1, n)
