"""Reference decisions for the tests, independent of the code under test."""

from typing import Sequence

from fsig.exact import Vector


def is_natural_combination(v: Sequence[int], generators: Sequence[Vector]) -> bool:
    """Whether v is a sum of generators with nonnegative integer multiplicities.

    Depth-first search with componentwise dominance pruning; terminates
    because generators are nonzero and nonnegative.
    """
    target = tuple(int(x) for x in v)
    if any(x < 0 for x in target):
        return False
    cache: dict[Vector, bool] = {}

    def reach(u: Vector) -> bool:
        if all(x == 0 for x in u):
            return True
        hit = cache.get(u)
        if hit is not None:
            return hit
        cache[u] = False  # cuts revisits along the current search path
        for g in generators:
            w = tuple(a - b for a, b in zip(u, g))
            if all(x >= 0 for x in w) and reach(w):
                cache[u] = True
                return True
        return False

    return reach(target)


def fraction_tight_sets(half_spaces, vertices) -> set[int]:
    """Per half-space (a, b), the bitmask of the vertices v with a . v == b.

    Evaluated on the rational vertices in Fraction arithmetic, with no
    homogeneous coordinates.
    """
    return {
        sum(1 << j for j, v in enumerate(vertices) if sum(x * y for x, y in zip(a, v)) == b)
        for a, b in half_spaces
    }
