"""The test oracles' own checks, where no other test pins them."""

from fractions import Fraction

import pytest

from oracles import dot


def test_dot():
    assert dot((1, -2, 3), (4, 5, -6)) == -24
    assert dot((Fraction(1, 2), 3), (4, Fraction(1, 3))) == 3
    assert dot((), ()) == 0
    for u, v in [((1, 2), (1, 2, 3)), ((1,), ()), ((), (0,))]:
        with pytest.raises(ValueError):
            dot(u, v)
