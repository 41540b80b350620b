"""Presentations, contexts, group-and-cone points, and the bounded normality check."""

import itertools
import random

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from fsig.cone import full_embedding
from fsig.errors import EmptyPresentation, InvalidPresentation
from fsig.exact import dot, express_in_basis, lattice_points_in_box
from fsig.families import segre_generators, veronese_generators
from fsig.semigroup import (
    NormalityVerdict,
    SemigroupPresentation,
    build_context,
    check_normal,
)

from oracles import is_natural_combination

FREE2 = SemigroupPresentation(2, ((1, 0), (0, 1)), name="free(2)")

# 2a, a + b and 2b, with a = (0, ..., 0, 1, 2) and b = (1, ..., 1) in Z^12
TWO_A, A_PLUS_B, TWO_B = (0,) * 10 + (2, 4), (1,) * 10 + (2, 3), (2,) * 12


def facets_of(presentation):
    ctx = build_context(presentation)
    return ctx, full_embedding(ctx).functionals


def cone_points(presentation, bound):
    """Group points of [0, bound]^r on which every facet functional is >= 0."""
    ctx, facets = facets_of(presentation)
    box = [bound] * presentation.ambient_rank
    return {
        v
        for v in lattice_points_in_box(ctx.lattice, box)
        if all(dot(f.coefficients, v) >= 0 for f in facets)
    }


def is_gap(ctx, facets, v):
    """Whether v is a group-and-cone point that no sum of generators reaches."""
    return (
        express_in_basis(v, ctx.lattice) is not None
        and all(dot(f.coefficients, v) >= 0 for f in facets)
        and not is_natural_combination(v, ctx.presentation.generators)
    )


def per_point_check_normal(ctx, facets, bound):
    """Independent oracle: scan the box in lexicographic order, each point by its own search."""
    box = itertools.product(range(bound + 1), repeat=ctx.presentation.ambient_rank)
    gap = next((v for v in box if is_gap(ctx, facets, v)), None)
    return gap is None, gap


@st.composite
def small_presentations(draw):
    r = draw(st.integers(2, 3))
    vector = st.tuples(*[st.integers(0, 3)] * r).filter(any)
    gens = draw(st.lists(vector, min_size=1, max_size=5, unique=True))
    return SemigroupPresentation(r, tuple(gens))


class TestPresentation:
    def test_empty_rejected(self):
        with pytest.raises(EmptyPresentation):
            SemigroupPresentation(2, ())

    def test_zero_generator_rejected(self):
        with pytest.raises(InvalidPresentation):
            SemigroupPresentation(2, ((1, 0), (0, 0)))

    def test_negative_entry_rejected(self):
        with pytest.raises(InvalidPresentation):
            SemigroupPresentation(2, ((1, -1),))

    def test_duplicate_rejected(self):
        with pytest.raises(InvalidPresentation):
            SemigroupPresentation(2, ((1, 0), (1, 0)))

    def test_wrong_length_rejected(self):
        with pytest.raises(InvalidPresentation):
            SemigroupPresentation(2, ((1, 0, 0),))


class TestBuildContext:
    def test_free_semigroup(self):
        ctx = build_context(FREE2)
        assert ctx.rank == 2
        assert ctx.lattice.rows == ((1, 0), (0, 1))

    def test_veronese_lattice(self):
        ctx = build_context(veronese_generators(2, 2))
        assert ctx.rank == 2
        assert ctx.lattice.rows == ((1, 1), (0, 2))

    def test_segre_rank(self):
        # the ring of segre(2,2) has dimension 2 + 2 - 1 = 3
        assert build_context(segre_generators(2, 2)).rank == 3


class TestMember:
    # a normal semigroup is the set of group points in its cone
    def test_veronese_cases(self):
        points = cone_points(veronese_generators(2, 2), 4)
        assert (3, 1) in points  # (2,0) + (1,1)
        assert (1, 0) not in points  # odd sum, outside the group
        assert (0, 0) in points

    def test_generators_are_members(self):
        for p in (FREE2, veronese_generators(2, 2), segre_generators(2, 2)):
            assert set(p.generators) <= cone_points(p, 2)

    def test_closure_under_addition_randomized(self):
        rng = random.Random(1801)
        points = cone_points(veronese_generators(2, 2), 12)
        members = sorted(v for v in points if max(v) <= 6)
        for _ in range(60):
            a = rng.choice(members)
            b = rng.choice(members)
            assert tuple(x + y for x, y in zip(a, b)) in points

    @pytest.mark.parametrize(
        "presentation",
        [
            FREE2,
            veronese_generators(2, 2),
            SemigroupPresentation(2, ((2, 0), (0, 2))),
            segre_generators(2, 2),
        ],
        ids=lambda p: p.name or "rescaled",
    )
    def test_member_matches_combination_oracle(self, presentation):
        # for normal inputs, the group-and-cone points are the generator sums
        points = cone_points(presentation, 6)
        for v in itertools.product(range(7), repeat=presentation.ambient_rank):
            assert (v in points) == is_natural_combination(v, presentation.generators)


class TestCheckNormal:
    def test_veronese_normal(self):
        ctx, facets = facets_of(veronese_generators(2, 2))
        verdict = check_normal(ctx, facets, 6)
        assert verdict.normal and verdict.counterexample is None

    def test_gap_semigroup_counterexample(self):
        # (1,0) is in the group and the cone but not generated
        ctx, facets = facets_of(SemigroupPresentation(2, ((2, 0), (0, 1), (1, 1))))
        verdict = check_normal(ctx, facets, 4)
        assert not verdict.normal
        assert verdict.counterexample == (1, 0)

    def test_free_semigroup_normal(self):
        ctx, facets = facets_of(FREE2)
        for bound in (1, 3, 6):
            assert check_normal(ctx, facets, bound).normal

    @settings(max_examples=150, deadline=None)
    @given(small_presentations(), st.integers(1, 6))
    @example(SemigroupPresentation(2, ((2, 0), (0, 1), (1, 1))), 4)
    @example(SemigroupPresentation(2, ((0, 3), (1, 1), (3, 0))), 6)
    @example(SemigroupPresentation(3, ((2, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1))), 3)
    # rank 2 in Z^4
    @example(SemigroupPresentation(4, ((1, 1, 1, 2), (1, 3, 0, 2))), 1)
    # (5, 0) is above the bound, yet its ray bounds the cone
    @example(SemigroupPresentation(2, ((0, 1), (1, 1), (5, 0))), 3)
    # lattice ((1, 0, 1), (0, 1, -3)): the -3 after the last pivot cuts runs to one point
    @example(SemigroupPresentation(3, ((2, 0, 2), (3, 0, 3), (3, 1, 0))), 1)
    # rank 2: the gap (9, 6, 7) is the midpoint of two generators
    @example(SemigroupPresentation(3, ((9, 2, 3), (9, 4, 5), (9, 8, 9))), 20)
    # rank 2 in Z^12: a is the gap of 2a, b, a + b
    @example(SemigroupPresentation(12, (TWO_A, (1,) * 12, A_PLUS_B)), 6)
    def test_matches_per_point_oracle(self, presentation, bound):
        ctx, facets = facets_of(presentation)
        verdict = check_normal(ctx, facets, bound)
        assert (verdict.normal, verdict.counterexample) == per_point_check_normal(
            ctx, facets, bound
        )
        assert verdict.bound == bound
        event("normal" if verdict.normal else "not normal")

    def test_closure_size_follows_lattice_rank(self):
        # 2a, a + b, 2b is normal; a bitset over the box in Z^12 would need 31^12 bits
        ctx, facets = facets_of(SemigroupPresentation(12, (TWO_A, A_PLUS_B, TWO_B)))
        assert ctx.rank == 2
        assert check_normal(ctx, facets, 30) == NormalityVerdict(True, None, 30)

    def test_bad_bound_rejected(self):
        ctx, facets = facets_of(FREE2)
        with pytest.raises(ValueError):
            check_normal(ctx, facets, 0)


class TestNaturalCombination:
    def test_simple_cases(self):
        gens = ((2, 0), (0, 1), (1, 1))
        assert is_natural_combination((0, 0), gens)
        assert is_natural_combination((3, 1), gens)
        assert not is_natural_combination((1, 0), gens)
        assert not is_natural_combination((3, 0), gens)
