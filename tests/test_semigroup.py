"""Presentations, contexts, membership, and the bounded normality check."""

import itertools
import random

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from fsig.cone import full_embedding
from fsig.errors import EmptyPresentation, InvalidPresentation
from fsig.exact import dot, lattice_points_in_box
from fsig.families import segre_generators, veronese_generators
from fsig.semigroup import (
    SemigroupPresentation,
    build_context,
    check_normal,
    member,
)

from oracles import is_natural_combination

FREE2 = SemigroupPresentation(2, ((1, 0), (0, 1)), name="free(2)")


def facets_of(presentation):
    ctx = build_context(presentation)
    return ctx, full_embedding(ctx).functionals


def per_point_check_normal(ctx, facets, bound):
    """Independent oracle: decide every box point by its own search."""
    box = [bound] * ctx.presentation.ambient_rank
    for v in lattice_points_in_box(ctx.lattice, box):
        if all(dot(f.coefficients, v) >= 0 for f in facets) and not is_natural_combination(
            v, ctx.presentation.generators
        ):
            return False, v
    return True, None


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
    def test_veronese_cases(self):
        ctx, facets = facets_of(veronese_generators(2, 2))
        assert member(ctx, facets, (3, 1))  # (2,0) + (1,1)
        assert not member(ctx, facets, (1, 0))  # odd sum, outside the group
        assert member(ctx, facets, (0, 0))

    def test_generators_are_members(self):
        for p in (FREE2, veronese_generators(2, 2), segre_generators(2, 2)):
            ctx, facets = facets_of(p)
            for g in p.generators:
                assert member(ctx, facets, g)

    def test_closure_under_addition_randomized(self):
        rng = random.Random(1801)
        ctx, facets = facets_of(veronese_generators(2, 2))
        box = list(itertools.product(range(7), repeat=2))
        members = [v for v in box if member(ctx, facets, v)]
        for _ in range(60):
            a = rng.choice(members)
            b = rng.choice(members)
            assert member(ctx, facets, tuple(x + y for x, y in zip(a, b)))

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
        # for normal inputs, membership equals brute-force generator search
        ctx, facets = facets_of(presentation)
        r = presentation.ambient_rank
        for v in itertools.product(range(7), repeat=r):
            assert member(ctx, facets, v) == is_natural_combination(
                v, presentation.generators
            )


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
    def test_matches_per_point_oracle(self, presentation, bound):
        ctx, facets = facets_of(presentation)
        verdict = check_normal(ctx, facets, bound)
        assert (verdict.normal, verdict.counterexample) == per_point_check_normal(
            ctx, facets, bound
        )
        assert verdict.bound == bound
        event("normal" if verdict.normal else "not normal")

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
