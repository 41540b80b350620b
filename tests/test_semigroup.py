"""Presentations, contexts, group-and-cone points, and the bounded normality check."""

import itertools
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from fsig.cone import full_embedding
from fsig.errors import EmptyPresentation, InvalidPresentation
from fsig.exact import (
    determinant,
    express_in_basis,
    lattice_coordinates,
    lattice_points_in_box,
    matrix_rank,
    vadd,
    vscale,
)
from fsig.families import segre_generators, veronese_generators
from fsig.semigroup import (
    NormalityVerdict,
    SemigroupPresentation,
    _certified_free,
    _walk,
    build_context,
    check_normal,
)
from fsig.signature import f_signature

from oracles import class_group_torsion, dot, is_natural_combination
from test_signature import FAMILY_MEMBERS, random_presentations

FREE2 = SemigroupPresentation(2, ((1, 0), (0, 1)), name="free(2)")
SEEDS = (20250811, 7)

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


@st.composite
def sublattice_presentations(draw):
    """Presentations whose lattice may have rank below r or index > 1 in its span.

    Each generator is a nonnegative combination of k <= r spanning vectors,
    all scaled by a common factor.
    """
    r = draw(st.integers(1, 4))
    k = draw(st.integers(1, r))
    vector = st.tuples(*[st.integers(0, 2)] * r).filter(any)
    spanning = draw(st.lists(vector, min_size=k, max_size=k))
    scale = draw(st.integers(1, 3))
    combos = st.tuples(*[st.integers(0, 2)] * k).filter(any)
    gens = set()
    for combo in draw(st.lists(combos, min_size=1, max_size=6, unique=True)):
        g = (0,) * r
        for c, v in zip(combo, spanning):
            g = vadd(g, vscale(scale * c, v))
        gens.add(g)
    return SemigroupPresentation(r, tuple(sorted(gens)))


def assert_generators_in_lattice(presentation):
    """Every generator is c @ basis for integer coordinates c, and the basis has full rank."""
    ctx = build_context(presentation)
    assert ctx.rank == ctx.lattice.nrows == matrix_rank(presentation.generators)
    for g, c in zip(presentation.generators, lattice_coordinates(presentation.generators, ctx.lattice)):
        assert c is not None, f"generator {g} escaped its own lattice"
        point = (0,) * presentation.ambient_rank
        for a, row in zip(c, ctx.lattice.rows):
            point = vadd(point, vscale(a, row))
        assert point == g


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

    @pytest.mark.parametrize(
        "generators",
        [
            ((1.5, 0), (0, 1), (Fraction(5, 2), 1)),  # was truncated to signature 1
            ((1, 0), (0, 1.0)),
            ((Fraction(2), 0), (0, 1)),
            (("1", 0), (0, 1)),
        ],
        ids=["halves", "float", "integral-fraction", "string"],
    )
    def test_non_integer_entry_rejected(self, generators):
        with pytest.raises(InvalidPresentation, match="must be integers"):
            SemigroupPresentation(2, generators)

    def test_bool_entries_read_as_integers(self):
        p = SemigroupPresentation(2, ((True, False), (False, True), (1, True)))
        assert p.generators == ((1, 0), (0, 1), (1, 1))
        assert all(type(x) is int for g in p.generators for x in g)


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

    # build_context keeps only the basis; that it spans every generator is checked here
    @pytest.mark.parametrize("presentation", FAMILY_MEMBERS, ids=lambda p: p.name)
    def test_family_generators_lie_in_the_lattice(self, presentation):
        assert_generators_in_lattice(presentation)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_generators_lie_in_the_lattice(self, seed):
        for presentation in random_presentations(seed, 40):
            assert_generators_in_lattice(presentation)

    @settings(max_examples=150, deadline=None)
    @given(sublattice_presentations())
    @example(SemigroupPresentation(2, ((2, 0), (0, 2))))
    @example(SemigroupPresentation(3, ((2, 2, 2), (4, 4, 4))))
    @example(segre_generators(2, 3))
    def test_generators_lie_in_the_lattice(self, presentation):
        assert_generators_in_lattice(presentation)


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
        # (1,0) is in the group and the cone but not generated.  Each facet
        # takes the value 1 on some generator and T is unimodular, so the
        # signature reads 1; but no generator takes the values (1, 0), so the
        # semigroup is not certified free and the walk finds the gap.
        gap = SemigroupPresentation(2, ((2, 0), (0, 1), (1, 1)))
        ctx, facets = facets_of(gap)
        assert all(1 in f.values_on_generators for f in facets)
        assert abs(determinant(full_embedding(ctx).matrix_T)) == 1
        assert f_signature(gap).value == 1
        assert not _certified_free(ctx, facets)
        assert check_normal(ctx, facets, 4) == NormalityVerdict(False, (1, 0), 4)

    def test_fewer_facets_than_rank_are_walked(self):
        # (1,0), (1,1) is free, but given only the facet with ray (0,1) its
        # half-plane holds the gap (0,1); that one facet has the unit value
        # (1,) on (1,1)
        ctx, facets = facets_of(SemigroupPresentation(2, ((1, 0), (1, 1))))
        assert _certified_free(ctx, facets)
        upper = [f for f in facets if f.ray == (0, 1)]
        assert check_normal(ctx, upper, 2) == NormalityVerdict(False, (0, 1), 2)
        assert per_point_check_normal(ctx, upper, 2) == (False, (0, 1))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_certificate_agrees_with_the_walk(self, seed):
        for presentation in random_presentations(seed, 40):
            ctx, facets = facets_of(presentation)
            assert check_normal(ctx, facets, 6) == _walk(ctx, facets, 6), presentation

    def test_free_input_builds_no_bitset(self):
        # rank 5 at bound 40: the walk would close a bitset of 41^5 bits and
        # walk 41^4 runs; the certificate needs neither
        gens = ((2, 0, 0, 0, 2), (0, 1, 0, 0, 2), (0, 0, 1, 0, 2), (0, 0, 0, 1, 2), (1, 1, 0, 0, 2))
        ctx, facets = facets_of(SemigroupPresentation(5, gens))

        def profile(frame, event, arg):
            if event == "call" and frame.f_code.co_name in ("_tile", "_lattice_runs"):
                raise AssertionError(f"check_normal called {frame.f_code.co_name}")

        sys.setprofile(profile)
        try:
            verdict = check_normal(ctx, facets, 40)
        finally:
            sys.setprofile(None)
        assert verdict == NormalityVerdict(True, None, 40)

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
    # free, on a basis other than the unit vectors
    @example(SemigroupPresentation(3, ((1, 1, 0), (0, 1, 1), (0, 0, 1), (1, 2, 1))), 4)
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


def assert_torsion_bound(result, presentation):
    """s*h <= 1 for h = g_T, the order of the class group's torsion, with
    equality exactly at corank 0 (n = d): s = 1/|det T| = 1/h for a square T,
    and s*h < 1 for every T with more rows than its rank."""
    emb = result.embedding
    h = class_group_torsion(emb)
    assert result.value * h <= 1, presentation
    assert (result.value == Fraction(1, h)) == (emb.num_coordinates == emb.rank), presentation


class TestSignatureOneIffCertifiedFree:
    """s = 1 iff the ring is regular (Huneke-Leuschke), here iff the semigroup
    is free; and s <= 1/h, with equality for a simplicial cone."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_inputs_normal_up_to_bound_6(self, seed):
        for p in random_presentations(seed, 40):
            ctx, facets = facets_of(p)
            if check_normal(ctx, facets, 6).normal:
                result = f_signature(p)
                assert (result.value == 1) == _certified_free(ctx, facets), p
                assert_torsion_bound(result, p)

    @pytest.mark.parametrize(
        "presentation",
        [FREE2, *FAMILY_MEMBERS, *(veronese_generators(1, n) for n in (2, 3, 4, 5))],
        ids=lambda p: p.name,
    )
    def test_families(self, presentation):
        # normal by construction
        free = _certified_free(*facets_of(presentation))
        result = f_signature(presentation)
        assert (result.value == 1) == free
        assert_torsion_bound(result, presentation)


class TestNaturalCombination:
    def test_simple_cases(self):
        gens = ((2, 0), (0, 1), (1, 1))
        assert is_natural_combination((0, 0), gens)
        assert is_natural_combination((3, 1), gens)
        assert not is_natural_combination((1, 0), gens)
        assert not is_natural_combination((3, 0), gens)
