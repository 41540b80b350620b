"""Dual cone rays, facet functionals, the full embedding, and witnesses."""

import itertools
import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import test_signature
from fsig import cone, exact, semigroup
from fsig.cone import (
    FullEmbedding,
    extreme_rays,
    fraction_field_witness,
    full_embedding,
)
from fsig.exact import (
    IntegerMatrix,
    express_in_basis,
    hermite_basis,
    lattice_coordinates,
    matrix_rank,
    primitive_vector,
    solve_linear_system,
)
from fsig.families import segre_generators, veronese_generators
from fsig.frobenius import count_aq
from fsig.semigroup import SemigroupPresentation, build_context
from fsig.signature import f_signature

from oracles import dot, gram_inverse_embedding, is_natural_combination
from test_semigroup import SEEDS, sublattice_presentations

FREE2 = SemigroupPresentation(2, ((1, 0), (0, 1)), name="free(2)")
RESCALED = SemigroupPresentation(2, ((2, 0), (0, 2)), name="rescaled")


def brute_rays(constraints, m):
    """Independent oracle: a ray of a pointed cone spans the nullspace of a
    rank m-1 subset of constraints and is nonnegative on all of them."""
    out = set()
    for subset in itertools.combinations(range(len(constraints)), m - 1):
        rows = [constraints[i] for i in subset]
        if matrix_rank(rows) != m - 1:
            continue
        direction = None
        for pin in range(m):
            aug = [list(r) for r in rows] + [[1 if j == pin else 0 for j in range(m)]]
            if matrix_rank(aug) == m:
                direction = solve_linear_system(aug, [0] * (m - 1) + [1])
                break
        for sign in (1, -1):
            cand = tuple(sign * x for x in direction)
            if all(dot(c, cand) >= 0 for c in constraints):
                tight = [c for c in constraints if dot(c, cand) == 0]
                if matrix_rank(tight) == m - 1:
                    out.add(primitive_vector(cand))
    return sorted(out)


@st.composite
def pointed_systems(draw):
    # positive multiples of drawn rows repeat a facet; on a repeated facet
    # non-adjacent rays share dim - 2 tight rows, so only the third-ray
    # check tells them apart
    m = draw(st.integers(2, 4))
    rows = draw(
        st.lists(st.tuples(*[st.integers(-2, 2)] * m), min_size=m, max_size=m + 3)
    )
    for k in draw(st.lists(st.integers(0, len(rows) - 1), max_size=3)):
        scaled = tuple(draw(st.integers(1, 2)) * x for x in rows[k])
        rows.insert(draw(st.integers(0, len(rows))), scaled)
    return rows


class TestExtremeRays:
    def test_orthant_is_self_dual(self):
        assert extreme_rays([(1, 0), (0, 1)]) == [(0, 1), (1, 0)]

    def test_redundant_constraint_ignored(self):
        assert extreme_rays([(1, 0), (0, 1), (1, 1)]) == [(0, 1), (1, 0)]

    def test_three_dimensional_cross_check(self):
        # cone x>=0, y>=0, z>=0, x+y-z>=0: the last cuts the (0,0,1) ray
        rays = extreme_rays([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)])
        for r in rays:
            assert all(dot(c, r) >= 0 for c in [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)])
        assert sorted(rays) == [(0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 0, 1)]

    def test_rank_deficient_rejected(self):
        with pytest.raises(ValueError):
            extreme_rays([(1, 0), (2, 0)])

    def test_matches_subset_enumeration_oracle(self):
        rng = random.Random(99)
        checked = 0
        while checked < 60:
            m = rng.randint(2, 4)
            k = rng.randint(m, m + 4)
            constraints = [tuple(rng.randint(-3, 3) for _ in range(m)) for _ in range(k)]
            if matrix_rank(constraints) < m:
                continue
            assert extreme_rays(constraints) == brute_rays(constraints, m)
            checked += 1

    def test_duplicated_and_positively_combined_rows(self):
        # a duplicate or a positive combination of rows cuts nothing off the
        # cone, but it enlarges tight sets: two rays can then share dim - 2
        # tight rows without being adjacent
        rng = random.Random(7)
        checked = 0
        while checked < 40:
            m = rng.randint(2, 4)
            constraints = [
                tuple(rng.randint(-3, 3) for _ in range(m))
                for _ in range(rng.randint(m, m + 3))
            ]
            if matrix_rank(constraints) < m:
                continue
            a, b = rng.choice(constraints), rng.choice(constraints)
            extra = [a, tuple(rng.randint(1, 3) * x + y for x, y in zip(a, b))]
            for row in extra:
                constraints.insert(rng.randint(0, len(constraints)), row)
            assert extreme_rays(constraints) == brute_rays(constraints, m)
            checked += 1

    @pytest.mark.parametrize(
        "presentation",
        [segre_generators(2, 3), veronese_generators(3, 2)],
        ids=lambda p: p.name,
    )
    def test_homogenized_signature_polytope_system(self, presentation):
        # the cone over {0 <= Tx <= 1}: every vertex ray is tight on many rows
        t_rows = full_embedding(build_context(presentation)).matrix_T.rows
        d = len(t_rows[0])
        constraints = [(0,) * d + (1,)]
        for w in t_rows:
            constraints += [w + (0,), tuple(-a for a in w) + (1,)]
        rays = extreme_rays(constraints)
        assert rays == brute_rays(constraints, d + 1)
        assert all(r[-1] > 0 for r in rays)

    @settings(max_examples=200, deadline=None, database=None)
    @given(pointed_systems())
    def test_matches_oracle_on_any_pointed_cone(self, constraints):
        m = len(constraints[0])
        assume(matrix_rank(constraints) == m)
        assert extreme_rays(constraints) == brute_rays(constraints, m)


def dual_cone_rays(presentation):
    """The facets' primitive ambient rays, in the embedding's sorted order."""
    return [f.ray for f in full_embedding(build_context(presentation)).functionals]


class TestDualConeRays:
    def test_free_semigroup(self):
        assert dual_cone_rays(FREE2) == [(0, 1), (1, 0)]

    def test_slanted_cone(self):
        rays = dual_cone_rays(SemigroupPresentation(2, ((1, 0), (1, 2))))
        assert rays == [(0, 1), (2, -1)]
        # (0,1) vanishes on (1,0) and is positive on (1,2); (2,-1) conversely
        assert dot((0, 1), (1, 0)) == 0 and dot((0, 1), (1, 2)) > 0
        assert dot((2, -1), (1, 2)) == 0 and dot((2, -1), (1, 0)) > 0

    def test_segre_cone_has_four_facets(self):
        p = segre_generators(2, 2)
        rays = dual_cone_rays(p)
        assert len(rays) == 4
        for ray in rays:
            values = [dot(ray, g) for g in p.generators]
            assert all(v >= 0 for v in values)
            # a facet of the cone over a square touches exactly two generators
            assert sum(1 for v in values if v == 0) == 2

    def test_segre_rays_frozen(self):
        rays = dual_cone_rays(segre_generators(2, 2))
        assert rays == [(-1, 3, 1, 1), (1, 1, -1, 3), (1, 1, 3, -1), (3, -1, 1, 1)]


def random_presentations(seed, count):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        r = rng.randint(2, 4)
        gens = {tuple(rng.randint(0, 3) for _ in range(r)) for _ in range(rng.randint(2, 6))}
        gens.discard((0,) * r)
        if gens:
            out.append(SemigroupPresentation(r, tuple(sorted(gens)), f"random-{len(out)}"))
    return out


class TestFullEmbedding:
    @pytest.mark.parametrize(
        "presentation, facets",
        [
            (RESCALED, [((0, Fraction(1, 2)), (0, 1)), ((Fraction(1, 2), 0), (1, 0))]),
            (veronese_generators(2, 2), [((0, 1), (0, 1, 2)), ((1, 0), (2, 1, 0))]),
        ],
        ids=["rescaled", "veronese(2,2)"],
    )
    def test_functionals_frozen(self, presentation, facets):
        emb = full_embedding(build_context(presentation))
        assert [(f.coefficients, f.values_on_generators) for f in emb.functionals] == facets

    @pytest.mark.parametrize(
        "presentation",
        [FREE2, RESCALED, segre_generators(2, 3), segre_generators(3, 3)]
        + [veronese_generators(d, n) for d in (2, 3) for n in (2, 3)]
        + random_presentations(20250811, 40),
        ids=lambda p: p.name,
    )
    def test_rows_are_the_lattice_rays(self, presentation):
        # each row of T is a primitive extreme ray of the cone of the generator
        # coordinates, and the functional takes the same values on the
        # generators as the row takes on their coordinates; the coordinates
        # are read here, as full_embedding never writes a generator in them
        ctx = build_context(presentation)
        coords = lattice_coordinates(presentation.generators, ctx.lattice)
        emb = full_embedding(ctx)
        rows = emb.matrix_T.rows
        assert sorted(rows) == brute_rays(coords, ctx.rank)
        assert all(primitive_vector(w) == w for w in rows)
        for w, f in zip(rows, emb.functionals):
            values = tuple(dot(w, c) for c in coords)
            assert values == f.values_on_generators
            assert values == tuple(dot(f.coefficients, g) for g in presentation.generators)

    @pytest.mark.parametrize(
        "presentation",
        [FREE2, RESCALED, segre_generators(2, 3), segre_generators(3, 3)]
        + [veronese_generators(d, n) for d in (2, 3) for n in (2, 3)]
        + random_presentations(20250811, 40),
        ids=lambda p: p.name,
    )
    def test_integer_ray_gives_the_coefficients(self, presentation):
        # the stored ray is the primitive form of the rational functional,
        # the denominator is its common denominator, and the functional takes
        # the values of its row w of T on the Hermite basis rows
        ctx = build_context(presentation)
        emb = full_embedding(ctx)
        for w, f in zip(emb.matrix_T.rows, emb.functionals):
            coefficients = f.coefficients
            assert f.ray == primitive_vector(coefficients)
            assert gcd(*f.ray) == 1 and f.denominator > 0
            assert f.denominator == lcm(*(c.denominator for c in coefficients))
            assert tuple(dot(coefficients, b) for b in ctx.lattice.rows) == w

    def test_two_eliminations_and_no_coordinates(self, monkeypatch):
        # one elimination starts the double description, one checks the rank
        # of T; the build writes no generator in lattice coordinates
        bareiss, calls = exact._bareiss, []

        def counted(*args, **kwargs):
            calls.append(args[1])
            return bareiss(*args, **kwargs)

        def refuse(*args, **kwargs):
            raise AssertionError("a generator was written in lattice coordinates")

        monkeypatch.setattr(exact, "_bareiss", counted)
        for module in (exact, semigroup, cone):
            monkeypatch.setattr(module, "lattice_coordinates", refuse, raising=False)
        for presentation in [FREE2, RESCALED, segre_generators(3, 3), veronese_generators(3, 3)]:
            ctx = build_context(presentation)
            calls.clear()
            full_embedding(ctx)
            assert len(calls) == 2, presentation.name

    def test_rescaled_presentation_embeds_onto_unit_vectors(self):
        emb = full_embedding(build_context(RESCALED))
        assert sorted(emb.image_generators) == [(0, 1), (1, 0)]

    def test_free_semigroup_embedding_is_coordinate_bijection(self):
        emb = full_embedding(build_context(FREE2))
        assert sorted(emb.image_generators) == [(0, 1), (1, 0)]
        assert sorted(emb.matrix_T.rows) == [(0, 1), (1, 0)]

    def test_veronese_functionals_are_coordinates(self):
        emb = full_embedding(build_context(veronese_generators(2, 2)))
        assert sorted(f.coefficients for f in emb.functionals) == [
            (Fraction(0), Fraction(1)),
            (Fraction(1), Fraction(0)),
        ]
        assert sorted(emb.image_generators) == [(0, 2), (1, 1), (2, 0)]

    def test_facet_invariants(self):
        from math import gcd

        for p in (FREE2, RESCALED, veronese_generators(2, 2), segre_generators(2, 3)):
            emb = full_embedding(build_context(p))
            for f in emb.functionals:
                assert all(v >= 0 for v in f.values_on_generators)
                assert any(v == 0 for v in f.values_on_generators)  # touches the cone
                assert gcd(*f.values_on_generators) == 1

    @pytest.mark.parametrize(
        "presentation",
        [veronese_generators(2, 2), RESCALED, segre_generators(2, 2)],
        ids=lambda p: p.name,
    )
    def test_image_is_full_on_a_box(self, presentation):
        # every nonnegative group element with coordinates <= 6 is generated
        emb = full_embedding(build_context(presentation))
        n = emb.num_coordinates
        for u in itertools.product(range(7), repeat=n):
            if express_in_basis(u, emb.image_lattice) is not None:
                assert is_natural_combination(u, emb.image_generators)

    def test_embedding_the_image_preserves_signature(self):
        for p in (veronese_generators(2, 2), segre_generators(2, 2)):
            emb = full_embedding(build_context(p))
            image_presentation = SemigroupPresentation(
                emb.num_coordinates, emb.image_generators
            )
            assert f_signature(image_presentation).value == f_signature(p).value


def assert_same_embedding(presentation):
    ctx = build_context(presentation)
    emb, reference = full_embedding(ctx), gram_inverse_embedding(ctx)
    for field, ours, theirs in zip(FullEmbedding._fields, emb, reference):
        assert ours == theirs, (presentation, field)


class TestGramInverseRoute:
    """full_embedding equals the facets read through lattice coordinates and a Gram inverse."""

    @pytest.mark.parametrize("presentation", test_signature.FAMILY_MEMBERS, ids=lambda p: p.name)
    def test_families(self, presentation):
        assert_same_embedding(presentation)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_corpus(self, seed):
        for presentation in test_signature.random_presentations(seed, 40):
            assert_same_embedding(presentation)

    @settings(max_examples=150, deadline=None)
    @given(sublattice_presentations())
    @example(RESCALED)
    @example(SemigroupPresentation(3, ((2, 0, 2), (0, 2, 2), (2, 2, 4))))
    @example(segre_generators(2, 2))
    @example(segre_generators(2, 3))
    def test_sublattices(self, presentation):
        # lattices of rank below the ambient rank or of index > 1 in their span
        assert_same_embedding(presentation)


class TestLazyImageLattice:
    """image_lattice is built on first read, from T, and only the counting code reads it."""

    @pytest.mark.parametrize(
        "presentation",
        [FREE2, RESCALED, segre_generators(2, 3), segre_generators(3, 3)]
        + [veronese_generators(d, n) for d in (2, 3) for n in (2, 3)]
        + random_presentations(20250811, 40),
        ids=lambda p: p.name,
    )
    def test_is_the_hermite_basis_of_the_image(self, presentation):
        emb = full_embedding(build_context(presentation))
        assert "image_lattice" not in vars(emb)
        assert emb.image_lattice == hermite_basis(emb.matrix_T.transpose())
        assert emb.image_lattice is emb.image_lattice

    @given(
        st.integers(1, 4).flatmap(
            lambda d: st.lists(st.tuples(*[st.integers(-3, 3)] * d), min_size=1, max_size=d + 3)
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_random_embeddings(self, rows):
        emb = FullEmbedding((), IntegerMatrix(tuple(rows)), (), len(rows[0]))
        assert emb.image_lattice == hermite_basis(IntegerMatrix(tuple(zip(*rows))))

    def test_built_once_and_only_by_the_counting_code(self, monkeypatch):
        calls = []

        def counted(m):
            calls.append(m)
            return hermite_basis(m)

        monkeypatch.setattr(cone, "hermite_basis", counted)
        result = f_signature(segre_generators(2, 2))
        assert calls == []
        emb = result.embedding
        assert count_aq(emb, 3).a_q == 19
        assert len(calls) == 1
        assert count_aq(emb, 4).a_q == 44
        assert len(calls) == 1


class TestFractionFieldWitness:
    def test_free_semigroup_frozen(self):
        emb = full_embedding(build_context(FREE2))
        assert fraction_field_witness(emb, 0) == (-1, 1)
        assert fraction_field_witness(emb, 1) == (1, -1)

    def test_veronese_frozen(self):
        emb = full_embedding(build_context(veronese_generators(2, 2)))
        v = fraction_field_witness(emb, 0)
        assert v == (-1, 1)
        assert express_in_basis(v, emb.image_lattice) is not None

    def test_witness_properties_across_coordinates(self):
        for p in (FREE2, veronese_generators(2, 2), segre_generators(2, 2)):
            emb = full_embedding(build_context(p))
            n = emb.num_coordinates
            for i in range(n):
                v = fraction_field_witness(emb, i)
                assert v[i] == -1
                assert all(v[j] >= 0 for j in range(n) if j != i)
                assert express_in_basis(v, emb.image_lattice) is not None

    def test_index_out_of_range(self):
        emb = full_embedding(build_context(FREE2))
        with pytest.raises(ValueError):
            fraction_field_witness(emb, 5)
