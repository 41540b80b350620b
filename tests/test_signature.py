"""Signature polytope vertices, exact volumes, and the signature pipeline."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fsig import signature
from fsig.cone import FullEmbedding, full_embedding
from fsig.errors import Unbounded
from fsig.exact import IntegerMatrix, clear_denominators, matrix_rank
from fsig.families import segre_generators, segre_signature, veronese_generators
from fsig.semigroup import SemigroupPresentation, build_context
from fsig.signature import (
    SignaturePolytope,
    _closed_form,
    _facets,
    _tight_sets,
    _walk_volume,
    f_signature,
    polytope_volume,
    signature_polytope,
)

from oracles import boundary_fan, centroid_volume, fan_volume, fraction_tight_sets

FREE2 = SemigroupPresentation(2, ((1, 0), (0, 1)), name="free(2)")


def random_presentations(seed=20250811, per_cell=2):
    """Random presentations drawn like the sig-random benchmark corpus.

    Ambient rank 2-4, 2-8 distinct nonzero generators with entries <= 3, one
    random stream per (rank, generator count) cell; many are not normal.
    """
    for r in (2, 3, 4):
        for k in range(2, 9):
            rng = random.Random(f"sig-random:{seed}:{r}:{k}")
            for index in range(per_cell):
                gens = set()
                while len(gens) < k:
                    g = tuple(rng.randint(0, 3) for _ in range(r))
                    if any(g):
                        gens.add(g)
                perm = list(range(r))
                rng.shuffle(perm)  # keeps the stream in step with the benchmark
                yield SemigroupPresentation(r, tuple(sorted(gens)), name=f"random[{r},{k}]#{index}")


FAMILY_MEMBERS = [segre_generators(r, s) for r in range(2, 5) for s in range(r, 9 - r)] + [
    veronese_generators(d, n) for n, top in ((2, 6), (3, 5)) for d in range(2, top + 1)
]


def hand_made(vertices, rows):
    """The slab of the rows, with its vertices given instead of enumerated."""
    vertices = sorted(tuple(map(Fraction, v)) for v in vertices)
    polytope = SignaturePolytope(tuple(rows), len(vertices[0]))
    cleared = tuple(zip(*map(clear_denominators, vertices)))
    object.__setattr__(polytope, "_homogeneous", cleared)  # fills the cached_property
    return polytope


def degenerate_embedding(rows):
    return FullEmbedding((), IntegerMatrix(rows), (), 2)


@st.composite
def slab_polytopes(draw):
    """{x in R^d : 0 <= Tx <= 1} for a random small integer T of rank d."""
    d = draw(st.integers(1, 4))
    rows = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * d), min_size=d, max_size=d + 2))
    assume(matrix_rank(rows) == d)
    polytope = signature_polytope(FullEmbedding((), IntegerMatrix(rows), (), d))
    try:
        polytope.vertices
    except Unbounded:  # not full-dimensional, e.g. rows w and -w pin w . x to 0
        assume(False)
    return polytope


@st.composite
def corank_at_most_one(draw):
    """Integer rows T of rank d <= 5, d or d + 1 of them."""
    d = draw(st.integers(1, 5))
    n = draw(st.sampled_from((d, d + 1)))
    rows = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * d), min_size=n, max_size=n))
    assume(matrix_rank(rows) == d)
    return tuple(rows)


UNIT_CUBE = hand_made(itertools.product((0, 1), repeat=3), ((1, 0, 0), (0, 1, 0), (0, 0, 1)))


def F(a, b=1):
    return Fraction(a, b)


class TestSignaturePolytope:
    def test_unit_square(self):
        emb = full_embedding(build_context(FREE2))
        p = signature_polytope(emb)
        assert p.vertices == (
            (F(0), F(0)),
            (F(0), F(1)),
            (F(1), F(0)),
            (F(1), F(1)),
        )

    def test_veronese_strip_vertices(self):
        emb = full_embedding(build_context(veronese_generators(2, 2)))
        p = signature_polytope(emb)
        assert p.vertices == (
            (F(0), F(0)),
            (F(0), F(1, 2)),
            (F(1), F(-1, 2)),
            (F(1), F(0)),
        )

    @pytest.mark.parametrize(
        "rows", [((1, 0), (2, 0)), ((1, 1),), ((1, 0),), ((1, 1), (2, 2), (1, 1))], ids=str
    )
    def test_rank_deficient_embedding_is_not_pointed(self, rows):
        # rows of rank below d leave a line in the slab, which is decided
        # before the double description; the slab is built lazily, so reading
        # its vertices or its volume raises
        for read in (lambda p: p.vertices, polytope_volume):
            with pytest.raises(Unbounded, match="contains a line"):
                read(SignaturePolytope(rows, 2))

    def test_opposite_functionals_give_a_flat_polytope(self):
        # 0 <= x <= 1 and 0 <= -x <= 1 pin x to 0: a segment, not a polygon
        for read in (lambda p: p.vertices, polytope_volume):
            with pytest.raises(Unbounded, match="not full-dimensional"):
                read(signature_polytope(degenerate_embedding(((1, 0), (-1, 0), (0, 1)))))

    def test_vertices_are_enumerated_on_first_read(self):
        polytope = signature_polytope(full_embedding(build_context(segre_generators(2, 3))))
        assert "vertices" not in vars(polytope) and "_homogeneous" not in vars(polytope)
        assert polytope_volume(polytope) == segre_signature(2, 3)
        assert "vertices" not in vars(polytope) and "_homogeneous" not in vars(polytope)
        assert len(polytope.vertices) == len(polytope._homogeneous[0]) > 0

    @pytest.mark.parametrize(
        "presentation", [FREE2, *FAMILY_MEMBERS, *random_presentations()], ids=lambda p: p.name
    )
    def test_vertices_sorted_by_rational_value(self, presentation):
        # signature_polytope sorts integer rows scaled to one denominator;
        # the order must be that of the rational vertices
        vertices = signature_polytope(full_embedding(build_context(presentation))).vertices
        assert vertices == tuple(sorted(vertices))

    @given(slab_polytopes())
    @settings(max_examples=60, deadline=None)
    def test_vertices_sorted_on_random_embeddings(self, polytope):
        assert polytope.vertices == tuple(sorted(polytope.vertices))

    def test_contains_origin_and_is_bounded(self):
        for pres in (FREE2, veronese_generators(3, 2), segre_generators(2, 2)):
            emb = full_embedding(build_context(pres))
            p = signature_polytope(emb)
            origin = (F(0),) * p.dim
            assert origin in p.vertices
            assert len(p.half_spaces) == 2 * emb.num_coordinates


class TestPolytopeVolume:
    def test_unit_square(self):
        emb = full_embedding(build_context(FREE2))
        assert polytope_volume(signature_polytope(emb)) == 1

    def test_standard_triangle(self):
        triangle = hand_made([(0, 0), (0, 1), (1, 0)], [(1, 0), (0, 1), (1, 1)])
        assert polytope_volume(triangle) == F(1, 2) == fan_volume(triangle) == _walk_volume(triangle)

    def test_unit_cube_face_lattice(self):
        # [0,1]^3: each of the 3 facets missing the origin is a square, fanned
        # into 2 triangles; the 3 facets through the origin add no simplex
        cube = UNIT_CUBE
        fan = boundary_fan(cube)
        assert len(fan) == 6
        assert all(facet.bit_count() == 4 for facet in fan)
        origin_bit = 1 << cube.vertices.index((F(0),) * 3)
        missing_origin = [len(s) for f, s in fan.items() if not f & origin_bit]
        assert missing_origin == [2, 2, 2]
        assert polytope_volume(cube) == 1 == fan_volume(cube) == _walk_volume(cube)

    def test_veronese_strip(self):
        emb = full_embedding(build_context(veronese_generators(2, 2)))
        assert polytope_volume(signature_polytope(emb)) == F(1, 2)

    @pytest.mark.parametrize(
        "vertices,rows,volume",
        [
            # triangle with vertex denominators 1, 2, 3 (0 <= x, y <= 1 are slack)
            ([(0, 0), (F(1, 2), 0), (0, F(1, 3))], [(1, 0), (0, 1), (2, 3)], F(1, 12)),
            # rectangle whose far corner has denominator 6
            ([(0, 0), (F(1, 2), 0), (0, F(1, 3)), (F(1, 2), F(1, 3))], [(2, 0), (0, 3)], F(1, 6)),
            # simplex with vertex denominators 1, 2, 3, 5
            (
                [(0, 0, 0), (F(1, 2), 0, 0), (0, F(1, 3), 0), (0, 0, F(1, 5))],
                [(1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 3, 5)],
                F(1, 180),
            ),
        ],
        ids=["triangle", "rectangle", "simplex"],
    )
    def test_mixed_vertex_denominators(self, vertices, rows, volume):
        p = hand_made(vertices, rows)
        assert SignaturePolytope(tuple(rows), p.dim).vertices == p.vertices
        assert _tight_sets(p) == fraction_tight_sets(p.half_spaces, p.vertices)
        assert polytope_volume(p) == volume == _closed_form(p) == _walk_volume(p)
        assert fan_volume(p) == volume == centroid_volume(p)

    @pytest.mark.parametrize(
        "presentation", [FREE2, *FAMILY_MEMBERS, *random_presentations()], ids=lambda p: p.name
    )
    def test_self_check_decompositions_agree(self, presentation):
        # the integer route against the Fraction one: tight sets and volume;
        # the walk against a determinant per simplex of the listed fan
        emb = full_embedding(build_context(presentation))
        p = signature_polytope(emb)
        assert _tight_sets(p) == fraction_tight_sets(p.half_spaces, p.vertices)
        assert _walk_volume(p) == fan_volume(p) == centroid_volume(p) == polytope_volume(p)

    @pytest.mark.parametrize(
        "presentation", [FREE2, *FAMILY_MEMBERS, *random_presentations()], ids=lambda p: p.name
    )
    def test_rows_and_scales_are_the_cleared_vertices(self, presentation):
        # signature_polytope sets the DD rays as the homogeneous rows and
        # scales; clearing the rational vertices must give the same
        p = signature_polytope(full_embedding(build_context(presentation)))
        assert p._homogeneous == tuple(zip(*map(clear_denominators, p.vertices)))

    @pytest.mark.parametrize(
        "presentation",
        [FREE2, veronese_generators(2, 2), veronese_generators(2, 3)],
        ids=lambda p: p.name,
    )
    def test_two_dimensional_shoelace_oracle(self, presentation):
        # independent exact area: order vertices by angle around the centroid
        # and apply the shoelace formula
        emb = full_embedding(build_context(presentation))
        p = signature_polytope(emb)
        cx = sum(v[0] for v in p.vertices) / len(p.vertices)
        cy = sum(v[1] for v in p.vertices) / len(p.vertices)

        def half_plane_angle_key(v):
            dx, dy = v[0] - cx, v[1] - cy
            return (0 if dy > 0 or (dy == 0 and dx > 0) else 1, Fraction(0) if dx == 0 else dy / dx)

        ring = sorted(p.vertices, key=half_plane_angle_key)
        twice_area = sum(
            ring[i][0] * ring[(i + 1) % len(ring)][1]
            - ring[(i + 1) % len(ring)][0] * ring[i][1]
            for i in range(len(ring))
        )
        assert abs(twice_area) / 2 == polytope_volume(p)

    @settings(max_examples=150, deadline=None, database=None)
    @given(slab_polytopes())
    def test_walk_matches_per_simplex_sum_on_random_slabs(self, p):
        assert _walk_volume(p) == fan_volume(p) == centroid_volume(p) == polytope_volume(p)

    @pytest.mark.parametrize("seed,walked", [(20250811, 182), (7, 185)])
    def test_walk_meets_the_centroid_route_on_the_random_stream(self, seed, walked):
        # the corank >= 2 inputs of the stream TestClosedForm reads at corank <= 1
        compared = 0
        for presentation in random_presentations(seed, per_cell=40):
            p = signature_polytope(full_embedding(build_context(presentation)))
            if corank(p) >= 2:
                assert _walk_volume(p) == centroid_volume(p), presentation
                compared += 1
        assert compared == walked

    @pytest.mark.parametrize(
        "polytope",
        [
            UNIT_CUBE,
            *(
                signature_polytope(full_embedding(build_context(g)))
                for g in (segre_generators(2, 3), veronese_generators(3, 2), veronese_generators(2, 3))
            ),
        ],
        ids=["cube", "segre(2,3)", "veronese(3,2)", "veronese(2,3)"],
    )
    def test_merged_faces_do_not_pass_unnoticed(self, polytope, monkeypatch):
        # two facets merged into one tight set; a pair through the origin is
        # never walked, so each pair merged here has a facet the walk visits
        true_volume = fan_volume(polytope)
        tight = _tight_sets(polytope)
        origin = polytope.vertices.index((F(0),) * polytope.dim)
        facets = _facets((1 << len(polytope.vertices)) - 1, tight)
        pairs = [(a, b) for a, b in itertools.combinations(facets, 2) if not (a & b) >> origin & 1]
        assert pairs
        outcomes = set()
        for a, b in pairs:
            merged = tight - {a, b} | {a | b}
            monkeypatch.setattr(signature, "_tight_sets", lambda _: merged)
            try:
                volume = _walk_volume(polytope)
            except ArithmeticError as error:
                assert "does not fan into simplices" in str(error), error
                outcomes.add("raised")
            else:
                assert volume != true_volume, (bin(a), bin(b))
                outcomes.add("differed")
        assert "raised" in outcomes

    @pytest.mark.parametrize(
        "vertices,tight,face",
        [
            # unit square, vertices 0=(0,0) 1=(0,1) 2=(1,0) 3=(1,1), with the
            # facets {1,3} and {2,3} merged and {2,3} kept as well: {1,2,3} is
            # fanned from 1 over {2,3}, whose one facet {2} holds its apex, so
            # a face of two vertices is left with one row entry
            ([(0, 0), (0, 1), (1, 0), (1, 1)], {0b0011, 0b0101, 0b1110, 0b1100}, 0b1100),
            # 0=(0,0) 1=(1,1) 2=(2,0) 3=(2,2) with an edge {1,3} through the
            # origin's line: vertex 3's row is left all zero under pivot row 1
            ([(0, 0), (1, 1), (2, 0), (2, 2)], {0b0011, 0b0101, 0b1010, 0b1100}, 0b1000),
        ],
        ids=["two-vertices-left", "zero-apex-row"],
    )
    def test_broken_face_lattice_raises(self, vertices, tight, face, monkeypatch):
        polygon = hand_made(vertices, [])
        monkeypatch.setattr(signature, "_tight_sets", lambda _: tight)
        with pytest.raises(ArithmeticError, match=f"face {face:#b} does not fan"):
            _walk_volume(polygon)


def corank(polytope):
    return len(polytope.rows) - polytope.dim


class TestClosedForm:
    """Corank <= 1 is read in closed form; it must equal the walk exactly."""

    @pytest.mark.parametrize("seed,closed", [(20250811, 658), (7, 655)])
    def test_routes_agree_on_the_random_stream(self, seed, closed):
        # the benchmark's 40 presentations per cell, 840 per seed; a non-normal
        # one is measured through its normalization
        compared = 0
        for presentation in random_presentations(seed, per_cell=40):
            p = signature_polytope(full_embedding(build_context(presentation)))
            if corank(p) <= 1:
                assert _closed_form(p) == _walk_volume(p) is not None, presentation
                compared += 1
        assert compared == closed

    @pytest.mark.parametrize("presentation", FAMILY_MEMBERS, ids=lambda p: p.name)
    def test_routes_agree_on_the_families(self, presentation):
        p = signature_polytope(full_embedding(build_context(presentation)))
        assert corank(p) <= 1
        assert _closed_form(p) == _walk_volume(p) == polytope_volume(p)

    @settings(max_examples=150, deadline=None, database=None)
    @given(corank_at_most_one())
    def test_routes_agree_on_random_matrices(self, rows):
        # a zero row or a flat slab is left to the walk, which measures or raises
        p = SignaturePolytope(rows, len(rows[0]))
        try:
            walked = _walk_volume(p)
        except Unbounded:
            assert _closed_form(p) is None
            with pytest.raises(Unbounded, match="not full-dimensional"):
                polytope_volume(p)
            return
        assert polytope_volume(p) == walked == centroid_volume(p)
        if all(map(any, rows)):
            assert _closed_form(p) == walked

    def test_minor_gcd_divides_the_volume(self):
        # the maximal minors of T are +-4, so g_T = 4 and a = (1, 1, -1) up
        # to sign: the triangle x, y >= 0, x + y <= 1/2 has area 1/8, not 1/2
        p = SignaturePolytope(((2, 0), (0, 2), (2, 2)), 2)
        assert _closed_form(p) == F(1, 8) == _walk_volume(p) == polytope_volume(p)

    def test_one_signed_kernel_is_flat_on_both_routes(self):
        # (1, 1, 1) T = 0: x, y >= 0 and x + y <= 0 leave only the origin
        p = SignaturePolytope(((1, 0), (0, 1), (-1, -1)), 2)
        assert _closed_form(p) is None
        for route in (_walk_volume, polytope_volume):
            with pytest.raises(Unbounded, match="not full-dimensional"):
                route(p)

    def test_zero_row_is_left_to_the_walk(self):
        # 0 <= 0 . x <= 1 holds everywhere: the slab is the unit square
        p = SignaturePolytope(((1, 0), (0, 0), (0, 1)), 2)
        assert _closed_form(p) is None
        assert polytope_volume(p) == 1 == _walk_volume(p)


class TestFSignature:
    def test_free_semigroups(self):
        assert f_signature(FREE2).value == 1
        free3 = SemigroupPresentation(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        assert f_signature(free3).value == 1

    def test_segre_22(self):
        # A(3,2)/3! = 4/6, cross-checked against free-rank counts elsewhere
        assert f_signature(segre_generators(2, 2)).value == F(2, 3)

    @pytest.mark.parametrize(
        "r,s", [(r, s) for r in range(2, 5) for s in range(r, 9 - r)]
    )
    def test_segre_eulerian_closed_form(self, r, s):
        assert f_signature(segre_generators(r, s)).value == segre_signature(r, s)

    @pytest.mark.parametrize("d", range(2, 7))
    def test_veronese_degree_two_is_one_half(self, d):
        assert f_signature(veronese_generators(d, 2)).value == F(1, 2)

    def test_veronese_23(self):
        assert f_signature(veronese_generators(2, 3)).value == F(1, 3)

    def test_single_variable_power_is_free(self):
        # one generator (n) spans its own lattice, so the ring is polynomial
        for n in (1, 2, 3):
            assert f_signature(SemigroupPresentation(1, ((n,),))).value == 1

    def test_value_in_unit_interval(self):
        for pres in (
            FREE2,
            veronese_generators(2, 2),
            veronese_generators(3, 2),
            segre_generators(2, 2),
        ):
            value = f_signature(pres).value
            assert 0 < value <= 1

    def test_equals_one_exactly_for_full_image(self):
        assert f_signature(SemigroupPresentation(2, ((2, 0), (0, 2)))).value == 1
        assert f_signature(veronese_generators(2, 2)).value < 1

    def test_generator_order_invariance(self):
        base = veronese_generators(2, 3)
        reordered = SemigroupPresentation(2, tuple(reversed(base.generators)))
        assert f_signature(reordered).value == f_signature(base).value

    def test_ambient_permutation_invariance(self):
        p = segre_generators(2, 3)
        perm = (3, 0, 4, 1, 2)
        permuted = SemigroupPresentation(
            5, tuple(tuple(g[j] for j in perm) for g in p.generators)
        )
        assert f_signature(permuted).value == f_signature(p).value

    def test_unimodular_reparametrization_invariance(self):
        # x -> x, y -> x + y keeps the generators nonnegative
        base = veronese_generators(2, 2)
        sheared = SemigroupPresentation(
            2, tuple((g[0] + g[1], g[1]) for g in base.generators)
        )
        assert f_signature(sheared).value == f_signature(base).value
