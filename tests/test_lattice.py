import re
import time
from fractions import Fraction
from itertools import combinations, product
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from bbcells import intlinalg, lattice, polyhedra
from bbcells.errors import MonoidHasUnits, RankMismatch
from bbcells.intlinalg import rank_of
from conftest import (
    brute_kempf_vector,
    cone_member_oracle,
    fm_cone_inequalities,
    fraction_rank_det,
    kernel_cone_inequalities,
    random_monoid,
    random_pointed_monoid,
    seeded,
    solve_exact,
)


def mono(gens, rank):
    return lattice.cone_from_generators(gens, rank)


class TestConeFromGenerators:
    def test_orthant(self):
        m = mono([(1, 0), (0, 1)], 2)
        assert set(m.facet_normals) == {(1, 0), (0, 1)}
        assert m.lineality_basis == ()

    def test_halfplane(self):
        m = mono([(1, 0), (-1, 0), (0, 1)], 2)
        assert set(m.facet_normals) == {(0, 1)}
        assert m.lineality_basis == ((1, 0),)

    def test_sharp_cone(self):
        # frozen by hand: eliminate the two multipliers from
        # x = a(1,0) + b(1,2), a,b >= 0
        m = mono([(1, 0), (1, 2)], 2)
        assert set(m.facet_normals) == {(0, 1), (2, -1)}
        assert m.lineality_basis == ()

    def test_errors(self):
        with pytest.raises(ValueError):
            lattice.cone_from_generators([], 2)
        with pytest.raises(RankMismatch):
            lattice.cone_from_generators([(1, 0)], 1)

    @pytest.mark.parametrize("entry", [1.9, 1.0, True, False, "1", Fraction(1)])
    def test_rejects_entries_that_are_not_integers(self, entry):
        with pytest.raises(ValueError, match=re.escape(repr(entry))):
            lattice.cone_from_generators([(entry, 0), (0, 1)], 2)


class TestContains:
    def test_orthant_membership(self):
        m = mono([(1, 0), (0, 1)], 2)
        assert lattice.contains(m, (3, 5))
        assert not lattice.contains(m, (-1, 0))

    def test_saturation_semantics(self):
        # (1,1) is not an N-combination of (1,0),(1,2) but lies in the cone
        m = mono([(1, 0), (1, 2)], 2)
        assert lattice.contains(m, (1, 1))

    def test_rank_mismatch(self):
        m = mono([(1, 0)], 2)
        with pytest.raises(RankMismatch):
            lattice.contains(m, (1,))


class TestUnitsAndZero:
    def test_orthant_has_zero(self):
        m = mono([(1, 0), (0, 1)], 2)
        assert lattice.units(m) == []
        assert lattice.has_zero(m)

    def test_halfplane_units(self):
        m = mono([(1, 0), (-1, 0), (0, 1)], 2)
        assert lattice.units(m) == [[1, 0]]
        assert not lattice.has_zero(m)

    def test_diagonal_unit_line(self):
        m = mono([(1, 1), (-1, -1), (1, 0)], 2)
        assert lattice.units(m) == [[1, 1]]

    def test_sharp_rank2(self):
        assert lattice.has_zero(mono([(2, 1), (1, 2)], 2))


class TestKempfVector:
    def test_rank_one(self):
        assert lattice.kempf_vector(mono([(1,)], 1)).w == (1,)

    def test_orthant(self):
        assert lattice.kempf_vector(mono([(1, 0), (0, 1)], 2)).w == (1, 1)

    def test_tie_break(self):
        assert lattice.kempf_vector(mono([(1, 0), (1, 2)], 2)).w == (1, 0)

    def test_minimality_by_exhaustion(self):
        # pairing constraints force a >= b+1 and 2b >= a+1, so the smallest
        # valid vector is (3, 2); the search must widen past norms 1 and 2
        m = mono([(1, -1), (-1, 2)], 2)
        assert lattice.kempf_vector(m).w == (3, 2)
        for a in range(-2, 3):
            for b in range(-2, 3):
                assert not all(
                    sum(x * y for x, y in zip((a, b), g)) >= 1
                    for g in m.generators
                )

    def test_requires_zero(self):
        m = mono([(1, 0), (-1, 0), (0, 1)], 2)
        with pytest.raises(MonoidHasUnits):
            lattice.kempf_vector(m)

    def test_matches_brute_force_up_to_rank_three(self):
        rng = seeded(108)
        for _ in range(300):
            m = random_pointed_monoid(rng)
            assert lattice.kempf_vector(m).w == brute_kempf_vector(m)

    def test_matches_brute_force_at_rank_four(self):
        # the shell search is only affordable on answers of norm <= 3
        rng = seeded(109)
        compared = 0
        while compared < 40:
            gens = [tuple(rng.randint(-3, 3) for _ in range(4))
                    for _ in range(rng.randint(1, 6))]
            gens = [g for g in gens if any(g)] or [(0, 0, 0, 1)]
            m = mono(gens, 4)
            if not lattice.has_zero(m):
                continue
            w = lattice.kempf_vector(m).w
            expected = brute_kempf_vector(m, max_norm=3)
            if expected is None:
                assert max(abs(x) for x in w) > 3
            else:
                assert w == expected
                compared += 1

    def test_skew_chains(self):
        # the shell search took 2.7 s at k = 5 and more than 60 s at k = 9
        start = time.perf_counter()
        for k in range(1, 10):
            m = mono([(1, 0, 0), (-k, 1, 0), (0, -k, 1)], 3)
            assert lattice.kempf_vector(m).w == (1, k + 1, k * k + k + 1)
        assert time.perf_counter() - start < 1.0


class TestReduceToZero:
    def test_halfplane(self):
        m = mono([(1, 0), (-1, 0), (0, 1)], 2)
        proj = lattice.reduce_to_zero(m)
        assert proj.matrix == ((0, 1),)
        assert proj.image_monoid.generators == ((1,),)
        assert lattice.has_zero(proj.image_monoid)

    def test_identity_when_pointed(self):
        m = mono([(1, 0), (0, 1)], 2)
        proj = lattice.reduce_to_zero(m)
        assert proj.matrix == ((1, 0), (0, 1))
        assert proj.image_monoid is m

    def test_diagonal_kernel(self):
        m = mono([(1, 1), (-1, -1), (1, 0)], 2)
        proj = lattice.reduce_to_zero(m)
        assert proj.target_rank == 1
        assert proj.apply((1, 1)) == (0,)
        assert lattice.has_zero(proj.image_monoid)


class TestRandomInvariants:
    def test_generators_are_members(self):
        rng = seeded(100)
        for _ in range(60):
            m = random_monoid(rng)
            for g in m.generators:
                assert lattice.contains(m, g)

    def test_has_zero_iff_no_units(self):
        rng = seeded(101)
        for _ in range(60):
            m = random_monoid(rng)
            assert lattice.has_zero(m) == (not lattice.units(m))

    def test_membership_matches_caratheodory_oracle(self):
        rng = seeded(102)
        for _ in range(40):
            m = random_monoid(rng)
            for _ in range(25):
                point = tuple(rng.randint(-5, 5) for _ in range(m.rank))
                assert lattice.contains(m, point) == cone_member_oracle(
                    m.generators, m.rank, point
                )

    def test_kempf_pairings(self):
        rng = seeded(103)
        for _ in range(60):
            m = random_monoid(rng)
            if not lattice.has_zero(m):
                continue
            w = lattice.kempf_vector(m).w
            for g in m.generators:
                if any(x != 0 for x in g):
                    assert sum(a * b for a, b in zip(w, g)) >= 1

    def test_reduction_membership_compatibility(self):
        rng = seeded(104)
        for _ in range(40):
            m = random_monoid(rng)
            proj = lattice.reduce_to_zero(m)
            assert lattice.has_zero(proj.image_monoid)
            for _ in range(25):
                point = tuple(rng.randint(-5, 5) for _ in range(m.rank))
                assert lattice.contains(m, point) == lattice.contains(
                    proj.image_monoid, proj.apply(point)
                )

    def test_reduction_is_identity_on_pointed(self):
        rng = seeded(105)
        for _ in range(40):
            m = random_monoid(rng)
            if lattice.has_zero(m):
                proj = lattice.reduce_to_zero(m)
                assert proj.image_monoid is m
                assert proj.matrix == tuple(
                    tuple(1 if i == j else 0 for j in range(m.rank))
                    for i in range(m.rank)
                )

    def test_facet_irredundancy(self):
        rng = seeded(106)
        for _ in range(40):
            m = random_monoid(rng)
            normals = list(m.facet_normals)
            for i, normal in enumerate(normals):
                rest = [(normals[j], False) for j in range(len(normals)) if j != i]
                # some point satisfies the others but strictly violates this one
                witness_system = rest + [(tuple(-x for x in normal), True)]
                assert polyhedra.is_feasible(witness_system, m.rank)


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


# unpruned Fourier-Motzkin ran past 60 s (rank 3) and 2 s (rank 4) on these
HARD_CONES = {
    "rank3_six_generators": [
        (2, 4, 1), (1, 3, 4), (4, 3, 3), (1, 1, 1), (4, 3, 0), (0, 1, 4)
    ],
    "rank4_five_generators": [
        (1, 4, 4, 1), (2, 4, 3, 4), (0, 4, 0, 3), (2, 4, 1, 1), (3, 4, 4, 3)
    ],
}

# lower-dimensional cones: equations of the span as opposite pairs of a
# Hermite basis, then facet normals lying in the span
CANONICAL = [
    (
        [(3, 1, 2), (3, 1, 0), (0, 0, 1)],
        [(-1, 3, 0), (1, -3, 0), (0, 0, 1), (3, 1, 0)],
    ),
    (
        [(-2, -2, -2)],
        [(-1, 0, 1), (0, -1, 1), (0, 1, -1), (1, 0, -1), (-1, -1, -1)],
    ),
    ([(0, 0)], [(-1, 0), (0, -1), (0, 1), (1, 0)]),
    ([(0,)], [(-1,), (1,)]),
]


class TestConeInequalities:
    def test_matches_fourier_motzkin_on_full_dimensional_cones(self):
        rng = seeded(107)
        checked = 0
        while checked < 60:
            rank = rng.randint(1, 3)
            gens = [
                tuple(rng.randint(-3, 3) for _ in range(rank))
                for _ in range(rng.randint(1, 5))
            ]
            if rank_of([list(g) for g in gens]) < rank:
                continue
            assert polyhedra.cone_inequalities(gens, rank) == fm_cone_inequalities(
                gens, rank
            )
            checked += 1

    def test_matches_kernel_route(self):
        """Signed minors give the facets the per-subset Hermite kernels gave,
        on cones of rank 1..5 with proper spans and zero or repeated
        generators."""
        rng = seeded(108)
        seen = {"lower": 0, "zero": 0, "repeat": 0}
        for _ in range(300):
            rank = rng.randint(1, 5)
            # each coordinate free, zero, or a signed copy of an earlier one
            kinds = ["free"] * 3 + ["zero"]
            links = [rng.choice(kinds + [(j, s) for j in range(i) for s in (1, -1)])
                     for i in range(rank)]
            gens = []
            for _ in range(rng.randint(1, 7)):
                g = []
                for link in links:
                    if link == "free":
                        g.append(rng.randint(-3, 3))
                    else:
                        g.append(0 if link == "zero" else link[1] * g[link[0]])
                gens.append(tuple(g))
            if rng.random() < 0.3:
                gens.append((0,) * rank)
            if rng.random() < 0.3:
                gens.append(rng.choice(gens))
            seen["lower"] += rank_of([list(g) for g in gens]) < rank
            seen["zero"] += (0,) * rank in gens
            seen["repeat"] += len(set(gens)) < len(gens)
            assert polyhedra.cone_inequalities(gens, rank) == kernel_cone_inequalities(
                gens, rank
            )
        assert min(seen.values()) >= 30

    @pytest.mark.parametrize("name", sorted(HARD_CONES))
    def test_hard_cone(self, name):
        gens = HARD_CONES[name]
        rank = len(gens[0])
        start = time.perf_counter()
        m = lattice.cone_from_generators(gens, rank)
        assert time.perf_counter() - start < 1.0
        # the box {-2..2}^rank and the unit steps off every sum of two
        # generators, where about half the points lie outside the cone
        points = set(product(range(-2, 3), repeat=rank))
        for g in gens:
            for h in gens:
                for i, step in product(range(rank), (1, -1)):
                    p = [x + y for x, y in zip(g, h)]
                    p[i] += step
                    points.add(tuple(p))
        for point in sorted(points):
            assert lattice.contains(m, point) == cone_member_oracle(gens, rank, point)

    @pytest.mark.parametrize("gens, expected", CANONICAL)
    def test_lower_dimensional_canonical_form(self, gens, expected):
        assert polyhedra.cone_inequalities(gens, len(gens[0])) == expected


@st.composite
def generator_sets(draw):
    """Up to 7 generators of rank <= 4 with entries in -3..3.  In a confined
    set each coordinate is free, zero, or a signed copy of an earlier one, so
    the set may lie in a proper subspace."""
    rank = draw(st.integers(1, 4))
    links = ["free"] * rank
    if draw(st.booleans()):
        links = [
            draw(st.sampled_from(
                ["free", "zero"] + [(j, s) for j in range(i) for s in (1, -1)]
            ))
            for i in range(rank)
        ]
    raw = draw(st.lists(st.lists(st.integers(-3, 3), min_size=rank, max_size=rank),
                        min_size=1, max_size=7))
    gens = []
    for v in raw:
        g = []
        for x, link in zip(v, links):
            if link == "free":
                g.append(x)
            elif link == "zero":
                g.append(0)
            else:
                g.append(link[1] * g[link[0]])
        gens.append(tuple(g))
    return rank, gens


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(generator_sets())
def test_facet_normals_property(drawn):
    rank, gens = drawn
    m = lattice.cone_from_generators(gens, rank)
    span = rank_of([list(g) for g in gens])
    listed = set(m.facet_normals)
    for a in m.facet_normals:
        zeros = [g for g in gens if dot(a, g) == 0]
        assert (tuple(-x for x in a) in listed) == (len(zeros) == len(gens))
        if len(zeros) < len(gens):
            assert all(dot(a, g) >= 0 for g in gens)
            assert rank_of([list(g) for g in zeros]) == span - 1
    # canonical form: another generator set of the same cone lists the same
    sums = gens + [tuple(x + y for x, y in zip(gens[0], g)) for g in gens]
    assert polyhedra.cone_inequalities(sums, rank) == list(m.facet_normals)
    for point in product(range(-2, 3), repeat=rank):
        assert lattice.contains(m, point) == cone_member_oracle(gens, rank, point)


@st.composite
def pointed_monoids(draw):
    """A monoid of rank <= 3 with entries in -3..3, reduced to one with zero."""
    rank = draw(st.integers(1, 3))
    gens = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * rank), min_size=1,
                         max_size=5))
    m = lattice.cone_from_generators(gens, rank)
    return lattice.reduce_to_zero(m).image_monoid


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(pointed_monoids())
def test_kempf_vector_property(m):
    w = lattice.kempf_vector(m).w
    gens = [g for g in m.generators if any(g)]
    if not gens:
        assert w == (0,) * m.rank
        return
    assert all(dot(w, g) >= 1 for g in gens)
    smaller = max(abs(x) for x in w) - 1
    for v in product(range(-smaller, smaller + 1), repeat=m.rank):
        assert not all(dot(v, g) >= 1 for g in gens)


@st.composite
def monoids_with_units(draw):
    """A monoid of rank <= 4 with entries in -3..3 that has units: its
    generators include a nonzero vector and its negative."""
    rank = draw(st.integers(1, 4))
    vector = st.tuples(*[st.integers(-3, 3)] * rank)
    unit = draw(vector.filter(any))
    gens = draw(st.lists(vector, max_size=5)) + [unit, tuple(-x for x in unit)]
    return lattice.cone_from_generators(gens, rank)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(monoids_with_units())
def test_reduce_to_zero_property(m):
    p = lattice.reduce_to_zero(m)
    rows = [list(row) for row in p.matrix]
    units = lattice.units(m)
    assert units and len(units) == m.rank - p.target_rank
    # the kernel of the matrix is the unit lattice: it holds every unit, and
    # each kernel basis vector is an integer combination of the units
    assert all(not any(intlinalg.mat_vec(rows, u)) for u in units)
    kernel = intlinalg.kernel_basis(rows) if rows else intlinalg.identity(m.rank)
    assert len(kernel) == len(units)
    columns = [[u[i] for u in units] for i in range(m.rank)]
    for k in kernel:
        coeffs = solve_exact(columns, k)
        assert coeffs is not None and all(c.denominator == 1 for c in coeffs)
    assert lattice.has_zero(p.image_monoid)
    # the matrix extends to a unimodular one: its maximal minors have gcd 1
    minors = [
        int(fraction_rank_det([[row[c] for c in cols] for row in rows])[1])
        for cols in combinations(range(m.rank), p.target_rank)
    ]
    assert gcd(*minors) == 1
