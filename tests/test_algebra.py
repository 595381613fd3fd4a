import time
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given, settings, strategies as st

from bbcells import algebra, lattice
from bbcells.errors import (
    InfiniteDimension,
    InhomogeneousError,
    MonoidHasUnits,
    NotMinimalPresentation,
    RankMismatch,
    WeightOutsideMonoid,
)
from conftest import (
    enumerated_algebraize_check,
    random_homogeneous_presentation,
    random_monomial_quotient,
    random_pointed_monoid,
    seeded,
)

N1 = lattice.cone_from_generators([(1,)], 1)
N2 = lattice.cone_from_generators([(1, 0), (0, 1)], 2)


def weighting(*pairs):
    rank = len(pairs[0][1])
    return algebra.VariableWeighting(torus_rank=rank, variables=tuple(pairs))


def poly(terms):
    return algebra.make_polynomial(terms)


# the two worked presentations used throughout: k[x,y]/(xy) with weights
# (-1, 1), and k[x,y,z]/(xy - z^2) with weights (-1, 1, 0)
W_XY = weighting(("x", (-1,)), ("y", (1,)))
P_XY = algebra.GradedPresentation(W_XY, (poly([(1, (1, 1))]),))
W_XYZ = weighting(("x", (-1,)), ("y", (1,)), ("z", (0,)))
P_XYZ = algebra.GradedPresentation(
    W_XYZ, (poly([(1, (1, 1, 0)), (-1, (0, 0, 2))]),)
)


class TestWeightOf:
    def test_constant_monomial(self):
        assert algebra.weight_of((0, 0), W_XY) == (0,)

    def test_cancellation(self):
        assert algebra.weight_of((1, 1), W_XY) == (0,)

    def test_linearity(self):
        w = weighting(("x", (1, 0)), ("y", (1, 2)))
        assert algebra.weight_of((2, 1), w) == (3, 2)


class TestCheckHomogeneous:
    def test_xy_minus_z_squared(self):
        assert algebra.check_homogeneous(P_XYZ.relations[0], W_XYZ) == (0,)

    def test_inhomogeneous(self):
        w = weighting(("x", (1,)), ("y", (2,)))
        p = poly([(1, (1, 0)), (1, (0, 1))])
        with pytest.raises(InhomogeneousError) as err:
            algebra.check_homogeneous(p, w)
        assert {err.value.weight_a, err.value.weight_b} == {(1,), (2,)}

    def test_presentation_rejects_inhomogeneous_relation(self):
        # checked once, when the presentation is built, not by each operation
        w = weighting(("x", (1,)), ("y", (2,)))
        with pytest.raises(InhomogeneousError) as err:
            algebra.GradedPresentation(w, (poly([(1, (1, 0)), (1, (0, 1))]),))
        assert str(err.value) == "relation mixes terms of weight (1,) and (2,)"

    def test_constant(self):
        assert algebra.check_homogeneous(poly([(5, (0, 0))]), W_XY) == (0,)

    def test_zero_polynomial_has_the_zero_weight(self):
        assert algebra.check_homogeneous(poly([]), W_XYZ) == (0,)

    def test_term_order_invariance(self):
        w = weighting(("x", (1,)), ("y", (1,)))
        a = poly([(1, (2, 0)), (2, (0, 2))])
        b = poly([(2, (0, 2)), (1, (2, 0))])
        assert a == b
        assert algebra.check_homogeneous(a, w) == algebra.check_homogeneous(b, w)


class TestOutsiderVariables:
    def test_negative_weight(self):
        assert algebra.outsider_variables(P_XY, N1) == ["x"]

    def test_none(self):
        w = weighting(("x", (1,)), ("y", (2,)))
        p = algebra.GradedPresentation(w, ())
        assert algebra.outsider_variables(p, N1) == []

    def test_rank_two(self):
        w = weighting(("x", (1, -1)), ("y", (0, 1)))
        p = algebra.GradedPresentation(w, ())
        assert algebra.outsider_variables(p, N2) == ["x"]

    def test_monoid_rank_must_be_the_torus_rank(self):
        with pytest.raises(RankMismatch, match=r"^monoid rank 2 != torus rank 1$"):
            algebra.outsider_variables(P_XY, N2)


class TestBBPlus:
    def test_node_curve(self):
        out = algebra.bb_plus(P_XY, N1)
        assert out.weighting.variables == (("y", (1,)),)
        assert out.relations == ()

    def test_quadric_cone(self):
        out = algebra.bb_plus(P_XYZ, N1)
        assert out.weighting.variables == (("y", (1,)), ("z", (0,)))
        assert out.relations == (poly([(1, (0, 2))]),)

    def test_identity_when_no_outsiders(self):
        w = weighting(("x", (1,)))
        p = algebra.GradedPresentation(w, ())
        assert algebra.bb_plus(p, N1) == p

    def test_requires_zero(self):
        halfplane = lattice.cone_from_generators([(1,), (-1,)], 1)
        with pytest.raises(MonoidHasUnits):
            algebra.bb_plus(P_XY, halfplane)

    def test_idempotent(self):
        out = algebra.bb_plus(P_XYZ, N1)
        assert algebra.bb_plus(out, N1) == out


def test_every_monoid_argument_needs_a_zero():
    # lattice.require_zero is the one check behind all four; its text is pinned
    line = lattice.cone_from_generators([(1,), (-1,)], 1)
    quotient = algebra.MonomialQuotient(W_XY, ())
    calls = [
        lambda: lattice.kempf_vector(line),
        lambda: algebra.bb_plus(P_XY, line),
        lambda: algebra.open_immersion_check(P_XY, line),
        lambda: algebra.truncate(quotient, line, 2),
    ]
    for call in calls:
        with pytest.raises(MonoidHasUnits) as exc:
            call()
        assert str(exc.value) == "monoid has nontrivial units; apply reduce_to_zero first"


class TestFixedLocus:
    def test_quadric_cone(self):
        out = algebra.fixed_locus(P_XYZ)
        assert out.weighting.variables == (("z", (0,)),)
        assert out.relations == (poly([(1, (2,))]),)

    def test_all_weights_zero(self):
        w = weighting(("x", (0,)), ("y", (0,)))
        p = algebra.GradedPresentation(w, (poly([(1, (1, 1))]),))
        assert algebra.fixed_locus(p) == p

    def test_weights_given_as_lists(self):
        # a weight is kept as the tuple its check returns: the list [0] once
        # stayed a list, unequal to (0,), and fixed_locus dropped its variable
        w = algebra.VariableWeighting(1, [["x", [0]], ["y", [1]]])
        assert w.variables == (("x", (0,)), ("y", (1,)))
        out = algebra.fixed_locus(algebra.GradedPresentation(w, ()))
        assert out.weighting.variables == (("x", (0,)),)

    def test_no_zero_weights(self):
        w = weighting(("x", (1,)), ("y", (2,)))
        p = algebra.GradedPresentation(w, ())
        out = algebra.fixed_locus(p)
        assert out.weighting.variables == ()
        assert out.relations == ()


class TestOpenImmersionCheck:
    def test_cusp(self):
        w = weighting(("x", (3,)), ("y", (2,)))
        p = algebra.GradedPresentation(
            w, (poly([(1, (2, 0)), (-1, (0, 3))]),)
        )
        assert algebra.open_immersion_check(p, N1)

    def test_outsider_cotangent(self):
        assert not algebra.open_immersion_check(P_XY, N1)

    def test_no_relations(self):
        w = weighting(("x", (0,)))
        assert algebra.open_immersion_check(
            algebra.GradedPresentation(w, ()), N1
        )

    def test_linear_term_rejected(self):
        w = weighting(("x", (1,)), ("y", (1,)))
        p = algebra.GradedPresentation(
            w, (poly([(1, (1, 0)), (1, (0, 1))]),)
        )
        with pytest.raises(NotMinimalPresentation):
            algebra.open_immersion_check(p, N1)


class TestTruncate:
    W12 = weighting(("x", (1,)), ("y", (2,)))
    FREE = algebra.MonomialQuotient(W12, ())

    def test_level_two(self):
        assert algebra.truncate(self.FREE, N1, 2).get((3,), 0) == 1

    def test_level_three(self):
        assert algebra.truncate(self.FREE, N1, 3).get((3,), 0) == 2

    def test_weight_zero_component_is_level_free(self):
        for n in range(4):
            assert algebra.truncate(self.FREE, N1, n).get((0,), 0) == 1

    def test_outsider_weight_rejected(self):
        w = weighting(("x", (-1,)))
        q = algebra.MonomialQuotient(w, ())
        with pytest.raises(WeightOutsideMonoid):
            algebra.truncate(q, N1, 1)

    def test_unbounded_zero_weight_variable_rejected(self):
        w = weighting(("z", (0,)))
        q = algebra.MonomialQuotient(w, ())
        with pytest.raises(InfiniteDimension):
            algebra.truncate(q, N1, 1)

    def test_nilpotent_zero_weight_variable(self):
        w = weighting(("z", (0,)), ("x", (1,)))
        q = algebra.MonomialQuotient(w, ((2, 0),))
        assert algebra.truncate(q, N1, 1) == {(0,): 2, (1,): 2}

    def test_pure_powers_cap_nonzero_weight_variables(self):
        # weights 1 and 2 alternating, a pure cube on all but the last of 5
        # variables: a pass that capped only zero-weight variables took 3 to
        # 5 s (2 shared vCPUs, Python 3.11.7), visiting every exponent of
        # J-order at most 40
        k, n = 5, 40
        weights = [1 + i % 2 for i in range(k)]
        w = weighting(*((f"x{i}", (wt,)) for i, wt in enumerate(weights)))
        cubes = tuple(tuple(3 * (j == i) for j in range(k)) for i in range(k - 1))
        q = algebra.MonomialQuotient(w, cubes)
        start = time.perf_counter()
        dims = algebra.truncate(q, N1, n)
        assert time.perf_counter() - start < 1.0
        # the capped exponents, then every exponent of the free last variable
        # that keeps the J-order at most n
        expected = Counter()
        for capped in product(range(3), repeat=k - 1):
            weight = sum(e * wt for e, wt in zip(capped, weights))
            for free in range(n - sum(capped) + 1):
                expected[(weight + free * weights[-1],)] += 1
        assert dims == expected

    def test_path_ideal_visits_only_standard_monomials(self):
        # weights 1 and 2 alternating, generators x_i x_(i+1) on 5 variables:
        # with no pure power, a pass bounded by the budget alone took 5.3 s
        # (2 shared vCPUs, Python 3.11.7) for 14,761 standard monomials
        k, n = 5, 40
        weights = [1 + i % 2 for i in range(k)]
        w = weighting(*((f"x{i}", (wt,)) for i, wt in enumerate(weights)))
        path = tuple(tuple(int(j in (i, i + 1)) for j in range(k)) for i in range(k - 1))
        q = algebra.MonomialQuotient(w, path)
        start = time.perf_counter()
        dims = algebra.truncate(q, N1, n)
        assert time.perf_counter() - start < 1.0
        # a monomial is standard iff no two neighbours both occur: count by
        # weight, J-order and whether the last variable occurs
        states = Counter({(0, 0, False): 1})
        for wt in weights:
            grown = Counter()
            for (weight, order, last), ways in states.items():
                grown[weight, order, False] += ways
                for e in range(1, n - order + 1) if not last else ():
                    grown[weight + e * wt, order + e, True] += ways
            states = grown
        expected = Counter()
        for (weight, _, _), ways in states.items():
            expected[(weight,)] += ways
        assert dims == expected
        assert sum(dims.values()) == 14761


class TestStabilization:
    def test_free_algebra_weight_three(self):
        q = algebra.MonomialQuotient(weighting(("x", (1,)), ("y", (2,))), ())
        report = algebra.stabilization_check(q, N1, (3,), 4)
        assert report.n_lambda == 3
        assert report.dimensions == (0, 0, 1, 2, 2)
        assert report.stable
        assert report.limit_dimension == 2

    def test_weight_zero_stable_from_start(self):
        q = algebra.MonomialQuotient(weighting(("x", (1,)), ("y", (2,))), ())
        report = algebra.stabilization_check(q, N1, (0,), 3)
        assert report.n_lambda == 0
        assert report.dimensions == (1, 1, 1, 1)
        assert report.stable

    def test_quotient_by_square(self):
        # standard monomials of weight 2 are xy and y^2, both of order 2
        q = algebra.MonomialQuotient(weighting(("x", (1,)), ("y", (1,))), ((2, 0),))
        report = algebra.stabilization_check(q, N1, (2,), 3)
        assert report.n_lambda == 2
        assert report.dimensions == (0, 0, 2, 2)
        assert report.stable
        assert report.limit_dimension == 2

    def test_negative_level_is_rejected(self):
        # -1 once gave an empty sequence reported as stable
        q = algebra.MonomialQuotient(weighting(("x", (1,)), ("y", (2,))), ())
        with pytest.raises(ValueError, match="^n_max must be a nonnegative integer$"):
            algebra.stabilization_check(q, N1, (3,), -1)
        with pytest.raises(RankMismatch):
            algebra.stabilization_check(q, N1, (3, 5), -1)

    @pytest.mark.parametrize("n_max", [2.0, True])
    def test_level_must_be_an_int(self, n_max):
        # 2.0 once ended in a bare TypeError; the weight is checked first
        q = algebra.MonomialQuotient(weighting(("x", (1,)), ("y", (2,))), ())
        with pytest.raises(ValueError, match="^n_max must be an integer$"):
            algebra.stabilization_check(q, N1, (3,), n_max)
        with pytest.raises(RankMismatch):
            algebra.stabilization_check(q, N1, (3, 5), n_max)

    def test_work_does_not_grow_with_the_level(self):
        # a pass bounded by J-order took 84.8 s (2 shared vCPUs, Python 3.11.7)
        # on this case, whose answer has 7 monomials
        q = algebra.MonomialQuotient(
            weighting(("x", (1,)), ("y", (2,)), ("z", (3,))), ()
        )
        start = time.perf_counter()
        report = algebra.stabilization_check(q, N1, (6,), 400)
        assert time.perf_counter() - start < 1.0
        assert report.dimensions == (0, 0, 1, 3, 5, 6) + (7,) * 395
        assert report.stable
        assert report.limit_dimension == 7

    def test_level_zero(self):
        q = algebra.MonomialQuotient(weighting(("x", (1,)), ("y", (2,))), ())
        assert algebra.stabilization_check(q, N1, (0,), 0).dimensions == (1,)
        report = algebra.stabilization_check(q, N1, (3,), 0)
        assert report.dimensions == (0,)
        assert report.stable
        assert report.limit_dimension == 2


class TestGradedDimensionWeight:
    def test_list_weight_matches_tuple(self):
        q = algebra.MonomialQuotient(weighting(("x", (1,)), ("y", (2,))), ())
        assert algebra.graded_dimension(q, N1, (3,)) == 2
        assert algebra.graded_dimension(q, N1, [3]) == 2

    def test_wrong_length_weight(self):
        q = algebra.MonomialQuotient(weighting(("x", (1,)), ("y", (2,))), ())
        with pytest.raises(RankMismatch):
            algebra.graded_dimension(q, N1, (3, 5))
        with pytest.raises(RankMismatch):
            algebra.stabilization_check(q, N1, (3, 5), 2)


def free12(*gens):
    return algebra.MonomialQuotient(weighting(("x", (1,)), ("y", (2,))), gens)


# library calls given entries that are not exact integers, a bare int where a
# vector goes, exponent tuples of the wrong length or a torus rank below 1,
# with the error each must raise
NOT_EXACT = {
    "zero_torus_rank": (lambda: algebra.VariableWeighting(0, ()), RankMismatch),
    "negative_torus_rank": (lambda: algebra.VariableWeighting(-5, ()), RankMismatch),
    # both once constructed: only the sign of the torus rank was checked
    "float_torus_rank": (lambda: algebra.VariableWeighting(1.5, ()), RankMismatch),
    "bool_torus_rank": (
        lambda: algebra.VariableWeighting(True, (("x", (1,)),)), RankMismatch
    ),
    "float_exponent": (lambda: free12((1.9, 0)), ValueError),
    "bool_exponent": (lambda: free12((0, True)), ValueError),
    "negative_exponent": (lambda: free12((-1, 0)), ValueError),
    "short_monomial": (lambda: free12((1,)), RankMismatch),
    "long_monomial": (lambda: free12((1, 0, 0)), RankMismatch),
    "float_weight": (lambda: weighting(("x", (1.5,))), ValueError),
    "bool_weight": (lambda: weighting(("x", (True,))), ValueError),
    "float_graded_weight": (
        lambda: algebra.graded_dimension(free12(), N1, (2.0,)), ValueError
    ),
    "bool_stabilize_weight": (
        lambda: algebra.stabilization_check(free12(), N1, (True,), 2), ValueError
    ),
    "float_weight_of": (lambda: algebra.weight_of((0.5, 0), W_XY), ValueError),
    "float_truncation_level": (lambda: algebra.truncate(free12(), N1, 2.0), ValueError),
    "bool_weight_bound": (
        lambda: algebra.algebraize_check(free12(), N1, True), ValueError
    ),
    "int_as_weight": (lambda: algebra.VariableWeighting(1, (("x", 5),)), ValueError),
    "int_as_monomial": (lambda: free12(3), ValueError),
    # these two and a bare int as the generators of a monoid or as a
    # partition once ended in a bare TypeError
    "int_as_variables": (lambda: algebra.VariableWeighting(1, 3), ValueError),
    "int_as_generators": (lambda: algebra.MonomialQuotient(W_XY, 3), ValueError),
    # inner shapes: these once ended in Python's own TypeError, AttributeError
    # or unpacking ValueError, or for GradedPresentation(5, ()) in no error
    "int_as_variable": (lambda: algebra.VariableWeighting(1, (5,)), ValueError),
    "short_variable": (lambda: algebra.VariableWeighting(1, (("x",),)), ValueError),
    "int_as_relations": (lambda: algebra.GradedPresentation(W_XY, 5), ValueError),
    "int_as_relation": (lambda: algebra.GradedPresentation(W_XY, (5,)), ValueError),
    "int_as_weighting": (lambda: algebra.GradedPresentation(5, ()), ValueError),
    "int_as_quotient_weighting": (lambda: algebra.MonomialQuotient(5, ()), ValueError),
    # make_polynomial once read these as the term (1, (1, 0)) and 1/2 * x
    "float_term_exponent": (lambda: poly([(1, (1.9, 0))]), ValueError),
    "float_coefficient": (lambda: poly([(0.5, (1, 0))]), ValueError),
    "bool_coefficient": (lambda: poly([(True, (1, 0))]), ValueError),
    "string_coefficient": (lambda: poly([("1", (1, 0))]), ValueError),
    "bool_term_exponent": (lambda: poly([(1, (True, 0))]), ValueError),
    "negative_term_exponent": (lambda: poly([(1, (0, -1))]), ValueError),
    "int_as_term_exponents": (lambda: poly([(1, 5)]), ValueError),
    # the first two once ended in a bare TypeError
    "int_as_terms": (lambda: poly(5), ValueError),
    "int_as_term": (lambda: poly([5]), ValueError),
    "short_term": (lambda: poly([(1,)]), ValueError),
    "mixed_term_lengths": (lambda: poly([(1, (1, 0)), (1, (1,))]), RankMismatch),
}


@pytest.mark.parametrize("coeff", [3, Fraction(3, 2)])
def test_make_polynomial_takes_exact_coefficients(coeff):
    assert poly([(coeff, [1, 0])]).terms == ((Fraction(coeff), (1, 0)),)


@pytest.mark.parametrize("case", sorted(NOT_EXACT))
def test_library_rejects_entries_that_are_not_exact(case):
    call, error = NOT_EXACT[case]
    with pytest.raises(error):
        call()


# 5 once ended in a bare TypeError from the name pattern, and the unhashable
# [5] in one from the uniqueness check
@pytest.mark.parametrize("name", [5, [5], None])
def test_variable_name_must_be_a_string(name):
    with pytest.raises(ValueError) as err:
        algebra.VariableWeighting(1, (("x", (1,)), (name, (1,))))
    assert str(err.value) == f"invalid variable name {name!r}"


def test_variable_names_must_be_unique():
    with pytest.raises(ValueError, match="^variable names must be unique$"):
        weighting(("x", (1,)), ("x", (2,)))


# the variables are read in order, each checked a pair and then its name, and
# the names are compared only after every variable has been read
@pytest.mark.parametrize("variables, message", [
    ((("1x", (1,)), ("y",)), "invalid variable name '1x'"),
    ((("y",), ("1x", (1,))), "variable ('y',) is not a (name, weight) pair"),
    ((("x", (1,)), ("x", (1,)), ("y",)), "variable ('y',) is not a (name, weight) pair"),
    ((("x", (1,)), ("x", (1,)), (5, (1,))), "invalid variable name 5"),
])
def test_variable_checks_run_in_order(variables, message):
    with pytest.raises(ValueError) as err:
        algebra.VariableWeighting(1, variables)
    assert str(err.value) == message


class TestAlgebraize:
    def test_free_algebra(self):
        q = algebra.MonomialQuotient(weighting(("x", (1,)), ("y", (2,))), ())
        assert algebra.algebraize_check(q, N1, 6)

    def test_no_variables(self):
        q = algebra.MonomialQuotient(
            algebra.VariableWeighting(torus_rank=1, variables=()), ()
        )
        assert algebra.algebraize_check(q, N1, 4)

    def test_coordinate_cross(self):
        q = algebra.MonomialQuotient(
            weighting(("x", (1,)), ("y", (1,))), ((1, 1),)
        )
        assert algebra.algebraize_check(q, N1, 5)

    def test_runs_no_search_and_no_enumeration(self, monkeypatch):
        # 6 variables of weights 1 and 2, pure cubes on all but the last: an
        # enumeration visits every monomial of Kempf degree at most the
        # bound, a number that grows like bound^6
        names = "abcdef"
        w = weighting(*((n, (1 + i % 2,)) for i, n in enumerate(names)))
        cubes = [tuple(3 * (j == i) for j in range(6)) for i in range(5)]
        q = algebra.MonomialQuotient(w, tuple(cubes))
        monkeypatch.setattr(lattice, "kempf_vector", None)
        monkeypatch.setattr(algebra, "_standard_monomials", None)
        assert algebra.algebraize_check(q, N1, 10**6) is True


UNITS_1 = lattice.cone_from_generators([(1,), (-1,)], 1)
LINE_2 = lattice.cone_from_generators([(1, 0), (-1, 0)], 2)
Z_FREE = weighting(("z", (0,)))


# inputs that break two rules at once, with what algebraize_check raises:
# its checks run in the order the enumeration once ran them
ALGEBRAIZE_ORDER = {
    "units_and_negative_bound": ((free12(), UNITS_1, -1), MonoidHasUnits),
    "units_and_weight_outside": (
        (algebra.MonomialQuotient(weighting(("x", (0, 1))), ()), LINE_2, 2),
        MonoidHasUnits,
    ),
    "negative_bound_and_weight_outside": (
        (algebra.MonomialQuotient(W_XY, ()), N1, -1), ValueError
    ),
    "weight_outside_and_no_pure_power": (
        (algebra.MonomialQuotient(W_XYZ, ()), N1, 2), WeightOutsideMonoid
    ),
    "rank_mismatch_and_no_pure_power": (
        (algebra.MonomialQuotient(Z_FREE, ()), N2, 2), RankMismatch
    ),
    "no_pure_power": ((algebra.MonomialQuotient(Z_FREE, ()), N1, 2), InfiniteDimension),
    "bool_bound": ((free12(), N1, True), ValueError),
    "valid": ((algebra.MonomialQuotient(Z_FREE, ((2,),)), N1, 2), None),
}


@pytest.mark.parametrize("case", sorted(ALGEBRAIZE_ORDER))
@pytest.mark.parametrize(
    "check", [algebra.algebraize_check, enumerated_algebraize_check],
    ids=["proof", "enumeration"],
)
def test_algebraize_error_order(case, check):
    args, error = ALGEBRAIZE_ORDER[case]
    if error is None:
        assert check(*args) is True
    else:
        with pytest.raises(error):
            check(*args)


class TestRandomInvariants:
    def test_outsider_monomials_have_outsider_variable_divisor(self):
        rng = seeded(200)
        for _ in range(25):
            monoid = random_pointed_monoid(rng, max_rank=2)
            pres = random_homogeneous_presentation(
                rng, max_rank=monoid.rank, max_vars=3, max_rels=0
            )
            if pres.weighting.torus_rank != monoid.rank:
                continue
            w = pres.weighting
            outsiders = set(algebra.outsider_variables(pres, monoid))
            out_idx = [i for i, (n, _) in enumerate(w.variables) if n in outsiders]
            for exps in product(range(9), repeat=len(w.variables)):
                if sum(exps) > 8:
                    continue
                if not lattice.contains(monoid, algebra.weight_of(exps, w)):
                    assert any(exps[i] > 0 for i in out_idx)

    def test_bb_plus_idempotence_and_fixed_compatibility(self):
        rng = seeded(201)
        for _ in range(40):
            pres = random_homogeneous_presentation(rng)
            monoid = random_pointed_monoid(rng, max_rank=pres.weighting.torus_rank)
            if monoid.rank != pres.weighting.torus_rank:
                continue
            plus = algebra.bb_plus(pres, monoid)
            assert algebra.bb_plus(plus, monoid) == plus
            assert algebra.fixed_locus(plus) == algebra.fixed_locus(pres)
            for _, w in plus.weighting.variables:
                assert lattice.contains(monoid, w)
            zero = (0,) * pres.weighting.torus_rank
            for _, w in algebra.fixed_locus(pres).weighting.variables:
                assert w == zero

    def test_truncation_monotone_and_stabilizing(self):
        rng = seeded(202)
        for _ in range(12):
            monoid = random_pointed_monoid(rng, max_rank=2)
            quotient = random_monomial_quotient(rng, monoid, max_vars=3)
            table = [algebra.truncate(quotient, monoid, n) for n in range(7)]
            weights = set().union(*(t.keys() for t in table))
            kempf = lattice.kempf_vector(monoid).w
            for w in weights:
                dims = [t.get(w, 0) for t in table]
                assert dims == sorted(dims)
                n_lambda = sum(a * b for a, b in zip(kempf, w))
                if n_lambda < 6:
                    stable = dims[n_lambda:]
                    assert all(d == stable[0] for d in stable)
                    assert stable[0] == algebra.graded_dimension(
                        quotient, monoid, w
                    )
            assert algebra.algebraize_check(quotient, monoid, 6)
            assert enumerated_algebraize_check(quotient, monoid, 6)


def quotient_with_zero_weights(rng, monoid):
    """Random quotient plus up to two zero-weight variables, each nilpotent
    through a pure power, and possibly a mixed generator."""
    base = random_monomial_quotient(rng, monoid, max_vars=3)
    n_pos = len(base.weighting.variables)
    n_zero = rng.randint(0, 2)
    variables = base.weighting.variables + tuple(
        (f"z{i}", (0,) * monoid.rank) for i in range(n_zero)
    )
    gens = [g + (0,) * n_zero for g in base.minimal_generators]
    for i in range(n_zero):
        gens.append(tuple(rng.randint(1, 3) if j == n_pos + i else 0
                          for j in range(n_pos + n_zero)))
    if n_zero and rng.random() < 0.5:
        gens.append(tuple(rng.randint(0, 2) for _ in range(n_pos)) + (1,) * n_zero)
    gens = [g for g in gens if any(g)]
    return algebra.MonomialQuotient(
        algebra.VariableWeighting(monoid.rank, variables), tuple(gens)
    )


def brute_standard_monomials(quotient, box):
    """(weight, J-order) of every standard monomial with exponents below box,
    by testing divisibility against each generator."""
    weights = [w for _, w in quotient.weighting.variables]
    out = []
    for exps in product(range(box), repeat=len(weights)):
        if any(all(g <= e for g, e in zip(gen, exps))
               for gen in quotient.minimal_generators):
            continue
        weight = tuple(sum(e * w[t] for e, w in zip(exps, weights))
                       for t in range(quotient.weighting.torus_rank))
        order = sum(e for e, w in zip(exps, weights) if any(w))
        out.append((weight, order))
    return out


class TestCountingOracle:
    """truncate, graded_dimension and stabilization_check against a brute
    force over an exponent box.  The box holds every standard monomial of
    J-order or Kempf degree at most LEVEL: exponents of nonzero-weight
    variables are bounded by either, and those of zero-weight variables stay
    below their pure power, at most 3."""

    LEVEL = 4

    def test_random_quotients(self):
        rng = seeded(203)
        checked = 0
        for _ in range(30):
            monoid = random_pointed_monoid(rng, max_rank=2)
            try:
                quotient = quotient_with_zero_weights(rng, monoid)
            except IndexError:  # no variable weight available in this monoid
                continue
            kempf = lattice.kempf_vector(monoid).w
            monomials = brute_standard_monomials(quotient, max(self.LEVEL, 3) + 1)
            for n in range(self.LEVEL + 1):
                expected = Counter(w for w, order in monomials if order <= n)
                assert algebra.truncate(quotient, monoid, n) == expected
            for weight in {w for w, _ in monomials}:
                degree = sum(a * b for a, b in zip(kempf, weight))
                if degree > self.LEVEL:
                    continue
                full = sum(1 for w, _ in monomials if w == weight)
                assert algebra.graded_dimension(quotient, monoid, weight) == full
                assert algebra.graded_dimension(
                    quotient, monoid, tuple(-x for x in weight)
                ) == (full if degree == 0 else 0)
                dims = tuple(
                    sum(1 for w, order in monomials if w == weight and order <= n)
                    for n in range(self.LEVEL + 1)
                )
                # levels below n_lambda as well as the stable range
                for n_max in range(self.LEVEL + 1):
                    report = algebra.stabilization_check(
                        quotient, monoid, weight, n_max
                    )
                    assert report.n_lambda == degree
                    assert report.dimensions == dims[:n_max + 1]
                    tail = dims[min(degree, n_max):n_max + 1]
                    assert report.stable == (len(set(tail)) == 1)
                    assert report.limit_dimension == full
                checked += 1
            assert algebra.algebraize_check(quotient, monoid, self.LEVEL)
            assert enumerated_algebraize_check(quotient, monoid, self.LEVEL)
        assert checked > 50


class TestMinimalGenerators:
    def test_antichain_reduction(self):
        assert algebra.minimalize_monomials([(2, 0), (2, 1), (0, 3)]) == (
            (0, 3),
            (2, 0),
        )

    def test_quotient_normalizes(self):
        w = weighting(("x", (1,)), ("y", (1,)))
        q = algebra.MonomialQuotient(w, ((1, 0), (2, 1)))
        assert q.minimal_generators == ((1, 0),)


@st.composite
def presentations_over_pointed_monoids(draw):
    """A random presentation of tests/conftest.py and a random pointed monoid
    of its torus rank."""
    rng = draw(st.randoms(use_true_random=False))
    pres = random_homogeneous_presentation(rng)
    monoid = random_pointed_monoid(rng, max_rank=pres.weighting.torus_rank)
    assume(monoid.rank == pres.weighting.torus_rank)
    return pres, monoid


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(presentations_over_pointed_monoids())
def test_bb_plus_is_idempotent(drawn):
    pres, monoid = drawn
    plus = algebra.bb_plus(pres, monoid)
    assert algebra.bb_plus(plus, monoid) == plus
