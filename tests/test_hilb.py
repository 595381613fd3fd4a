import random
import time
import tracemalloc
from collections import Counter
from itertools import product

import pytest

from bbcells import hilb
from bbcells.errors import NonGenericWeight, RankMismatch
from conftest import (
    dict_intersection_dimension, dict_tangent_character, enumerated_poincare_histogram,
    ideal_is_generic, looped_is_generic, matrix_hom_dimension, recursive_partitions,
)


def char(partition):
    return hilb.tangent_character_armleg(hilb.ideal_from_partition(partition))


def largest_part_counts(d):
    """counts[k] = number of partitions of d with largest part k, from the
    recurrence on the number of partitions into parts at most k."""
    # at_most[n][k]: partitions of n into parts <= k
    at_most = [[1] * (d + 1)] + [[0] * (d + 1) for _ in range(d)]
    for n in range(1, d + 1):
        for k in range(1, d + 1):
            at_most[n][k] = at_most[n][k - 1] + (at_most[n - k][k] if k <= n else 0)
    return [0] + [at_most[d - k][k] for k in range(1, d + 1)]


class TestPartitions:
    def test_single(self):
        assert hilb.partitions(1) == [(1,)]

    def test_three(self):
        assert hilb.partitions(3) == [(3,), (2, 1), (1, 1, 1)]

    def test_counts(self):
        expected = [1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
        for d in range(1, 11):
            count = len(hilb.partitions(d))
            assert count == expected[d - 1] == len(recursive_partitions(d))

    def test_distinct_and_sorted_parts(self):
        for p in hilb.partitions(7):
            assert sum(p) == 7
            assert list(p) == sorted(p, reverse=True)
        assert len(set(hilb.partitions(7))) == 15

    def test_matches_recursion(self):
        # ZS1 against recursion on the largest part, list for list
        for d in range(31):
            assert hilb.partitions(d) == recursive_partitions(d), d

    def test_transpose_matches_definition(self):
        for d in range(16):
            for p in hilb.partitions(d):
                columns = p[0] if p else 0
                assert hilb._transpose(p) == tuple(
                    sum(1 for part in p if part > a) for a in range(columns)
                ), p

    def test_zero_and_negative(self):
        assert hilb.partitions(0) == [()]
        for d in (-1, 2.5, True):
            with pytest.raises(ValueError, match="^d must be a nonnegative integer$"):
                hilb.partitions(d)


class TestIdealFromPartition:
    def test_corners(self):
        cases = {
            (1,): ((0, 1), (1, 0)),
            (2,): ((0, 1), (2, 0)),
            (2, 1): ((0, 2), (1, 1), (2, 0)),
            (1, 1): ((0, 2), (1, 0)),
        }
        for partition, gens in cases.items():
            assert hilb._corners(partition) == gens

    def test_box_count(self):
        for d in range(1, 9):
            for p in hilb.partitions(d):
                assert len(hilb._standard_exponents(p)) == d

    def test_staircase_shape(self):
        for p in hilb.partitions(6):
            gens = hilb._corners(p)
            xs = [a for a, _ in gens]
            ys = [b for _, b in gens]
            assert xs == sorted(xs) and len(set(xs)) == len(xs)
            assert ys == sorted(ys, reverse=True) and len(set(ys)) == len(ys)

    def test_invalid(self):
        with pytest.raises(ValueError):
            hilb.ideal_from_partition((1, 2))
        with pytest.raises(ValueError):
            hilb.ideal_from_partition((0,))
        for partition in ((True,), (1.5,), (2, 1.0)):
            with pytest.raises(ValueError):
                hilb.ideal_from_partition(partition)
        # once a bare TypeError: 'int' object is not iterable
        with pytest.raises(ValueError, match="^partition 5 is not a list or tuple$"):
            hilb.ideal_from_partition(5)


class TestTangentCharacters:
    def test_single_box(self):
        assert char((1,)) == {(1, 0): 1, (0, 1): 1}

    def test_two_in_a_row(self):
        assert char((2,)) == {(2, 0): 1, (-1, 1): 1, (1, 0): 1, (0, 1): 1}

    def test_column_is_transpose_of_row(self):
        swapped = {(b, a): m for (a, b), m in char((2,)).items()}
        assert char((1, 1)) == swapped

    def test_oracles_agree_up_to_ten(self):
        for d in range(1, 11):
            for p in hilb.partitions(d):
                ideal = hilb.ideal_from_partition(p)
                linalg = hilb.tangent_character_linalg(ideal)
                armleg = hilb.tangent_character_armleg(ideal)
                assert linalg == armleg, p

    def test_staircase_walk_matches_matrix_rank(self):
        # every shift tangent_character_linalg tries, for d <= 15
        for d in range(1, 16):
            for p in hilb.partitions(d):
                gens = hilb._corners(p)
                boxes = set(hilb._standard_exponents(p))
                for delta in {(a - ga, b - gb) for a, b in boxes for ga, gb in gens}:
                    assert hilb._hom_dimension(boxes, gens, delta) == (
                        matrix_hom_dimension(p, gens, delta)
                    ), (p, delta)

    def test_large_staircase_is_fast(self):
        # 465 boxes and 31 generators: 0.42 s by a matrix rank per shift
        ideal = hilb.ideal_from_partition(tuple(range(30, 0, -1)))
        start = time.perf_counter()
        linalg = hilb.tangent_character_linalg(ideal)
        assert time.perf_counter() - start < 0.25
        assert linalg == hilb.tangent_character_armleg(ideal)

    def test_total_dimension_and_no_fixed_directions(self):
        for d in range(1, 9):
            for p in hilb.partitions(d):
                character = char(p)
                assert sum(character.values()) == 2 * d
                assert (0, 0) not in character

    def test_transpose_duality(self):
        for d in range(1, 9):
            for p in hilb.partitions(d):
                swapped = {(b, a): m for (a, b), m in char(p).items()}
                assert char(hilb._transpose(p)) == swapped


# calls given something other than a MonomialIdealPlane, and plane ideals
# with bad parts, with the error each must raise
BAD_CALLS = {
    # these two once ended in a bare AttributeError
    "armleg_int": (lambda: hilb.tangent_character_armleg(5), ValueError),
    "cell_partition_as_ideal": (lambda: hilb.cell_dimension((2, 1), (1, 3)), ValueError),
    # this one once ended in an IndexError
    "increasing_parts": (
        lambda: hilb.tangent_character_armleg(hilb.MonomialIdealPlane((1, 2))), ValueError
    ),
    "linalg_int": (lambda: hilb.tangent_character_linalg(5), ValueError),
    "intersect_partition_as_ideal": (
        lambda: hilb.intersection_dimension((2,), (1, 3), (3, 1)), ValueError
    ),
    "zero_part": (lambda: hilb.MonomialIdealPlane((1, 0)), ValueError),
    "negative_part": (lambda: hilb.MonomialIdealPlane((-1,)), ValueError),
    "float_part": (lambda: hilb.MonomialIdealPlane((2.0,)), ValueError),
    "bool_part": (lambda: hilb.MonomialIdealPlane((True,)), ValueError),
    "int_as_partition": (lambda: hilb.MonomialIdealPlane(5), ValueError),
}


@pytest.mark.parametrize("case", sorted(BAD_CALLS))
def test_bad_arguments_raise_project_errors(case):
    call, error = BAD_CALLS[case]
    with pytest.raises(error):
        call()


def test_ideal_keeps_its_parts_as_a_tuple():
    assert hilb.MonomialIdealPlane([2, 1]) == hilb.ideal_from_partition((2, 1))
    assert hilb.MonomialIdealPlane([2, 1]).partition == (2, 1)


class TestCellDimension:
    def test_row_pair(self):
        ideal = hilb.ideal_from_partition((2,))
        assert hilb.cell_dimension(ideal, (1, 3)) == 4

    def test_column_pair(self):
        ideal = hilb.ideal_from_partition((1, 1))
        assert hilb.cell_dimension(ideal, (1, 3)) == 3

    def test_full_tangent_space(self):
        # weights of the row partition all pair >= 0 with (1, 2)
        ideal = hilb.ideal_from_partition((2,))
        assert hilb.cell_dimension(ideal, (1, 2)) == 4

    def test_transpose_duality(self):
        for d in range(1, 7):
            for p in hilb.partitions(d):
                a = hilb.cell_dimension(hilb.ideal_from_partition(p), (2, 7))
                b = hilb.cell_dimension(
                    hilb.ideal_from_partition(hilb._transpose(p)), (7, 2)
                )
                assert a == b

    def test_closed_form_under_default_weight(self):
        for d in range(1, 15):
            w = hilb.default_generic_weight(d)
            for p in hilb.partitions(d):
                assert hilb.cell_dimension(hilb.ideal_from_partition(p), w) == d + p[0]

    def test_cell_reads_dimension_and_genericity(self):
        # (1, 1) pairs to zero with tangent weights such as (1, -1)
        for d in range(1, 7):
            for w in [(1, d + 1), (1, 1), (2, -1), (0, 1), (-2, -3)]:
                assert hilb.is_generic(d, w) == all(
                    ideal_is_generic(hilb.ideal_from_partition(p), w)
                    for p in hilb.partitions(d)
                )
            for p in hilb.partitions(d):
                ideal = hilb.ideal_from_partition(p)
                for w in [(1, d + 1), (1, 1), (2, -1), (0, 1)]:
                    generic = all(w[0] * a + w[1] * b != 0 for a, b in char(p))
                    assert ideal_is_generic(ideal, w) == generic
                    if generic:
                        # independent count on the linear-algebra character
                        linalg = hilb.tangent_character_linalg(ideal)
                        dim = sum(
                            m for (a, b), m in linalg.items() if w[0] * a + w[1] * b > 0
                        )
                        assert hilb.cell_dimension(ideal, w) == dim
                        continue
                    with pytest.raises(NonGenericWeight) as err:
                        hilb.cell_dimension(ideal, w)
                    assert err.value.partition == p
                    assert err.value.weight == w
                    t = err.value.tangent_weight
                    assert t in char(p) and w[0] * t[0] + w[1] * t[1] == 0


class TestIntersectionDimension:
    def test_spot_value(self):
        ideal = hilb.ideal_from_partition((2,))
        assert hilb.intersection_dimension(ideal, (1, 3), (3, 1)) == 3

    def test_equal_weights_give_cell(self):
        for p in hilb.partitions(5):
            ideal = hilb.ideal_from_partition(p)
            assert hilb.intersection_dimension(
                ideal, (1, 6), (1, 6)
            ) == hilb.cell_dimension(ideal, (1, 6))

    def test_single_box_positive_weights(self):
        ideal = hilb.ideal_from_partition((1,))
        assert hilb.intersection_dimension(ideal, (2, 5), (4, 1)) == 2

    def test_non_generic_flow_rejected(self):
        ideal = hilb.ideal_from_partition((2,))
        for flows in [((1, 1), (1, 3)), ((1, 3), (1, 1))]:
            with pytest.raises(NonGenericWeight) as err:
                hilb.intersection_dimension(ideal, *flows)
            assert err.value.weight == (1, 1)
            assert err.value.tangent_weight == (-1, 1)

    @pytest.mark.parametrize("w, error", [
        ((0.5, 1), ValueError), ((1, True), ValueError), (5, ValueError),
        ((1, 3, 1), RankMismatch),
    ], ids=["float", "bool", "int", "triple"])
    def test_flows_must_be_integer_pairs(self, w, error):
        ideal = hilb.ideal_from_partition((2,))
        for call in (lambda: hilb.cell_dimension(ideal, w),
                     lambda: hilb.intersection_dimension(ideal, (1, 3), w),
                     lambda: hilb.is_generic(2, w),
                     lambda: hilb.poincare_histogram(2, w)):
            with pytest.raises(error):
                call()

    def test_matches_the_character_route(self):
        # the weight list against the character dict it replaced, at every
        # partition with d <= 12: seeded flows from all four sign chambers,
        # with zero entries and small same-sign weights that are not generic,
        # and malformed flows, some after a flow that is not generic
        def outcome(intersect, ideal, flows):
            try:
                return intersect(ideal, *flows)
            except (NonGenericWeight, RankMismatch, ValueError) as exc:
                return type(exc), str(exc)

        def well_formed(w):
            return type(w) is tuple and len(w) == 2 and all(type(x) is int for x in w)

        rng = random.Random(127)
        malformed = [(1, 2, 3), (0.5, 1), (1, True), 5]
        fixed = [[(1, 1), (1, 2, 3)], [(0, 1), 5], [(1, 3), (1, 2, 3)], []]
        seen = Counter()
        for d in range(13):
            for p in hilb.partitions(d):
                ideal = hilb.ideal_from_partition(p)
                character = hilb.tangent_character_armleg(ideal)
                assert list(character.items()) == list(dict_tangent_character(p).items())
                for flows in fixed + [
                    [rng.choice(malformed) if rng.random() < 0.1 else
                     (rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(rng.randint(0, 3))]
                    for _ in range(12)
                ]:
                    expected = outcome(dict_intersection_dimension, ideal, flows)
                    assert outcome(hilb.intersection_dimension, ideal, flows) == expected, (
                        p, flows)
                    seen.update((w[0] > 0, w[1] > 0) for w in flows
                                if well_formed(w) and 0 not in w)
                    kind = expected[0] if type(expected) is tuple else int
                    seen[kind] += 1
                    seen["malformed after non-generic"] += (
                        kind is NonGenericWeight and not all(map(well_formed, flows)))
        assert all(seen[s1, s2] > 200 for s1 in (True, False) for s2 in (True, False))
        assert min(seen[NonGenericWeight], seen[RankMismatch], seen[ValueError], seen[int],
                   seen["malformed after non-generic"]) > 50

    def test_bounded_by_cells(self):
        for p in hilb.partitions(6):
            ideal = hilb.ideal_from_partition(p)
            inter = hilb.intersection_dimension(ideal, (1, 7), (7, 1))
            assert inter <= min(
                hilb.cell_dimension(ideal, (1, 7)),
                hilb.cell_dimension(ideal, (7, 1)),
            )


class TestPoincare:
    def test_one_point(self):
        assert hilb.poincare_histogram(1, (1, 2)) == {2: 1}

    def test_two_points(self):
        assert hilb.poincare_histogram(2, (1, 3)) == {3: 1, 4: 1}

    def test_unique_open_cell(self):
        for d in range(1, 9):
            histogram = hilb.poincare_histogram(d, hilb.default_generic_weight(d))
            assert histogram[2 * d] == 1

    # is_generic(2.5, (1, 3)) once returned True, and
    # default_generic_weight(2.5) returned (1, 3.5)
    @pytest.mark.parametrize("d", [-1, 2.0, 2.5, True])
    def test_d_must_be_a_nonnegative_integer(self, d):
        for call in (lambda: hilb.poincare_histogram(d, (1, 3)),
                     lambda: hilb.is_generic(d, (1, 3)),
                     lambda: hilb.default_generic_weight(d)):
            with pytest.raises(ValueError, match="^d must be a nonnegative integer$"):
                call()

    def test_non_generic_weight_rejected(self):
        with pytest.raises(NonGenericWeight) as err:
            hilb.poincare_histogram(2, (1, 1))
        assert err.value.weight == (1, 1)

    def test_non_generic_witness_is_found_lazily(self):
        # the whole partitions(55) list took 1.67 s and a 74.6 MB traced
        # peak before the first partition, (55,), raised
        tracemalloc.start()
        try:
            start = time.perf_counter()
            with pytest.raises(NonGenericWeight) as err:
                hilb.poincare_histogram(55, (1, 1))
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert err.value.partition == (55,)
        assert elapsed < 0.25
        assert peak < 1_000_000

    # the first error of the intersection dimension at every partition, in
    # partitions(d) order, as the per-fixed-point commands would raise it:
    # at (6,), (3, 2) pairs to zero with no tangent weight and (1, 1) with
    # (-1, 1), though (3, 2) alone first fails at (3, 2, 1)
    def test_require_generic_raises_the_first_record_error(self):
        weights = list(product(range(-3, 4), repeat=2))
        rng = random.Random(125)
        for d in range(7):
            for flows in [rng.sample(weights, 2) for _ in range(60)] + [[(3, 2), (1, 1)]]:
                expected = None
                try:
                    for p in hilb.partitions(d):
                        hilb.intersection_dimension(hilb.ideal_from_partition(p), *flows)
                except NonGenericWeight as exc:
                    expected = str(exc)
                try:
                    hilb.require_generic(d, *flows)
                    got = None
                except NonGenericWeight as exc:
                    got = str(exc)
                assert got == expected
        with pytest.raises(NonGenericWeight) as err:
            hilb.require_generic(6, (3, 2), (1, 1))
        assert (err.value.partition, err.value.weight) == ((6,), (1, 1))

    def test_histogram_counts_partitions_by_largest_part(self):
        # Ellingsrud-Stromme: under (1, d+1) the cells of dimension d + k
        # are indexed by the partitions of d with largest part k
        for d in range(1, 19):
            expected = {
                d + k: count
                for k, count in enumerate(largest_part_counts(d))
                if count
            }
            assert hilb.poincare_histogram(d, hilb.default_generic_weight(d)) == expected

    def test_default_weight_is_generic(self):
        for d in range(1, 41):
            assert hilb.is_generic(d, hilb.default_generic_weight(d))

    def test_genericity_closed_form_matches_loop(self):
        # d <= 13 and |w_i| <= 16: 15,246 cases
        for d in range(14):
            for w in product(range(-16, 17), repeat=2):
                assert hilb.is_generic(d, w) == looped_is_generic(d, w), (d, w)

    @pytest.mark.parametrize("d", range(19))
    def test_closed_form_matches_enumeration(self, d):
        for w in poincare_weights(random.Random(d), d):
            assert poincare_outcome(hilb.poincare_histogram, d, w) == (
                poincare_outcome(enumerated_poincare_histogram, d, w)
            ), w

    def test_closed_form_matches_enumeration_at_thirty(self):
        rng = random.Random(30)
        for s1, s2 in CHAMBERS:
            w = (s1 * rng.randint(1, 9), s2 * rng.randint(31, 99))
            assert hilb.is_generic(30, w)
            assert poincare_outcome(hilb.poincare_histogram, 30, w) == (
                poincare_outcome(enumerated_poincare_histogram, 30, w)
            ), w

    def test_large_d_needs_no_enumeration(self):
        # enumerating the p(200) partitions would not finish
        start = time.perf_counter()
        histogram = hilb.poincare_histogram(200, (1, 201))
        assert time.perf_counter() - start < 1.0
        assert list(histogram) == list(range(201, 401))
        assert sum(histogram.values()) == 3_972_999_029_388


CHAMBERS = [(1, 1), (1, -1), (-1, 1), (-1, -1)]


def poincare_weights(rng, d):
    """Three weights in each sign chamber, then weights with a zero entry or
    same-sign entries summing to at most d, which are not generic at d >= 2."""
    for s1, s2 in CHAMBERS:
        drawn = rng.randint(1, 2 * d + 2), rng.randint(1, 2 * d + 2)
        for w1, w2 in [(1, d + 1), (d + 1, 1), drawn]:
            yield s1 * w1, s2 * w2
    yield from [(0, 0), (0, 1), (-3, 0), (1, 1), (-1, -1), (2, 4), (-1, 1 - d)]


def poincare_outcome(histogram, d, w):
    """The histogram's items in key order, or the error's type and text."""
    try:
        return list(histogram(d, w).items())
    except NonGenericWeight as exc:
        return type(exc), str(exc)
