import pytest

from bbcells import hilb
from bbcells.errors import NonGenericWeight


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
        # brute-force oracle: count weakly decreasing positive tuples summing
        # to d, generated as restricted compositions
        def brute(d):
            def rec(remaining, cap):
                if remaining == 0:
                    return 1
                return sum(
                    rec(remaining - p, p) for p in range(min(cap, remaining), 0, -1)
                )

            return rec(d, d)

        expected = [1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
        for d in range(1, 11):
            assert len(hilb.partitions(d)) == expected[d - 1] == brute(d)

    def test_distinct_and_sorted_parts(self):
        for p in hilb.partitions(7):
            assert sum(p) == 7
            assert list(p) == sorted(p, reverse=True)
        assert len(set(hilb.partitions(7))) == 15

    def test_zero_and_negative(self):
        assert hilb.partitions(0) == [()]
        with pytest.raises(ValueError):
            hilb.partitions(-1)


class TestIdealFromPartition:
    def test_corners(self):
        cases = {
            (1,): ((0, 1), (1, 0)),
            (2,): ((0, 1), (2, 0)),
            (2, 1): ((0, 2), (1, 1), (2, 0)),
            (1, 1): ((0, 2), (1, 0)),
        }
        for partition, gens in cases.items():
            assert hilb.ideal_from_partition(partition).minimal_generators == gens

    def test_box_count(self):
        for d in range(1, 9):
            for p in hilb.partitions(d):
                assert len(hilb.standard_exponents(p)) == d

    def test_staircase_shape(self):
        for p in hilb.partitions(6):
            gens = hilb.ideal_from_partition(p).minimal_generators
            xs = [a for a, _ in gens]
            ys = [b for _, b in gens]
            assert xs == sorted(xs) and len(set(xs)) == len(xs)
            assert ys == sorted(ys, reverse=True) and len(set(ys)) == len(ys)

    def test_invalid(self):
        with pytest.raises(ValueError):
            hilb.ideal_from_partition((1, 2))
        with pytest.raises(ValueError):
            hilb.ideal_from_partition((0,))


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
                assert char(hilb.transpose(p)) == swapped


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
                    hilb.ideal_from_partition(hilb.transpose(p)), (7, 2)
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
            for p in hilb.partitions(d):
                ideal = hilb.ideal_from_partition(p)
                for w in [(1, d + 1), (1, 1), (2, -1), (0, 1)]:
                    generic = all(w[0] * a + w[1] * b != 0 for a, b in char(p))
                    dim = hilb.cell_dimension(ideal, w)
                    assert hilb.cell(ideal, w) == (dim, generic)
                    assert hilb.is_generic(ideal, w) == generic


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

    def test_non_generic_weight_rejected(self):
        with pytest.raises(NonGenericWeight) as err:
            hilb.poincare_histogram(2, (1, 1))
        assert err.value.weight == (1, 1)

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
        for d in range(1, 9):
            w = hilb.default_generic_weight(d)
            for p in hilb.partitions(d):
                assert hilb.is_generic(hilb.ideal_from_partition(p), w)
