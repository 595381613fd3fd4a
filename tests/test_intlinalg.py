import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from bbcells import intlinalg
from conftest import fraction_rank_det, mat_mul, rank_of, signed_minors, solve_exact


def random_matrix(rng, rows, cols, bound=5):
    return [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]


def det(mat):
    n = len(mat)
    if n == 0:
        return 1
    if n == 1:
        return mat[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in mat[1:]]
        total += (-1) ** j * mat[0][j] * det(minor)
    return total


def hermite_inputs():
    """Random matrices up to 4 x 4, then the 0 x 0 matrix, matrices with no
    columns and the zero matrix."""
    rng = random.Random(7)
    for _ in range(60):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        yield random_matrix(rng, rows, cols)
    yield from ([], [[]], [[], [], []], [[0] * 3 for _ in range(2)])


def random_unimodular(rng, n):
    """A product of elementary row operations, negations and swaps."""
    u = intlinalg.identity(n)
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if i != j:
            q = rng.randint(-3, 3)
            u[i] = [a + q * b for a, b in zip(u[i], u[j])]
            u[i], u[j] = u[j], u[i]
        u[i] = [-a for a in u[i]]
    return u


def test_hermite_transform_is_unimodular():
    for mat in hermite_inputs():
        h, u = intlinalg.row_hermite(mat)
        assert mat_mul(u, mat) == h
        assert len(u) == len(mat) and abs(det(u)) == 1


def test_hermite_is_echelon_with_positive_pivots():
    for mat in hermite_inputs():
        h, _ = intlinalg.row_hermite(mat)
        pivots = []
        for i, row in enumerate(h):
            nz = [j for j, x in enumerate(row) if x != 0]
            if not nz:
                assert not any(any(r) for r in h[i:])
                break
            p = nz[0]
            pivots.append(p)
            assert row[p] > 0
            assert all(0 <= h[k][p] < row[p] for k in range(i))
        assert pivots == sorted(set(pivots))


def test_hermite_form_depends_only_on_the_row_lattice():
    rng = random.Random(8)
    for mat in hermite_inputs():
        u = random_unimodular(rng, len(mat))
        assert intlinalg.row_hermite(mat_mul(u, mat))[0] == intlinalg.row_hermite(mat)[0]


def test_kernel_vectors_annihilate_and_span():
    rng = random.Random(9)
    for _ in range(40):
        rows, cols = rng.randint(0, 3), rng.randint(1, 4)
        mat = random_matrix(rng, rows, cols, bound=3)
        basis = intlinalg.kernel_basis(mat, cols)
        for v in basis:
            assert all(x == 0 for x in intlinalg.mat_vec(mat, v))
        assert len(basis) == cols - rank_of(mat)
        # the span is saturated: each kernel vector of the box [-2, 2]^cols
        # is an integer combination of the basis
        columns = [[v[i] for v in basis] for i in range(cols)]
        for k in product(range(-2, 3), repeat=cols):
            if not any(intlinalg.mat_vec(mat, k)):
                coeffs = solve_exact(columns, k)
                assert coeffs is not None and all(c.denominator == 1 for c in coeffs)


@pytest.mark.parametrize("cols", range(5))
def test_kernel_of_no_rows_is_the_identity(cols):
    assert intlinalg.kernel_basis([], cols) == intlinalg.identity(cols)


def smith_inputs():
    """Random matrices up to 6 x 6, then the all-zero 3 x 4 matrix and
    diagonal ones whose entries do not divide each other in order."""
    rng = random.Random(10)
    for _ in range(120):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        yield random_matrix(rng, rows, cols, bound=rng.choice([1, 5, 50]))
    yield [[0] * 4 for _ in range(3)]
    yield [[4, 0, 0], [0, 6, 0], [0, 0, 10]]
    yield [[6, 0], [0, 4], [0, 0]]


def test_smith_diagonalizes_with_divisibility():
    for mat in smith_inputs():
        rows, cols = len(mat), len(mat[0])
        u, s, v = intlinalg.smith(mat)
        assert mat_mul(mat_mul(u, mat), v) == s
        assert abs(det(u)) == 1 and abs(det(v)) == 1
        diag = [s[i][i] for i in range(min(rows, cols))]
        for i in range(rows):
            for j in range(cols):
                if i != j:
                    assert s[i][j] == 0
        assert all(a >= 0 for a in diag)
        for a, b in zip(diag, diag[1:]):
            if a != 0:
                assert b % a == 0
            else:
                assert b == 0


def test_solve_exact_round_trip():
    rng = random.Random(11)
    for _ in range(40):
        rows, cols = rng.randint(1, 3), rng.randint(1, 3)
        mat = random_matrix(rng, rows, cols)
        x = [rng.randint(-3, 3) for _ in range(cols)]
        rhs = intlinalg.mat_vec(mat, x)
        sol = solve_exact(mat, rhs)
        assert sol is not None
        assert intlinalg.mat_vec(mat, sol) == rhs


def test_solve_exact_detects_inconsistency():
    assert solve_exact([[1, 1], [2, 2]], [1, 3]) is None


def test_primitive_and_sign():
    assert intlinalg.primitive([4, -6, 2]) == [2, -3, 1]
    assert intlinalg.sign_normalized([0, -4, 6]) == [0, 2, -3]
    assert intlinalg.primitive([0, 0]) == [0, 0]


@st.composite
def eliminable(draw):
    """A square or (d-1) x d matrix with d <= 6 and entries in -4..4, with d.
    Some repeat a row up to sign, so the rank falls short, and some have a
    zero leading entry, so the elimination swaps rows."""
    d = draw(st.integers(1, 6))
    n = draw(st.sampled_from([d, d - 1]))
    row = st.lists(st.integers(-4, 4), min_size=d, max_size=d)
    mat = draw(st.lists(row, min_size=n, max_size=n))
    if n and draw(st.booleans()):
        mat[0][0] = 0
    if n >= 2 and draw(st.booleans()):
        i, j = draw(st.permutations(range(n)))[:2]
        sign = draw(st.sampled_from([1, -1]))
        mat[j] = [sign * x for x in mat[i]]
    return mat, d


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(eliminable())
def test_fraction_free_elimination_matches_fraction_oracle(drawn):
    mat, d = drawn
    rank = fraction_rank_det(mat)[0]
    assert rank_of(mat) == rank
    if len(mat) == d:
        return
    minors = signed_minors(mat, d)
    assert minors == [
        (-1) ** j * fraction_rank_det([r[:j] + r[j + 1:] for r in mat])[1]
        for j in range(d)
    ]
    assert any(minors) == (rank == d - 1)
    if rank == d - 1:
        (k,) = intlinalg.kernel_basis(mat, d)
        assert intlinalg.primitive(minors) in (k, [-x for x in k])


def test_signed_minors_of_the_empty_matrix():
    assert rank_of([]) == 0
    assert signed_minors([], 1) == [1]
