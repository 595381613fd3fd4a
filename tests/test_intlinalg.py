import random

from hypothesis import given, settings, strategies as st

from bbcells import intlinalg
from conftest import fraction_rank_det, mat_mul, solve_exact


def random_matrix(rng, rows, cols, bound=5):
    return [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]


def det(mat):
    n = len(mat)
    if n == 1:
        return mat[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in mat[1:]]
        total += (-1) ** j * mat[0][j] * det(minor)
    return total


def test_hermite_transform_is_unimodular():
    rng = random.Random(7)
    for _ in range(30):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        mat = random_matrix(rng, rows, cols)
        h, u = intlinalg.row_hermite(mat)
        assert mat_mul(u, mat) == h
        assert abs(det(u)) == 1


def test_hermite_is_echelon_with_positive_pivots():
    rng = random.Random(8)
    for _ in range(30):
        mat = random_matrix(rng, 3, 3)
        h, _ = intlinalg.row_hermite(mat)
        pivots = []
        for row in h:
            nz = [j for j, x in enumerate(row) if x != 0]
            if nz:
                pivots.append(nz[0])
                assert row[nz[0]] > 0
        assert pivots == sorted(pivots)


def test_kernel_vectors_annihilate_and_span():
    rng = random.Random(9)
    for _ in range(40):
        rows, cols = rng.randint(1, 3), rng.randint(1, 4)
        mat = random_matrix(rng, rows, cols, bound=3)
        basis = intlinalg.kernel_basis(mat)
        for v in basis:
            assert all(x == 0 for x in intlinalg.mat_vec(mat, v))
        assert len(basis) == cols - intlinalg.rank_of(mat)


def test_smith_diagonalizes_with_divisibility():
    rng = random.Random(10)
    for _ in range(40):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        mat = random_matrix(rng, rows, cols)
        u, s, v = intlinalg.smith(mat)
        assert mat_mul(mat_mul(u, mat), v) == s
        assert abs(det(u)) == 1 and abs(det(v)) == 1
        diag = [s[i][i] for i in range(min(rows, cols))]
        for i in range(rows):
            for j in range(cols):
                if i != j:
                    assert s[i][j] == 0
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
    assert intlinalg.rank_of(mat) == rank
    if len(mat) == d:
        return
    minors = intlinalg.signed_minors(mat, d)
    assert minors == [
        (-1) ** j * fraction_rank_det([r[:j] + r[j + 1:] for r in mat])[1]
        for j in range(d)
    ]
    assert any(minors) == (rank == d - 1)
    if mat and rank == d - 1:
        (k,) = intlinalg.kernel_basis(mat)
        assert intlinalg.primitive(minors) in (k, [-x for x in k])


def test_signed_minors_of_the_empty_matrix():
    assert intlinalg.rank_of([]) == 0
    assert intlinalg.signed_minors([], 1) == [1]
