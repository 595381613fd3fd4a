import random

from bbcells import intlinalg
from conftest import solve_exact


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
        assert intlinalg.mat_mul(u, mat) == h
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
        assert intlinalg.mat_mul(intlinalg.mat_mul(u, mat), v) == s
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
