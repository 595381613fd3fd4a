"""Exact integer linear algebra: the Hermite normal form and lattice kernels.
The Smith form built on it is kept for the benchmark's tracer and the tests;
no library path calls it.

All matrices are lists of lists of Python ints (arbitrary precision).
Row convention: a matrix with r rows and c columns maps Z^c -> Z^r.
"""

from math import gcd
from operator import mul


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_vec(a, v):
    return [sum(row[j] * v[j] for j in range(len(v))) for row in a]


def primitive(v):
    """Divide an integer vector by the gcd of its entries (zero vector unchanged)."""
    g = gcd(*v)
    return [x // g for x in v] if g else list(v)


def sign_normalized(v):
    """Primitive vector scaled so the first nonzero entry is positive."""
    w = primitive(v)
    return [-x for x in w] if next((x for x in w if x), 0) < 0 else w


def _transpose(mat):
    return [list(col) for col in zip(*mat)]


def _mul(a, b):
    return [[sum(map(mul, row, col)) for col in zip(*b)] for row in a]


def row_hermite(mat):
    """Row-style Hermite normal form: (h, u) with u unimodular, u @ mat = h,
    and h in row echelon form with positive pivots, the entries above each
    pivot in [0, pivot) and zero rows last.  One elimination on the rows of
    [mat | I] leaves h as its left block and u as its right one."""
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    a = [list(row) + e for row, e in zip(mat, identity(rows))]
    pivot_row = 0
    for col in range(cols):
        # find a row at or below pivot_row with nonzero entry in this column
        nz = [i for i in range(pivot_row, rows) if a[i][col] != 0]
        if not nz:
            continue
        # euclidean elimination within the column
        while len(nz) > 1:
            nz.sort(key=lambda i: abs(a[i][col]))
            i0 = nz[0]
            for i in nz[1:]:
                q = a[i][col] // a[i0][col]
                a[i] = [x - q * y for x, y in zip(a[i], a[i0])]
            nz = [i for i in nz if a[i][col] != 0]
        i0 = nz[0]
        a[i0], a[pivot_row] = a[pivot_row], a[i0]
        if a[pivot_row][col] < 0:
            a[pivot_row] = [-x for x in a[pivot_row]]
        p = a[pivot_row][col]
        for i in range(pivot_row):
            q = a[i][col] // p
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], a[pivot_row])]
        pivot_row += 1
    return [row[:cols] for row in a], [row[cols:] for row in a]


def kernel_basis(mat, cols):
    """Basis of the integer kernel {v in Z^cols : mat @ v = 0} of a matrix
    with cols columns, the identity when it has no rows.  The kernel is a
    saturated sublattice, so this basis generates it over Z: the rows of u in
    the Hermite form of mat^T that multiply it to zero.
    """
    h, u = row_hermite([[row[j] for row in mat] for j in range(cols)])
    return [sign_normalized(w) for w, row in zip(u, h) if not any(row)]


def _is_diagonal(s):
    return not any(x for i, row in enumerate(s) for j, x in enumerate(row) if i != j)


def smith(mat):
    """Smith normal form: (u, s, v) with u @ mat @ v = s diagonal, u and v
    unimodular, and nonnegative diagonal entries d_i dividing each other in
    order.  Row Hermite passes on s and on its transpose alternate until s is
    diagonal; where d_i does not divide d_(i+1), column i+1 is added to
    column i and the passes resume.  Each pass that leaves s off the diagonal
    and each addition lowers the first d_i not alone in its row and column
    to a gcd that properly divides it, keeping those before: the loop ends."""
    s, u = row_hermite(mat)
    v = identity(len(s[0]) if s else 0)
    while True:
        if not _is_diagonal(s):
            h, w = row_hermite(_transpose(s))
            s, v = _transpose(h), _mul(v, _transpose(w))
        if _is_diagonal(s):
            # a diagonal Hermite form lists its zero entries last
            d = [s[i][i] for i in range(min(len(s), len(v)))]
            i = next((i for i in range(len(d) - 1) if d[i] and d[i + 1] % d[i]), None)
            if i is None:
                return u, s, v
            for row in s + v:
                row[i] += row[i + 1]
        s, w = row_hermite(s)
        u = _mul(w, u)
