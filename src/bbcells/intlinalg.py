"""Exact integer linear algebra: Hermite/Smith normal forms and lattice kernels.

All matrices are lists of lists of Python ints (arbitrary precision).
Row convention: a matrix with r rows and c columns maps Z^c -> Z^r.
"""

from math import gcd


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    return [
        [sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols)]
        for i in range(rows)
    ]


def mat_vec(a, v):
    return [sum(row[j] * v[j] for j in range(len(v))) for row in a]


def primitive(v):
    """Divide an integer vector by the gcd of its entries (zero vector unchanged)."""
    g = 0
    for x in v:
        g = gcd(g, x)
    if g == 0:
        return list(v)
    return [x // g for x in v]


def sign_normalized(v):
    """Primitive vector scaled so the first nonzero entry is positive."""
    w = primitive(v)
    for x in w:
        if x != 0:
            if x < 0:
                w = [-y for y in w]
            break
    return w


def row_hermite(mat):
    """Row-style Hermite normal form.

    Returns (h, u) with u unimodular and u @ mat = h, h in row echelon form
    with positive pivots and entries above each pivot reduced.
    """
    h = [list(row) for row in mat]
    rows = len(h)
    cols = len(h[0]) if rows else 0
    u = identity(rows)
    pivot_row = 0
    for col in range(cols):
        # find a row at or below pivot_row with nonzero entry in this column
        nz = [i for i in range(pivot_row, rows) if h[i][col] != 0]
        if not nz:
            continue
        # euclidean elimination within the column
        while len(nz) > 1:
            nz.sort(key=lambda i: abs(h[i][col]))
            i0 = nz[0]
            for i in nz[1:]:
                q = h[i][col] // h[i0][col]
                h[i] = [a - q * b for a, b in zip(h[i], h[i0])]
                u[i] = [a - q * b for a, b in zip(u[i], u[i0])]
            nz = [i for i in nz if h[i][col] != 0]
        i0 = nz[0]
        if i0 != pivot_row:
            h[i0], h[pivot_row] = h[pivot_row], h[i0]
            u[i0], u[pivot_row] = u[pivot_row], u[i0]
        if h[pivot_row][col] < 0:
            h[pivot_row] = [-a for a in h[pivot_row]]
            u[pivot_row] = [-a for a in u[pivot_row]]
        p = h[pivot_row][col]
        for i in range(pivot_row):
            q = h[i][col] // p
            if q:
                h[i] = [a - q * b for a, b in zip(h[i], h[pivot_row])]
                u[i] = [a - q * b for a, b in zip(u[i], u[pivot_row])]
        pivot_row += 1
    return h, u


def kernel_basis(mat):
    """Basis of the integer kernel {v in Z^c : mat @ v = 0}.

    The kernel of an integer matrix is a saturated sublattice, so this basis
    generates it over Z.  Computed via the Hermite form of the transpose:
    rows of u that multiply mat^T to zero span the kernel.
    """
    if not mat:
        return []
    cols = len(mat[0])
    transpose = [[mat[i][j] for i in range(len(mat))] for j in range(cols)]
    h, u = row_hermite(transpose)
    basis = []
    for i in range(cols):
        if all(x == 0 for x in h[i]):
            basis.append(sign_normalized(u[i]))
    return basis


def rank_of(mat):
    """Rank over Q (equals rank over Z)."""
    if not mat:
        return 0
    h, _ = row_hermite(mat)
    return sum(1 for row in h if any(x != 0 for x in row))


def smith(mat):
    """Smith normal form: returns (u, s, v) with u @ mat @ v = s diagonal,
    u and v unimodular, diagonal entries dividing each other in order."""
    s = [list(row) for row in mat]
    rows = len(s)
    cols = len(s[0]) if rows else 0
    u = identity(rows)
    v = identity(cols)

    def swap_rows(i, j):
        s[i], s[j] = s[j], s[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in s:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(i, j, q):  # row_i -= q * row_j
        s[i] = [a - q * b for a, b in zip(s[i], s[j])]
        u[i] = [a - q * b for a, b in zip(u[i], u[j])]

    def add_col(i, j, q):  # col_i -= q * col_j
        for row in s:
            row[i] -= q * row[j]
        for row in v:
            row[i] -= q * row[j]

    t = 0
    while t < min(rows, cols):
        # locate a nonzero entry in the remaining block
        pivot = None
        for i in range(t, rows):
            for j in range(t, cols):
                if s[i][j] != 0:
                    if pivot is None or abs(s[i][j]) < abs(s[pivot[0]][pivot[1]]):
                        pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        done = False
        while not done:
            done = True
            for i in range(t + 1, rows):
                if s[i][t] != 0:
                    q = s[i][t] // s[t][t]
                    add_row(i, t, q)
                    if s[i][t] != 0:
                        swap_rows(t, i)
                        done = False
            for j in range(t + 1, cols):
                if s[t][j] != 0:
                    q = s[t][j] // s[t][t]
                    add_col(j, t, q)
                    if s[t][j] != 0:
                        swap_cols(t, j)
                        done = False
        if s[t][t] < 0:
            s[t] = [-a for a in s[t]]
            u[t] = [-a for a in u[t]]
        # enforce divisibility: fold in any non-divisible entry below-right
        bad = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if s[i][j] % s[t][t] != 0:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            add_row(t, bad, -1)
            continue
        t += 1
    return u, s, v
