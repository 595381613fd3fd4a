"""Exact integer linear algebra: Hermite/Smith normal forms and lattice kernels,
and fraction-free (Bareiss) rank and signed maximal minors.

All matrices are lists of lists of Python ints (arbitrary precision).
Row convention: a matrix with r rows and c columns maps Z^c -> Z^r.
"""

from math import gcd


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
    h, u = row_hermite([list(col) for col in zip(*mat)])
    return [sign_normalized(w) for w, row in zip(u, h) if not any(row)]


def _bareiss(mat):
    """Fraction-free Gauss-Jordan elimination (Bareiss, 1968), leaving mat as
    it is: (rows, pivot columns, last pivot or 1).  Entries stay minors, so
    each division is exact; a swap negates the row it moves up, which keeps
    the minors' signs.  The pivot block ends as `last` times the identity."""
    rows = list(mat)  # rows are replaced, never changed in place
    last, pivots = 1, []
    for col in range(len(rows[0]) if rows else 0):
        k = len(pivots)
        i0 = next((i for i in range(k, len(rows)) if rows[i][col]), None)
        if i0 is None:
            continue
        if i0 != k:
            rows[i0], rows[k] = rows[k], [-x for x in rows[i0]]
        top = rows[k]
        rows = [row if row is top else [(top[col] * a - row[col] * b) // last
                                        for a, b in zip(row, top)] for row in rows]
        last = top[col]
        pivots.append(col)
    return rows, pivots, last


def rank_of(mat):
    """Rank over Q (equals rank over Z)."""
    return len(_bareiss(mat)[1])


def signed_minors(mat, dim):
    """Generalized cross product of a (dim-1) x dim matrix: entry j is (-1)^j
    times the minor without column j.  Zero iff the rank is below dim - 1."""
    rows, pivots, last = _bareiss(mat)
    if len(pivots) < len(mat):
        return [0] * dim
    f = dim * (dim - 1) // 2 - sum(pivots)  # the one column outside them
    v = [row[f] for row in rows]
    v.insert(f, -last)
    return v if f % 2 else [-x for x in v]


def smith(mat):
    """Smith normal form: returns (u, s, v) with u @ mat @ v = s diagonal,
    u and v unimodular, diagonal entries dividing each other in order."""
    s = [list(row) for row in mat]
    rows = len(s)
    cols = len(s[0]) if rows else 0
    u = identity(rows)
    v = identity(cols)

    def swap_rows(i, j):
        for m in (s, u):
            m[i], m[j] = m[j], m[i]

    def swap_cols(i, j):
        for row in s + v:
            row[i], row[j] = row[j], row[i]

    def add_row(i, j, q):  # row_i -= q * row_j
        for m in (s, u):
            m[i] = [a - q * b for a, b in zip(m[i], m[j])]

    def add_col(i, j, q):  # col_i -= q * col_j
        for row in s + v:
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
