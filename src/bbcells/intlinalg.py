"""Exact integer linear algebra: the Hermite normal form, the Smith form built
on it and lattice kernels, and fraction-free (Bareiss) rank and signed
maximal minors.

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
    h, u = row_hermite(_transpose(mat))
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
