"""Independent checks for every kind of bbcells output.

Nothing here imports bbcells: each check either recomputes the answer by a
different route (exact rational elimination, closed forms, brute-force
enumeration) or tests a property the method must have.  Inputs and outputs
are plain tuples, lists and dicts.  A failed check raises CheckFailed.
"""

from fractions import Fraction
from itertools import combinations, product
from math import gcd


class CheckFailed(Exception):
    """An output disagrees with its oracle or breaks a required property."""


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


# ---------------------------------------------------------------- exact algebra

def rank(vectors):
    """Rank over Q by fraction-free Gaussian elimination."""
    rows = [list(v) for v in vectors if any(v)]
    r = 0
    cols = len(rows[0]) if rows else 0
    for col in range(cols):
        piv = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        p = rows[r][col]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [p * x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def solve_combination(columns, target):
    """Unique rational coefficients c with sum c_j columns_j = target, for
    linearly independent columns; None when target is not in their span."""
    k, n = len(columns), len(target)
    a = [[Fraction(columns[j][i]) for j in range(k)] + [Fraction(target[i])]
         for i in range(n)]
    r = 0
    for col in range(k):
        piv = next((i for i in range(r, n) if a[i][col] != 0), None)
        if piv is None:
            return None  # dependent columns: skipped by the caller's search
        a[r], a[piv] = a[piv], a[r]
        a[r] = [x / a[r][col] for x in a[r]]
        for i in range(n):
            if i != r and a[i][col] != 0:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
    if any(a[i][k] != 0 for i in range(r, n)):
        return None
    return [a[i][k] for i in range(k)]


def in_cone(generators, point):
    """Carathéodory: a point of cone(G) is a nonnegative combination of some
    linearly independent subset of G, so trying every such subset decides
    membership exactly."""
    if not any(point):
        return True
    gens = [tuple(g) for g in generators if any(g)]
    for size in range(1, rank(gens) + 1):
        for subset in combinations(gens, size):
            coeffs = solve_combination(subset, point)
            if coeffs is not None and all(c >= 0 for c in coeffs):
                return True
    return False


# ---------------------------------------------------------------- cones

def check_membership(generators, point, answer):
    require(answer == in_cone(generators, point),
            f"contains{tuple(point)} = {answer}, Carathéodory says otherwise")


def check_facets(generators, normals):
    """Each normal is primitive and >= 0 on every generator; a facet normal
    vanishes on generators spanning a hyperplane of the cone's span, and an
    equation (a normal whose negative is also listed) vanishes on all."""
    gens = [tuple(g) for g in generators]
    span = rank(gens)
    listed = {tuple(a) for a in normals}
    for a in listed:
        g = 0
        for x in a:
            g = gcd(g, x)
        require(g == 1, f"normal {a} is not primitive")
        require(all(dot(a, v) >= 0 for v in gens), f"normal {a} is negative on a generator")
        zeros = [v for v in gens if dot(a, v) == 0]
        if tuple(-x for x in a) in listed:
            require(len(zeros) == len(gens), f"equation {a} misses a generator")
        else:
            require(rank(zeros) == span - 1,
                    f"normal {a} vanishes on a face of rank {rank(zeros)}, span {span}")
    # no facet is missing: box points the normals admit lie in the cone
    for p in product((-1, 0, 1), repeat=len(gens[0])):
        if all(dot(a, p) >= 0 for a in listed):
            require(in_cone(gens, p), f"normals admit {p}, which is outside the cone")


def unit_generators(generators):
    """Generators g with -g in the cone: they span the lineality space, the
    smallest face of the cone."""
    return [tuple(g) for g in generators if any(g) and in_cone(generators, [-x for x in g])]


def check_units(generators, normals, lineality):
    """The unit lattice has the rank of the lineality space, and every unit
    vanishes on the normals and lies in the cone with its negative."""
    require(len(lineality) == rank(unit_generators(generators)), "unit lattice has the wrong rank")
    require(rank(lineality) == len(lineality), "unit basis is dependent")
    for v in lineality:
        require(all(dot(a, v) == 0 for a in normals), f"unit {v} fails a normal")
        require(in_cone(generators, v) and in_cone(generators, [-x for x in v]),
                f"unit {v} is not invertible in the cone")


def check_kempf(generators, w, skew_k=None):
    """w pairs >= 1 with each nonzero generator; on the skew chain
    (1,0,0), (-k,1,0), (0,-k,1) the answer is (1, k+1, k^2+k+1)."""
    for g in generators:
        if any(g):
            require(dot(w, g) >= 1, f"kempf {tuple(w)} pairs {dot(w, g)} with {tuple(g)}")
    if skew_k is not None:
        k = skew_k
        require(tuple(w) == (1, k + 1, k * k + k + 1), f"skew chain k={k}: kempf {tuple(w)}")


def check_reduction(generators, matrix, target_rank, image_generators, image_lineality):
    """The projection kills the lineality space and has full row rank, so its
    kernel is exactly that space; it maps the generators onto the image
    generators, and the image has a zero."""
    n = len(generators[0])
    units = unit_generators(generators)
    require(target_rank == n - rank(units), "target rank is not rank - dim L")
    require(len(matrix) == target_rank and rank(matrix) == target_rank,
            "projection does not have full row rank")
    for v in units:
        require(all(dot(row, v) == 0 for row in matrix), f"projection does not kill unit {v}")
    images = [tuple(dot(row, g) for row in matrix) for g in generators]
    require([v for v in images if any(v)] == [tuple(v) for v in image_generators],
            "image generators are not the projected generators")
    require(not image_lineality, "image monoid has units")


# ---------------------------------------------------------------- counting

def _pure_power_bounds(generators, zero_idx):
    bounds = {}
    for i in zero_idx:
        powers = [g[i] for g in generators
                  if g[i] > 0 and all(g[j] == 0 for j in range(len(g)) if j != i)]
        require(bool(powers), f"zero-weight variable {i} has no pure power")
        bounds[i] = min(powers)
    return bounds


def _standard(generators, exps):
    return not any(all(a <= b for a, b in zip(g, exps)) for g in generators)


def _box_monomials(weights, generators, box):
    """Standard monomials with nonzero-weight exponents in 0..box and
    zero-weight exponents below their pure power, with their weights."""
    zero = tuple(0 for _ in weights[0])
    zero_idx = [i for i, w in enumerate(weights) if tuple(w) == zero]
    bounds = _pure_power_bounds(generators, zero_idx)
    ranges = [range(bounds[i]) if i in bounds else range(box + 1)
              for i in range(len(weights))]
    for exps in product(*ranges):
        if _standard(generators, exps):
            wt = tuple(sum(e * w[t] for e, w in zip(exps, weights)) for t in range(len(zero)))
            yield exps, wt, zero_idx


def brute_truncation(weights, generators, n):
    """{weight: count} of standard monomials of J-order <= n, by enumerating
    the exponent box [0, n] for the nonzero-weight variables."""
    dims = {}
    for exps, wt, zero_idx in _box_monomials(weights, generators, n):
        if sum(e for i, e in enumerate(exps) if i not in zero_idx) <= n:
            dims[wt] = dims.get(wt, 0) + 1
    return dims


def brute_graded_dimension(weights, generators, weight, kempf):
    """Standard monomials of the given weight.  Each nonzero-weight variable
    has Kempf degree >= 1, so its exponent is at most the weight's degree."""
    degree = dot(kempf, weight)
    if degree < 0:
        return 0
    return sum(1 for _, wt, _ in _box_monomials(weights, generators, degree)
               if wt == tuple(weight))


def check_truncation(weights, generators, n, dims):
    require(dict(dims) == brute_truncation(weights, generators, n),
            f"truncation at level {n} disagrees with the brute-force count")


def check_stabilization(weights, generators, weight, n_max, kempf, report):
    """report = (n_lambda, dimensions, stable, limit_dimension)."""
    n_lambda, dims, stable, limit = report
    require(n_lambda == max(dot(kempf, weight), 0), "n_lambda is not <kempf, weight>")
    require(len(dims) == n_max + 1, "dimension sequence has the wrong length")
    for n, d in enumerate(dims):
        require(d == brute_truncation(weights, generators, n).get(tuple(weight), 0),
                f"dimension at level {n} disagrees with the brute-force count")
    require(limit == brute_graded_dimension(weights, generators, weight, kempf),
            "limit dimension disagrees with the brute-force count")
    require(stable, "sequence reported unstable")
    require(all(d == limit for d in dims[n_lambda:]),
            "sequence is not constant at the limit from n_lambda on")


def check_algebraize(result):
    require(result is True, f"algebraize_check returned {result!r}")


# ---------------------------------------------------------------- presentations

def check_limit_variables(variables, kept, generators):
    """bb_plus keeps exactly the variables whose weight lies in the cone."""
    expected = [name for name, w in variables if in_cone(generators, w)]
    require(list(kept) == expected, f"bb_plus kept {list(kept)}, cone says {expected}")


def check_fixed_variables(variables, kept):
    expected = [name for name, w in variables if not any(w)]
    require(list(kept) == expected, f"fixed locus kept {list(kept)}, expected {expected}")


def check_idempotent(once, twice, what):
    require(once == twice, f"{what} is not idempotent")


def check_open_immersion(variables, generators, ok, outsiders):
    expected = [name for name, w in variables if not in_cone(generators, w)]
    require(list(outsiders) == expected, f"outsiders {list(outsiders)}, cone says {expected}")
    require(ok == (not expected), "open immersion disagrees with the outsider list")


# The paper's worked examples over the monoid N, as (variables, relations):
# the node xy and the quadric xy - z^2 with x, y, z of weights -1, 1, 0.
# x has weight outside N, so the limit subscheme sets x = 0.
NODE_PLUS = ([("y", (1,))], [])
QUADRIC_PLUS = ([("y", (1,)), ("z", (0,))], ["z^2"])
QUADRIC_FIXED = ([("z", (0,))], ["z^2"])


def check_example(name, got, expected):
    require(got == expected, f"{name}: got {got}, expected {expected}")


def check_roundtrip(original, reparsed):
    require(original == reparsed, "parse(print(p)) != p")


# ---------------------------------------------------------------- Hilbert scheme

def partition_count(d):
    """p(d) by Euler's pentagonal-number recurrence."""
    p = [1] + [0] * d
    for n in range(1, d + 1):
        total, k = 0, 1
        while True:
            for g in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
                if g > n:
                    break
                total += p[n - g] if k % 2 else -p[n - g]
            if k * (3 * k - 1) // 2 > n:
                break
            k += 1
        p[n] = total
    return p[d]


def partitions_by_largest_part(d):
    """{k: number of partitions of d with largest part exactly k}, by the
    recurrence q(n, k) = partitions of n into parts <= k."""
    q = [[0] * (d + 1) for _ in range(d + 1)]
    for k in range(d + 1):
        q[0][k] = 1
    for n in range(1, d + 1):
        for k in range(1, d + 1):
            q[n][k] = q[n][k - 1] + (q[n - k][k] if k <= n else 0)
    return {k: q[d - k][k] for k in range(1, d + 1) if q[d - k][k]}


def check_partitions(d, parts):
    parts = [tuple(p) for p in parts]
    require(len(parts) == partition_count(d), f"{len(parts)} partitions of {d}, p({d}) differs")
    require(len(set(parts)) == len(parts), "repeated partition")
    for p in parts:
        require(sum(p) == d and all(a >= b >= 1 for a, b in zip(p, p[1:] + (1,))),
                f"{p} is not a partition of {d}")


def armleg_character(partition):
    """Tangent character at the monomial ideal of a partition: each box
    contributes (arm+1, -leg) and (-arm, leg+1)."""
    conj = [sum(1 for p in partition if p > i) for i in range(partition[0] if partition else 0)]
    char = {}
    for b, width in enumerate(partition):
        for a in range(width):
            arm, leg = width - 1 - a, conj[a] - 1 - b
            for t in ((arm + 1, -leg), (-arm, leg + 1)):
                char[t] = char.get(t, 0) + 1
    return char


def check_tangent(partition, character):
    d = sum(partition)
    require(sum(character.values()) == 2 * d, f"tangent space at {partition} is not 2d-dimensional")
    require(dict(character) == armleg_character(partition),
            f"tangent character at {partition} disagrees with the arm/leg formula")


def check_tangent_pair(partition, linalg, armleg):
    require(dict(linalg) == dict(armleg), f"linalg and arm/leg characters differ at {partition}")
    check_tangent(partition, linalg)


def cell_dim(partition, w):
    return sum(m for t, m in armleg_character(partition).items() if dot(w, t) >= 0)


def check_cell_dimension(partition, w, dim):
    """In the chamber of (1, d+1), i.e. w2 > d * w1 > 0, the cell at a
    partition has dimension d + its largest part."""
    d = sum(partition)
    require(w[0] > 0 and w[1] > d * w[0], f"weight {w} is outside the chamber of (1, d+1)")
    require(dim == d + partition[0], f"cell at {partition} has dim {dim}, expected {d + partition[0]}")


def check_intersection(partition, w1, w2, dim):
    d1, d2 = cell_dim(partition, w1), cell_dim(partition, w2)
    require(dim <= d1 and dim <= d2, f"intersection at {partition} exceeds a cell")
    if tuple(w1) == tuple(w2):
        require(dim == d1, f"self-intersection at {partition} is not the cell")
    exact = sum(m for t, m in armleg_character(partition).items()
                if dot(w1, t) >= 0 and dot(w2, t) >= 0)
    require(dim == exact, f"intersection at {partition} is {dim}, expected {exact}")


def check_poincare(d, histogram):
    """Betti numbers of Ellingsrud–Strømme: cells of dimension d + k are
    counted by the partitions of d with largest part k."""
    expected = {d + k: n for k, n in partitions_by_largest_part(d).items()}
    require(dict(histogram) == expected, f"histogram for d={d} disagrees with partition counts")
