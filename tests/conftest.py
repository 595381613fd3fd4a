"""Shared random generators and independent oracles for the test suite."""

import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, count, product
from math import lcm

from bbcells import algebra, lattice, polyhedra
from bbcells.intlinalg import primitive, rank_of


def random_monoid(rng, max_rank=3):
    """Random small-entry generator set; returns the built monoid."""
    rank = rng.randint(1, max_rank)
    n_gens = rng.randint(1, rank + 2)
    gens = []
    for _ in range(n_gens):
        g = tuple(rng.randint(-3, 3) for _ in range(rank))
        if any(x != 0 for x in g):
            gens.append(g)
    if not gens:
        gens = [tuple([1] + [0] * (rank - 1))]
    return lattice.cone_from_generators(gens, rank)


def random_pointed_monoid(rng, max_rank=3):
    monoid = random_monoid(rng, max_rank)
    if not lattice.has_zero(monoid):
        monoid = lattice.reduce_to_zero(monoid).image_monoid
    if monoid.rank == 0:
        monoid = lattice.cone_from_generators([(1,)], 1)
    return monoid


def brute_kempf_vector(monoid, max_norm=None):
    """Kempf vector of a pointed monoid by trying every point of every shell
    of [-n, n]^rank in lexicographic order, for small answers.  None when no
    valid vector has max-norm at most max_norm."""
    gens = [g for g in monoid.generators if any(x != 0 for x in g)]
    if not gens:
        return (0,) * monoid.rank
    for n in count(1):
        if max_norm is not None and n > max_norm:
            return None
        for w in product(range(-n, n + 1), repeat=monoid.rank):
            if max(abs(x) for x in w) != n:
                continue
            if all(sum(a * b for a, b in zip(w, g)) >= 1 for g in gens):
                return w


def solve_exact(mat, rhs):
    """Solve mat @ x = rhs over the rationals; returns None if inconsistent.

    mat entries may be int or Fraction.  Returns one solution (free variables
    set to zero) as a list of Fractions.
    """
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    a = [[Fraction(x) for x in row] + [Fraction(r)] for row, r in zip(mat, rhs)]
    pivots = []
    pr = 0
    for col in range(cols):
        piv = next((i for i in range(pr, rows) if a[i][col] != 0), None)
        if piv is None:
            continue
        a[pr], a[piv] = a[piv], a[pr]
        a[pr] = [x / a[pr][col] for x in a[pr]]
        for i in range(rows):
            if i != pr and a[i][col] != 0:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[pr])]
        pivots.append(col)
        pr += 1
        if pr == rows:
            break
    for i in range(pr, rows):
        if a[i][cols] != 0:
            return None
    x = [Fraction(0)] * cols
    for i, col in enumerate(pivots):
        x[col] = a[i][cols]
    return x


@lru_cache(maxsize=None)
def _cone_bases(generators, rank):
    """Every basis of span(generators) made of generators, with the rows of a
    nonsingular minor and that minor's inverse scaled to integers."""
    gens = sorted({g for g in generators if any(g)})
    span = rank_of([list(g) for g in gens])
    bases = []
    for basis in combinations(gens, span):
        for rows in combinations(range(rank), span):
            minor = [[g[i] for g in basis] for i in rows]
            if rank_of(minor) < span:
                continue
            columns = [solve_exact(minor, [int(i == j) for i in range(span)])
                       for j in range(span)]
            scale = lcm(*(x.denominator for col in columns for x in col))
            inverse = [[int(col[i] * scale) for col in columns] for i in range(span)]
            bases.append((basis, rows, inverse, scale))
            break
    return bases


def cone_member_oracle(generators, rank, m):
    """Membership of m in cone(generators), independent of the facet route.

    Caratheodory: m lies in the cone iff it is a nonnegative combination of
    some linearly independent subset of the generators, and that subset can
    be padded with zero coefficients to a basis of their span.
    """
    key = tuple(tuple(g) for g in generators)
    for basis, rows, inverse, scale in _cone_bases(key, rank):
        coeffs = [sum(a * m[i] for a, i in zip(row, rows)) for row in inverse]
        if all(c >= 0 for c in coeffs) and all(
            sum(c * g[k] for c, g in zip(coeffs, basis)) == scale * m[k]
            for k in range(rank)
        ):
            return True
    return False


def fm_cone_inequalities(generators, dim):
    """Facet normals of cone(generators) by Fourier-Motzkin, for small cases.

    The cone {sum lambda_i g_i : lambda >= 0} is the projection of
    {(x, lambda) : x = G lambda, lambda >= 0} onto x; the equalities are fed
    to elimination as inequality pairs, and normals implied by the others
    are dropped one at a time.  On full-dimensional cones the primitive facet
    normals are unique, so this must agree with polyhedra.cone_inequalities.
    """
    k = len(generators)
    constraints = []
    # coordinates: x_0..x_{dim-1}, lambda_0..lambda_{k-1}
    for i in range(dim):
        row = [0] * (dim + k)
        row[i] = 1
        for j, g in enumerate(generators):
            row[dim + j] = -g[i]
        constraints.append((tuple(row), False))
        constraints.append((tuple(-c for c in row), False))
    for j in range(k):
        row = [0] * (dim + k)
        row[dim + j] = 1
        constraints.append((tuple(row), False))
    for var in range(dim, dim + k):
        constraints = polyhedra.eliminate_variable(constraints, var)
    kept = sorted({tuple(primitive(list(c[:dim]))) for c, _ in constraints
                   if any(x != 0 for x in c[:dim])})
    changed = True
    while changed:
        changed = False
        for i in range(len(kept)):
            rest = [(kept[j], False) for j in range(len(kept)) if j != i]
            if polyhedra.implies(rest, kept[i], dim):
                del kept[i]
                changed = True
                break
    return kept


def random_weighting(rng, rank, n_vars, names=None, weight_pool=None):
    names = names or [f"v{i}" for i in range(n_vars)]
    variables = []
    for name in names:
        if weight_pool is not None:
            w = rng.choice(weight_pool)
        else:
            w = tuple(rng.randint(-2, 2) for _ in range(rank))
        variables.append((name, tuple(w)))
    return algebra.VariableWeighting(torus_rank=rank, variables=tuple(variables))


def random_homogeneous_presentation(rng, max_rank=2, max_vars=4, max_rels=3):
    """Random weighting plus homogeneous relations built from equal-weight
    monomial classes."""
    rank = rng.randint(1, max_rank)
    n_vars = rng.randint(1, max_vars)
    weighting = random_weighting(rng, rank, n_vars)
    by_weight = {}
    for exps in product(range(4), repeat=n_vars):
        if 0 < sum(exps) <= 5:
            by_weight.setdefault(algebra.weight_of(exps, weighting), []).append(exps)
    classes = [mons for mons in by_weight.values() if mons]
    relations = []
    for _ in range(rng.randint(0, max_rels)):
        mons = rng.choice(classes)
        chosen = rng.sample(mons, k=min(len(mons), rng.randint(1, 3)))
        terms = [(Fraction(rng.choice([-2, -1, 1, 2, 3])), e) for e in chosen]
        poly = algebra.make_polynomial(terms)
        if not poly.is_zero:
            relations.append(poly)
    return algebra.GradedPresentation(weighting=weighting, relations=tuple(relations))


def random_monomial_quotient(rng, monoid, max_vars=4):
    """Monomial quotient whose variable weights all pair positively with the
    Kempf vector of the monoid."""
    kempf = lattice.kempf_vector(monoid).w
    pool = [
        w
        for w in product(range(-2, 3), repeat=monoid.rank)
        if lattice.contains(monoid, w)
        and sum(a * b for a, b in zip(kempf, w)) >= 1
    ]
    if not pool:
        pool = [g for g in monoid.generators if any(x != 0 for x in g)]
    n_vars = rng.randint(1, max_vars)
    weighting = random_weighting(
        rng, monoid.rank, n_vars, weight_pool=pool
    )
    n_gens = rng.randint(0, 3)
    gens = [
        tuple(rng.randint(0, 3) for _ in range(n_vars)) for _ in range(n_gens)
    ]
    gens = [g for g in gens if any(e > 0 for e in g)]
    return algebra.MonomialQuotient(
        weighting=weighting, minimal_generators=tuple(gens)
    )


def seeded(seed):
    return random.Random(seed)
