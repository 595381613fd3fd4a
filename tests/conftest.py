"""Shared random generators and independent oracles for the test suite."""

import random
from fractions import Fraction
from itertools import combinations, product

from bbcells import algebra, lattice
from bbcells.intlinalg import rank_of


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


def cone_member_oracle(generators, rank, m):
    """Membership of m in cone(generators), independent of the facet route.

    Caratheodory: m lies in the cone iff it is a nonnegative combination of
    some linearly independent subset of the generators.
    """
    if all(x == 0 for x in m):
        return True
    gens = [g for g in generators if any(x != 0 for x in g)]
    for size in range(1, rank + 1):
        for subset in combinations(gens, size):
            cols = [list(g) for g in subset]
            if rank_of(cols) < size:
                continue
            mat = [[cols[j][i] for j in range(size)] for i in range(rank)]
            sol = solve_exact(mat, list(m))
            if sol is not None and all(c >= 0 for c in sol):
                return True
    return False


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
