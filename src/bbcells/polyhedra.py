"""Facet normals of rational polyhedral cones, and exact feasibility tests.

`cone_inequalities` finds the facet normals as the extreme rays of the dual
cone, by double description.  The Fourier-Motzkin primitives are kept as the
exact feasibility reference for the benchmark's tracer and the tests; no
library path calls them:
a constraint is (coeffs, strict), coeffs . x >= 0, or > 0 when strict, with
coefficients cleared back to primitive integer vectors after each step.
"""

from operator import mul

from . import intlinalg
from .intlinalg import primitive


def _canon(coeffs, strict):
    return tuple(primitive(coeffs)), strict


def eliminate_variable(constraints, var):
    """Project the homogeneous system onto the coordinates other than var.

    Returns constraints in the same ambient dimension with coefficient 0 at
    var.  Standard Fourier-Motzkin: pair each positive-coefficient constraint
    with each negative-coefficient one.
    """
    zero, pos, neg = [], [], []
    for coeffs, strict in constraints:
        c = coeffs[var]
        if c == 0:
            zero.append((coeffs, strict))
        elif c > 0:
            pos.append((coeffs, strict))
        else:
            neg.append((coeffs, strict))
    out = {_canon(list(c), s) for c, s in zero}
    for pc, ps in pos:
        for nc, ns in neg:
            a, b = pc[var], -nc[var]
            combined = [b * x + a * y for x, y in zip(pc, nc)]
            out.add(_canon(combined, ps or ns))
    # drop tautologies 0 >= 0
    return [(c, s) for c, s in sorted(out) if s or any(x != 0 for x in c)]


def is_feasible(constraints, dim):
    """Whether the homogeneous system has a rational solution.

    Without strict constraints the answer is trivially yes (x = 0); strict
    constraints are where elimination earns its keep.
    """
    cur = [(tuple(c), s) for c, s in constraints]
    for var in range(dim):
        cur = eliminate_variable(cur, var)
    # only all-zero coefficient rows remain: 0 >= 0 holds, 0 > 0 does not
    return not any(s for _, s in cur)


def implies(constraints, target, dim):
    """Whether every solution of `constraints` satisfies target . x >= 0."""
    system = list(constraints) + [(tuple(-t for t in target), True)]
    return not is_feasible(system, dim)


def _combine(a, va, b, vb):
    """The primitive combination vb * a - va * b, which vanishes on a vector
    where a takes the value va and b the value vb."""
    return primitive([vb * x - va * y for x, y in zip(a, b)])


def cone_inequalities(generators, dim):
    """Irredundant inequality description of cone(generators) in Q^dim.

    Returns primitive integer normal vectors a with a . x >= 0 on the cone:
    first the equations of the linear span as sorted opposite pairs (an HNF
    basis), then the sorted facet normals, each lying in that span.  The
    normals are the extreme rays of the dual cone inside the span, from one
    double-description pass (Fukuda and Prodon, 1996) that keeps an
    orthogonal basis of the span of the generators seen so far, as (u, <u, u>)
    pairs, and primitive rays in that span, each with the bit set of the
    generators it vanishes on.  A generator whose part u orthogonal to the
    basis is nonzero leaves the span: every ray moves onto its hyperplane
    along u, and u joins the basis and the rays.  Otherwise the rays negative
    on it go, and each negative ray adds its combination with every positive
    one that no third ray's zero set covers.  The basis spans what the
    generators span, so its integer kernel gives the span's equations.
    """
    gens = sorted({tuple(g) for g in generators if any(g)})
    basis, rays = [], []
    for i, g in enumerate(gens):
        bit = 1 << i
        u = [0]  # a full basis spans Q^dim
        if len(basis) < dim:
            u = primitive(g)
            for b, bb in basis:
                t = sum(map(mul, u, b))
                if t:
                    u = _combine(u, t, b, bb)
        if any(u):
            s = sum(map(mul, u, g))  # positive: u is g less its part in the span
            rays = [(_combine(r, sum(map(mul, r, g)), u, s), z | bit) for r, z in rays]
            rays.append((u, bit - 1))
            basis.append((u, sum(map(mul, u, u))))
            continue
        signed = [(r, z, sum(map(mul, r, g))) for r, z in rays]
        zeros = [z for _, z in rays]
        rays = [(r, z | bit * (v == 0)) for r, z, v in signed if v >= 0]
        face = len(basis) - 2  # the least size of a 2-face's zero set
        for n, zn, vn in (ray for ray in signed if ray[2] < 0):
            for p, zp, vp in (ray for ray in signed if ray[2] > 0):
                z = zp & zn
                # adjacent: p and n are the only rays vanishing on all of z
                if z.bit_count() >= face and sum(y & z == z for y in zeros) == 2:
                    rays.append((_combine(n, vn, p, vp), z | bit))
    equations = []
    if len(basis) < dim:
        equations = intlinalg.kernel_basis([b for b, _ in basis], dim)
        equations = intlinalg.row_hermite(equations)[0]
    pairs = {tuple(s * x for x in e) for e in equations for s in (1, -1)}
    return sorted(pairs) + sorted(tuple(r) for r, _ in rays)
