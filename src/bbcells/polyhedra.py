"""Facet normals of rational polyhedral cones, and exact feasibility tests.

`cone_inequalities` finds the facet normals as the extreme rays of the dual
cone, by double description.  The Fourier-Motzkin primitives are kept as the
exact feasibility reference:
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


def _cut(lineality, rays, g):
    """Move the lineality and the rays onto <a, g> = 0 along the first
    lineality vector l0 with <l0, g> != 0, turned so that it is positive, and
    return l0; None, changing nothing, when g vanishes on the lineality.  l0
    vanishes on the earlier generators, so no ray's zero set changes."""
    k = next((k for k, l in enumerate(lineality) if sum(map(mul, l, g))), None)
    if k is None:
        return None
    l0 = lineality.pop(k)
    s = sum(map(mul, l0, g))
    if s < 0:
        l0, s = [-x for x in l0], -s

    def move(v):
        t = sum(map(mul, v, g))
        return primitive([s * x - t * y for x, y in zip(v, l0)])
    lineality[:] = map(move, lineality)
    rays[:] = [(move(r), z) for r, z in rays]
    return l0


def cone_inequalities(generators, dim):
    """Irredundant inequality description of cone(generators) in Q^dim.

    Returns primitive integer normal vectors a with a . x >= 0 on the cone:
    first the equations of the linear span as sorted opposite pairs (an HNF
    basis), then the sorted facet normals, each lying in that span.  The
    normals are the extreme rays of the dual cone, from one double-description
    pass (Fukuda and Prodon, 1996) that keeps a lineality basis and primitive
    rays, each with the bit set of the generators it vanishes on.  A
    generator nonzero on the lineality cuts it and adds a ray; otherwise the
    rays negative on it go, and each negative ray adds its combination with
    every positive one that no third ray's zero set covers.  Cutting the
    lineality left by the span equations moves every ray into the span.
    """
    gens = sorted({tuple(g) for g in generators if any(g)})
    lineality, rays = intlinalg.identity(dim), []
    for i, g in enumerate(gens):
        bit = 1 << i
        l0 = _cut(lineality, rays, g)
        if l0 is not None:
            rays = [(r, z | bit) for r, z in rays] + [(l0, bit - 1)]
            continue
        signed = [(r, z, sum(map(mul, r, g))) for r, z in rays]
        zeros = [z for _, z in rays]
        rays = [(r, z | bit * (v == 0)) for r, z, v in signed if v >= 0]
        face = dim - len(lineality) - 2  # the least size of a 2-face's zero set
        for n, zn, vn in (ray for ray in signed if ray[2] < 0):
            for p, zp, vp in (ray for ray in signed if ray[2] > 0):
                z = zp & zn
                # adjacent: p and n are the only rays vanishing on all of z
                if z.bit_count() >= face and sum(y & z == z for y in zeros) == 2:
                    ray = primitive([vp * x - vn * y for x, y in zip(n, p)])
                    rays.append((ray, z | bit))
    equations = []
    if lineality:  # it spans the annihilator of the span
        equations = intlinalg.row_hermite(intlinalg.kernel_basis(gens, dim))[0]
    for e in equations:
        _cut(lineality, rays, e)
    pairs = {tuple(s * x for x in e) for e in equations for s in (1, -1)}
    return sorted(pairs) + sorted(tuple(r) for r, _ in rays)
