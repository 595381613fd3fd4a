"""Facet normals of rational polyhedral cones, and exact feasibility tests.

`cone_inequalities` takes each facet normal as the primitive signed-minor
vector of a generator subset and the span equations.  The Fourier-Motzkin
primitives are kept as the exact feasibility reference:
a constraint is (coeffs, strict), coeffs . x >= 0, or > 0 when strict, with
coefficients cleared back to primitive integer vectors after each step.
"""

from itertools import combinations
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


def cone_inequalities(generators, dim):
    """Irredundant inequality description of cone(generators) in Q^dim.

    Returns primitive integer normal vectors a with a . x >= 0 on the cone:
    first the equations of the linear span as sorted opposite pairs (an HNF
    basis), then the sorted facet normals, each lying in that span.  A facet
    normal is the primitive signed-minor vector of r-1 generators and the
    equations, r the dimension of the span, taken when it is nonzero and
    one-signed on the cone.
    """
    gens = sorted({tuple(g) for g in generators if any(g)})
    annihilator = intlinalg.kernel_basis(gens, dim)
    equations = intlinalg.row_hermite(annihilator)[0]
    r = dim - len(equations)
    normals = set()
    for subset in combinations(gens, r - 1) if r > 0 else ():
        a = intlinalg.signed_minors(list(subset) + equations, dim)
        values = (sum(map(mul, a, g)) for g in gens)
        side = next((v for v in values if v), 0)  # 0 only for a = 0: a is in the span
        if side and all(v * side >= 0 for v in values):
            normals.add(tuple(primitive(a if side > 0 else [-x for x in a])))
    pairs = {tuple(s * x for x in e) for e in equations for s in (1, -1)}
    return sorted(pairs) + sorted(normals)
