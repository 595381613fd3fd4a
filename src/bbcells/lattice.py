"""Affine semigroups in Z^n: cones, membership, units, Kempf vectors.

A monoid S is handed around by its generators; the facet normals of the
rational cone it spans are computed once, exactly, and all membership
queries are answered in the saturation cone(S) intersected with Z^n.
"""

from dataclasses import dataclass
from operator import mul

from . import intlinalg, polyhedra
from .errors import MonoidHasUnits, require_rank, require_sequence, require_vector


@dataclass(frozen=True)
class AffineMonoid:
    rank: int
    generators: tuple  # tuple of int tuples
    facet_normals: tuple
    lineality_basis: tuple


@dataclass(frozen=True)
class KempfVector:
    w: tuple


@dataclass(frozen=True)
class LatticeProjection:
    source_rank: int
    target_rank: int
    matrix: tuple  # target_rank x source_rank, tuple of row tuples
    image_monoid: AffineMonoid


def _build(generators, rank):
    gens = tuple(generators)
    normals = tuple(polyhedra.cone_inequalities(gens, rank))
    # the lineality space is the least face, spanned by the generators it
    # holds: unless a nonzero generator vanishes on every normal, it is zero
    lineality = ()
    if any(any(g) and not any(sum(map(mul, a, g)) for a in normals) for g in gens):
        lineality = tuple(tuple(v) for v in intlinalg.kernel_basis(normals, rank))
    return AffineMonoid(
        rank=rank,
        generators=gens,
        facet_normals=normals,
        lineality_basis=lineality,
    )


def cone_from_generators(generators, rank):
    """AffineMonoid with irredundant facet normals and a lineality basis.

    Facet normals are primitive inner normals (sign forced by the cone side);
    lineality basis vectors are primitive with first nonzero entry positive.
    """
    require_rank(rank, "rank")
    if not require_sequence(generators, "generators"):
        raise ValueError("generator list must be nonempty")
    return _build([require_vector(g, rank, "generator") for g in generators], rank)


def contains(monoid, m):
    """Membership in the saturation cone(S) intersect Z^rank."""
    require_vector(m, monoid.rank, "vector")
    return all(sum(map(mul, normal, m)) >= 0 for normal in monoid.facet_normals)


def units(monoid):
    """Lattice basis of L = cone(S) intersect -cone(S) intersect Z^rank.

    A lattice point is a unit iff it vanishes on every facet normal, so L is
    the integer kernel of the facet-normal matrix.
    """
    return [list(v) for v in monoid.lineality_basis]


def has_zero(monoid):
    """k[S] is a monoid algebra with zero iff S has no nontrivial units."""
    return not monoid.lineality_basis


def require_zero(monoid):
    """Raise MonoidHasUnits unless the monoid has a zero."""
    if not has_zero(monoid):
        raise MonoidHasUnits("monoid has nontrivial units; apply reduce_to_zero first")


def kempf_vector(monoid):
    """The integer vector w of minimal max-norm, ties broken lexicographically,
    pairing >= 1 with every nonzero generator.

    The cone is pointed, so a nonzero generator pairs positively with some
    facet normal and to zero with the span's equations, whose opposite pairs
    cancel: the sum w0 of all facet normals is valid, and N0 = max|w0_i|
    bounds the answer's norm.  A lexicographic depth-first search of
    [-n, n]^rank, tightening the bounds by every pairing at each node, finds
    the first valid leaf or None.  Validity is monotone in n.  From n = 0,
    whose box {0} is valid only when every generator is zero and N0 = 0,
    n doubles from 1, capped at N0, then bisects to the least n with a leaf,
    which is the answer since no smaller box holds a valid vector.
    """
    require_zero(monoid)
    # the distinct nonzero generators, first seen first, as (j, a) pairs
    rows = [tuple((j, a) for j, a in enumerate(g) if a)
            for g in dict.fromkeys(monoid.generators) if any(g)]
    rank = monoid.rank
    # the box of hi holds a valid vector (w, once found); lo's, none unless hi = 0
    lo, w = 0, None
    hi = max((abs(sum(column)) for column in zip(*monoid.facet_normals)), default=0)
    while w is None or hi - lo > 1:
        n = min(2 * lo or 1, hi) if w is None else (lo + hi) // 2
        found = _lex_first(rows, [-n] * rank, [n] * rank)
        if found is None:
            lo = n
        else:
            hi, w = n, found
    return KempfVector(w=w)


def _lex_first(rows, lo, hi):
    """Lexicographically smallest integer w with lo <= w <= hi and
    <w, g> >= 1 for every sparse row g, or None.  A depth-first search: the
    stack holds, for each coordinate fixed on the way down, the tightened
    box it was fixed in and the values it has left to try."""
    stack = []
    while True:
        if _tighten(rows, lo, hi):
            i = next((i for i in range(len(lo)) if lo[i] < hi[i]), None)
            if i is None:
                return tuple(lo)
            stack.append((lo, hi, i, iter(range(lo[i], hi[i] + 1))))
        while stack and (v := next(stack[-1][3], None)) is None:
            stack.pop()
        if not stack:
            return None
        lo, hi, i, _ = stack[-1]
        lo, hi = lo[:i] + [v] + lo[i + 1:], hi[:i] + [v] + hi[i + 1:]


def _tighten(rows, lo, hi):
    """Shrink lo, hi in place by every <w, g> >= 1, g a sparse row, until
    nothing changes; False when some constraint cannot be met in the box.
    Tightening by g keeps lo <= hi and the largest value of <w, g> over the
    box; the fixpoint is the largest box every row leaves unchanged."""
    changed = True
    while changed:
        changed = False
        for row in rows:
            top = sum(a * (hi[j] if a > 0 else lo[j]) for j, a in row)
            if top < 1:
                return False
            for j, a in row:
                # a * w_j >= 1 - (the largest value of the other terms)
                need = 1 - top + a * (hi[j] if a > 0 else lo[j])
                if a > 0 and -(-need // a) > lo[j]:
                    lo[j], changed = -(-need // a), True
                elif a < 0 and need // a < hi[j]:
                    hi[j], changed = need // a, True
    return True


def reduce_to_zero(monoid):
    """Projection Z^rank -> Z^(rank - dim L) with kernel exactly L: the last
    rank - dim L rows of u in the row Hermite form u @ m = h of the lineality
    basis m, written as columns.  Without units u is the identity and the
    image is the monoid itself; the image always has a zero."""
    l = len(monoid.lineality_basis)
    h, u = intlinalg.row_hermite(
        [[v[i] for v in monoid.lineality_basis] for i in range(monoid.rank)]
    )
    # L is saturated, so the rows of m span Z^l and the pivot block is I
    assert h[:l] == intlinalg.identity(l)
    proj_rows = u[l:]
    images = [tuple(intlinalg.mat_vec(proj_rows, g)) for g in monoid.generators]
    image = _build([v for v in images if any(v)], monoid.rank - l) if l else monoid
    return LatticeProjection(
        source_rank=monoid.rank,
        target_rank=monoid.rank - l,
        matrix=tuple(tuple(row) for row in proj_rows),
        image_monoid=image,
    )
