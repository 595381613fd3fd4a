"""Affine semigroups in Z^n: cones, membership, units, Kempf vectors.

A monoid S is handed around by its generators; the facet normals of the
rational cone it spans are computed once, exactly, and all membership
queries are answered in the saturation cone(S) intersected with Z^n.
"""

from dataclasses import dataclass
from itertools import count
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

    def apply(self, m):
        m = require_vector(m, self.source_rank, "vector")
        return tuple(sum(r * x for r, x in zip(row, m)) for row in self.matrix)


def _build(generators, rank):
    gens = tuple(generators)
    normals = tuple(polyhedra.cone_inequalities(gens, rank))
    lineality = intlinalg.kernel_basis(normals, rank)
    return AffineMonoid(
        rank=rank,
        generators=gens,
        facet_normals=normals,
        lineality_basis=tuple(tuple(v) for v in lineality),
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

    Such w exists precisely because the cone is pointed: the dual cone is
    full-dimensional, so its interior contains integer points.  For n = 1,
    2, ... a lexicographic depth-first search of [-n, n]^rank that tightens
    the bounds by every pairing at each node returns its first valid leaf,
    whose norm is n since the box of n - 1 holds no valid vector.
    """
    require_zero(monoid)
    gens = [g for g in monoid.generators if any(x != 0 for x in g)]
    if not gens:
        return KempfVector(w=(0,) * monoid.rank)
    for n in count(1):
        w = _lex_first(gens, [-n] * monoid.rank, [n] * monoid.rank)
        if w is not None:
            return KempfVector(w=w)


def _lex_first(gens, lo, hi):
    """Lexicographically smallest integer w with lo <= w <= hi and
    <w, g> >= 1 for every g in gens, or None."""
    if not _tighten(gens, lo, hi):
        return None
    i = next((i for i in range(len(lo)) if lo[i] < hi[i]), None)
    if i is None:
        return tuple(lo)
    for v in range(lo[i], hi[i] + 1):
        w = _lex_first(gens, lo[:i] + [v] + lo[i + 1:], hi[:i] + [v] + hi[i + 1:])
        if w is not None:
            return w
    return None


def _tighten(gens, lo, hi):
    """Shrink lo, hi in place by every <w, g> >= 1 until nothing changes;
    False when some constraint cannot be met in the box.  Tightening by g
    keeps lo <= hi and the largest value of <w, g> over the box."""
    changed = True
    while changed:
        changed = False
        for g in gens:
            ends = [hi[j] if a > 0 else lo[j] for j, a in enumerate(g)]
            top = sum(a * e for a, e in zip(g, ends))
            if top < 1:
                return False
            for j, a in enumerate(g):
                # a * w_j >= 1 - (the largest value of the other terms)
                need = 1 - top + a * ends[j]
                if a > 0 and -(-need // a) > lo[j]:
                    lo[j], changed = -(-need // a), True
                elif a < 0 and need // a < hi[j]:
                    hi[j], changed = need // a, True
    return True


def reduce_to_zero(monoid):
    """Projection Z^rank -> Z^(rank - dim L) with kernel exactly L: the last
    rank - dim L rows of u in the Smith form u @ m @ v = [I; 0] of the
    lineality basis m, written as columns.  Without units u is the identity
    and the image is the monoid itself; the image always has a zero."""
    l = len(monoid.lineality_basis)
    u, s, _ = intlinalg.smith(
        [[v[i] for v in monoid.lineality_basis] for i in range(monoid.rank)]
    )
    # kernels of integer matrices are saturated, so the diagonal is all ones
    assert all(s[i][i] == 1 for i in range(l))
    proj_rows = u[l:]
    images = [tuple(intlinalg.mat_vec(proj_rows, g)) for g in monoid.generators]
    image = _build([v for v in images if any(v)], monoid.rank - l) if l else monoid
    return LatticeProjection(
        source_rank=monoid.rank,
        target_rank=monoid.rank - l,
        matrix=tuple(tuple(row) for row in proj_rows),
        image_monoid=image,
    )
