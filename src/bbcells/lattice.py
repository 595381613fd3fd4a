"""Affine semigroups in Z^n: cones, membership, units, Kempf vectors.

A monoid S is handed around by its generators; the facet normals of the
rational cone it spans are computed once, exactly, and all membership
queries are answered in the saturation cone(S) intersected with Z^n.
"""

from dataclasses import dataclass
from itertools import count

from . import intlinalg, polyhedra
from .errors import MonoidHasUnits, RankMismatch


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
        if len(m) != self.source_rank:
            raise RankMismatch(
                f"vector has length {len(m)}, projection expects {self.source_rank}"
            )
        return tuple(sum(r * x for r, x in zip(row, m)) for row in self.matrix)


def _build(generators, rank):
    gens = tuple(tuple(g) for g in generators)
    normals = tuple(polyhedra.cone_inequalities(gens, rank))
    if normals:
        lineality = intlinalg.kernel_basis([list(a) for a in normals])
    elif rank > 0:
        # no constraints: the cone is all of Q^rank
        lineality = intlinalg.identity(rank)
    else:
        lineality = []
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
    if rank < 1:
        raise RankMismatch("rank must be a positive integer")
    if not generators:
        raise ValueError("generator list must be nonempty")
    for g in generators:
        if len(g) != rank:
            raise RankMismatch(f"generator {tuple(g)} does not have length {rank}")
        for x in g:
            if type(x) is not int:  # also rejects bool, a subclass of int
                raise ValueError(f"generator entry {x!r} is not an integer")
    return _build(generators, rank)


def contains(monoid, m):
    """Membership in the saturation cone(S) intersect Z^rank."""
    if len(m) != monoid.rank:
        raise RankMismatch(
            f"vector has length {len(m)}, monoid has rank {monoid.rank}"
        )
    return all(
        sum(a * x for a, x in zip(normal, m)) >= 0
        for normal in monoid.facet_normals
    )


def units(monoid):
    """Lattice basis of L = cone(S) intersect -cone(S) intersect Z^rank.

    A lattice point is a unit iff it vanishes on every facet normal, so L is
    the integer kernel of the facet-normal matrix.
    """
    return [list(v) for v in monoid.lineality_basis]


def has_zero(monoid):
    """k[S] is a monoid algebra with zero iff S has no nontrivial units."""
    return not monoid.lineality_basis


def kempf_vector(monoid):
    """The integer vector w of minimal max-norm, ties broken lexicographically,
    pairing >= 1 with every nonzero generator.

    Such w exists precisely because the cone is pointed: the dual cone is
    full-dimensional, so its interior contains integer points.  For n = 1,
    2, ... a lexicographic depth-first search of [-n, n]^rank that tightens
    the bounds by every pairing at each node returns its first valid leaf,
    whose norm is n since the box of n - 1 holds no valid vector.
    """
    if not has_zero(monoid):
        raise MonoidHasUnits("monoid has nontrivial units; reduce_to_zero first")
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
    """Projection Z^rank -> Z^(rank - dim L) with kernel exactly L.

    Splits the unit lattice off unimodularly via the Smith form of the
    lineality basis; the image monoid always has a zero.
    """
    lin = [list(v) for v in monoid.lineality_basis]
    if not lin:
        matrix = tuple(tuple(row) for row in intlinalg.identity(monoid.rank))
        return LatticeProjection(
            source_rank=monoid.rank,
            target_rank=monoid.rank,
            matrix=matrix,
            image_monoid=monoid,
        )
    l = len(lin)
    # columns of m are the basis of L
    m = [[lin[j][i] for j in range(l)] for i in range(monoid.rank)]
    u, s, _ = intlinalg.smith(m)
    # kernels of integer matrices are saturated, so the diagonal is all ones
    assert all(s[i][i] == 1 for i in range(l))
    proj_rows = u[l:]
    target_rank = monoid.rank - l
    images = [intlinalg.mat_vec(proj_rows, list(g)) for g in monoid.generators]
    images = [tuple(v) for v in images if any(x != 0 for x in v)]
    image = _build(images, target_rank)
    return LatticeProjection(
        source_rank=monoid.rank,
        target_rank=target_rank,
        matrix=tuple(tuple(row) for row in proj_rows),
        image_monoid=image,
    )
