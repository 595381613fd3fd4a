"""Cells of the Hilbert scheme of points on the plane.

Torus-fixed points are monomial ideals, indexed by partitions via their
staircases.  The bigraded tangent character at a fixed point is computed
two independent ways: degreewise linear algebra on homomorphisms out of the
ideal, and the arm/leg combinatorics of the Young diagram.  Cell and
cell-intersection dimensions are half-space counts on that character.

Convention: the box diagram of a partition (p_1 >= p_2 >= ...) has row j
(the exponent of y) of length p_{j+1}; the single-box partition has tangent
character {(1,0), (0,1)}.
"""

from dataclasses import dataclass

from . import intlinalg
from .errors import NonGenericWeight


@dataclass(frozen=True)
class MonomialIdealPlane:
    partition: tuple  # weakly decreasing positive parts
    minimal_generators: tuple  # staircase corners (a, b), a increasing


def partitions(d):
    """All partitions of d in reverse lexicographic order: (d) first."""
    if d < 0:
        raise ValueError("d must be nonnegative")
    if d == 0:
        return [()]
    out = []

    def rec(remaining, cap, prefix):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for part in range(min(cap, remaining), 0, -1):
            rec(remaining - part, part, prefix + [part])

    rec(d, d, [])
    return out


def transpose(partition):
    if not partition:
        return ()
    return tuple(
        sum(1 for p in partition if p > i) for i in range(partition[0])
    )


def ideal_from_partition(partition):
    """Monomial ideal whose standard monomials x^a y^b fill the diagram:
    row b holds the exponents a < partition[b]."""
    partition = tuple(partition)
    if any(p < 1 for p in partition) or any(
        a < b for a, b in zip(partition, partition[1:])
    ):
        raise ValueError("parts must be positive and weakly decreasing")
    rows = len(partition)
    # corners: y^rows, and (partition[b], b) at each strict drop of the staircase
    gens = [(0, rows)]
    for b in range(rows):
        if b == 0 or partition[b] < partition[b - 1]:
            gens.append((partition[b], b))
    gens = sorted(gens)
    return MonomialIdealPlane(partition=partition, minimal_generators=tuple(gens))


def standard_exponents(partition):
    """Boxes of the diagram as (a, b) pairs: a column index, b row index."""
    return [
        (a, b) for b, width in enumerate(partition) for a in range(width)
    ]


def _is_standard(partition, a, b):
    return a >= 0 and b >= 0 and b < len(partition) and a < partition[b]


def tangent_character_armleg(ideal):
    """Tangent character from the diagram: each box c contributes the weights
    (arm(c)+1, -leg(c)) and (-arm(c), leg(c)+1)."""
    partition = ideal.partition
    tr = transpose(partition)
    entries = {}
    for a, b in standard_exponents(partition):
        arm = partition[b] - 1 - a
        leg = tr[a] - 1 - b
        for w in ((arm + 1, -leg), (-arm, leg + 1)):
            entries[w] = entries.get(w, 0) + 1
    return entries


def tangent_character_linalg(ideal):
    """Tangent character by degreewise linear algebra on Hom(M, S/M).

    A homomorphism is pinned down by the images of the staircase generators,
    constrained by the syzygy between each consecutive pair.  In a fixed
    bidegree each generator image lands in a space of dimension 0 or 1
    (spanned by a standard monomial), so the solution space is the kernel of
    a small integer matrix.  Only shifts taking some generator onto a box
    of the diagram can carry a homomorphism.
    """
    partition = ideal.partition
    gens = ideal.minimal_generators
    shifts = {
        (a - ga, b - gb)
        for a, b in standard_exponents(partition)
        for ga, gb in gens
    }
    entries = {}
    for d1, d2 in sorted(shifts):
        mult = _hom_dimension(partition, gens, (d1, d2))
        if mult:
            # sign convention: the single box must yield {(1,0),(0,1)}
            entries[(-d1, -d2)] = mult
    return entries


def _hom_dimension(partition, gens, delta):
    d1, d2 = delta
    # free coordinates: generators whose shifted image is a standard monomial
    live = [
        t
        for t, (a, b) in enumerate(gens)
        if _is_standard(partition, a + d1, b + d2)
    ]
    if not live:
        return 0
    index = {t: i for i, t in enumerate(live)}
    rows = []
    for t in range(len(gens) - 1):
        (a1, b1), (a2, b2) = gens[t], gens[t + 1]
        lcm = (a2, b1)  # a's increase, b's decrease along the staircase
        if not _is_standard(partition, lcm[0] + d1, lcm[1] + d2):
            continue
        row = [0] * len(live)
        if t in index:
            row[index[t]] = 1
        if t + 1 in index:
            row[index[t + 1]] = -1
        if any(row):
            rows.append(row)
    return len(live) - intlinalg.rank_of(rows)


def is_generic(ideal, w):
    """Whether no tangent weight at this ideal pairs to zero with w."""
    return cell(ideal, w)[1]


def cell_dimension(ideal, w):
    """Dimension of the cell at this fixed point for the one-parameter flow w:
    the tangent weights pairing nonnegatively with w, counted with multiplicity."""
    return _nonnegative_part(tangent_character_armleg(ideal), (w,))


def cell(ideal, w):
    """(cell_dimension, is_generic) at this fixed point for the flow w, both
    read from one arm/leg character."""
    character = tangent_character_armleg(ideal)
    generic = all(w[0] * t1 + w[1] * t2 != 0 for t1, t2 in character)
    return _nonnegative_part(character, (w,)), generic


def intersection_dimension(ideal, w1, w2):
    """Dimension of the intersection of the two cells at this fixed point:
    tangent weights pairing nonnegatively with both flows."""
    return _nonnegative_part(tangent_character_armleg(ideal), (w1, w2))


def _nonnegative_part(character, weights):
    entries = character.items()
    for a, b in weights:
        entries = [(t, mult) for t, mult in entries if a * t[0] + b * t[1] >= 0]
    return sum(mult for _, mult in entries)


def default_generic_weight(d):
    """(1, d+1) pairs to zero only with the zero weight, which never occurs:
    tangent weights at colength-d ideals have both coordinates in [-d, d]."""
    return (1, d + 1)


def poincare_histogram(d, w):
    """Histogram {cell dimension: number of fixed points} over partitions of d.

    Raises NonGenericWeight if w pairs to zero with some tangent weight.
    """
    counts = {}
    for partition in partitions(d):
        character = tangent_character_armleg(ideal_from_partition(partition))
        for t1, t2 in character:
            if w[0] * t1 + w[1] * t2 == 0:
                raise NonGenericWeight(partition, w, (t1, t2))
        dim = _nonnegative_part(character, (w,))
        counts[dim] = counts.get(dim, 0) + 1
    return dict(sorted(counts.items()))
