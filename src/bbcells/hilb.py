"""Cells of the Hilbert scheme of points on the plane.

Torus-fixed points are monomial ideals, indexed by partitions via their
staircases.  The bigraded tangent character at a fixed point is computed
two independent ways: degreewise linear algebra on homomorphisms out of the
ideal, and the arm/leg combinatorics of the Young diagram.  Cell and
cell-intersection dimensions are half-space counts on that character; the
histogram of cell dimensions is a closed form in partition counts.

Convention: the box diagram of a partition (p_1 >= p_2 >= ...) has row j
(the exponent of y) of length p_{j+1}; the single-box partition has tangent
character {(1,0), (0,1)}.
"""

from dataclasses import dataclass
from math import gcd

from . import intlinalg
from .errors import NonGenericWeight, require_natural, require_sequence, require_vector


@dataclass(frozen=True)
class MonomialIdealPlane:
    partition: tuple  # weakly decreasing positive parts


def partitions(d):
    """All partitions of d in reverse lexicographic order: (d) first."""
    require_natural(d, "d")
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
    partition = require_sequence(partition, "partition")
    if any(type(p) is not int or p < 1 for p in partition) or any(
        a < b for a, b in zip(partition, partition[1:])
    ):
        raise ValueError("parts must be positive integers, weakly decreasing")
    return MonomialIdealPlane(partition=partition)


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


def _corners(partition):
    """Staircase corners (a, b), a increasing, the minimal generators x^a y^b:
    y^rows, and (partition[b], b) at each strict drop of the staircase."""
    drops = [(p, b) for b, p in enumerate(partition) if b == 0 or p < partition[b - 1]]
    return tuple(sorted(drops + [(0, len(partition))]))


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
    gens = _corners(partition)
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


def cell_dimension(ideal, w):
    """Dimension of the cell at this fixed point for the one-parameter flow w;
    raises NonGenericWeight if w pairs to zero with some tangent weight."""
    return intersection_dimension(ideal, w)


def intersection_dimension(ideal, *flows):
    """Dimension of the intersection of the cells of the given flows at this
    fixed point, read from one arm/leg character: the tangent weights pairing
    positively with every flow, counted with multiplicity.  Raises
    NonGenericWeight for the first flow that pairs to zero with some tangent
    weight."""
    character = tangent_character_armleg(ideal)
    kept = dict(character)
    for w in flows:
        w1, w2 = require_vector(w, 2, "weight")
        for t in character:
            pairing = w1 * t[0] + w2 * t[1]
            if pairing == 0:
                raise NonGenericWeight(ideal.partition, w, t)
            if pairing < 0:
                kept.pop(t, None)
    return sum(kept.values())


def default_generic_weight(d):
    """(1, d+1) pairs to zero only with the zero weight, which never occurs:
    tangent weights at colength-d ideals have both coordinates in [-d, d]."""
    require_natural(d, "d")
    return (1, d + 1)


# The tangent weights over all colength-d ideals are exactly (l+1, -a) and
# (-l, a+1) for the pairs (a, l) with a + l + 1 <= d.  The hook of a box with
# arm a and leg l holds a + l + 1 of the d boxes.  Conversely, with
# r = d - a - l - 1, each such pair is the (arm, leg) of a box (column, row)
# of a partition of d:
#   (a+1, 1^l), box (0, 0), when r = 0;
#   (r, a+1, 1^l), box (0, 1), when r >= a+1;
#   the transpose of (r, l+1, 1^a), box (1, 0), when r >= l+1;
#   (a+1, r+1, 1^(l-1)), box (0, 0), otherwise, where 1 <= r <= min(a, l).
# So a weight that is not generic at d always has a witness partition.
def is_generic(d, w):
    """Whether w pairs to zero with no tangent weight at any ideal of
    colength d.  For d >= 1, a = l = 0 rules out a zero entry, and mixed
    signs solve neither (l+1) w1 = a w2 nor l w1 = (a+1) w2.  With the same
    signs and w = g (p, q), g = gcd(w1, w2), each forces a + l + 1 = k (p + q)
    with k >= 1, so a pair fits in d iff p + q <= d."""
    require_natural(d, "d")
    w1, w2 = require_vector(w, 2, "weight")
    if d < 1:
        return True
    if w1 == 0 or w2 == 0:
        return False
    return (w1 > 0) != (w2 > 0) or (abs(w1) + abs(w2)) // gcd(w1, w2) > d


def _counts_by_parts(d):
    """[p(d, k) for k = 0..d], the numbers of partitions of d with exactly k
    parts, by p(n, k) = p(n-1, k-1) + p(n-k, k), one column k at a time."""
    column = [1] + [0] * d  # p(n, 0)
    counts = [column[d]]
    for k in range(1, d + 1):
        nxt = [0] * (d + 1)
        for n in range(k, d + 1):
            nxt[n] = column[n - 1] + nxt[n - k]
        column = nxt
        counts.append(column[d])
    return counts


def poincare_histogram(d, w):
    """Histogram {cell dimension: number of fixed points} over partitions of d.

    It depends only on the sign chamber of a generic w.  When both
    coordinates are positive, the cells of dimension d + k are as many as
    the partitions of d with exactly k parts, p(d, k) (Ellingsrud-Stromme,
    Invent. Math. 1987).  When both are negative, the dimension is 2d minus
    the one for -w, so d - k.  With mixed signs, one of the two tangent
    weights of each box pairs positively: every cell has dimension d.

    Raises NonGenericWeight if w pairs to zero with some tangent weight,
    naming the first witness in partitions(d) order.
    """
    if not is_generic(d, w):
        # some partition is a witness (see is_generic); the first one raises
        for partition in partitions(d):
            cell_dimension(ideal_from_partition(partition), w)
    counts = _counts_by_parts(d)
    if w[0] > 0 and w[1] > 0:
        rows = [(d + k, counts[k]) for k in range(d + 1)]
    elif w[0] < 0 and w[1] < 0:
        rows = [(d - k, counts[k]) for k in range(d, -1, -1)]
    else:
        rows = [(d, sum(counts))]
    return {dim: n for dim, n in rows if n}
