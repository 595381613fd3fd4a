"""Cells of the Hilbert scheme of points on the plane.

Torus-fixed points are monomial ideals, indexed by partitions via their
staircases and listed by ZS1.  The bigraded tangent character at a fixed
point is computed two independent ways: the arm/leg combinatorics of the
Young diagram, and Hom(M, S/M) degree by degree, where it solves a path
system on the staircase generators whose dimension one walk counts.  Cell
and cell-intersection dimensions count arm/leg weights in half-spaces; the
histogram of cell dimensions is a closed form in partition counts.

Convention: the box diagram of a partition (p_1 >= p_2 >= ...) has row j
(the exponent of y) of length p_{j+1}; the single-box partition has tangent
character {(1,0), (0,1)}.
"""

from collections import Counter
from dataclasses import dataclass
from math import gcd

from .errors import (
    NonGenericWeight, require_instance, require_natural, require_sequence, require_vector,
)


@dataclass(frozen=True)
class MonomialIdealPlane:
    partition: tuple  # weakly decreasing positive parts

    def __post_init__(self):
        partition = require_sequence(self.partition, "partition")
        if not all(type(p) is int and p > 0 for p in partition) or (
                list(partition) != sorted(partition, reverse=True)):
            raise ValueError("parts must be positive integers, weakly decreasing")
        object.__setattr__(self, "partition", partition)


def partitions(d):
    """All partitions of d in reverse lexicographic order: (d) first."""
    return list(require_generic(d))


def _zs1(d):
    """The partitions of d, (d) first, one at a time in reverse lexicographic
    order by ZS1 (Zoghbi and Stojmenovic, Int. J. Comput. Math. 70, 1998),
    without recursion: x[:m] is the current partition, x[m:] is all ones, and
    h indexes its last part above 1.  The next partition lowers x[h] by one
    and refills the parts after it with copies of the new x[h] and one
    remainder."""
    if d == 0:
        yield ()
        return
    x = [d] + [1] * (d - 1)
    m, h = 1, 0
    yield (d,)
    while x[0] != 1:
        if x[h] == 2:
            x[h] = 1
            m += 1
            h -= 1
        else:
            r = x[h] - 1
            t = m - h  # the units freed: x[h] gives one, and the m - h - 1 ones
            x[h] = r
            while t > r:
                h += 1
                x[h] = r
                t -= r
            x[h + 1] = t
            m = h + 2
            if t > 1:
                h += 1
        yield tuple(x[:m])


def _transpose(partition):
    """Conjugate partition, one pass over the parts from the smallest up:
    column a holds k boxes when p_(k+1) <= a < p_k."""
    columns, k = [], len(partition)
    for p in reversed(partition):  # p = p_k
        columns += [k] * (p - len(columns))
        k -= 1
    return tuple(columns)


def ideal_from_partition(partition):
    """Monomial ideal whose standard monomials x^a y^b fill the diagram:
    row b holds the exponents a < partition[b]."""
    return MonomialIdealPlane(partition=partition)


def _standard_exponents(partition):
    """Boxes of the diagram as (a, b) pairs: a column index, b row index."""
    return [(a, b) for b, width in enumerate(partition) for a in range(width)]


def _tangent_weights(ideal):
    """Box by box along the rows, the tangent weights (arm+1, -leg), (-arm, leg+1)."""
    partition = require_instance(ideal, MonomialIdealPlane, "ideal").partition
    tr = _transpose(partition)
    weights = []
    for b, p in enumerate(partition):
        for a in range(p):
            arm, leg = p - 1 - a, tr[a] - 1 - b
            weights += (arm + 1, -leg), (-arm, leg + 1)
    return weights


def tangent_character_armleg(ideal):
    """Tangent character from the diagram: the arm/leg weights, counted."""
    return dict(Counter(_tangent_weights(ideal)))


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
    (spanned by a standard monomial), so the solution space is that of the
    path system of `_hom_dimension`.  Only shifts taking some generator onto
    a box of the diagram can carry a homomorphism.
    """
    partition = require_instance(ideal, MonomialIdealPlane, "ideal").partition
    gens = _corners(partition)
    boxes = set(_standard_exponents(partition))
    shifts = {(a - ga, b - gb) for a, b in boxes for ga, gb in gens}
    entries = {}
    for d1, d2 in sorted(shifts):
        mult = _hom_dimension(boxes, gens, (d1, d2))
        if mult:
            # sign convention: the single box must yield {(1,0),(0,1)}
            entries[(-d1, -d2)] = mult
    return entries


def _hom_dimension(boxes, gens, delta):
    """Dimension of Hom(M, S/M) in degree delta, by one walk of the staircase.

    Generator t has one coefficient, forced to 0 unless its shift is a box
    (t is live).  The syzygy of generators t-1 and t is active when their
    shifted lcm (a_t, b_(t-1)) is a box; an active syzygy equates two live
    neighbours or kills its one live side.  These rows are the incidence rows
    of a path with a ground node, so the solution space has one dimension
    per maximal run of live generators, chained by active syzygies, that no
    active syzygy ties to a dead neighbour.
    """
    d1, d2 = delta
    walk = iter(gens)
    a, b = next(walk)
    b += d2  # the shifted row of generator t-1
    live, free, runs = (a + d1, b) in boxes, True, 0
    for a, b_next in walk:
        a += d1
        active = (a, b) in boxes  # the shifted lcm (a_t, b_(t-1))
        b = b_next + d2
        prev, live = live, (a, b) in boxes
        if prev and live and active:
            continue  # the run of t-1 goes on through t
        if prev:  # the run of t-1 ends; an active syzygy ties it to dead t
            runs += free and not active
        free = not active  # the run that t starts, if t is live
    return runs + (live and free)


def cell_dimension(ideal, w):
    """Dimension of the cell at this fixed point for the one-parameter flow w;
    raises NonGenericWeight if w pairs to zero with some tangent weight."""
    return intersection_dimension(ideal, w)


def intersection_dimension(ideal, *flows):
    """Dimension of the intersection of the cells of the given flows at this
    fixed point: the arm/leg weights pairing positively with every flow,
    counted with multiplicity.  Raises NonGenericWeight for the first flow
    that pairs to zero with any of the weights, naming the first in box order."""
    kept = weights = _tangent_weights(ideal)
    for w in flows:
        w1, w2 = require_vector(w, 2, "weight")
        for t in weights:
            if w1 * t[0] + w2 * t[1] == 0:
                raise NonGenericWeight(ideal.partition, w, t)
        kept = [t for t in kept if w1 * t[0] + w2 * t[1] > 0]
    return len(kept)


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


def require_generic(d, *flows):
    """The partitions of d, lazily, once d and every flow are checked: raises
    NonGenericWeight unless every flow is generic at d, with the error of the
    first witness in partitions(d) order, which exists (see is_generic)."""
    require_natural(d, "d")
    if not all(is_generic(d, w) for w in flows):
        for partition in _zs1(d):
            intersection_dimension(ideal_from_partition(partition), *flows)
    return _zs1(d)


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

    Raises NonGenericWeight as require_generic does.
    """
    require_generic(d, w)
    counts = _counts_by_parts(d)
    if w[0] > 0 and w[1] > 0:
        rows = [(d + k, counts[k]) for k in range(d + 1)]
    elif w[0] < 0 and w[1] < 0:
        rows = [(d - k, counts[k]) for k in range(d, -1, -1)]
    else:
        rows = [(d, sum(counts))]
    return {dim: n for dim, n in rows if n}
