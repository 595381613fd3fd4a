"""Shared random generators and independent oracles for the test suite."""

import json
import random
from dataclasses import asdict, is_dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, count, product
from math import lcm

from bbcells import algebra, hilb, intlinalg, lattice, polyhedra
from bbcells.errors import NonGenericWeight, require_natural, require_vector
from bbcells.intlinalg import primitive


def bareiss(mat):
    """Fraction-free Gauss-Jordan elimination (Bareiss, 1968), leaving mat as
    it is: (rows, pivot columns, last pivot or 1).  Entries stay minors, so
    each division is exact; a swap negates the row it moves up, which keeps
    the minors' signs.  The pivot block ends as `last` times the identity."""
    rows = list(mat)  # rows are replaced, never changed in place
    last, pivots = 1, []
    for col in range(len(rows[0]) if rows else 0):
        k = len(pivots)
        i0 = next((i for i in range(k, len(rows)) if rows[i][col]), None)
        if i0 is None:
            continue
        if i0 != k:
            rows[i0], rows[k] = rows[k], [-x for x in rows[i0]]
        top = rows[k]
        rows = [row if row is top else [(top[col] * a - row[col] * b) // last
                                        for a, b in zip(row, top)] for row in rows]
        last = top[col]
        pivots.append(col)
    return rows, pivots, last


def rank_of(mat):
    """Rank over Q (equals rank over Z)."""
    return len(bareiss(mat)[1])


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


def brute_kempf_vector(monoid, max_norm=None):
    """Kempf vector of a pointed monoid by trying every point of every shell
    of [-n, n]^rank in lexicographic order, for small answers.  None when no
    valid vector has max-norm at most max_norm."""
    gens = [g for g in monoid.generators if any(x != 0 for x in g)]
    if not gens:
        return (0,) * monoid.rank
    for n in count(1):
        if max_norm is not None and n > max_norm:
            return None
        for w in product(range(-n, n + 1), repeat=monoid.rank):
            if max(abs(x) for x in w) != n:
                continue
            if all(sum(a * b for a, b in zip(w, g)) >= 1 for g in gens):
                return w


def scan_kempf_vector(monoid):
    """lattice.kempf_vector by the scan it replaced, kept as its oracle: for
    n = 1, 2, ... a lexicographic depth-first search of [-n, n]^rank that
    tightens dense bounds by every nonzero generator, repeats included, at
    each node; the first valid leaf at the first n with one is the answer."""
    gens = [g for g in monoid.generators if any(x != 0 for x in g)]
    if not gens:
        return (0,) * monoid.rank
    for n in count(1):
        w = _scan_lex_first(gens, [-n] * monoid.rank, [n] * monoid.rank)
        if w is not None:
            return w


def _scan_lex_first(gens, lo, hi):
    if not _scan_tighten(gens, lo, hi):
        return None
    i = next((i for i in range(len(lo)) if lo[i] < hi[i]), None)
    if i is None:
        return tuple(lo)
    for v in range(lo[i], hi[i] + 1):
        w = _scan_lex_first(gens, lo[:i] + [v] + lo[i + 1:], hi[:i] + [v] + hi[i + 1:])
        if w is not None:
            return w
    return None


def _scan_tighten(gens, lo, hi):
    changed = True
    while changed:
        changed = False
        for g in gens:
            ends = [hi[j] if a > 0 else lo[j] for j, a in enumerate(g)]
            top = sum(a * e for a, e in zip(g, ends))
            if top < 1:
                return False
            for j, a in enumerate(g):
                need = 1 - top + a * ends[j]
                if a > 0 and -(-need // a) > lo[j]:
                    lo[j], changed = -(-need // a), True
                elif a < 0 and need // a < hi[j]:
                    hi[j], changed = need // a, True
    return True


def skew_chain(rank, k):
    """The generators e_1 and e_i - k e_(i-1) for i = 2..rank, whose Kempf
    vector is w_i = 1 + k + ... + k^(i-1)."""
    return [tuple(int(j == i) - k * (j == i - 1) for j in range(rank))
            for i in range(rank)]


def random_generator_set(rng, max_rank=5, pointed=False):
    """(generators, rank) with entries in -3..3 through an embedding: a
    generator set in Z^s, s <= rank, sent into Z^rank by an integer matrix of
    full column rank, so the cone often lies in a proper subspace.  It has a
    zero generator and a repeated one about one time in four each.  With
    pointed, every generator in Z^s pairs positively with one functional;
    otherwise about half the sets hold a generator and its negative."""
    rank = rng.randint(1, max_rank)
    s = rng.randint(1, rank)
    while True:
        embed = [[rng.randint(-2, 2) for _ in range(s)] for _ in range(rank)]
        if rank_of(embed) == s:
            break
    c = [rng.randint(-2, 2) for _ in range(s)]
    if not any(c):
        c[0] = 1
    n_gens, gens = rng.randint(1, s + 3), []
    while len(gens) < n_gens:
        g = [rng.randint(-3, 3) for _ in range(s)]
        if not pointed or sum(x * y for x, y in zip(c, g)) >= 1:
            gens.append(g)
    if not pointed and rng.random() < 0.5:
        gens.append([-x for x in rng.choice(gens)])
    gens = [tuple(intlinalg.mat_vec(embed, g)) for g in gens]
    if rng.random() < 0.25:
        gens.append((0,) * rank)
    if rng.random() < 0.25:
        gens.append(rng.choice(gens))
    rng.shuffle(gens)
    return gens, rank


def mat_mul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    return [
        [sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols)]
        for i in range(rows)
    ]


def project(proj, m):
    """The image of the vector m under a LatticeProjection: its matrix times m."""
    return tuple(sum(r * x for r, x in zip(row, m)) for row in proj.matrix)


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


@lru_cache(maxsize=None)
def _cone_bases(generators, rank):
    """Every basis of span(generators) made of generators, with the rows of a
    nonsingular minor and that minor's inverse scaled to integers."""
    gens = sorted({g for g in generators if any(g)})
    span = rank_of([list(g) for g in gens])
    bases = []
    for basis in combinations(gens, span):
        for rows in combinations(range(rank), span):
            minor = [[g[i] for g in basis] for i in rows]
            if rank_of(minor) < span:
                continue
            columns = [solve_exact(minor, [int(i == j) for i in range(span)])
                       for j in range(span)]
            scale = lcm(*(x.denominator for col in columns for x in col))
            inverse = [[int(col[i] * scale) for col in columns] for i in range(span)]
            bases.append((basis, rows, inverse, scale))
            break
    return bases


def cone_member_oracle(generators, rank, m):
    """Membership of m in cone(generators), independent of the facet route.

    Caratheodory: m lies in the cone iff it is a nonnegative combination of
    some linearly independent subset of the generators, and that subset can
    be padded with zero coefficients to a basis of their span.
    """
    key = tuple(tuple(g) for g in generators)
    for basis, rows, inverse, scale in _cone_bases(key, rank):
        coeffs = [sum(a * m[i] for a, i in zip(row, rows)) for row in inverse]
        if all(c >= 0 for c in coeffs) and all(
            sum(c * g[k] for c, g in zip(coeffs, basis)) == scale * m[k]
            for k in range(rank)
        ):
            return True
    return False


def fraction_rank_det(mat):
    """Rank of an integer matrix by Gaussian elimination over the rationals,
    and the determinant when it is square (0 when the rank falls short)."""
    a = [[Fraction(x) for x in row] for row in mat]
    rank, det = 0, Fraction(1)
    for col in range(len(a[0]) if a else 0):
        piv = next((i for i in range(rank, len(a)) if a[i][col] != 0), None)
        if piv is None:
            continue
        if piv != rank:
            a[rank], a[piv] = a[piv], a[rank]
            det = -det
        det *= a[rank][col]
        for i in range(rank + 1, len(a)):
            f = a[i][col] / a[rank][col]
            a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank, det if rank == len(mat) else Fraction(0)


def kernel_cone_inequalities(generators, dim):
    """Facet route before signed minors, kept byte for byte as an oracle:
    one Hermite kernel of r-1 generators and the span equations per subset,
    taken when it is a single vector that is one-signed on the cone."""
    gens = sorted({tuple(g) for g in generators if any(g)})
    equations = intlinalg.row_hermite(intlinalg.kernel_basis(gens, dim))[0]
    r = dim - len(equations)
    normals = set()
    for subset in combinations(gens, r - 1) if r > 0 else ():
        basis = intlinalg.kernel_basis(list(subset) + equations, dim)
        if len(basis) != 1:
            continue
        a = basis[0]
        values = [sum(x * y for x, y in zip(a, g)) for g in gens]
        if all(v >= 0 for v in values):
            normals.add(tuple(a))
        elif all(v <= 0 for v in values):
            normals.add(tuple(-x for x in a))
    pairs = {tuple(s * x for x in e) for e in equations for s in (1, -1)}
    return sorted(pairs) + sorted(normals)


def signed_minors(mat, dim):
    """Generalized cross product of a (dim-1) x dim matrix: entry j is (-1)^j
    times the minor without column j.  Zero iff the rank is below dim - 1."""
    rows, pivots, last = bareiss(mat)
    if len(pivots) < len(mat):
        return [0] * dim
    f = dim * (dim - 1) // 2 - sum(pivots)  # the one column outside them
    v = [row[f] for row in rows]
    v.insert(f, -last)
    return v if f % 2 else [-x for x in v]


def minor_cone_inequalities(generators, dim):
    """Facet route before double description, kept byte for byte as an
    oracle: a facet normal is the primitive signed-minor vector of r-1
    generators and the span equations, r the dimension of the span, taken
    when it is nonzero and one-signed on the cone.  It tries all C(m, r-1)
    generator subsets."""
    gens = sorted({tuple(g) for g in generators if any(g)})
    equations = intlinalg.row_hermite(intlinalg.kernel_basis(gens, dim))[0]
    r = dim - len(equations)
    normals = set()
    for subset in combinations(gens, r - 1) if r > 0 else ():
        a = signed_minors(list(subset) + equations, dim)
        values = [sum(x * y for x, y in zip(a, g)) for g in gens]
        side = next((v for v in values if v), 0)  # 0 only for a = 0: a is in the span
        if side and all(v * side >= 0 for v in values):
            normals.add(tuple(primitive(a if side > 0 else [-x for x in a])))
    pairs = {tuple(s * x for x in e) for e in equations for s in (1, -1)}
    return sorted(pairs) + sorted(normals)


def fm_cone_inequalities(generators, dim):
    """Facet normals of cone(generators) by Fourier-Motzkin, for small cases.

    The cone {sum lambda_i g_i : lambda >= 0} is the projection of
    {(x, lambda) : x = G lambda, lambda >= 0} onto x; the equalities are fed
    to elimination as inequality pairs, and normals implied by the others
    are dropped one at a time.  On full-dimensional cones the primitive facet
    normals are unique, so this must agree with polyhedra.cone_inequalities.
    """
    k = len(generators)
    constraints = []
    # coordinates: x_0..x_{dim-1}, lambda_0..lambda_{k-1}
    for i in range(dim):
        row = [0] * (dim + k)
        row[i] = 1
        for j, g in enumerate(generators):
            row[dim + j] = -g[i]
        constraints.append((tuple(row), False))
        constraints.append((tuple(-c for c in row), False))
    for j in range(k):
        row = [0] * (dim + k)
        row[dim + j] = 1
        constraints.append((tuple(row), False))
    for var in range(dim, dim + k):
        constraints = polyhedra.eliminate_variable(constraints, var)
    kept = sorted({tuple(primitive(list(c[:dim]))) for c, _ in constraints
                   if any(x != 0 for x in c[:dim])})
    changed = True
    while changed:
        changed = False
        for i in range(len(kept)):
            rest = [(kept[j], False) for j in range(len(kept)) if j != i]
            if polyhedra.implies(rest, kept[i], dim):
                del kept[i]
                changed = True
                break
    return kept


def matrix_hom_dimension(partition, gens, delta):
    """hilb._hom_dimension by a rank, kept as the oracle of the staircase
    walk: one column per generator whose shifted image is a box, and one row
    per syzygy whose shifted lcm is a box, with +1 and -1 at its live
    generators; the degree-delta dimension is the columns minus the rank."""
    d1, d2 = delta
    boxes = set(hilb._standard_exponents(partition))
    live = [t for t, (a, b) in enumerate(gens) if (a + d1, b + d2) in boxes]
    index = {t: i for i, t in enumerate(live)}
    rows = []
    for t in range(len(gens) - 1):
        (_, b1), (a2, _) = gens[t], gens[t + 1]
        if (a2 + d1, b1 + d2) not in boxes:
            continue
        row = [0] * len(live)
        if t in index:
            row[index[t]] = 1
        if t + 1 in index:
            row[index[t + 1]] = -1
        if any(row):
            rows.append(row)
    return len(live) - rank_of(rows)


def dict_tangent_character(partition):
    """The arm/leg character as the dict hilb.tangent_character_armleg built
    before its weight list, kept as its oracle: box by box along the rows,
    each box adds one to (arm+1, -leg) and to (-arm, leg+1), so the keys come
    in the order of their first box.  Column heights are counted here."""
    heights = [sum(1 for q in partition if q > a) for a in range(max(partition, default=0))]
    entries = {}
    for b, p in enumerate(partition):
        for a in range(p):
            arm, leg = p - 1 - a, heights[a] - 1 - b
            for w in ((arm + 1, -leg), (-arm, leg + 1)):
                entries[w] = entries.get(w, 0) + 1
    return entries


def dict_intersection_dimension(ideal, *flows):
    """hilb.intersection_dimension by the character route it replaced, kept
    as its oracle: a copy of the character, from which each flow removes the
    weights it pairs negatively with, once it has raised NonGenericWeight at
    the first key that it pairs to zero with, if any."""
    character = dict_tangent_character(ideal.partition)
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


def recursive_partitions(d):
    """Partitions of d in reverse lexicographic order by recursion on the
    largest part, kept as the oracle of hilb.partitions."""
    out = []

    def rec(remaining, cap, prefix):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for part in range(min(cap, remaining), 0, -1):
            rec(remaining - part, part, prefix + [part])

    rec(d, d, [])
    return out


def ideal_is_generic(ideal, w):
    """Whether no tangent weight at this ideal pairs to zero with w."""
    character = hilb.tangent_character_armleg(ideal)
    return all(w[0] * t1 + w[1] * t2 != 0 for t1, t2 in character)


def looped_is_generic(d, w):
    """hilb.is_generic by its definition, kept as the oracle of the closed
    form: w against the tangent weights (l+1, -a) and (-l, a+1) for every
    arm a and leg l with a + l + 1 <= d, in O(d^2) steps."""
    w1, w2 = w
    return all(
        (l + 1) * w1 != a * w2 and l * w1 != (a + 1) * w2
        for a in range(d)
        for l in range(d - a)
    )


def enumerated_poincare_histogram(d, w):
    """Poincare histogram by enumeration, kept as the oracle of the closed
    form: the cell dimension at every partition of d, in partitions(d)
    order, so a weight that is not generic raises at the first witness."""
    counts = {}
    for partition in hilb.partitions(d):
        dim = hilb.cell_dimension(hilb.ideal_from_partition(partition), w)
        counts[dim] = counts.get(dim, 0) + 1
    return dict(sorted(counts.items()))


def enumerated_algebraize_check(quotient, monoid, weight_bound):
    """algebra.algebraize_check by enumeration, kept as the oracle of its
    proof: the Kempf search, then every standard monomial of Kempf degree at
    most weight_bound, each of which must have J-order at most its Kempf
    degree n_lambda, the level whose truncation has to keep it."""
    kempf = lattice.kempf_vector(monoid).w
    require_natural(weight_bound, "weight bound")
    monomials = algebra._standard_monomials(quotient, monoid, weight_bound, kempf)
    return all(order <= sum(a * b for a, b in zip(kempf, w)) for w, order in monomials)


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


def _encode(value):
    """The JSON form of a handler's value: dataclasses become objects in field
    order, tuples become lists, and every int that is not a bool becomes a
    decimal string.  None, bools and strings pass through."""
    if is_dataclass(value):
        value = asdict(value)
    if isinstance(value, dict):
        return {key: _encode(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    if isinstance(value, int) and not isinstance(value, bool):
        return str(value)
    return value


def _inline(value):
    """One line of an encoded value: strings bare unless they read as a JSON
    literal, lists in brackets, objects as comma-joined `key: value` fields,
    and true, false and null as in JSON."""
    if isinstance(value, str) and value not in ("true", "false", "null"):
        return value
    if isinstance(value, list):
        return "[" + ", ".join(map(_inline, value)) + "]"
    if isinstance(value, dict):
        return ", ".join(f"{key}: {_inline(v)}" for key, v in value.items())
    return json.dumps(value)


def _text_lines(obj):
    """The text form of an encoded object: one `key: value` line per field, but
    a nested object, or each object of a list of objects, on its own line below."""
    for key, value in obj.items():
        rows = [value] if isinstance(value, dict) else value
        if rows and isinstance(rows, list) and all(isinstance(v, dict) for v in rows):
            yield f"{key}:"
            yield from (f"  {_inline(v)}" for v in rows)
        else:
            yield f"{key}: {_inline(value)}"


def reference_output(value, as_json):
    """What the CLI once printed for a handler's value, built whole: one
    encoded copy, then json.dumps(indent=2) or the text lines; the oracle of
    the walker in cli.py."""
    encoded = _encode(value)
    if as_json:
        return json.dumps(encoded, indent=2) + "\n"
    return "\n".join(_text_lines(encoded)) + "\n"


OUTPUT_STRINGS = ["", "x", "true", "false", "null", 'a"b', "\u00e9", "1", "a: b, c"]


def random_output_value(rng, depth=0):
    """A random handler value for the output oracle: an object at the top,
    then objects, lists and tuples over ints (negative, and of 5,000 digits),
    bools, None and strings that read as literals or need escapes.  A list
    whose first item is an object holds only objects, as a table does."""
    kind = "dict" if depth == 0 else rng.choice(
        ["leaf"] * 3 + (["dict", "list", "tuple"] if depth < 4 else []))
    if kind == "leaf":
        return rng.choice([
            rng.randint(-10, 10), -(10**4999) - rng.randint(0, 9), True, False, None,
            rng.choice(OUTPUT_STRINGS),
        ])
    size = rng.choice([0, 1, 2, 3])
    if kind == "dict":
        keys = rng.sample(OUTPUT_STRINGS + ["d", "rows", "k"], size)
        return {key: random_output_value(rng, depth + 1) for key in keys}
    items = [random_output_value(rng, depth + 1) for _ in range(size)]
    if items and isinstance(items[0], dict):
        items = [item if isinstance(item, dict) else {} for item in items]
    return items if kind == "list" else tuple(items)


def random_dataclass_value(rng):
    """A library dataclass as a handler may return it: an AffineMonoid, a
    LatticeProjection with its nested image_monoid, or a StabilizationReport."""
    kind = rng.choice(["monoid", "projection", "report"])
    if kind == "monoid":
        return random_monoid(rng)
    if kind == "projection":
        return lattice.reduce_to_zero(random_monoid(rng))
    dimensions = tuple(rng.randint(0, 9) for _ in range(rng.randint(0, 4)))
    return algebra.StabilizationReport(
        weight=tuple(rng.randint(-3, 3) for _ in range(rng.randint(1, 3))),
        n_lambda=rng.randint(0, 5), dimensions=dimensions, stable=rng.random() < 0.5,
        limit_dimension=rng.choice([0, 7, 10**50]))


def with_iterators(value, rng):
    """The value with some of its lists and tuples, at any depth, replaced by
    one-shot iterators over the same items, as a handler yields records."""
    if isinstance(value, dict):
        return {key: with_iterators(v, rng) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        items = [with_iterators(v, rng) for v in value]
        return iter(items) if rng.random() < 0.5 else type(value)(items)
    return value


def seeded(seed):
    return random.Random(seed)
