"""Seeded batches for the two workloads.

A batch is a fixed list of operations.  Each operation runs one instance
through bbcells and returns a plain, comparable output; its check compares
that output with an oracle from `oracles`.  A round runs the whole batch in
order, so every round does the same work and round times stay comparable.
The benchmark calls bbcells through module attributes (`lattice.contains`,
not the package re-exports) so that the traced run sees every call.

A workload's batch is made of parts: `monoids` is the cone and Kempf part,
`counting` the monomial-counting part followed by the Hilbert-scheme part.
Each part ends with the in-process `cli.main` calls of its command group, so
every subcommand runs on one workload.
"""

import io
import json
import os
import random
from contextlib import redirect_stdout
from itertools import product

import oracles as orc

# workload -> the parts of its batch, in order
WORKLOADS = {"monoids": ("monoids",), "counting": ("counting", "hilb")}
# part -> the CLI command group whose subcommands it runs
CLI_GROUPS = {"monoids": "monoid", "counting": "algebra", "hilb": "hilb"}


class Op:
    __slots__ = ("name", "run", "check")

    def __init__(self, name, run, check):
        self.name = name
        self.run = run
        self.check = check


def _modules():
    import bbcells.algebra
    import bbcells.cli
    import bbcells.hilb
    import bbcells.lattice
    import bbcells.polyparse
    return bbcells


def _vector(rng, rank, lo, hi):
    while True:
        v = tuple(rng.randint(lo, hi) for _ in range(rank))
        if any(v):
            return v


# ---------------------------------------------------------------- monoids

# Zero patterns of the rank-3 generator sets; the seed draws the nonzero
# entries from 1..3.  With the pattern fixed, Fourier–Motzkin pairs the same
# sign pattern on every seed, so a round's cost does not depend on the seed.
# Unrestricted dense sets of 4 or 5 generators have a heavy-tailed cost (some
# run past 0.5 s each) and are left out; see CHANGES.md.
RANK3_PATTERNS = (
    ((1, 1, 0), (0, 1, 1), (1, 0, 1)),
    ((1, 0, 0), (1, 1, 0), (0, 1, 1)),
    ((1, 1, 1), (1, 1, 0), (0, 0, 1)),
    ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)),
    ((1, 1, 0), (0, 1, 1), (1, 0, 1), (1, 1, 1)),
    ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1)),
    ((1, 1, 0), (0, 1, 1), (1, 0, 1), (1, 0, 0), (0, 1, 0)),
    ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 1, 1)),
)
SKEW_KS = (1, 2)
QUERIES_PER_MONOID = 8


def _pointed_rank2(rng, ngen):
    """Generators on the positive side of a random line, so the cone is pointed."""
    c = _vector(rng, 2, -2, 2)
    gens = []
    while len(gens) < ngen:
        g = _vector(rng, 2, -4, 4)
        if orc.dot(c, g) >= 1:
            gens.append(g)
    return gens


def _rank2_with_units(rng, ngen):
    v = _vector(rng, 2, -4, 4)
    gens = [v, tuple(-x for x in v)]
    while len(gens) < ngen:
        gens.append(_vector(rng, 2, -4, 4))
    return gens


def _monoid_op(bb, name, gens, rank, queries, skew_k=None):
    lattice = bb.lattice

    def run():
        m = lattice.cone_from_generators(gens, rank)
        members = tuple(lattice.contains(m, q) for q in queries)
        units = tuple(tuple(v) for v in lattice.units(m))
        if lattice.has_zero(m):
            reduction = None
            kempf = lattice.kempf_vector(m).w
        else:
            p = lattice.reduce_to_zero(m)
            img = p.image_monoid
            reduction = (p.matrix, p.target_rank, img.generators, img.lineality_basis)
            kempf = lattice.kempf_vector(img).w
        return m.facet_normals, units, members, reduction, kempf

    def check(out):
        normals, units, members, reduction, kempf = out
        orc.check_facets(gens, normals)
        orc.check_units(gens, normals, units)
        for q, ans in zip(queries, members):
            orc.check_membership(gens, q, ans)
        if reduction is None:
            orc.require(not units, "kempf computed on a monoid with units")
            orc.check_kempf(gens, kempf, skew_k)
        else:
            orc.check_reduction(gens, *reduction)
            orc.check_kempf(reduction[2], kempf)

    return Op(name, run, check)


def monoids_batch(bb, rng):
    ops = []
    for k in SKEW_KS:
        gens = [(1, 0, 0), (-k, 1, 0), (0, -k, 1)]
        queries = [_vector(rng, 3, -3, 3) for _ in range(QUERIES_PER_MONOID)]
        ops.append(_monoid_op(bb, f"skew-{k}", gens, 3, queries, skew_k=k))
    for _ in range(2):
        for ngen in range(3, 11):
            gens = _pointed_rank2(rng, ngen)
            queries = [_vector(rng, 2, -4, 4) for _ in range(QUERIES_PER_MONOID)]
            ops.append(_monoid_op(bb, f"rank2-pointed-{ngen}", gens, 2, queries))
    for ngen in range(3, 11):
        gens = _rank2_with_units(rng, ngen)
        queries = [_vector(rng, 2, -4, 4) for _ in range(QUERIES_PER_MONOID)]
        ops.append(_monoid_op(bb, f"rank2-units-{ngen}", gens, 2, queries))
    for _ in range(3):
        for pattern in RANK3_PATTERNS:
            gens = [tuple(rng.randint(1, 3) * s for s in g) for g in pattern]
            queries = [_vector(rng, 3, -1, 3) for _ in range(QUERIES_PER_MONOID)]
            ops.append(_monoid_op(bb, f"rank3-{len(gens)}", gens, 3, queries))
    return ops


# ---------------------------------------------------------------- counting

# (torus rank, nonzero-weight variables, zero-weight variables) per slot.
QUOTIENT_SHAPES = (
    (1, 2, 0), (1, 3, 0), (1, 3, 1), (1, 4, 0),
    (2, 2, 0), (2, 2, 1), (2, 3, 0), (2, 3, 1),
)
RANK2_MONOIDS = (((1, 0), (0, 1)), ((1, 0), (1, 2)), ((1, 1), (0, 1)))
TRUNCATION_LEVELS = (2, 4)
ALGEBRAIZE_BOUND = 3
STABILIZE_LEVEL = 4
NAMES = "abcdefgh"


def _random_weighting(rng, rank, npos, nzero):
    gens = [(1,)] if rank == 1 else list(rng.choice(RANK2_MONOIDS))
    weights = []
    for _ in range(npos):
        while True:
            c = [rng.randint(0, 1) for _ in gens]
            if any(c):
                break
        weights.append(tuple(sum(ci * g[t] for ci, g in zip(c, gens)) for t in range(rank)))
    weights += [(0,) * rank] * nzero
    return gens, weights


def _random_monomial(rng, nvars, idx, lo=0, hi=2):
    while True:
        e = [0] * nvars
        for i in idx:
            e[i] = rng.randint(lo, hi)
        if sum(e) >= 2:
            return tuple(e)


def _quotient_op(bb, name, rank, gens, weights, mons, weight):
    algebra, lattice = bb.algebra, bb.lattice
    variables = tuple((NAMES[i], w) for i, w in enumerate(weights))

    def run():
        m = lattice.cone_from_generators(gens, rank)
        q = algebra.MonomialQuotient(algebra.VariableWeighting(rank, variables), mons)
        truncs = tuple(algebra.truncate(q, m, n) for n in TRUNCATION_LEVELS)
        r = algebra.stabilization_check(q, m, weight, STABILIZE_LEVEL)
        report = (r.n_lambda, r.dimensions, r.stable, r.limit_dimension)
        kempf = lattice.kempf_vector(m).w
        return truncs, report, kempf, algebra.algebraize_check(q, m, ALGEBRAIZE_BOUND)

    def check(out):
        truncs, report, kempf, ok = out
        orc.check_kempf(gens, kempf)
        for n, dims in zip(TRUNCATION_LEVELS, truncs):
            orc.check_truncation(weights, mons, n, dims)
        orc.check_stabilization(weights, mons, weight, STABILIZE_LEVEL, kempf, report)
        orc.check_algebraize(ok)

    return Op(name, run, check)


def _quotient_instance(rng, shape):
    """A seeded quotient of the given shape, with a stabilization weight of
    J-order 2.  Variable weights are 0/1 sums of the monoid generators, which
    pair at most 2 with the Kempf vector, so n_lambda <= STABILIZE_LEVEL."""
    rank, npos, nzero = shape
    gens, weights = _random_weighting(rng, rank, npos, nzero)
    nvars = npos + nzero
    pos = list(range(npos))
    mons = [tuple(rng.randint(2, 3) if j == i else 0 for j in range(nvars))
            for i in range(npos, nvars)]
    mons += [_random_monomial(rng, nvars, pos) for _ in range(2)]
    i, j = rng.choice(pos), rng.choice(pos)
    weight = tuple(weights[i][t] + weights[j][t] for t in range(rank))
    return rank, gens, weights, tuple(mons), weight


def _random_presentation(rng):
    """Torus rank 1, 3 or 4 variables of weight -2..2, 1 or 2 homogeneous
    relations of degree >= 2 (binomials where a second monomial of the same
    weight exists in the exponent box, monomials otherwise)."""
    nvars = rng.randint(3, 4)
    weights = [(rng.randint(-2, 2),) for _ in range(nvars)]
    names = NAMES[:nvars]
    box = [e for e in product(range(3), repeat=nvars) if sum(e) >= 2]
    relations = []
    for _ in range(rng.randint(1, 2)):
        first = rng.choice(box)
        wt = sum(e * w[0] for e, w in zip(first, weights))
        same = [e for e in box if e != first and sum(x * w[0] for x, w in zip(e, weights)) == wt]
        terms = [first] + ([rng.choice(same)] if same else [])
        coeffs = [1] + [rng.choice((-3, -1, 2))] * (len(terms) - 1)
        relations.append(" + ".join(
            f"{c}*" + "*".join(f"{n}^{x}" for n, x in zip(names, e) if x)
            for c, e in zip(coeffs, terms)).replace("+ -", "- "))
    return list(zip(names, weights)), relations


def _presentation_op(bb, name, variables, relations, expected=None):
    algebra, lattice, polyparse = bb.algebra, bb.lattice, bb.polyparse
    names = [n for n, _ in variables]

    def summary(p):
        return ([(n, tuple(w)) for n, w in p.weighting.variables],
                [polyparse.print_polynomial(r, p.weighting.names) for r in p.relations])

    def run():
        m = lattice.cone_from_generators([(1,)], 1)
        polys = tuple(polyparse.parse_polynomial(src, names) for src in relations)
        printed = [polyparse.print_polynomial(p, names) for p in polys]
        reparsed = tuple(polyparse.parse_polynomial(src, names) for src in printed)
        pres = algebra.GradedPresentation(algebra.VariableWeighting(1, tuple(variables)), polys)
        plus = algebra.bb_plus(pres, m)
        fixed = algebra.fixed_locus(pres)
        ok = algebra.open_immersion_check(pres, m)
        outsiders = algebra.outsider_variables(pres, m)
        return (polys, reparsed, summary(plus), summary(algebra.bb_plus(plus, m)),
                summary(fixed), summary(algebra.fixed_locus(fixed)), ok, outsiders)

    def check(out):
        polys, reparsed, plus, plus2, fixed, fixed2, ok, outsiders = out
        orc.check_roundtrip(polys, reparsed)
        orc.check_idempotent(plus, plus2, "bb_plus")
        orc.check_idempotent(fixed, fixed2, "fixed_locus")
        orc.check_limit_variables(variables, [n for n, _ in plus[0]], [(1,)])
        orc.check_fixed_variables(variables, [n for n, _ in fixed[0]])
        orc.check_open_immersion(variables, [(1,)], ok, outsiders)
        if expected is not None:
            orc.check_example(name, plus, expected[0])
            orc.check_example(name, fixed, expected[1])

    return Op(name, run, check)


def counting_batch(bb, rng):
    ops = []
    for _ in range(2):
        for shape in QUOTIENT_SHAPES:
            ops.append(_quotient_op(bb, f"quotient-{shape}", *_quotient_instance(rng, shape)))
    node = [("x", (-1,)), ("y", (1,))]
    quadric = node + [("z", (0,))]
    ops.append(_presentation_op(bb, "node", node, ["x*y"],
                                (orc.NODE_PLUS, ([], []))))
    ops.append(_presentation_op(bb, "quadric", quadric, ["x*y - z^2"],
                                (orc.QUADRIC_PLUS, orc.QUADRIC_FIXED)))
    for i in range(4):
        variables, relations = _random_presentation(rng)
        ops.append(_presentation_op(bb, f"presentation-{i}", variables, relations))
    return ops


# ---------------------------------------------------------------- hilb

TANGENT_DS = range(1, 9)   # both tangent characters at every partition
CELL_DS = range(9, 13)      # cell dimensions at every partition
INTERSECT_DS = (9, 10)
POINCARE_DS = (13, 16)


def chamber_weight(rng, d):
    """A weight in the chamber of (1, d+1): w2 > d * w1 > 0."""
    a = rng.randint(1, 4)
    return (a, d * a + rng.randint(1, 20))


def generic_weight(rng, d):
    """A weight pairing to zero with no (t1, t2) in [-d, d]^2 other than 0."""
    while True:
        w = (rng.randint(-3 * d, 3 * d), rng.randint(-3 * d, 3 * d))
        if all(w[0] * t1 + w[1] * t2 for t1 in range(-d, d + 1)
               for t2 in range(-d, d + 1) if (t1, t2) != (0, 0)):
            return w


def hilb_batch(bb, rng):
    hilb = bb.hilb
    ops = []

    def partitions_op(d):
        return Op(f"partitions-{d}", lambda: hilb.partitions(d),
                  lambda out: orc.check_partitions(d, out))

    def tangent_op(p):
        def run():
            ideal = hilb.ideal_from_partition(p)
            return hilb.tangent_character_linalg(ideal), hilb.tangent_character_armleg(ideal)
        return Op(f"tangent-{p}", run, lambda out: orc.check_tangent_pair(p, *out))

    def cells_op(d, w):
        def run():
            return [hilb.cell_dimension(hilb.ideal_from_partition(p), w)
                    for p in hilb.partitions(d)]

        def check(out):
            parts = hilb_partitions[d]
            orc.require(len(out) == len(parts), "one cell per partition")
            for p, dim in zip(parts, out):
                orc.check_cell_dimension(p, w, dim)
        return Op(f"cells-{d}", run, check)

    def intersect_op(d, w1, w2):
        def run():
            return [hilb.intersection_dimension(hilb.ideal_from_partition(p), w1, w2)
                    for p in hilb.partitions(d)]

        def check(out):
            parts = hilb_partitions[d]
            orc.require(len(out) == len(parts), "one intersection per partition")
            for p, dim in zip(parts, out):
                orc.check_intersection(p, w1, w2, dim)
        return Op(f"intersect-{d}", run, check)

    def poincare_op(d, w):
        return Op(f"poincare-{d}", lambda: hilb.poincare_histogram(d, w),
                  lambda out: orc.check_poincare(d, out))

    # outputs of cells and intersect come in the order of the library's
    # partitions, which the partitions ops check
    hilb_partitions = {d: hilb.partitions(d)
                       for d in sorted(set(TANGENT_DS) | set(CELL_DS) | set(INTERSECT_DS))}
    ops.extend(partitions_op(d) for d in hilb_partitions)
    for d in TANGENT_DS:
        ops.extend(tangent_op(p) for p in hilb_partitions[d])
    for d in CELL_DS:
        ops.append(cells_op(d, chamber_weight(rng, d)))
    for d in INTERSECT_DS:
        w1 = generic_weight(rng, d)
        ops.append(intersect_op(d, w1, generic_weight(rng, d)))
        ops.append(intersect_op(d, w1, w1))
    for d in POINCARE_DS:
        ops.append(poincare_op(d, chamber_weight(rng, d)))
    return ops


# ---------------------------------------------------------------- cli

def _ints(values):
    return [int(x) for x in values]


def cli_commands(rng, workdir):
    """One seeded input per subcommand, written under workdir, with the
    check of its JSON output.  Returns [(argv, check)]."""
    def dump(name, doc):
        path = os.path.join(workdir, name)
        with open(path, "w") as fh:
            json.dump(doc, fh)
        return path

    pointed = _pointed_rank2(rng, 3)
    with_units = _rank2_with_units(rng, 3)
    variables, relations = _random_presentation(rng)
    _, _, weights, mons, weight = _quotient_instance(rng, (1, 3, 0))
    level = TRUNCATION_LEVELS[-1]
    names = NAMES[:len(weights)]
    mono_src = ["*".join(f"{n}^{e}" for n, e in zip(names, m) if e) for m in mons]
    d = rng.randint(3, 5)
    w_cell = chamber_weight(rng, d)
    w1, w2 = generic_weight(rng, d), generic_weight(rng, d)

    pointed_path = dump("pointed.json", {"rank": 2, "generators": [list(g) for g in pointed]})
    units_path = dump("units.json", {"rank": 2, "generators": [list(g) for g in with_units]})
    n_path = dump("n.json", {"rank": 1, "generators": [[1]]})
    pres_path = dump("pres.json", {
        "torus_rank": 1,
        "variables": [{"name": n, "weight": list(w)} for n, w in variables],
        "relations": relations})
    quot_path = dump("quot.json", {
        "torus_rank": 1,
        "variables": [{"name": n, "weight": list(w)} for n, w in zip(names, weights)],
        "monomial_generators": mono_src})

    def analyze(doc):
        normals = [tuple(_ints(a)) for a in doc["facet_normals"]]
        units = [tuple(_ints(v)) for v in doc["units"]]
        orc.check_facets(pointed, normals)
        orc.check_units(pointed, normals, units)
        orc.require(doc["has_zero"] is True, "pointed monoid reported without zero")
        orc.check_kempf(pointed, _ints(doc["kempf_vector"]))

    def reduce(doc):
        img = doc["image_monoid"]
        orc.check_reduction(with_units, [tuple(_ints(r)) for r in doc["matrix"]],
                            int(doc["target_rank"]),
                            [tuple(_ints(g)) for g in img["generators"]],
                            img["lineality_basis"])

    def presentation_vars(doc):
        return [v["name"] for v in doc["variables"]]

    def bbplus(doc):
        orc.check_limit_variables(variables, presentation_vars(doc), [(1,)])

    def fixed(doc):
        orc.check_fixed_variables(variables, presentation_vars(doc))

    def check_(doc):
        orc.check_open_immersion(variables, [(1,)], doc["open_immersion"],
                                 doc["outsider_variables"])

    def truncate(doc):
        dims = {tuple(_ints(r["weight"])): int(r["dimension"]) for r in doc["rows"]}
        orc.check_truncation(weights, mons, level, dims)

    def stabilize(doc):
        kempf = (1,)  # the Kempf vector of N; the output does not print it
        report = (int(doc["n_lambda"]), tuple(_ints(doc["dimensions"])), doc["stable"],
                  int(doc["limit_dimension"]))
        orc.check_stabilization(weights, mons, weight, STABILIZE_LEVEL, kempf, report)

    def algebraize(doc):
        orc.check_algebraize(doc["algebraizes"])

    def fixed_points(doc):
        orc.check_partitions(d, [tuple(_ints(p)) for p in doc["partitions"]])

    def tangent(doc):
        for rec in doc["tangent"]:
            char = {(int(a), int(b)): int(m) for a, b, m in rec["character"]}
            orc.check_tangent(tuple(_ints(rec["partition"])), char)

    def cells(doc):
        for rec in doc["cells"]:
            orc.check_cell_dimension(tuple(_ints(rec["partition"])), w_cell, int(rec["dimension"]))

    def intersect(doc):
        for rec in doc["cells"]:
            orc.check_intersection(tuple(_ints(rec["partition"])), w1, w2, int(rec["dimension"]))

    def poincare(doc):
        orc.check_poincare(d, {int(r["dimension"]): int(r["count"]) for r in doc["histogram"]})

    ds = str(d)
    return [
        (["monoid", "analyze", "-i", pointed_path], analyze),
        (["monoid", "reduce", "-i", units_path], reduce),
        (["algebra", "bbplus", "-i", pres_path, "-m", n_path], bbplus),
        (["algebra", "fixed", "-i", pres_path], fixed),
        (["algebra", "check", "-i", pres_path, "-m", n_path], check_),
        (["algebra", "truncate", "-i", quot_path, "-m", n_path, "-n", str(level)], truncate),
        (["algebra", "stabilize", "-i", quot_path, "-m", n_path, "-w", str(weight[0]),
          "-n", str(STABILIZE_LEVEL)], stabilize),
        (["algebra", "algebraize", "-i", quot_path, "-m", n_path,
          "--bound", str(ALGEBRAIZE_BOUND)], algebraize),
        (["hilb", "fixed-points", "-d", ds], fixed_points),
        (["hilb", "tangent", "-d", ds], tangent),
        (["hilb", "cells", "-d", ds, "-w=%d,%d" % w_cell], cells),
        (["hilb", "intersect", "-d", ds, "-w=%d,%d" % w1, "-w=%d,%d" % w2], intersect),
        (["hilb", "poincare", "-d", ds], poincare),
    ]


def cli_ops(bb, rng, workdir, group):
    """In-process `cli.main` calls, stdout captured, for every subcommand of
    one command group."""
    ops = []
    for argv, check in cli_commands(rng, workdir):
        if argv[0] != group:
            continue
        full = argv + ["--json"]

        def run(full=full):
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = bb.cli.main(full)
            return code, buf.getvalue()

        def check_out(out, check=check, full=full):
            code, stdout = out
            orc.require(code == 0, f"{' '.join(full)} exited {code}")
            try:
                doc = json.loads(stdout)
                check(doc)
            except (ValueError, KeyError, TypeError) as exc:
                raise orc.CheckFailed(f"{' '.join(full)}: unreadable output ({exc})")

        ops.append(Op("cli " + " ".join(argv[:2]), run, check_out))
    return ops


PARTS = {"monoids": monoids_batch, "counting": counting_batch, "hilb": hilb_batch}


def make_batch(workload, seed, workdir):
    """The batch of a workload at a seed; the CLI input files go to workdir.
    Each part draws from its own stream, and the CLI inputs from one more, so
    a part's inputs do not depend on what comes before it."""
    bb = _modules()
    ops = []
    for part in WORKLOADS[workload]:
        ops += PARTS[part](bb, random.Random(f"{part}:{seed}"))
        ops += cli_ops(bb, random.Random(f"cli:{seed}"), workdir, CLI_GROUPS[part])
    return ops
