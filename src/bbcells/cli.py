"""Command-line surface.

Subcommands:
    monoid analyze|reduce
    algebra bbplus|fixed|check|truncate|stabilize|algebraize
    hilb fixed-points|tangent|cells|intersect|poincare

All integers in JSON payloads are decimal strings, so arbitrary-precision
values survive any JSON reader.  Identical inputs give byte-identical
outputs.  Exit codes: 0 success, 1 domain error, 2 usage error.
"""

import argparse
import json
import re
import sys

from . import algebra, hilb, lattice, polyparse
from .errors import DomainError

_DECIMAL = re.compile(r"-?[0-9]+")


def _s(x):
    return str(int(x))


def _vec(v):
    return [_s(x) for x in v]


def _parse_int(raw):
    """A JSON integer (not a boolean) or a decimal-integer string."""
    if isinstance(raw, int) and not isinstance(raw, bool):
        return raw
    if isinstance(raw, str) and _DECIMAL.fullmatch(raw):
        return int(raw)
    raise ValueError(f"expected an integer or a decimal-integer string, got {raw!r}")


def _parse_list(raw, what, kind=object):
    """A JSON list whose items are all of the given type."""
    if not isinstance(raw, list) or not all(isinstance(x, kind) for x in raw):
        raise ValueError(f"expected a list of {what}, got {raw!r}")
    return raw


def _parse_int_vector(raw):
    return tuple(_parse_int(x) for x in _parse_list(raw, "integers"))


def _load_json(path):
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected a JSON object, got {type(doc).__name__}")
    return doc


def load_monoid(path):
    doc = _load_json(path)
    rank = _parse_int(doc["rank"])
    gens = [_parse_int_vector(g) for g in _parse_list(doc["generators"], "vectors")]
    return lattice.cone_from_generators(gens, rank)


def load_weighting(doc):
    rank = _parse_int(doc["torus_rank"])
    variables = []
    for var in _parse_list(doc["variables"], "variable objects", dict):
        if not isinstance(var["name"], str):
            raise ValueError(f"variable name must be a string, got {var['name']!r}")
        variables.append((var["name"], _parse_int_vector(var["weight"])))
    return algebra.VariableWeighting(torus_rank=rank, variables=tuple(variables))


def load_presentation(path):
    doc = _load_json(path)
    weighting = load_weighting(doc)
    names = weighting.names
    relations = tuple(
        polyparse.parse_polynomial(src, names)
        for src in _parse_list(doc.get("relations", []), "polynomial strings", str)
    )
    return algebra.GradedPresentation(weighting=weighting, relations=relations)


def load_quotient(path):
    doc = _load_json(path)
    weighting = load_weighting(doc)
    names = weighting.names
    gens = []
    for src in _parse_list(doc.get("monomial_generators", []), "monomials", str):
        poly = polyparse.parse_polynomial(src, names)
        if len(poly.terms) != 1 or poly.terms[0][0] != 1:
            raise DomainError(f"not a monomial: {src!r}")
        gens.append(poly.terms[0][1])
    return algebra.MonomialQuotient(weighting=weighting, minimal_generators=tuple(gens))


def monoid_payload(monoid):
    return {
        "rank": _s(monoid.rank),
        "generators": [_vec(g) for g in monoid.generators],
        "facet_normals": [_vec(a) for a in monoid.facet_normals],
        "lineality_basis": [_vec(v) for v in monoid.lineality_basis],
    }


def presentation_payload(presentation):
    w = presentation.weighting
    return {
        "torus_rank": _s(w.torus_rank),
        "variables": [
            {"name": name, "weight": _vec(weight)} for name, weight in w.variables
        ],
        "relations": [
            polyparse.print_polynomial(rel, w.names) for rel in presentation.relations
        ],
    }


def _weight_pair(text):
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected two comma-separated integers")
    try:
        return (int(parts[0]), int(parts[1]))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _int_vector(text):
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bbcells",
        description="Exact limit-cell computations for torus actions "
        "and the Hilbert scheme of points on the plane.",
    )
    sub = parser.add_subparsers(dest="group", required=True)

    monoid = sub.add_parser("monoid", help="affine semigroup analysis")
    monoid_sub = monoid.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("analyze", "facets, units, zero criterion, Kempf vector"),
        ("reduce", "project away the unit lattice"),
    ):
        p = monoid_sub.add_parser(name, help=help_text)
        p.add_argument("-i", "--input", required=True, help="monoid JSON file")
        p.add_argument("--json", action="store_true")

    alg = sub.add_parser("algebra", help="graded presentation operations")
    alg_sub = alg.add_subparsers(dest="command", required=True)
    for name, help_text, needs_monoid in (
        ("bbplus", "presentation of the limit subscheme", True),
        ("fixed", "presentation of the fixed locus", False),
        ("check", "open-immersion criterion at the origin", True),
        ("truncate", "graded dimensions of a truncation", True),
        ("stabilize", "dimension sequence in one weight", True),
        ("algebraize", "compare truncations with the full algebra", True),
    ):
        p = alg_sub.add_parser(name, help=help_text)
        p.add_argument("-i", "--input", required=True, help="input JSON file")
        if needs_monoid:
            p.add_argument("-m", "--monoid", required=True, help="monoid JSON file")
        p.add_argument("--json", action="store_true")
        if name in ("truncate", "stabilize"):
            p.add_argument("-n", type=int, required=True, help="truncation level")
        if name == "stabilize":
            p.add_argument("-w", type=_int_vector, required=True, help="weight a,b,...")
        if name == "algebraize":
            p.add_argument("--bound", type=int, required=True, help="Kempf degree bound")

    hb = sub.add_parser("hilb", help="Hilbert scheme of points on the plane")
    hb_sub = hb.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("fixed-points", "partitions indexing monomial ideals"),
        ("tangent", "bigraded tangent characters at every fixed point"),
        ("cells", "cell dimensions for a weight vector"),
        ("intersect", "cell-intersection dimensions for two weight vectors"),
        ("poincare", "cell-dimension histogram"),
    ):
        p = hb_sub.add_parser(name, help=help_text)
        p.add_argument("-d", type=int, required=True, help="number of points")
        if name in ("cells", "intersect", "poincare"):
            p.add_argument(
                "-w",
                action="append",
                type=_weight_pair,
                help="weight vector a,b (repeat for intersections); "
                "defaults to the certified-generic 1,d+1",
            )
        p.add_argument("--json", action="store_true")

    return parser


def _emit(args, payload, table_lines):
    if args.json:
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    else:
        sys.stdout.write("\n".join(table_lines) + "\n")


def _cmd_monoid_analyze(args):
    monoid = load_monoid(args.input)
    zero = lattice.has_zero(monoid)
    kempf = lattice.kempf_vector(monoid).w if zero else None
    payload = monoid_payload(monoid)
    payload["units"] = [_vec(v) for v in lattice.units(monoid)]
    payload["has_zero"] = zero
    payload["kempf_vector"] = _vec(kempf) if kempf is not None else None
    lines = [
        f"rank:          {monoid.rank}",
        f"facet normals: {list(map(list, monoid.facet_normals))}",
        f"unit lattice:  {list(map(list, monoid.lineality_basis))}",
        f"has zero:      {zero}",
        f"kempf vector:  {list(kempf) if kempf is not None else '-'}",
    ]
    _emit(args, payload, lines)


def _cmd_monoid_reduce(args):
    monoid = load_monoid(args.input)
    proj = lattice.reduce_to_zero(monoid)
    payload = {
        "source_rank": _s(proj.source_rank),
        "target_rank": _s(proj.target_rank),
        "matrix": [_vec(row) for row in proj.matrix],
        "image_monoid": monoid_payload(proj.image_monoid),
    }
    lines = [
        f"projection:   {list(map(list, proj.matrix))}",
        f"target rank:  {proj.target_rank}",
        f"image gens:   {list(map(list, proj.image_monoid.generators))}",
    ]
    _emit(args, payload, lines)


def _cmd_algebra_bbplus(args):
    pres = load_presentation(args.input)
    monoid = load_monoid(args.monoid)
    out = algebra.bb_plus(pres, monoid)
    payload = presentation_payload(out)
    lines = _presentation_lines(out)
    _emit(args, payload, lines)


def _cmd_algebra_fixed(args):
    out = algebra.fixed_locus(load_presentation(args.input))
    _emit(args, presentation_payload(out), _presentation_lines(out))


def _presentation_lines(pres):
    w = pres.weighting
    lines = ["variables:"]
    for name, weight in w.variables:
        lines.append(f"  {name}  weight {list(weight)}")
    lines.append("relations:")
    if not pres.relations:
        lines.append("  (none)")
    for rel in pres.relations:
        lines.append(f"  {polyparse.print_polynomial(rel, w.names)}")
    return lines


def _cmd_algebra_check(args):
    pres = load_presentation(args.input)
    monoid = load_monoid(args.monoid)
    ok = algebra.open_immersion_check(pres, monoid)
    outsiders = algebra.outsider_variables(pres, monoid)
    payload = {"open_immersion": ok, "outsider_variables": outsiders}
    lines = [
        f"open immersion at the origin: {ok}",
        f"outsider variables:           {outsiders or '-'}",
    ]
    _emit(args, payload, lines)


def _cmd_algebra_truncate(args):
    quotient = load_quotient(args.input)
    monoid = load_monoid(args.monoid)
    dims = algebra.truncate(quotient, monoid, args.n)
    rows = [
        {"weight": _vec(w), "dimension": _s(dim)} for w, dim in sorted(dims.items())
    ]
    payload = {"level": _s(args.n), "rows": rows}
    lines = [f"truncation level {args.n}", "weight -> dimension"]
    lines += [f"  {list(w)} -> {dim}" for w, dim in sorted(dims.items())]
    _emit(args, payload, lines)


def _cmd_algebra_stabilize(args):
    quotient = load_quotient(args.input)
    monoid = load_monoid(args.monoid)
    report = algebra.stabilization_check(quotient, monoid, args.w, args.n)
    payload = {
        "weight": _vec(report.weight),
        "n_lambda": _s(report.n_lambda),
        "dimensions": [_s(d) for d in report.dimensions],
        "stable": report.stable,
        "limit_dimension": _s(report.limit_dimension),
    }
    lines = [
        f"weight:          {list(report.weight)}",
        f"n_lambda:        {report.n_lambda}",
        f"dimensions:      {list(report.dimensions)}",
        f"stable:          {report.stable}",
        f"limit dimension: {report.limit_dimension}",
    ]
    _emit(args, payload, lines)


def _cmd_algebra_algebraize(args):
    quotient = load_quotient(args.input)
    monoid = load_monoid(args.monoid)
    ok = algebra.algebraize_check(quotient, monoid, args.bound)
    payload = {"bound": _s(args.bound), "algebraizes": ok}
    _emit(args, payload, [f"algebraizes up to Kempf degree {args.bound}: {ok}"])


def _default_weights(args):
    return args.w if args.w else [hilb.default_generic_weight(args.d)]


def _cmd_hilb_fixed_points(args):
    parts = hilb.partitions(args.d)
    payload = {
        "d": _s(args.d),
        "partitions": [_vec(p) for p in parts],
        "count": _s(len(parts)),
    }
    lines = [f"monomial ideals for d = {args.d}: {len(parts)}"]
    lines += [f"  {list(p)}" for p in parts]
    _emit(args, payload, lines)


def _character_entries(character):
    return [
        [_s(w1), _s(w2), _s(mult)] for (w1, w2), mult in sorted(character.items())
    ]


def _cmd_hilb_tangent(args):
    records = []
    lines = [f"tangent characters for d = {args.d}"]
    for partition in hilb.partitions(args.d):
        ideal = hilb.ideal_from_partition(partition)
        character = hilb.tangent_character_linalg(ideal)
        records.append(
            {"partition": _vec(partition), "character": _character_entries(character)}
        )
        lines.append(f"  {list(partition)}: {sorted(character.items())}")
    _emit(args, {"d": _s(args.d), "tangent": records}, lines)


def _cmd_hilb_cells(args):
    w = _default_weights(args)[0]
    cells = []
    lines = [f"cells for d = {args.d}, w = {list(w)}"]
    for partition in hilb.partitions(args.d):
        ideal = hilb.ideal_from_partition(partition)
        dim = hilb.cell_dimension(ideal, w)
        cells.append(
            {
                "partition": _vec(partition),
                "dimension": _s(dim),
                "generic": hilb.is_generic(ideal, w),
            }
        )
        lines.append(f"  {list(partition)}: dim {dim}")
    payload = {"d": _s(args.d), "weight": _vec(w), "cells": cells}
    _emit(args, payload, lines)


def _cmd_hilb_intersect(args):
    weights = args.w or []
    if len(weights) != 2:
        raise DomainError("intersect needs exactly two -w weight vectors")
    w1, w2 = weights
    cells = []
    lines = [f"cell intersections for d = {args.d}, w1 = {list(w1)}, w2 = {list(w2)}"]
    for partition in hilb.partitions(args.d):
        ideal = hilb.ideal_from_partition(partition)
        dim = hilb.intersection_dimension(ideal, w1, w2)
        cells.append({"partition": _vec(partition), "dimension": _s(dim)})
        lines.append(f"  {list(partition)}: dim {dim}")
    payload = {
        "d": _s(args.d),
        "weights": [_vec(w1), _vec(w2)],
        "cells": cells,
    }
    _emit(args, payload, lines)


def _cmd_hilb_poincare(args):
    w = _default_weights(args)[0]
    histogram = hilb.poincare_histogram(args.d, w)
    payload = {
        "d": _s(args.d),
        "weight": _vec(w),
        "histogram": [
            {"dimension": _s(dim), "count": _s(n)} for dim, n in histogram.items()
        ],
    }
    lines = [f"cell-dimension histogram for d = {args.d}, w = {list(w)}"]
    lines += [f"  dim {dim}: {n} cell(s)" for dim, n in histogram.items()]
    _emit(args, payload, lines)


_COMMANDS = {
    ("monoid", "analyze"): _cmd_monoid_analyze,
    ("monoid", "reduce"): _cmd_monoid_reduce,
    ("algebra", "bbplus"): _cmd_algebra_bbplus,
    ("algebra", "fixed"): _cmd_algebra_fixed,
    ("algebra", "check"): _cmd_algebra_check,
    ("algebra", "truncate"): _cmd_algebra_truncate,
    ("algebra", "stabilize"): _cmd_algebra_stabilize,
    ("algebra", "algebraize"): _cmd_algebra_algebraize,
    ("hilb", "fixed-points"): _cmd_hilb_fixed_points,
    ("hilb", "tangent"): _cmd_hilb_tangent,
    ("hilb", "cells"): _cmd_hilb_cells,
    ("hilb", "intersect"): _cmd_hilb_intersect,
    ("hilb", "poincare"): _cmd_hilb_poincare,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = _COMMANDS[(args.group, args.command)]
    try:
        handler(args)
    except DomainError as exc:
        sys.stderr.write(f"error[{exc.code}]: {exc}\n")
        return 1
    except FileNotFoundError as exc:
        sys.stderr.write(f"error[missing-file]: {exc}\n")
        return 1
    except (KeyError, ValueError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error[bad-input]: {exc}\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
