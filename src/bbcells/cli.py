"""Command-line surface: `bbcells <group> <command>`, one entry per
subcommand in the command table `_TABLE`.

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


def _decimal(text):
    """int() of a _DECIMAL string: the one digit cap on every integer read."""
    if len(text.lstrip("-")) > polyparse.MAX_DIGITS:
        raise ValueError(f"integer has more than {polyparse.MAX_DIGITS} digits")
    return int(text)


def _parse_int(raw):
    """A JSON integer (not a boolean) or a decimal-integer string."""
    if isinstance(raw, int) and not isinstance(raw, bool):
        return raw
    if isinstance(raw, str) and _DECIMAL.fullmatch(raw):
        return _decimal(raw)
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
        doc = json.load(fh, parse_int=_decimal)
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
    relations = tuple(
        polyparse.parse_polynomial(src, weighting.names)
        for src in _parse_list(doc.get("relations", []), "polynomial strings", str)
    )
    return algebra.GradedPresentation(weighting=weighting, relations=relations)


def load_quotient(path):
    doc = _load_json(path)
    weighting = load_weighting(doc)
    gens = []
    for src in _parse_list(doc.get("monomial_generators", []), "monomials", str):
        poly = polyparse.parse_polynomial(src, weighting.names)
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


def _flag_ints(count=None):
    """argparse type for comma-separated plain decimal integers, the rule
    _parse_int applies to JSON strings: exactly `count` of them if given, as
    a tuple, or as one int when count is 1."""
    shape = {1: "a decimal integer", 2: "two comma-separated integers"}

    def parse(text):
        parts = text.split(",")
        if count not in (None, len(parts)) or not all(map(_DECIMAL.fullmatch, parts)):
            raise argparse.ArgumentTypeError(
                f"expected {shape.get(count, 'comma-separated integers')}"
            )
        try:
            values = tuple(map(_decimal, parts))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(exc) from None
        return values[0] if count == 1 else values

    return parse


_INT = _flag_ints(1)

# argparse flags, keyed by the names the command table uses
_OPTIONS = {
    "monoid-input": (("-i", "--input"), dict(required=True, help="monoid JSON file")),
    "input": (("-i", "--input"), dict(required=True, help="input JSON file")),
    "monoid": (("-m", "--monoid"), dict(required=True, help="monoid JSON file")),
    "json": (("--json",), dict(action="store_true")),
    "n": (("-n",), dict(type=_INT, required=True, help="truncation level")),
    "weight": (("-w",), dict(type=_flag_ints(), required=True, help="weight a,b,...")),
    "bound": (("--bound",), dict(type=_INT, required=True, help="Kempf degree bound")),
    "d": (("-d",), dict(type=_INT, required=True, help="number of points")),
    "flows": (
        ("-w",),
        dict(
            action="append",
            type=_flag_ints(2),
            help="weight vector a,b (repeat for intersections); "
            "defaults to the certified-generic 1,d+1",
        ),
    ),
}

_GROUPS = {
    "monoid": "affine semigroup analysis",
    "algebra": "graded presentation operations",
    "hilb": "Hilbert scheme of points on the plane",
}

# (group, command) -> (help text, option keys in order, handler); a handler
# takes the parsed arguments and returns (JSON payload, text-table lines)
_TABLE = {}


def _command(group, name, help_text, *options):
    def register(handler):
        _TABLE[group, name] = (help_text, options, handler)
        return handler

    return register


@_command("monoid", "analyze", "facets, units, zero criterion, Kempf vector",
          "monoid-input", "json")
def _monoid_analyze(args):
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
    return payload, lines


@_command("monoid", "reduce", "project away the unit lattice", "monoid-input", "json")
def _monoid_reduce(args):
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
    return payload, lines


def _presentation_output(pres):
    payload = presentation_payload(pres)
    variables = pres.weighting.variables
    lines = ["variables:"] + [f"  {name}  weight {list(w)}" for name, w in variables]
    lines += ["relations:"] + [f"  {rel}" for rel in payload["relations"] or ["(none)"]]
    return payload, lines


@_command("algebra", "bbplus", "presentation of the limit subscheme",
          "input", "monoid", "json")
def _algebra_bbplus(args):
    pres = load_presentation(args.input)
    return _presentation_output(algebra.bb_plus(pres, load_monoid(args.monoid)))


@_command("algebra", "fixed", "presentation of the fixed locus", "input", "json")
def _algebra_fixed(args):
    return _presentation_output(algebra.fixed_locus(load_presentation(args.input)))


@_command("algebra", "check", "open-immersion criterion at the origin",
          "input", "monoid", "json")
def _algebra_check(args):
    pres = load_presentation(args.input)
    monoid = load_monoid(args.monoid)
    ok = algebra.open_immersion_check(pres, monoid)
    outsiders = algebra.outsider_variables(pres, monoid)
    payload = {"open_immersion": ok, "outsider_variables": outsiders}
    lines = [
        f"open immersion at the origin: {ok}",
        f"outsider variables:           {outsiders or '-'}",
    ]
    return payload, lines


@_command("algebra", "truncate", "graded dimensions of a truncation",
          "input", "monoid", "json", "n")
def _algebra_truncate(args):
    quotient = load_quotient(args.input)
    monoid = load_monoid(args.monoid)
    dims = sorted(algebra.truncate(quotient, monoid, args.n).items())
    rows = [{"weight": _vec(w), "dimension": _s(dim)} for w, dim in dims]
    payload = {"level": _s(args.n), "rows": rows}
    lines = [f"truncation level {args.n}", "weight -> dimension"]
    lines += [f"  {list(w)} -> {dim}" for w, dim in dims]
    return payload, lines


@_command("algebra", "stabilize", "dimension sequence in one weight",
          "input", "monoid", "json", "n", "weight")
def _algebra_stabilize(args):
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
    return payload, lines


@_command("algebra", "algebraize", "compare truncations with the full algebra",
          "input", "monoid", "json", "bound")
def _algebra_algebraize(args):
    quotient = load_quotient(args.input)
    monoid = load_monoid(args.monoid)
    ok = algebra.algebraize_check(quotient, monoid, args.bound)
    payload = {"bound": _s(args.bound), "algebraizes": ok}
    return payload, [f"algebraizes up to Kempf degree {args.bound}: {ok}"]


@_command("hilb", "fixed-points", "partitions indexing monomial ideals", "d", "json")
def _hilb_fixed_points(args):
    parts = hilb.partitions(args.d)
    payload = {
        "d": _s(args.d),
        "partitions": [_vec(p) for p in parts],
        "count": _s(len(parts)),
    }
    lines = [f"monomial ideals for d = {args.d}: {len(parts)}"]
    lines += [f"  {list(p)}" for p in parts]
    return payload, lines


@_command("hilb", "tangent", "bigraded tangent characters at every fixed point",
          "d", "json")
def _hilb_tangent(args):
    records = []
    lines = [f"tangent characters for d = {args.d}"]
    for partition in hilb.partitions(args.d):
        ideal = hilb.ideal_from_partition(partition)
        entries = sorted(hilb.tangent_character_linalg(ideal).items())
        character = [[_s(w1), _s(w2), _s(mult)] for (w1, w2), mult in entries]
        records.append({"partition": _vec(partition), "character": character})
        lines.append(f"  {list(partition)}: {entries}")
    return {"d": _s(args.d), "tangent": records}, lines


def _cell_rows(d, dimension, *flows, **extra):
    """JSON records and table lines of dimension(ideal, *flows) per fixed point."""
    cells, lines = [], []
    for partition in hilb.partitions(d):
        dim = dimension(hilb.ideal_from_partition(partition), *flows)
        cells.append({"partition": _vec(partition), "dimension": _s(dim), **extra})
        lines.append(f"  {list(partition)}: dim {dim}")
    return cells, lines


def _one_weight(args):
    """The -w flow of a command that takes at most one; (1, d+1) by default."""
    if len(args.w or []) > 1:
        raise DomainError(f"{args.command} takes at most one -w weight vector")
    return args.w[0] if args.w else hilb.default_generic_weight(args.d)


@_command("hilb", "cells", "cell dimensions for a weight vector", "d", "flows", "json")
def _hilb_cells(args):
    w = _one_weight(args)
    # cell_dimension rejects weights that are not generic: "generic" is always true
    cells, lines = _cell_rows(args.d, hilb.cell_dimension, w, generic=True)
    payload = {"d": _s(args.d), "weight": _vec(w), "cells": cells}
    return payload, [f"cells for d = {args.d}, w = {list(w)}"] + lines


@_command("hilb", "intersect", "cell-intersection dimensions for two weight vectors",
          "d", "flows", "json")
def _hilb_intersect(args):
    if len(args.w or []) != 2:
        raise DomainError(f"{args.command} needs exactly two -w weight vectors")
    w1, w2 = args.w
    cells, lines = _cell_rows(args.d, hilb.intersection_dimension, w1, w2)
    payload = {"d": _s(args.d), "weights": [_vec(w1), _vec(w2)], "cells": cells}
    title = f"cell intersections for d = {args.d}, w1 = {list(w1)}, w2 = {list(w2)}"
    return payload, [title] + lines


@_command("hilb", "poincare", "cell-dimension histogram", "d", "flows", "json")
def _hilb_poincare(args):
    w = _one_weight(args)
    histogram = hilb.poincare_histogram(args.d, w).items()
    rows = [{"dimension": _s(dim), "count": _s(n)} for dim, n in histogram]
    payload = {"d": _s(args.d), "weight": _vec(w), "histogram": rows}
    lines = [f"cell-dimension histogram for d = {args.d}, w = {list(w)}"]
    lines += [f"  dim {dim}: {n} cell(s)" for dim, n in histogram]
    return payload, lines


def build_parser():
    """The argparse tree of the command table, flags in table order."""
    parser = argparse.ArgumentParser(
        prog="bbcells",
        description="Exact limit-cell computations for torus actions "
        "and the Hilbert scheme of points on the plane.",
    )
    groups = parser.add_subparsers(dest="group", required=True)
    commands = {}
    for (group, name), (help_text, options, _) in _TABLE.items():
        if group not in commands:
            sub = groups.add_parser(group, help=_GROUPS[group])
            commands[group] = sub.add_subparsers(dest="command", required=True)
        p = commands[group].add_parser(name, help=help_text)
        for key in options:
            flags, spec = _OPTIONS[key]
            p.add_argument(*flags, **spec)
    return parser


# built once per process: parsing leaves no state on the parser
PARSER = build_parser()


def main(argv=None):
    # every integer read is capped at MAX_DIGITS digits, so the interpreter's
    # limit on int/str conversion is lifted: computed integers print in full
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        args = PARSER.parse_args(argv)
        handler = _TABLE[args.group, args.command][2]
        try:
            payload, lines = handler(args)
        except DomainError as exc:
            sys.stderr.write(f"error[{exc.code}]: {exc}\n")
            return 1
        except FileNotFoundError as exc:
            sys.stderr.write(f"error[missing-file]: {exc}\n")
            return 1
        except (OSError, KeyError, ValueError) as exc:
            sys.stderr.write(f"error[bad-input]: {exc}\n")
            return 1
        text = json.dumps(payload, indent=2) if args.json else "\n".join(lines)
        sys.stdout.write(text + "\n")
        return 0
    finally:
        sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
