"""Command-line surface: `bbcells <group> <command>`, one entry per
subcommand in the command table `_TABLE`.

A handler checks its input, so an error leaves stdout empty, and returns an
object; `_walk` alone writes it, each record as it is computed.  Every int
that is not a bool prints as a decimal, quoted in JSON, so arbitrary-
precision values survive any JSON reader.  `--json` gives the bytes of
json.dumps(indent=2).  Text is one `key: value` line per field; a field's
object, or each object of a table, goes on its own line below, indented by
two spaces.  Deeper values are inline: lists in brackets, objects as
comma-joined `key: value` fields, strings bare unless they read as true,
false or null.  A list, tuple or iterator whose first item is an object is
a table, all of whose items are objects.  Identical inputs give identical
bytes.  Exit codes: 0 success, 1 domain error, 2 usage error.
"""

import argparse
import json
import os
import re
import sys
from itertools import chain

from . import algebra, hilb, lattice, polyparse
from .errors import DomainError

_DECIMAL = re.compile(r"-?[0-9]+")
_END = object()  # the end of an iterator, as next() reports it
_FIELDS = "__dataclass_fields__"  # the class attribute that marks a dataclass


def _walk(value, write, as_json, depth=0):
    """Write a handler's object, a dataclass as the object of its fields,
    through `write` in the module docstring's form, each item as it comes."""
    if hasattr(value, _FIELDS):
        value = vars(value)
    keyed = isinstance(value, dict)
    items = iter(value.items() if keyed else value)
    first = next(items, _END)
    if not as_json and depth == 1:  # a field of the top object, after `key:`
        if keyed or isinstance(first, dict) or hasattr(first, _FIELDS):  # a table
            for row in [value] if keyed else chain([first], items):
                write("\n  ")
                _walk(row, write, False, 2)
            return
        write(" ")
    if as_json:
        opening, between, closing = "{,}" if keyed else "[,]"
        pad = "\n" + "  " * (depth + 1)
    else:
        opening, closing = ("", "") if keyed else "[]"
        between, pad = ", " if depth else "\n", ""
    if first is _END:
        write(opening + closing)
        return
    sep = opening + pad
    for v in chain([first], items):
        key = ""
        if keyed:
            k, v = v
            key = (json.dumps(k) if as_json else k) + ": "
        t = type(v)
        if t is int:
            write(f'{sep}{key}"{v}"' if as_json else f"{sep}{key}{v}")
        elif t is str:
            quoted = as_json or v in ("true", "false", "null")
            write(sep + key + (json.dumps(v) if quoted else v))
        elif t is bool or v is None:
            write(sep + key + ("null" if v is None else "true" if v else "false"))
        else:  # a field of the top text object writes its own lead after `key:`
            write(sep + (key if as_json or depth else key[:-1]))
            _walk(v, write, as_json, depth + 1)
        sep = between + pad
    write(pad[:-2] + closing)


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


def _unique_keys(pairs):
    """The object of a JSON document's (key, value) pairs; a key given twice
    is an error, not a silent overwrite."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def _load_json(path):
    with open(path) as fh:
        try:
            doc = json.load(fh, parse_int=_decimal, object_pairs_hook=_unique_keys)
        except RecursionError:
            raise ValueError(f"{path}: JSON document is nested too deeply") from None
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
    variables = tuple(
        (var["name"], _parse_int_vector(var["weight"]))
        for var in _parse_list(doc["variables"], "variable objects", dict)
    )
    return algebra.VariableWeighting(torus_rank=rank, variables=variables)


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
    "input": (("-i", "--input"), dict(required=True, help="input JSON file")),
    "monoid": (("-m", "--monoid"), dict(required=True, help="monoid JSON file")),
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
# takes the parsed arguments and returns an object for _walk
_TABLE = {}


def _command(group, name, help_text, *options):
    def register(handler):
        _TABLE[group, name] = (help_text, options, handler)
        return handler

    return register


@_command("monoid", "analyze", "facets, units, zero criterion, Kempf vector", "input")
def _monoid_analyze(args):
    monoid = load_monoid(args.input)
    zero = lattice.has_zero(monoid)
    kempf = lattice.kempf_vector(monoid).w if zero else None
    return dict(vars(monoid), units=lattice.units(monoid), has_zero=zero,
                kempf_vector=kempf)


@_command("monoid", "reduce", "project away the unit lattice", "input")
def _monoid_reduce(args):
    return lattice.reduce_to_zero(load_monoid(args.input))


def _presentation(pres):
    weighting = pres.weighting
    return {
        "torus_rank": weighting.torus_rank,
        "variables": [{"name": name, "weight": w} for name, w in weighting.variables],
        "relations": [polyparse.print_polynomial(r, weighting.names)
                      for r in pres.relations],
    }


@_command("algebra", "bbplus", "presentation of the limit subscheme",
          "input", "monoid")
def _algebra_bbplus(args):
    pres = load_presentation(args.input)
    return _presentation(algebra.bb_plus(pres, load_monoid(args.monoid)))


@_command("algebra", "fixed", "presentation of the fixed locus", "input")
def _algebra_fixed(args):
    return _presentation(algebra.fixed_locus(load_presentation(args.input)))


@_command("algebra", "check", "open-immersion criterion at the origin",
          "input", "monoid")
def _algebra_check(args):
    pres = load_presentation(args.input)
    monoid = load_monoid(args.monoid)
    return {"open_immersion": algebra.open_immersion_check(pres, monoid),
            "outsider_variables": algebra.outsider_variables(pres, monoid)}


@_command("algebra", "truncate", "graded dimensions of a truncation",
          "input", "monoid", "n")
def _algebra_truncate(args):
    quotient = load_quotient(args.input)
    monoid = load_monoid(args.monoid)
    dims = sorted(algebra.truncate(quotient, monoid, args.n).items())
    return {"level": args.n, "rows": [{"weight": w, "dimension": dim} for w, dim in dims]}


@_command("algebra", "stabilize", "dimension sequence in one weight",
          "input", "monoid", "n", "weight")
def _algebra_stabilize(args):
    quotient = load_quotient(args.input)
    monoid = load_monoid(args.monoid)
    return algebra.stabilization_check(quotient, monoid, args.w, args.n)


@_command("algebra", "algebraize", "compare truncations with the full algebra",
          "input", "monoid", "bound")
def _algebra_algebraize(args):
    quotient = load_quotient(args.input)
    monoid = load_monoid(args.monoid)
    return {"bound": args.bound,
            "algebraizes": algebra.algebraize_check(quotient, monoid, args.bound)}


@_command("hilb", "fixed-points", "partitions indexing monomial ideals", "d")
def _hilb_fixed_points(args):
    return {"d": args.d, "partitions": hilb.require_generic(args.d),
            "count": sum(hilb.poincare_histogram(args.d, (1, -1)).values())}


def _per_fixed_point(d, field, compute, *flows, **extra):
    """One record {partition, field: compute(ideal, *flows), **extra} per
    fixed point, in `hilb fixed-points` order, each computed as it is read.
    d and every flow are checked first, so no record raises."""
    return ({"partition": p, field: compute(hilb.ideal_from_partition(p), *flows), **extra}
            for p in hilb.require_generic(d, *flows))  # called here, not when read


def _character(ideal):
    """The arm/leg tangent character as sorted [w1, w2, multiplicity] rows."""
    entries = sorted(hilb.tangent_character_armleg(ideal).items())
    return [[w1, w2, mult] for (w1, w2), mult in entries]


@_command("hilb", "tangent", "bigraded tangent characters at every fixed point", "d")
def _hilb_tangent(args):
    return {"d": args.d, "tangent": _per_fixed_point(args.d, "character", _character)}


def _one_weight(args):
    """The -w flow of a command that takes at most one; (1, d+1) by default."""
    if len(args.w or []) > 1:
        raise DomainError(f"{args.command} takes at most one -w weight vector")
    return args.w[0] if args.w else hilb.default_generic_weight(args.d)


@_command("hilb", "cells", "cell dimensions for a weight vector", "d", "flows")
def _hilb_cells(args):
    w = _one_weight(args)
    # a weight that is not generic raises first: "generic" is always true
    cells = _per_fixed_point(args.d, "dimension", hilb.cell_dimension, w, generic=True)
    return {"d": args.d, "weight": w, "cells": cells}


@_command("hilb", "intersect", "cell-intersection dimensions for two weight vectors",
          "d", "flows")
def _hilb_intersect(args):
    if len(args.w or []) != 2:
        raise DomainError(f"{args.command} needs exactly two -w weight vectors")
    w1, w2 = args.w
    cells = _per_fixed_point(args.d, "dimension", hilb.intersection_dimension, w1, w2)
    return {"d": args.d, "weights": [w1, w2], "cells": cells}


@_command("hilb", "poincare", "cell-dimension histogram", "d", "flows")
def _hilb_poincare(args):
    w = _one_weight(args)
    histogram = hilb.poincare_histogram(args.d, w).items()
    rows = [{"dimension": dim, "count": n} for dim, n in histogram]
    return {"d": args.d, "weight": w, "histogram": rows}


def build_parser():
    """The argparse tree of the command table, flags in table order, then
    --json on every command."""
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
        p.add_argument("--json", action="store_true", help="print the value as JSON")
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
            _walk(handler(args), sys.stdout.write, args.json)
            sys.stdout.write("\n")
            sys.stdout.flush()  # inside the try: a closed pipe raises here
            return 0
        except DomainError as exc:
            code, message = exc.code, exc
        except FileNotFoundError as exc:
            code, message = "missing-file", exc
        except KeyError as exc:  # str() of a KeyError is the repr of the key
            code, message = "bad-input", f"missing key {exc}"
        except BrokenPipeError as exc:
            # the rest, and the flush at exit, go to devnull (see `signal` docs)
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            code, message = "broken-pipe", exc
        except (OSError, ValueError) as exc:
            code, message = "bad-input", exc
        sys.stderr.write(f"error[{code}]: {message}\n")
        return 1
    finally:
        sys.set_int_max_str_digits(limit)
