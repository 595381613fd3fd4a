import ast
import json
import os
import subprocess
import sys
from contextlib import contextmanager
from fractions import Fraction

import pytest

from bbcells import algebra, cli, lattice
from bbcells.cli import main

HERE = os.path.dirname(__file__)
DATA = os.path.join(HERE, "data")
GOLDEN = os.path.join(HERE, "golden")


def data(name):
    return os.path.join(DATA, name)


GOLDEN_CASES = [
    ("monoid_analyze", ["monoid", "analyze", "-i", data("monoid_n.json"), "--json"]),
    (
        "monoid_analyze_halfplane",
        ["monoid", "analyze", "-i", data("monoid_halfplane.json"), "--json"],
    ),
    (
        "monoid_reduce",
        ["monoid", "reduce", "-i", data("monoid_halfplane.json"), "--json"],
    ),
    (
        "algebra_bbplus_node",
        ["algebra", "bbplus", "-i", data("pres_node.json"),
         "-m", data("monoid_n.json"), "--json"],
    ),
    (
        "algebra_bbplus_quadric",
        ["algebra", "bbplus", "-i", data("pres_quadric.json"),
         "-m", data("monoid_n.json"), "--json"],
    ),
    (
        "algebra_fixed_quadric",
        ["algebra", "fixed", "-i", data("pres_quadric.json"), "--json"],
    ),
    (
        "algebra_check_cusp",
        ["algebra", "check", "-i", data("pres_cusp.json"),
         "-m", data("monoid_n.json"), "--json"],
    ),
    (
        "algebra_truncate",
        ["algebra", "truncate", "-i", data("quot_free12.json"),
         "-m", data("monoid_n.json"), "-n", "3", "--json"],
    ),
    (
        "algebra_stabilize",
        ["algebra", "stabilize", "-i", data("quot_free12.json"),
         "-m", data("monoid_n.json"), "-w", "3", "-n", "4", "--json"],
    ),
    (
        "algebra_algebraize",
        ["algebra", "algebraize", "-i", data("quot_free12.json"),
         "-m", data("monoid_n.json"), "--bound", "6", "--json"],
    ),
    ("hilb_fixed_points", ["hilb", "fixed-points", "-d", "3", "--json"]),
    ("hilb_tangent", ["hilb", "tangent", "-d", "2", "--json"]),
    ("hilb_cells", ["hilb", "cells", "-d", "2", "-w", "1,3", "--json"]),
    (
        "hilb_intersect",
        ["hilb", "intersect", "-d", "2", "-w", "1,3", "-w", "3,1", "--json"],
    ),
    ("hilb_poincare", ["hilb", "poincare", "-d", "3", "-w", "1,4", "--json"]),
]


@pytest.mark.parametrize("name,argv", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_golden_output(name, argv, capsys):
    assert main(argv) == 0
    out = capsys.readouterr().out
    with open(os.path.join(GOLDEN, name + ".json")) as fh:
        assert out == fh.read()


@pytest.mark.parametrize("name,argv", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_output_is_deterministic(name, argv, capsys):
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first


@pytest.mark.parametrize("name,argv", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_json_integers_are_decimal_strings(name, argv, capsys):
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)

    def walk(node):
        if isinstance(node, dict):
            for v in node.values():
                walk(v)
        elif isinstance(node, list):
            for v in node:
                walk(v)
        else:
            assert not isinstance(node, (int, float)) or isinstance(node, bool)

    walk(payload)


class TestHumanOutput:
    def test_monoid_table(self, capsys):
        assert main(["monoid", "analyze", "-i", data("monoid_n.json")]) == 0
        out = capsys.readouterr().out
        assert "has zero:      True" in out
        assert "kempf vector:  [1]" in out

    def test_cells_table(self, capsys):
        assert main(["hilb", "cells", "-d", "2", "-w", "1,3"]) == 0
        out = capsys.readouterr().out
        assert "[2]: dim 4" in out
        assert "[1, 1]: dim 3" in out


class TestErrorPaths:
    def test_monoid_with_units_is_domain_error(self, capsys):
        rc = main(
            ["algebra", "bbplus", "-i", data("pres_node.json"),
             "-m", data("monoid_halfplane.json")]
        )
        err = capsys.readouterr().err
        assert rc == 1
        # rank mismatch between presentation and monoid surfaces first
        assert err.startswith("error[")

    def test_missing_file(self, capsys):
        rc = main(["monoid", "analyze", "-i", "no-such-file.json"])
        assert rc == 1
        assert "error[missing-file]" in capsys.readouterr().err

    def test_non_generic_weight(self, capsys):
        rc = main(["hilb", "poincare", "-d", "2", "-w", "1,1"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error[non-generic-weight]" in err
        assert "(2,)" in err

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            main(["hilb", "cells"])
        assert exc.value.code == 2

    def test_intersect_needs_two_weights(self, capsys):
        rc = main(["hilb", "intersect", "-d", "2", "-w", "1,3"])
        assert rc == 1
        assert "error[" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["cells", "poincare"])
    def test_non_generic_weight_in_both_modes(self, command, capsys):
        for mode in ([], ["--json"]):
            assert main(["hilb", command, "-d", "2", "-w", "1,1"] + mode) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error[non-generic-weight]: ")

    @pytest.mark.parametrize("flows", [["1,1", "1,3"], ["1,3", "1,1"]])
    def test_intersect_rejects_non_generic_weight(self, flows, capsys):
        argv = ["hilb", "intersect", "-d", "2", "-w", flows[0], "-w", flows[1]]
        for mode in ([], ["--json"]):
            assert main(argv + mode) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                "error[non-generic-weight]: weight (1, 1) pairs to zero with "
                "tangent weight (-1, 1) at partition (2,)\n"
            )

    @pytest.mark.parametrize("command", ["cells", "poincare"])
    def test_at_most_one_weight(self, command, capsys):
        assert main(["hilb", command, "-d", "2", "-w", "1,3", "-w", "1,1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error[domain-error]: {command} takes at most one -w weight vector\n"
        )

    def test_directory_as_input_is_bad_input(self, tmp_path, capsys):
        assert main(["monoid", "analyze", "-i", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error[bad-input]: ")
        assert str(tmp_path) in captured.err


QUOT_ARGS = ["-i", data("quot_free12.json"), "-m", data("monoid_n.json")]
# each integer flag, with the slot its value goes into
INTEGER_FLAGS = {
    "d": lambda x: ["hilb", "cells", "-d", x],
    "w_entry": lambda x: ["hilb", "cells", "-d", "2", "-w", f"1,{x}"],
    "n": lambda x: ["algebra", "truncate", *QUOT_ARGS, "-n", x],
    "stabilize_w": lambda x: ["algebra", "stabilize", *QUOT_ARGS, "-w", x, "-n", "4"],
    "bound": lambda x: ["algebra", "algebraize", *QUOT_ARGS, "--bound", x],
}


@pytest.mark.parametrize("flag", sorted(INTEGER_FLAGS))
@pytest.mark.parametrize("value", ["1_0", "+3", " 3", "\uff13", "1.0"])
def test_integer_flags_are_plain_decimals(flag, value, capsys):
    with pytest.raises(SystemExit) as exc:
        main(INTEGER_FLAGS[flag](value))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: argument " in captured.err


@pytest.mark.parametrize("flag", sorted(INTEGER_FLAGS))
def test_integer_flags_have_a_digit_limit(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(INTEGER_FLAGS[flag]("1" * 5000))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    # the project's message, without an echo of the 5000 digits
    assert captured.err.endswith("integer has more than 4300 digits\n")
    assert len(captured.err) < 500


def test_module_entry_point_matches_golden():
    root = os.path.dirname(HERE)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    argv = ["monoid", "analyze", "-i", data("monoid_n.json"), "--json"]
    proc = subprocess.run(
        [sys.executable, "-m", "bbcells", *argv],
        cwd=root, env=env, capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    with open(os.path.join(GOLDEN, "monoid_analyze.json")) as fh:
        assert proc.stdout == fh.read()


def test_parser_keeps_no_state_between_calls(monkeypatch, capsys):
    # main reuses the parser built at import; it must not build another
    monkeypatch.setattr(cli, "build_parser", None)
    assert main(["hilb", "intersect", "-d", "2", "-w", "1,3", "-w", "3,1"]) == 0
    capsys.readouterr()
    # no -w: the default (1, 4) for d = 3, not a weight left from the last call
    assert main(["hilb", "poincare", "-d", "3", "--json"]) == 0
    with open(os.path.join(GOLDEN, "hilb_poincare.json")) as fh:
        assert capsys.readouterr().out == fh.read()


MONOID_GOOD = {"rank": 1, "generators": [[1]]}
FIXED_GOOD = {"torus_rank": 1, "variables": [{"name": "x", "weight": [1]}]}

# (command, document) pairs that must end in error[bad-input], exit code 1
REJECTED = {
    "top_level_array": ("monoid", [1, 2]),
    "top_level_number": ("monoid", 3),
    "top_level_string": ("algebra", "x"),
    "float_in_generator": ("monoid", {"rank": 1, "generators": [[1.9]]}),
    "integral_float_in_generator": ("monoid", {"rank": 1, "generators": [[1.0]]}),
    "bool_in_generator": ("monoid", {"rank": 1, "generators": [[True]]}),
    "null_in_generator": ("monoid", {"rank": 1, "generators": [[None]]}),
    "string_as_generator": ("monoid", {"rank": 2, "generators": ["12"]}),
    "float_rank": ("monoid", {"rank": 1.0, "generators": [[1]]}),
    "bool_rank": ("monoid", {"rank": True, "generators": [[1]]}),
    "fraction_string": ("monoid", {"rank": 1, "generators": [["1.5"]]}),
    "hex_string": ("monoid", {"rank": 1, "generators": [["0x1"]]}),
    "plus_sign_string": ("monoid", {"rank": "+1", "generators": [[1]]}),
    "padded_string": ("monoid", {"rank": 1, "generators": [[" 1"]]}),
    "underscore_string": ("monoid", {"rank": 1, "generators": [["1_0"]]}),
    "empty_string": ("monoid", {"rank": 1, "generators": [[""]]}),
    "bool_torus_rank": ("algebra", dict(FIXED_GOOD, torus_rank=True)),
    "float_torus_rank": ("algebra", dict(FIXED_GOOD, torus_rank=1.0)),
    "float_in_weight": (
        "algebra", dict(FIXED_GOOD, variables=[{"name": "x", "weight": [0.5]}])
    ),
    "bool_in_weight": (
        "algebra", dict(FIXED_GOOD, variables=[{"name": "x", "weight": [False]}])
    ),
    "number_as_generators": ("monoid", {"rank": 1, "generators": 5}),
    "number_as_variable": ("algebra", {"torus_rank": 1, "variables": [1]}),
    "number_as_variable_name": (
        "algebra", dict(FIXED_GOOD, variables=[{"name": 3, "weight": [1]}])
    ),
    "number_as_relation": ("algebra", dict(FIXED_GOOD, relations=[5])),
    "string_as_relations": ("algebra", dict(FIXED_GOOD, relations="x")),
}


def _run_on_document(tmp_path, group, doc):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    if group == "monoid":
        return main(["monoid", "analyze", "-i", str(path), "--json"])
    return main(["algebra", "fixed", "-i", str(path), "--json"])


# relations that algebra fixed rejects, with the exact stderr it prints
BAD_RELATIONS = {
    "x^2 +": "error[syntax-error]: expected a term (at byte 5)\n",
    "x*w": "error[unknown-variable]: unknown variable 'w' (at byte 2)\n",
    "x^\uff13 - \uff13": "error[syntax-error]: expected a number (at byte 2)\n",
}


@pytest.mark.parametrize("relation", sorted(BAD_RELATIONS))
def test_relation_errors_are_pinned(relation, tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(dict(FIXED_GOOD, relations=[relation])))
    for mode in ([], ["--json"]):
        assert main(["algebra", "fixed", "-i", str(path)] + mode) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", BAD_RELATIONS[relation])


@pytest.mark.parametrize("relation, offset", [
    ("1" * 5000 + "*x", 0),
    ("1/" + "1" * 5000 + "*x", 2),
], ids=["numerator", "denominator"])
def test_long_numbers_are_syntax_errors(relation, offset, tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(dict(FIXED_GOOD, relations=[relation])))
    for mode in ([], ["--json"]):
        assert main(["algebra", "fixed", "-i", str(path)] + mode) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", (
            f"error[syntax-error]: number has more than 4300 digits (at byte {offset})\n"
        ))


@contextmanager
def exact_int_strings():
    """Lift the interpreter's limit on int/str conversion inside the block."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("argv, code", [
    (["hilb", "fixed-points", "-d", "2"], 0),
    (["hilb", "cells", "-d", "2", "-w", "1,1"], 1),
    (["hilb", "cells", "-d", "x"], 2),
])
def test_main_restores_the_conversion_limit(argv, code, capsys):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(5000)
    try:
        try:
            assert main(argv) == code
        except SystemExit as exc:
            assert exc.code == code
        assert sys.get_int_max_str_digits() == 5000
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("digits, code", [(4300, 0), (4301, 1), (5000, 1)])
@pytest.mark.parametrize("form", ["literal", "string"])
def test_json_integers_have_a_digit_limit(form, digits, code, tmp_path, capsys):
    entry = "1" * digits if form == "literal" else f'"{"1" * digits}"'
    path = tmp_path / "input.json"
    path.write_text('{"rank": 1, "generators": [[' + entry + "]]}")
    assert main(["monoid", "analyze", "-i", str(path), "--json"]) == code
    captured = capsys.readouterr()
    if code:
        assert (captured.out, captured.err) == (
            "", "error[bad-input]: integer has more than 4300 digits\n"
        )
    else:
        assert json.loads(captured.out)["generators"] == [["1" * digits]]


def test_long_computed_coefficients_print_exactly(tmp_path, capsys):
    # each number is within the parser's limit; the merged, monic coefficient
    # of y is 7 * (10^4300 - 1) / 16, whose numerator has 4301 digits
    relation = "1/" + "9" * 4300 + "*x + 1/" + "7" * 4300 + "*x + y"
    doc = {"torus_rank": 1, "relations": [relation],
           "variables": [{"name": "x", "weight": [0]}, {"name": "y", "weight": [0]}]}
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    (rel,) = algebra.fixed_locus(cli.load_presentation(str(path))).relations
    with exact_int_strings():
        assert rel.terms[1][0] == Fraction(7 * (10**4300 - 1), 16)
        assert len(str(rel.terms[1][0].numerator)) == 4301
    for mode in ([], ["--json"]):
        assert main(["algebra", "fixed", "-i", str(path)] + mode) == 0
        out = capsys.readouterr().out
        printed = json.loads(out)["relations"][0] if mode else out.split("\n")[-2]
        lead, tail = printed.strip().split(" + ")
        assert lead == "x" and tail.endswith("*y")
        with exact_int_strings():
            assert Fraction(tail[:-2]) == rel.terms[1][0]


def test_long_facet_normals_print_exactly(tmp_path, capsys):
    big = 10**2500 + 1
    gens = [(big, 1, 0), (0, big, 1), (1, 0, big)]
    monoid = lattice.cone_from_generators(gens, 3)
    with exact_int_strings():
        assert max(len(str(x)) for a in monoid.facet_normals for x in a) > 4300
    path = tmp_path / "input.json"
    doc = {"rank": 3, "generators": [list(map(str, g)) for g in gens]}
    path.write_text(json.dumps(doc))
    assert main(["monoid", "analyze", "-i", str(path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert main(["monoid", "analyze", "-i", str(path)]) == 0
    table = dict(line.split(":", 1) for line in capsys.readouterr().out.splitlines())
    with exact_int_strings():
        normals = [tuple(map(int, a)) for a in payload["facet_normals"]]
        assert tuple(normals) == monoid.facet_normals
        assert ast.literal_eval(table["facet normals"].strip()) == list(
            map(list, monoid.facet_normals)
        )
    assert payload["kempf_vector"] == list(map(str, lattice.kempf_vector(monoid).w))


class TestStrictInputs:
    @pytest.mark.parametrize("form", sorted(REJECTED))
    def test_rejected(self, form, tmp_path, capsys):
        group, doc = REJECTED[form]
        assert _run_on_document(tmp_path, group, doc) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error[bad-input]: ")

    def test_decimal_strings_match_integers(self, tmp_path, capsys):
        as_strings = {"rank": "1", "generators": [["1"]]}
        assert _run_on_document(tmp_path, "monoid", as_strings) == 0
        from_strings = capsys.readouterr().out
        assert _run_on_document(tmp_path, "monoid", MONOID_GOOD) == 0
        assert capsys.readouterr().out == from_strings

    def test_negative_decimal_string(self, tmp_path, capsys):
        doc = {"rank": 1, "generators": [["-2"]]}
        assert _run_on_document(tmp_path, "monoid", doc) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["generators"] == [["-2"]]
        assert payload["kempf_vector"] == ["-1"]
