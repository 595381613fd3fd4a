import ast
import io
import json
import os
import subprocess
import sys
import tracemalloc
from contextlib import contextmanager, redirect_stdout
from fractions import Fraction

import pytest
from conftest import (
    random_dataclass_value, random_output_value, reference_output, seeded, with_iterators,
)

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
    # canonical forms of a cone in a proper subspace (span equations, then
    # facets) and of a pointed rank-3 cone with five facets
    (
        "monoid_analyze_rank3_plane",
        ["monoid", "analyze", "-i", data("monoid_rank3_plane.json"), "--json"],
    ),
    (
        "monoid_analyze_rank3_six",
        ["monoid", "analyze", "-i", data("monoid_rank3_six.json"), "--json"],
    ),
    (
        "monoid_reduce",
        ["monoid", "reduce", "-i", data("monoid_halfplane.json"), "--json"],
    ),
    # pins the canonical projection: the Hermite rows that kill the unit line
    (
        "monoid_reduce_rank3",
        ["monoid", "reduce", "-i", data("monoid_rank3_line.json"), "--json"],
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
    # monomial generators, and a zero-weight variable bounded by its pure power
    (
        "algebra_truncate_pure_power",
        ["algebra", "truncate", "-i", data("quot_pure_power.json"),
         "-m", data("monoid_n.json"), "-n", "3", "--json"],
    ),
    (
        "algebra_stabilize_pure_power",
        ["algebra", "stabilize", "-i", data("quot_pure_power.json"),
         "-m", data("monoid_n.json"), "-w", "4", "-n", "4", "--json"],
    ),
    (
        "algebra_algebraize_pure_power",
        ["algebra", "algebraize", "-i", data("quot_pure_power.json"),
         "-m", data("monoid_n.json"), "--bound", "6", "--json"],
    ),
    # pure powers on the nonzero-weight variables x and y as well as on z
    (
        "algebra_truncate_capped",
        ["algebra", "truncate", "-i", data("quot_capped.json"),
         "-m", data("monoid_n.json"), "-n", "3", "--json"],
    ),
    (
        "algebra_stabilize_capped",
        ["algebra", "stabilize", "-i", data("quot_capped.json"),
         "-m", data("monoid_n.json"), "-w", "4", "-n", "3", "--json"],
    ),
    # n_max = 3 < n_lambda = 4: no level at or past the bound is computed, so
    # `stable` is vacuously true while the dimensions 0, 0, 1, 2 still climb
    # to the limit 3 (algebra_stabilize_capped is below its bound as well)
    (
        "algebra_stabilize_below_bound",
        ["algebra", "stabilize", "-i", data("quot_free12.json"),
         "-m", data("monoid_n.json"), "-w", "4", "-n", "3", "--json"],
    ),
    ("hilb_fixed_points", ["hilb", "fixed-points", "-d", "3", "--json"]),
    ("hilb_tangent", ["hilb", "tangent", "-d", "2", "--json"]),
    # past d = 3, reverse lexicographic order has parts to compare after
    # the first: [4, 1, 1] comes before [3, 3]
    ("hilb_fixed_points_d6", ["hilb", "fixed-points", "-d", "6", "--json"]),
    ("hilb_tangent_d5", ["hilb", "tangent", "-d", "5", "--json"]),
    ("hilb_cells", ["hilb", "cells", "-d", "2", "-w", "1,3", "--json"]),
    (
        "hilb_intersect",
        ["hilb", "intersect", "-d", "2", "-w", "1,3", "-w", "3,1", "--json"],
    ),
    ("hilb_poincare", ["hilb", "poincare", "-d", "3", "-w", "1,4", "--json"]),
]


def text_argv(argv):
    """The argv of a golden case without --json: its text-mode run."""
    return [arg for arg in argv if arg != "--json"]


def golden(filename):
    with open(os.path.join(GOLDEN, filename)) as fh:
        return fh.read()


def assert_golden(name, out, text):
    """The JSON and text outputs of a golden case, byte for byte; the text
    form's top-level keys are the JSON object's, in the same order."""
    assert out == golden(name + ".json")
    assert text == golden(name + ".txt")
    top = [line.split(":", 1)[0] for line in text.splitlines() if not line.startswith(" ")]
    assert top == list(json.loads(out))


@pytest.mark.parametrize("name,argv", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_golden_output(name, argv, capsys):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert main(text_argv(argv)) == 0
    assert_golden(name, out, capsys.readouterr().out)


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
        lines = capsys.readouterr().out.splitlines()
        assert "has_zero: true" in lines
        assert "kempf_vector: [1]" in lines

    def test_cells_table(self, capsys):
        assert main(["hilb", "cells", "-d", "2", "-w", "1,3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "  partition: [2], dimension: 4, generic: true" in lines
        assert "  partition: [1, 1], dimension: 3, generic: true" in lines

    # a string that reads as a JSON literal is quoted; other strings stay bare
    @pytest.mark.parametrize("name", ["null", "true", "false"])
    def test_literal_names_are_quoted(self, name, tmp_path, capsys):
        path = tmp_path / "input.json"
        variables = [{"name": name, "weight": [0]}, {"name": "x", "weight": [1]}]
        path.write_text(json.dumps({"torus_rank": 1, "variables": variables}))
        assert main(["algebra", "fixed", "-i", str(path)]) == 0
        assert capsys.readouterr().out == (
            f'torus_rank: 1\nvariables:\n  name: "{name}", weight: [0]\nrelations: []\n'
        )


QUOT_ARGS = ["-i", data("quot_free12.json"), "-m", data("monoid_n.json")]


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

    # the error names the first partition of d, in `hilb fixed-points` order,
    # that has a tangent weight pairing to zero with w
    @pytest.mark.parametrize("flags, message", [
        (["-d", "2", "-w", "1,1"],
         "weight (1, 1) pairs to zero with tangent weight (-1, 1) at partition (2,)"),
        (["-d", "5", "-w=0,3"],
         "weight (0, 3) pairs to zero with tangent weight (5, 0) at partition (5,)"),
        (["-d", "6", "-w=3,2"],
         "weight (3, 2) pairs to zero with tangent weight (-2, 3) "
         "at partition (3, 2, 1)"),
        (["-d", "6", "-w=-4,-2"],
         "weight (-4, -2) pairs to zero with tangent weight (-1, 2) "
         "at partition (3, 3)"),
        (["-d", "55", "-w", "1,1"],
         "weight (1, 1) pairs to zero with tangent weight (-1, 1) at partition (55,)"),
    ])
    def test_poincare_non_generic_error_is_pinned(self, flags, message, capsys):
        for mode in ([], ["--json"]):
            assert main(["hilb", "poincare", *flags, *mode]) == 1
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == (
                "", f"error[non-generic-weight]: {message}\n"
            )

    # the witness (3, 2, 1) is the 7th of the 11 partitions of 6: the records
    # before it would be written if the weights were not checked first
    @pytest.mark.parametrize("argv", [
        ["hilb", "cells", "-d", "6", "-w=3,2"],
        ["hilb", "intersect", "-d", "6", "-w=1,7", "-w=3,2"],
    ])
    def test_late_witness_leaves_stdout_empty(self, argv, capsys):
        for mode in ([], ["--json"]):
            assert main(argv + mode) == 1
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == ("", (
                "error[non-generic-weight]: weight (3, 2) pairs to zero with "
                "tangent weight (-2, 3) at partition (3, 2, 1)\n"
            ))

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

    # one document per loader, each without one required key
    @pytest.mark.parametrize("argv, doc, key", [
        (["monoid", "analyze"], {"generators": [[1]]}, "rank"),
        (["algebra", "fixed"], {"variables": []}, "torus_rank"),
        (["algebra", "truncate", "-m", data("monoid_n.json"), "-n", "1"],
         {"torus_rank": 1, "variables": [{"weight": [1]}]}, "name"),
    ], ids=["monoid", "presentation", "quotient"])
    def test_missing_key_is_named(self, argv, doc, key, tmp_path, capsys):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(doc))
        for mode in ([], ["--json"]):
            assert main([*argv, "-i", str(path), *mode]) == 1
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == (
                "", f"error[bad-input]: missing key '{key}'\n"
            )

    # messages of the exact-input checks in bbcells.errors and of the monomial
    # rule of the quotient loader; the documents are (file name, JSON) pairs
    # written next to the test
    @pytest.mark.parametrize("argv, docs, err", [
        (["monoid", "analyze", "-i", "{gen}"],
         {"gen": {"rank": 1, "generators": [[1, 0]]}},
         "error[rank-mismatch]: generator (1, 0) has length 2, expected 1"),
        (["algebra", "fixed", "-i", "{pres}"],
         {"pres": {"torus_rank": 1, "variables": [{"name": "x", "weight": [1, 2]}]}},
         "error[rank-mismatch]: weight of x (1, 2) has length 2, expected 1"),
        (["algebra", "stabilize", *QUOT_ARGS, "-w", "3,5", "-n", "2"], {},
         "error[rank-mismatch]: weight (3, 5) has length 2, expected 1"),
        (["algebra", "truncate", *QUOT_ARGS, "-n", "-1"], {},
         "error[bad-input]: truncation level must be a nonnegative integer"),
        (["algebra", "stabilize", *QUOT_ARGS, "-w", "3", "-n", "-1"], {},
         "error[bad-input]: n_max must be a nonnegative integer"),
        (["algebra", "algebraize", *QUOT_ARGS, "--bound", "-1"], {},
         "error[bad-input]: weight bound must be a nonnegative integer"),
        (["hilb", "fixed-points", "-d", "-1"], {},
         "error[bad-input]: d must be a nonnegative integer"),
        (["hilb", "cells", "-d", "-1"], {},
         "error[bad-input]: d must be a nonnegative integer"),
        (["hilb", "cells", "-d", "-1", "-w", "1,3"], {},
         "error[bad-input]: d must be a nonnegative integer"),
        (["hilb", "poincare", "-d", "-1"], {},
         "error[bad-input]: d must be a nonnegative integer"),
        (["hilb", "intersect", "-d", "-1", "-w", "1,3", "-w", "3,1"], {},
         "error[bad-input]: d must be a nonnegative integer"),
        (["hilb", "tangent", "-d", "-1"], {},
         "error[bad-input]: d must be a nonnegative integer"),
        (["algebra", "truncate", "-i", "{quot}", "-m", data("monoid_n.json"), "-n", "1"],
         {"quot": {"torus_rank": 1, "monomial_generators": ["x + y"],
                   "variables": [{"name": "x", "weight": [1]},
                                 {"name": "y", "weight": [1]}]}},
         "error[domain-error]: not a monomial: 'x + y'"),
    ], ids=["generator", "variable_weight", "stabilize_weight", "level",
            "stabilize_level", "bound",
            "fixed_points_d", "cells_d", "cells_d_with_weight", "poincare_d",
            "intersect_d", "tangent_d", "not_a_monomial"])
    def test_exact_input_errors_are_pinned(self, argv, docs, err, tmp_path, capsys):
        paths = {}
        for name, doc in docs.items():
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(json.dumps(doc))
        argv = [arg.format(**paths) for arg in argv]
        for mode in ([], ["--json"]):
            assert main(argv + mode) == 1
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == ("", err + "\n")

    def test_deeply_nested_document_is_bad_input(self, tmp_path, capsys):
        # deeper than the interpreter's recursion limit for json.load
        depth = 100_000
        path = tmp_path / "input.json"
        path.write_text('{"rank": 1, "generators": ' + "[" * depth + "]" * depth + "}")
        for mode in ([], ["--json"]):
            assert main(["monoid", "analyze", "-i", str(path), *mode]) == 1
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == (
                "", f"error[bad-input]: {path}: JSON document is nested too deeply\n"
            )


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


def module_command(*args):
    """`python -m bbcells *args` with src first on PYTHONPATH and stdout
    buffered, as in a shell: the argument list and the keyword arguments of
    a subprocess call."""
    root = os.path.dirname(HERE)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    env.pop("PYTHONUNBUFFERED", None)
    return [sys.executable, "-m", "bbcells", *args], dict(cwd=root, env=env)


@pytest.mark.parametrize("name,argv", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_module_entry_point_matches_golden(name, argv):
    def run(args):
        command, where = module_command(*args)
        proc = subprocess.run(command, **where, capture_output=True, text=True,
                              timeout=60)
        assert (proc.returncode, proc.stderr) == (0, "")
        return proc.stdout

    assert_golden(name, run(argv), run(text_argv(argv)))


def test_parser_keeps_no_state_between_calls(monkeypatch, capsys):
    # main reuses the parser built at import; it must not build another
    monkeypatch.setattr(cli, "build_parser", None)
    assert main(["hilb", "intersect", "-d", "2", "-w", "1,3", "-w", "3,1"]) == 0
    capsys.readouterr()
    # no -w: the default (1, 4) for d = 3, not a weight left from the last call
    assert main(["hilb", "poincare", "-d", "3", "--json"]) == 0
    assert capsys.readouterr().out == golden("hilb_poincare.json")


@pytest.mark.parametrize("rank", [0, -5])
def test_torus_rank_below_one_is_rank_mismatch(rank, tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_text(json.dumps({"torus_rank": rank, "variables": [], "relations": []}))
    for mode in ([], ["--json"]):
        assert main(["algebra", "fixed", "-i", str(path), *mode]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", "error[rank-mismatch]: torus rank must be a positive integer\n"
        )


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
    # bytes are written as they are: a dict cannot hold a key twice
    "duplicate_key": ("monoid", b'{"rank": 1, "rank": 2, "generators": [[1]]}'),
    "duplicate_nested_key": (
        "algebra",
        b'{"torus_rank": 1, "variables": [{"name": "x", "weight": [1], "weight": [2]}]}',
    ),
}


def _run_on_document(tmp_path, group, doc):
    path = tmp_path / "input.json"
    if isinstance(doc, bytes):
        path.write_bytes(doc)
    else:
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


def test_walker_matches_the_reference():
    # random objects, lists, tuples and iterators against the encoded copy
    # printed whole, in both forms; then library dataclasses, which the
    # reference copies with asdict, alone, as a field, as the rows of a table
    # and deeper
    rng = seeded(125)
    tables = 0
    values = [random_output_value(rng) for _ in range(600)]
    for _ in range(100):
        one, two = random_dataclass_value(rng), random_dataclass_value(rng)
        values += [one, {"k": one}, {"rows": [one, two]}, {"d": [1, {"k": (one,)}]}]
    with exact_int_strings():
        for value in values:
            for as_json in (True, False):
                out = io.StringIO()
                cli._walk(with_iterators(value, rng), out.write, as_json)
                expected = reference_output(value, as_json)
                assert out.getvalue() + "\n" == expected
            tables += "\n  " in expected
    assert tables >= 300


# every record is written as it is computed, none held: building the 1,002
# records of tangent -d 22, an encoded copy and the whole text first peaked
# at 12.0 MB (text) and 21.8 MB (JSON); a list of the 37,338 partitions of
# 40 behind the cells and fixed points peaked at 2.0-5.3 MB
@pytest.mark.parametrize("mode", [[], ["--json"]])
def test_records_are_not_held(mode):
    for argv in (["hilb", "tangent", "-d", "22"], ["hilb", "cells", "-d", "40"],
                 ["hilb", "fixed-points", "-d", "40"]):
        tracemalloc.start()
        try:
            with open(os.devnull, "w") as sink, redirect_stdout(sink):
                assert main([*argv, *mode]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20, argv


def test_pipe_closed_after_one_line_is_one_error_line():
    # the text form of d = 20 is 258 kB, more than a pipe holds
    command, where = module_command("hilb", "tangent", "-d", "20")
    proc = subprocess.Popen(command, **where, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    try:
        assert proc.stdout.readline() == b"d: 20\n"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 1
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    assert err == "error[broken-pipe]: [Errno 32] Broken pipe\n"


def test_pipe_closed_before_the_output_is_one_error_line():
    # all 106 bytes wait in the buffer for the flush; one left for the flush
    # at exit would end in "Exception ignored" on stderr and exit code 120
    read_end, write_end = os.pipe()
    os.close(read_end)
    command, where = module_command("hilb", "poincare", "-d", "3")
    try:
        proc = subprocess.run(command, **where, stdout=write_end,
                              stderr=subprocess.PIPE, text=True, timeout=60)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (
        1, "error[broken-pipe]: [Errno 32] Broken pipe\n"
    )


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
        if mode:
            printed = json.loads(out)["relations"][0]
        else:
            (line,) = [ln for ln in out.splitlines() if ln.startswith("relations: ")]
            printed = line.removeprefix("relations: [").removesuffix("]")
        lead, tail = printed.split(" + ")
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
        assert ast.literal_eval(table["facet_normals"].strip()) == list(
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

    def test_number_as_variable_name_is_pinned(self, tmp_path, capsys):
        doc = dict(FIXED_GOOD, variables=[{"name": 5, "weight": [1]}])
        path = tmp_path / "input.json"
        path.write_text(json.dumps(doc))
        for mode in ([], ["--json"]):
            assert main(["algebra", "fixed", "-i", str(path), *mode]) == 1
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == (
                "", "error[bad-input]: invalid variable name 5\n"
            )

    # the last value once won: this document read as rank 2
    def test_duplicate_key_is_pinned(self, tmp_path, capsys):
        path = tmp_path / "input.json"
        path.write_text('{"rank": 1, "rank": 2, "generators": [[1]]}')
        for mode in ([], ["--json"]):
            assert main(["monoid", "analyze", "-i", str(path), *mode]) == 1
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == (
                "", "error[bad-input]: duplicate key 'rank'\n"
            )

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
