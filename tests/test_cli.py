import json
import os

import pytest

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
}


def _run_on_document(tmp_path, group, doc):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    if group == "monoid":
        return main(["monoid", "analyze", "-i", str(path), "--json"])
    return main(["algebra", "fixed", "-i", str(path), "--json"])


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
