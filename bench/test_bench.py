"""Tests of the benchmark itself:  python3 -m pytest bench

Every check accepts the real output and rejects a deliberately perturbed
one; every workload runs end to end, briefly, with all checks on; and the
benchmark refuses to run without the bbcells sources beside it.
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import oracles as orc  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def rejects(check, *args):
    with pytest.raises(orc.CheckFailed):
        check(*args)


# ---------------------------------------------------------------- oracles

def test_partition_oracles():
    assert [orc.partition_count(d) for d in range(11)] == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    assert orc.partitions_by_largest_part(4) == {1: 1, 2: 2, 3: 1, 4: 1}
    parts = [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    orc.check_partitions(4, parts)
    rejects(orc.check_partitions, 4, parts[:-1])
    rejects(orc.check_partitions, 4, parts[:-1] + [(3, 1)])
    rejects(orc.check_partitions, 4, parts[:-1] + [(3, 2)])


def test_tangent_oracles():
    single = {(1, 0): 1, (0, 1): 1}
    orc.check_tangent_pair((1,), single, dict(single))
    rejects(orc.check_tangent_pair, (1,), single, {(1, 0): 2})
    rejects(orc.check_tangent, (1,), {(1, 0): 1, (0, 2): 1})
    rejects(orc.check_tangent, (2,), orc.armleg_character((1, 1)))


def test_cell_oracles():
    orc.check_cell_dimension((2, 1), (1, 4), 5)
    rejects(orc.check_cell_dimension, (2, 1), (1, 4), 4)
    orc.check_poincare(3, {4: 1, 5: 1, 6: 1})
    rejects(orc.check_poincare, 3, {4: 2, 5: 1, 6: 1})
    w = (3, 7)
    dim = orc.cell_dim((2, 1), w)
    orc.check_intersection((2, 1), w, w, dim)
    rejects(orc.check_intersection, (2, 1), w, w, dim - 1)
    rejects(orc.check_intersection, (2, 1), w, (-7, 3), dim + 1)


def test_cell_closed_form_matches_arm_leg():
    for d in range(1, 9):
        for p in workloads._modules().hilb.partitions(d):
            assert orc.cell_dim(p, (1, d + 1)) == d + p[0]


def test_cone_oracles():
    gens = [(1, 0), (1, 2)]
    orc.check_membership(gens, (1, 1), True)
    rejects(orc.check_membership, gens, (1, 1), False)
    rejects(orc.check_membership, gens, (0, 1), True)
    orc.check_facets(gens, [(0, 1), (2, -1)])
    rejects(orc.check_facets, gens, [(0, -1), (2, -1)])
    rejects(orc.check_facets, gens, [(0, 1)])
    rejects(orc.check_facets, gens, [(0, 2), (2, -1)])
    half = [(1, 0), (-1, 0), (0, 1)]
    orc.check_units(half, [(0, 1)], [(1, 0)])
    rejects(orc.check_units, half, [(0, 1)], [])
    orc.check_reduction(half, ((0, 1),), 1, ((1,),), ())
    rejects(orc.check_reduction, half, ((1, 1),), 1, ((1,),), ())
    rejects(orc.check_reduction, half, ((0, 1),), 1, ((1,),), ((1,),))


def test_kempf_oracle():
    skew = [(1, 0, 0), (-2, 1, 0), (0, -2, 1)]
    orc.check_kempf(skew, (1, 3, 7), skew_k=2)
    rejects(orc.check_kempf, skew, (1, 3, 8), 2)
    rejects(orc.check_kempf, skew, (0, 3, 7))


def test_counting_oracles():
    weights, gens = [(1,), (2,)], []
    dims = {(0,): 1, (1,): 1, (2,): 2, (3,): 1, (4,): 1}
    orc.check_truncation(weights, gens, 2, dims)
    rejects(orc.check_truncation, weights, gens, 2, dims | {(4,): 2})
    weights, gens = [(1,), (0,)], [(0, 2)]
    report = (2, (0, 0, 2, 2), True, 2)
    orc.check_stabilization(weights, gens, (2,), 3, (1,), report)
    rejects(orc.check_stabilization, weights, gens, (2,), 3, (1,), (2, (0, 0, 2, 2), True, 3))
    rejects(orc.check_stabilization, weights, gens, (2,), 3, (1,), (1, (0, 0, 2, 2), True, 2))
    rejects(orc.check_stabilization, weights, gens, (2,), 3, (1,), (2, (0, 0, 2, 2), False, 2))
    orc.check_algebraize(True)
    rejects(orc.check_algebraize, False)


def test_presentation_oracles():
    orc.check_example("node", orc.NODE_PLUS, ([("y", (1,))], []))
    rejects(orc.check_example, "node", orc.NODE_PLUS, ([("x", (-1,))], []))
    rejects(orc.check_idempotent, orc.QUADRIC_PLUS, orc.QUADRIC_FIXED, "bb_plus")
    variables = [("x", (-1,)), ("y", (1,)), ("z", (0,))]
    orc.check_limit_variables(variables, ["y", "z"], [(1,)])
    rejects(orc.check_limit_variables, variables, ["x", "y", "z"], [(1,)])
    orc.check_fixed_variables(variables, ["z"])
    rejects(orc.check_fixed_variables, variables, [])
    orc.check_open_immersion(variables, [(1,)], False, ["x"])
    rejects(orc.check_open_immersion, variables, [(1,)], True, ["x"])
    rejects(orc.check_roundtrip, ("x*y",), ("x*y - z^2",))


# ---------------------------------------------------------------- workload checks

def _flip_first_leaf(value):
    """Copy of a nested output with its first int or bool leaf changed."""
    done = [False]

    def walk(v):
        if done[0]:
            return v
        if isinstance(v, bool):
            done[0] = True
            return not v
        if isinstance(v, int):
            done[0] = True
            return v + 1
        if isinstance(v, tuple):
            return tuple(walk(x) for x in v)
        if isinstance(v, list):
            return [walk(x) for x in v]
        if isinstance(v, dict):
            return {k: walk(x) for k, x in v.items()}
        return v

    return walk(copy.deepcopy(value))


def _perturb(name, out):
    if name.startswith("cli "):
        code, stdout = out
        return code, json.dumps(CLI_PERTURB[name[4:]](json.loads(stdout)))
    if name.startswith(("skew", "rank")):
        normals, units, members, reduction, kempf = out
        return normals, units, (not members[0],) + members[1:], reduction, kempf
    if name.startswith("quotient"):
        truncs, report, kempf, ok = out
        first = dict(truncs[0])
        key = next(iter(first))
        return (first | {key: first[key] + 1},) + truncs[1:], report, kempf, ok
    if name.startswith(("node", "quadric", "presentation")):
        polys, reparsed, plus, plus2, fixed, fixed2, ok, outsiders = out
        return polys, reparsed, plus, plus2, fixed, fixed2, not ok, outsiders
    if name.startswith("tangent"):
        linalg, armleg = out
        key = next(iter(linalg))
        return linalg | {key: linalg[key] + 1}, armleg
    if name.startswith("partitions"):
        return out[:-1]
    if name.startswith("poincare"):
        key = next(iter(out))
        return out | {key: out[key] + 1}
    return _flip_first_leaf(out)


CLI_PERTURB = {
    "monoid analyze": lambda d: d | {"kempf_vector": [str(-int(x)) for x in d["kempf_vector"]]},
    "monoid reduce": lambda d: d | {"target_rank": "2"},
    "algebra bbplus": lambda d: d | {"variables": d["variables"][1:]},
    "algebra fixed": lambda d: d | {"variables": d["variables"] + [{"name": "q", "weight": ["0"]}]},
    "algebra check": lambda d: d | {"open_immersion": not d["open_immersion"]},
    "algebra truncate": lambda d: d | {"rows": d["rows"][1:]},
    "algebra stabilize": lambda d: d | {"limit_dimension": str(int(d["limit_dimension"]) + 1)},
    "algebra algebraize": lambda d: d | {"algebraizes": False},
    "hilb fixed-points": lambda d: d | {"partitions": d["partitions"][1:]},
    "hilb tangent": lambda d: d | {"tangent": [
        dict(d["tangent"][0], character=d["tangent"][0]["character"][1:])] + d["tangent"][1:]},
    "hilb cells": lambda d: d | {"cells": [dict(d["cells"][0], dimension="0")] + d["cells"][1:]},
    "hilb intersect": lambda d: d | {"cells": [
        dict(d["cells"][0], dimension=str(int(d["cells"][0]["dimension"]) + 1))] + d["cells"][1:]},
    "hilb poincare": lambda d: d | {"histogram": d["histogram"][1:]},
}


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_batch_checks_accept_outputs_and_reject_perturbations(workload, tmp_path):
    for op in workloads.make_batch(workload, 3, str(tmp_path)):
        out = op.run()
        op.check(out)
        rejects(op.check, _perturb(op.name, out))


def test_every_cli_subcommand_runs_once_and_its_check_rejects_failures(tmp_path):
    names = []
    for workload in workloads.WORKLOADS:
        for op in workloads.make_batch(workload, 5, str(tmp_path)):
            if op.name.startswith("cli "):
                names.append(op.name[4:])
                code, stdout = op.run()
                rejects(op.check, (1, stdout))
                rejects(op.check, (0, stdout[:-3]))
    assert sorted(names) == sorted(CLI_PERTURB)


# ---------------------------------------------------------------- end to end

def _run(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_runs_with_all_checks(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "11", "--seconds", "0.2",
                "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = _run(tmp_path, "--workload", "monoids", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout == ""
