"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
All checks are exact; there are no tolerances anywhere.
"""

import io
import contextlib
import os
from itertools import product

from bbcells import algebra, hilb, lattice
from bbcells.cli import main
from conftest import (
    enumerated_algebraize_check,
    project,
    random_homogeneous_presentation,
    random_monoid,
    random_monomial_quotient,
    random_pointed_monoid,
    random_weighting,
    seeded,
)

HERE = os.path.dirname(__file__)


def report(number, title, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"[{status}] criterion {number}: {title}")
    assert not failures, failures[:5]


def test_criterion_1_worked_examples_exact():
    failures = []
    n1 = lattice.cone_from_generators([(1,)], 1)

    w_xy = algebra.VariableWeighting(1, (("x", (-1,)), ("y", (1,))))
    node = algebra.GradedPresentation(
        w_xy, (algebra.make_polynomial([(1, (1, 1))]),)
    )
    plus = algebra.bb_plus(node, n1)
    if plus != algebra.GradedPresentation(
        algebra.VariableWeighting(1, (("y", (1,)),)), ()
    ):
        failures.append(("node", plus))

    w_xyz = algebra.VariableWeighting(
        1, (("x", (-1,)), ("y", (1,)), ("z", (0,)))
    )
    quadric = algebra.GradedPresentation(
        w_xyz, (algebra.make_polynomial([(1, (1, 1, 0)), (-1, (0, 0, 2))]),)
    )
    plus_q = algebra.bb_plus(quadric, n1)
    expected_plus = algebra.GradedPresentation(
        algebra.VariableWeighting(1, (("y", (1,)), ("z", (0,)))),
        (algebra.make_polynomial([(1, (0, 2))]),),
    )
    if plus_q != expected_plus:
        failures.append(("quadric plus", plus_q))

    fixed_q = algebra.fixed_locus(quadric)
    expected_fixed = algebra.GradedPresentation(
        algebra.VariableWeighting(1, (("z", (0,)),)),
        (algebra.make_polynomial([(1, (2,))]),),
    )
    if fixed_q != expected_fixed:
        failures.append(("quadric fixed", fixed_q))

    report(1, "worked examples reproduced in canonical form", failures)


def test_criterion_2_monoid_suite():
    rng = seeded(2000)
    failures = []
    for trial in range(200):
        monoid = random_monoid(rng, max_rank=3)
        for g in monoid.generators:
            if not lattice.contains(monoid, g):
                failures.append((trial, "generator not contained", g))
        if lattice.has_zero(monoid) != (not lattice.units(monoid)):
            failures.append((trial, "has_zero/units mismatch"))
        if lattice.has_zero(monoid):
            w = lattice.kempf_vector(monoid).w
            for g in monoid.generators:
                if any(x != 0 for x in g) and sum(
                    a * b for a, b in zip(w, g)
                ) < 1:
                    failures.append((trial, "kempf pairing < 1", w, g))
        proj = lattice.reduce_to_zero(monoid)
        if not lattice.has_zero(proj.image_monoid):
            failures.append((trial, "reduction image has units"))
        for _ in range(100):
            point = tuple(rng.randint(-6, 6) for _ in range(monoid.rank))
            if lattice.contains(monoid, point) != lattice.contains(
                proj.image_monoid, project(proj, point)
            ):
                failures.append((trial, "membership incompatibility", point))
    report(2, "monoid suite on 200 random generator sets", failures)


def test_criterion_3_outsider_generation_guard():
    rng = seeded(3000)
    failures = []
    for trial in range(100):
        monoid = random_pointed_monoid(rng, max_rank=2)
        n_vars = rng.randint(2, 3)
        weighting = random_weighting(rng, monoid.rank, n_vars)
        pres = algebra.GradedPresentation(weighting, ())
        outsiders = set(algebra.outsider_variables(pres, monoid))
        out_idx = [
            i for i, (name, _) in enumerate(weighting.variables)
            if name in outsiders
        ]
        for exps in product(range(9), repeat=n_vars):
            if sum(exps) > 8 or sum(exps) == 0:
                continue
            weight = algebra.weight_of(exps, weighting)
            if not lattice.contains(monoid, weight):
                if not any(exps[i] > 0 for i in out_idx):
                    failures.append((trial, exps, weight))
    report(3, "outsider monomials of degree <= 8 have outsider divisors", failures)


def test_criterion_4_stabilization_and_algebraization():
    rng = seeded(4000)
    failures = []
    for trial in range(50):
        monoid = random_pointed_monoid(rng, max_rank=2)
        quotient = random_monomial_quotient(rng, monoid, max_vars=4)
        kempf = lattice.kempf_vector(monoid).w
        tables = [algebra.truncate(quotient, monoid, n) for n in range(9)]
        weights = sorted(set().union(*(t.keys() for t in tables)))
        for w in weights:
            degree = sum(a * b for a, b in zip(kempf, w))
            if degree > 8:
                continue
            dims = [t.get(w, 0) for t in tables]
            if dims != sorted(dims):
                failures.append((trial, w, "not monotone", dims))
            tail = dims[degree:]
            if any(d != tail[0] for d in tail):
                failures.append((trial, w, "not stable from n_lambda", dims))
            if tail[0] != algebra.graded_dimension(quotient, monoid, w):
                failures.append((trial, w, "stable value != dim A_w"))
        if not algebra.algebraize_check(quotient, monoid, 8):
            failures.append((trial, "algebraize_check false"))
        if not enumerated_algebraize_check(quotient, monoid, 8):
            failures.append((trial, "a monomial of J-order above n_lambda"))
    report(4, "stabilization and algebraization on 50 random quotients", failures)


def test_criterion_5_idempotence_and_composition():
    rng = seeded(5000)
    failures = []
    trials = 0
    while trials < 200:
        pres = random_homogeneous_presentation(rng)
        monoid = random_pointed_monoid(rng, max_rank=2)
        if monoid.rank != pres.weighting.torus_rank:
            continue
        trials += 1
        plus = algebra.bb_plus(pres, monoid)
        if algebra.bb_plus(plus, monoid) != plus:
            failures.append((trials, "not idempotent"))
        if algebra.fixed_locus(plus) != algebra.fixed_locus(pres):
            failures.append((trials, "fixed o bb_plus != fixed"))
    report(5, "bb_plus idempotence and fixed-locus compatibility, 200 random", failures)


def test_criterion_6_hilbert_suite():
    failures = []
    expected_counts = [1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    for d in range(1, 11):
        if len(hilb.partitions(d)) != expected_counts[d - 1]:
            failures.append((d, "partition count"))
    for d in range(1, 9):
        open_cells = 0
        w = hilb.default_generic_weight(d)
        for p in hilb.partitions(d):
            ideal = hilb.ideal_from_partition(p)
            linalg = hilb.tangent_character_linalg(ideal)
            armleg = hilb.tangent_character_armleg(ideal)
            if linalg != armleg:
                failures.append((p, "oracle disagreement"))
            if sum(armleg.values()) != 2 * d:
                failures.append((p, "total multiplicity"))
            if (0, 0) in armleg:
                failures.append((p, "zero tangent weight"))
            swapped = {(b, a): m for (a, b), m in armleg.items()}
            transposed = hilb.tangent_character_armleg(
                hilb.ideal_from_partition(hilb._transpose(p))
            )
            if transposed != swapped:
                failures.append((p, "transpose duality"))
            if hilb.cell_dimension(ideal, w) == 2 * d:
                open_cells += 1
        if open_cells != 1:
            failures.append((d, "open cell count", open_cells))
    report(6, "Hilbert scheme suite for d <= 8", failures)


def test_criterion_7_intersection_dimensions():
    rng = seeded(7000)
    failures = []
    spot = hilb.intersection_dimension(
        hilb.ideal_from_partition((2,)), (1, 3), (3, 1)
    )
    if spot != 3:
        failures.append(("spot value", spot))
    for d in range(1, 7):
        ideals = [hilb.ideal_from_partition(p) for p in hilb.partitions(d)]

        def generic_weight():
            while True:
                w = (rng.randint(-6, 6), rng.randint(-6, 6))
                if w != (0, 0) and hilb.is_generic(d, w):
                    return w

        for _ in range(20):
            w1, w2 = generic_weight(), generic_weight()
            for ideal in ideals:
                inter = hilb.intersection_dimension(ideal, w1, w2)
                c1 = hilb.cell_dimension(ideal, w1)
                c2 = hilb.cell_dimension(ideal, w2)
                if inter > min(c1, c2):
                    failures.append((ideal.partition, w1, w2, "bound"))
                if hilb.intersection_dimension(ideal, w1, w1) != c1:
                    failures.append((ideal.partition, w1, "equality"))
    report(7, "cell intersection dimensions for d <= 6", failures)


def test_criterion_8_cli_golden_files():
    import sys
    sys.path.insert(0, HERE)
    from test_cli import GOLDEN_CASES

    failures = []
    for name, argv in GOLDEN_CASES:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = main(argv)
        if rc != 0:
            failures.append((name, "exit code", rc))
            continue
        with open(os.path.join(HERE, "golden", name + ".json")) as fh:
            if buf.getvalue() != fh.read():
                failures.append((name, "output drift"))
    report(8, "byte-exact golden output for every subcommand", failures)
