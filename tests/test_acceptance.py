"""Acceptance gate: one test per shipped guarantee, one summary line each.

Each test records a PASS/FAIL line that pytest prints in the terminal
summary (see conftest), then asserts.  Tolerances are pinned here and
nowhere else: exact integers for ball counts, 12 printed decimals for the
named constants, 1e-9 slack for bound-vs-table comparisons, and the stated
windows for degree fits.
"""

import itertools
import json
import subprocess
import sys

from groupgrowth import (
    FOURTH_ROOT_2,
    MatrixZ2,
    QuadraticValue,
    SOLVABLE_UNIVERSAL,
    SQRT2,
    amalgam_bound,
    ball_elements,
    estimate_rates,
    free_product_bound,
    hnn_bound,
    lambda_max,
    make_group,
    osin_bound,
    root_bounds,
    surface_bound,
    universal_constant,
)

import oracles
from conftest import record_criterion


def test_criterion_1_exact_ball_counts(free2_k8, z2_k30, dihedral_k50):
    ok = (
        free2_k8.gamma == tuple(2 * 3 ** k - 1 for k in range(9))
        and z2_k30.gamma == tuple(2 * k * k + 2 * k + 1 for k in range(31))
        and dihedral_k50.gamma == tuple(oracles.dihedral_ball(k) for k in range(51))
    )
    record_criterion(
        1, "closed-form ball counts: free(2) k<=8, Z^2 k<=30, dihedral k<=50", ok
    )
    assert ok


def test_criterion_2_surface_sphere_sizes(surface2_k4):
    # Spheres follow 8*7^(k-1) until relator identifications bite at k = 4.
    # The deficit there is fixed by the independent pairwise-equality oracle:
    # 8 merges (not 16), each gluing a half-relator word to the inverse of its
    # complementary half.
    small_spheres_ok = surface2_k4.sigma[1:4] == (8, 56, 392)
    n_classes, n_merges = oracles.surface_class_count(2, 4)
    ok = (
        small_spheres_ok
        and n_merges == 8
        and surface2_k4.sigma[4] == 8 * 7 ** 3 - n_merges
        and surface2_k4.gamma[4] == n_classes
        and surface2_k4.gamma[3] == oracles.surface_class_count(2, 3)[0]
    )
    record_criterion(
        2, "surface(2) spheres 8*7^(k-1) with oracle-pinned identifications at k=4", ok
    )
    assert small_spheres_ok
    assert (n_classes, n_merges) == (3193, 8)
    assert surface2_k4.gamma[4] == n_classes


def test_criterion_3_constants_and_gates():
    constants_ok = (
        f"{SQRT2:.12f}" == "1.414213562373"
        and f"{FOURTH_ROOT_2:.12f}" == "1.189207115003"
        and f"{SOLVABLE_UNIVERSAL:.12f}" == "1.122462048309"
        and surface_bound(2).value == 5.0
    )
    gates_ok = (
        not free_product_bound([2, 2]).hypotheses_ok
        and free_product_bound([2, 3]).hypotheses_ok
        and not amalgam_bound(2, 2).hypotheses_ok
        and amalgam_bound(3, 2).hypotheses_ok
        and not hnn_bound(1, 1).hypotheses_ok
        and hnn_bound(2, 1).hypotheses_ok
    )
    ok = constants_ok and gates_ok
    record_criterion(3, "named constants to 12 decimals and hypothesis gates", ok)
    assert constants_ok
    assert gates_ok


def test_criterion_4_osin_bound(scan5):
    m = MatrixZ2.from_rows(((2, 1), (1, 1)))
    lam = lambda_max(m)
    # symbolic check: lambda satisfies x^2 - 3x + 1 = 0
    symbolic_ok = (
        lam == QuadraticValue(3, 1, 5)
        and lam.p ** 2 + lam.q ** 2 * lam.D - 2 * 3 * lam.p + 4 * 1 == 0
        and 2 * lam.q * (lam.p - 3) == 0
    )
    value_ok = abs(osin_bound(m).value - 1.4962) < 1e-4
    range_ok = all(1 < r.osin < 2 for r in scan5.rows)
    ok = symbolic_ok and value_ok and range_ok
    record_criterion(
        4, "Osin bound: Lambda=(3+sqrt(5))/2 symbolically, 1.4962, in (1,2) on scan", ok
    )
    assert symbolic_ok
    assert value_ok
    assert range_ok


def test_criterion_5_tables_respect_bounds(
    fp23_k8, fp222_k8, torus_bundle_k12, surface2_k4, seifert2_k4
):
    slack = 1e-9
    osin_tb = osin_bound(MatrixZ2.from_rows(((2, 1), (1, 1)))).value
    cases = [
        ("Z2*Z3 k=8", fp23_k8, SQRT2),
        ("Z2*Z2*Z2 k=8", fp222_k8, SQRT2),
        ("torus bundle k=12", torus_bundle_k12, osin_tb),
        ("surface(2) k=4", surface2_k4, surface_bound(2).value),
        ("Z x surface(2) k=4", seifert2_k4, surface_bound(2).value),
    ]
    failures = [
        name
        for name, table, bound in cases
        if min(root_bounds(table)) < bound - slack
    ]
    ok = not failures
    record_criterion(5, "every table's min root bound clears its theorem value", ok)
    assert ok, f"tables below their lower bounds: {failures}"


def test_criterion_6_polynomial_degrees(heisenberg_k40, z3_k40):
    heis = estimate_rates(heisenberg_k40, (10, 40))
    z3 = estimate_rates(z3_k40, (10, 40))
    heis_ok = heis.verdict == "polynomial" and 3.5 <= heis.doubling_degree <= 4.5
    z3_ok = z3.verdict == "polynomial" and 2.7 <= z3.loglog_slope <= 3.3
    ok = heis_ok and z3_ok
    record_criterion(
        6, "Heisenberg degree ~4 on [10,40], Z^3 degree ~3 on [10,40]", ok
    )
    assert heis_ok, (heis.verdict, heis.doubling_degree)
    assert z3_ok, (z3.verdict, z3.loglog_slope)


def test_criterion_7_scan_minima(scan5):
    by_det = {c.det: c for c in scan5.classes}
    plus_ok = (
        by_det[1].min_lambda == QuadraticValue(3, 1, 5)
        and not by_det[1].lambda_le_2
    )
    minus = by_det[-1]
    minus_ok = (
        minus.min_lambda == QuadraticValue(1, 1, 5)
        and minus.lambda_le_2
        and minus.note is not None
        and "Lambda <= 2 exactly when |tr| = 1" in minus.note
        and "still clears the 2^(1/6) solvable floor" in minus.note
    )
    ok = plus_ok and minus_ok
    record_criterion(
        7, "scan minima: det=+1 (3+sqrt(5))/2, det=-1 (1+sqrt(5))/2 flagged <= 2", ok
    )
    assert plus_ok
    assert minus_ok


def test_criterion_8_universal_constant():
    r = universal_constant()
    detail = {name: known for name, known, _ in r.hypothesis_detail}
    ok = (
        r.value == SOLVABLE_UNIVERSAL
        and r.exact_form == "2^(1/6)"
        and detail["hyperbolic"] is False
        and detail["seifert_sl2"] is False
    )
    record_criterion(8, "universal constant 2^(1/6) with unknown branches flagged", ok)
    assert ok, (r.value, detail)


def test_criterion_9_property_suite(
    free2_k8,
    z2_k30,
    z3_k40,
    dihedral_k50,
    heisenberg_k40,
    surface2_k4,
    seifert2_k4,
    torus_bundle_k12,
    fp23_k8,
    fp222_k8,
    tmp_path,
):
    tables = (
        free2_k8,
        z2_k30,
        z3_k40,
        dihedral_k50,
        heisenberg_k40,
        surface2_k4,
        seifert2_k4,
        torus_bundle_k12,
        fp23_k8,
        fp222_k8,
    )
    submult_ok = all(
        t.gamma[m + n] <= t.gamma[m] * t.gamma[n]
        for t in tables
        for m in range(len(t.gamma))
        for n in range(len(t.gamma) - m)
    )

    laws_ok = True
    for table in tables:
        handle = make_group(table.spec)
        sample = ball_elements(handle, handle.default_generators(), 2)[:15]
        for g in sample:
            if handle.mul(g, handle.inv(g)) != handle.identity:
                laws_ok = False
        for g, h, k in itertools.islice(itertools.product(sample[:5], repeat=3), 60):
            if handle.mul(handle.mul(g, h), k) != handle.mul(g, handle.mul(h, k)):
                laws_ok = False

    spec_path = tmp_path / "free2.json"
    spec_path.write_text(json.dumps({"family": "free", "params": {"n": 2}}))
    argv = [sys.executable, "-m", "groupgrowth.cli"]
    g1 = subprocess.run(argv + ["growth", "--spec", str(spec_path), "--kmax", "6"], capture_output=True)
    g2 = subprocess.run(argv + ["growth", "--spec", str(spec_path), "--kmax", "6"], capture_output=True)
    s1 = subprocess.run(argv + ["scan", "--entry-bound", "2"], capture_output=True)
    s2 = subprocess.run(argv + ["scan", "--entry-bound", "2"], capture_output=True)
    determinism_ok = (
        g1.returncode == 0
        and g1.stdout == g2.stdout
        and s1.returncode == 0
        and s1.stdout == s2.stdout
    )

    ok = submult_ok and laws_ok and determinism_ok
    record_criterion(
        9, "submultiplicativity, group laws on samples, byte-identical reruns", ok
    )
    assert submult_ok
    assert laws_ok
    assert determinism_ok
