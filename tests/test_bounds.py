import functools
import itertools
import math
import random
from decimal import Decimal, getcontext, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from groupgrowth import (
    InvalidGenus,
    MatrixZ2,
    QuadraticValue,
    SOLVABLE_UNIVERSAL,
    SQRT2,
    FOURTH_ROOT_2,
    amalgam_bound,
    bcg_bound,
    free_product_bound,
    hnn_bound,
    is_hyperbolic,
    lambda_max,
    make_bcg_table,
    osin_bound,
    scan_hyperbolic,
    solvable_bound,
    squarefree_part,
    surface_bound,
)
from groupgrowth import bounds, cli
from groupgrowth.bounds import _two_radical_sign, scan_csv_rows

import oracles

getcontext().prec = 60


def as_decimal(v: QuadraticValue) -> Decimal:
    return (Decimal(v.p) + Decimal(v.q) * Decimal(v.D).sqrt()) / 2


def mat(a, b, c, d):
    return MatrixZ2.from_rows(((a, b), (c, d)))


# --- exact quadratic values -----------------------------------------------------


def test_squarefree_part():
    assert squarefree_part(12) == (2, 3)
    assert squarefree_part(49) == (7, 1)
    assert squarefree_part(1) == (1, 1)
    assert squarefree_part(360) == (6, 10)


def test_squarefree_part_matches_trial_division_to_the_square_root():
    rng = random.Random(11)
    cases = list(range(3000)) + [rng.randrange(10**9) for _ in range(200)]
    # p^2 * q, where the cube-root loop leaves p^2 or p^2 * q to the square-root test
    cases += [p * p * q for p in (10007, 99991) for q in (1, 2, 3, 10009, 99989)]
    # tr^2 - 4 = (tr - 2)(tr + 2) for det 1: twin and cousin prime products
    cases += [p * (p + 2) for p in (10007, 99989)] + [p * (p + 4) for p in (10099, 100189)]
    for m in cases:
        assert squarefree_part(m) == oracles.squarefree_part(m), m


def test_squarefree_part_of_a_large_cousin_prime_product():
    # 1000000093 and 1000000097 are prime: the radicand of [[1000000094, 1], [1000000093, 1]]
    m = 1000000093 * 1000000097
    assert squarefree_part(m) == (1, m)
    assert squarefree_part(m * 4) == (2, m)


def test_normalization():
    v = QuadraticValue.sqrt_int(8)
    assert (v.p, v.q, v.D) == (0, 4, 2)  # sqrt(8) = 2*sqrt(2)
    assert QuadraticValue.sqrt_int(9) == 3
    assert QuadraticValue(6, 0, 0) == Fraction(3)
    # D = 1 folds into the rational part
    assert QuadraticValue(4, 2, 1) == 3


def test_exact_strings():
    assert lambda_max(mat(2, 1, 1, 1)).exact_str() == "(3+sqrt(5))/2"
    assert QuadraticValue(4, 2, 3).exact_str() == "2+sqrt(3)"
    assert QuadraticValue.sqrt_int(8).exact_str() == "2*sqrt(2)"
    assert QuadraticValue(6, 0, 0).exact_str() == "3"


def test_exact_str_matches_the_oracle_formatter():
    for D in (2, 3, 5, 6, 7, 10, 15, 30):
        for p in range(-13, 14):
            for q in range(-7, 8):
                assert QuadraticValue(p, q, D).exact_str() == oracles.surd_str(p, q, D), (p, q, D)


def test_cross_radical_comparisons():
    golden = lambda_max(mat(2, 1, 1, 1))  # (3+sqrt(5))/2
    assert golden < QuadraticValue(4, 2, 3)  # 2+sqrt(3)
    assert golden > 2
    assert golden < 3
    assert lambda_max(mat(1, 1, 1, 0)) <= 2  # (1+sqrt(5))/2
    assert QuadraticValue.sqrt_int(2) < QuadraticValue.sqrt_int(3)


def test_hash_and_equality_with_rationals():
    assert hash(QuadraticValue(6, 0, 0)) == hash(3)
    assert hash(QuadraticValue.sqrt_int(9)) == hash(3)
    assert hash(QuadraticValue(5, 0, 7)) == hash(Fraction(5, 2))
    assert QuadraticValue(5, 0, 7) == Fraction(5, 2)
    assert QuadraticValue(0, 2, 8) == QuadraticValue(0, 4, 2)


def test_float_conversion():
    assert float(lambda_max(mat(2, 1, 1, 1))) == pytest.approx((3 + 5 ** 0.5) / 2)


small_ints = st.integers(min_value=-40, max_value=40)
small_d = st.integers(min_value=0, max_value=30)


@settings(max_examples=300)
@given(small_ints, small_ints, small_d, small_ints, small_ints, small_d)
def test_comparisons_match_high_precision_decimal(p1, q1, d1, p2, q2, d2):
    u = QuadraticValue(p1, q1, d1)
    v = QuadraticValue(p2, q2, d2)
    du, dv = as_decimal(u), as_decimal(v)
    assert (u < v) == (du < dv)
    assert (u == v) == (du == dv)
    assert (u > v) == (du > dv)


@settings(max_examples=300)
@given(small_ints, small_ints, small_d, small_ints, st.integers(min_value=1, max_value=9))
def test_comparisons_with_rationals_match_high_precision_decimal(p, q, d, n, den):
    # ints, Fractions and bools are all compared as n/d
    u = QuadraticValue(p, q, d)
    du = as_decimal(u)
    for r in (Fraction(n, den), n, n % 2 == 0):
        dr = Decimal(r.numerator) / Decimal(r.denominator)
        assert (u < r, u <= r, u == r, u >= r, u > r) == (du < dr, du <= dr, du == dr, du >= dr, du > dr)


@settings(max_examples=100)
@given(small_ints, small_ints, small_d)
def test_decimal_agrees_with_float(p, q, d):
    v = QuadraticValue(p, q, d)
    assert float(v) == pytest.approx(float(as_decimal(v)), abs=1e-9)


def test_sign_kernel_matches_decimal_oracle():
    # every a, b, c in [-5, 5] and D1, D2 in [0, 12], squarefree or not; through
    # the x part this also covers _single_radical_sign.  A nonzero value here
    # has an integer norm of at least 1 over conjugates below 40 in size, so
    # |v| > 1e-5 and 50 digits with a 1e-30 zero band decide every sign.
    mismatches = []
    with localcontext() as ctx:
        ctx.prec = 50
        roots = [Decimal(D).sqrt() for D in range(13)]
        zero = Decimal("1e-30")
        for a, b, c in itertools.product(range(-5, 6), repeat=3):
            for D1, D2 in itertools.product(range(13), repeat=2):
                v = a + b * roots[D1] + c * roots[D2]
                expected = 0 if abs(v) < zero else (1 if v > 0 else -1)
                if _two_radical_sign(a, b, D1, c, D2) != expected:
                    mismatches.append((a, b, D1, c, D2))
    assert mismatches == []


# --- matrix spectra ---------------------------------------------------------------


def test_lambda_max_examples():
    assert lambda_max(mat(2, 1, 1, 1)) == QuadraticValue(3, 1, 5)
    assert lambda_max(mat(1, 1, 1, 0)) == QuadraticValue(1, 1, 5)
    # rotation: complex pair, modulus sqrt(det) = 1
    assert lambda_max(mat(0, 1, -1, 0)) == 1
    # shear: repeated eigenvalue 1
    assert lambda_max(mat(1, 1, 0, 1)) == 1


def test_charpoly_residues_vanish():
    # lambda satisfies x^2 - |tr| x + det = 0; in (p + q sqrt(D))/2 terms the
    # rational and radical parts must cancel separately
    for a, b, c, d in [(2, 1, 1, 1), (3, 1, 2, 1), (1, 1, 1, 0), (5, 2, 2, 1)]:
        m = mat(a, b, c, d)
        lam = lambda_max(m)
        tr, det = abs(m.trace()), m.det()
        assert lam.p ** 2 + lam.q ** 2 * lam.D - 2 * tr * lam.p + 4 * det == 0
        assert 2 * lam.q * (lam.p - tr) == 0


def test_is_hyperbolic():
    assert is_hyperbolic(mat(2, 1, 1, 1))
    assert is_hyperbolic(mat(1, 1, 1, 0))  # det -1, golden ratio
    assert not is_hyperbolic(mat(0, 1, -1, 0))  # rotation
    assert not is_hyperbolic(mat(1, 1, 0, 1))  # shear
    assert not is_hyperbolic(mat(2, 0, 0, 2))  # det 4
    assert not is_hyperbolic(MatrixZ2(1, 0, 0, 1))


# --- Osin bound --------------------------------------------------------------------


def test_osin_values():
    r = osin_bound(mat(2, 1, 1, 1))
    assert r.hypotheses_ok
    assert r.theorem == "osin_polycyclic"
    assert r.value == pytest.approx(1.4962221128324007, abs=1e-12)
    r2 = osin_bound(mat(3, 1, 2, 1))
    assert r2.value == pytest.approx(1.5748000717134247, abs=1e-12)


def test_osin_fails_for_non_hyperbolic():
    r = osin_bound(mat(0, 1, -1, 0))
    assert not r.hypotheses_ok
    assert r.value is None
    names = [name for name, ok, _ in r.hypothesis_detail]
    assert names == ["abs_det_is_1", "no_modulus_one_eigenvalue"]


def test_osin_bound_formula():
    lam = float(lambda_max(mat(2, 1, 1, 1)))
    expected = 2 ** (math.log(lam) / (math.log(2) + math.log(lam)))
    assert osin_bound(mat(2, 1, 1, 1)).value == pytest.approx(expected, rel=1e-15)


def test_osin_in_unit_interval_and_monotone(scan5):
    rows = sorted(scan5.rows, key=lambda r: float(r.lam))
    for r in rows:
        assert 1 < r.osin < 2
    for r1, r2 in zip(rows, rows[1:]):
        assert r1.osin <= r2.osin + 1e-12


# --- surface and free product gates ---------------------------------------------------


def test_surface_bound_values():
    assert surface_bound(2).value == 5.0
    assert surface_bound(2).theorem == "surface_4g3"
    assert surface_bound(5).value == 17.0
    weak = surface_bound(2, weak=True)
    assert weak.value == 3.0
    assert weak.theorem == "surface_2g1"
    with pytest.raises(InvalidGenus):
        surface_bound(1)


def test_free_product_gate():
    ok = free_product_bound([2, 3])
    assert ok.hypotheses_ok and ok.value == SQRT2
    assert ok.theorem == "bucher_free_product"
    # the infinite dihedral exclusion
    bad = free_product_bound([2, 2])
    assert not bad.hypotheses_ok and bad.value is None
    # three factors always pass, even all Z2
    three = free_product_bound([2] * 3)
    assert three.hypotheses_ok
    # an infinite factor has order math.inf
    inf_factor = free_product_bound([2, math.inf])
    assert inf_factor.hypotheses_ok
    for bad in (0, 2.5, True, "2"):
        with pytest.raises(ValueError):
            free_product_bound([bad, 3])


def test_amalgam_gate():
    assert amalgam_bound(3, 2).hypotheses_ok
    assert amalgam_bound(3, 2).value == FOURTH_ROOT_2
    assert not amalgam_bound(2, 2).hypotheses_ok  # (1)(1) = 1 < 2
    assert amalgam_bound(math.inf, 2).hypotheses_ok
    # convention 0 * inf = 0
    assert not amalgam_bound(math.inf, 1).hypotheses_ok


def test_hnn_gate():
    assert hnn_bound(2, 1).hypotheses_ok
    assert hnn_bound(2, 1).value == FOURTH_ROOT_2
    assert hnn_bound(math.inf, 1).hypotheses_ok
    assert not hnn_bound(1, 1).hypotheses_ok


def _fmt_index(i):
    return "inf" if i == math.inf else str(i)


def assert_gated(report, theorem, detail, value, exact_form):
    """The gate rule: the value and its exact form are reported exactly when every hypothesis holds."""
    ok = all(holds for _, holds, _ in detail)
    assert report.theorem == theorem
    assert (report.hypotheses_ok, report.hypothesis_detail, report.value, report.exact_form) == (
        ok,
        tuple(detail),
        value if ok else None,
        exact_form if ok else None,
    )


def test_free_product_gate_grid():
    for n in (2, 3, 4):
        for orders in itertools.product((1, 2, 3, 5, math.inf), repeat=n):
            nontrivial = sorted(o for o in orders if o != 1)
            detail = [("two_nontrivial_factors", len(nontrivial) >= 2, f"orders {sorted(orders)}")]
            if len(nontrivial) == 2:
                note = f"|G1| = {nontrivial[0]}, |G2| = {nontrivial[1]}"
                detail.append(("not_Z2_star_Z2", nontrivial != [2, 2], note))
            elif len(nontrivial) > 2:
                note = f"{len(nontrivial)} nontrivial factors; grouped product is infinite"
                detail.append(("not_Z2_star_Z2", True, note))
            report = free_product_bound(orders)
            assert report.hypotheses_ok == (len(nontrivial) >= 2 and nontrivial != [2, 2])
            assert_gated(report, "bucher_free_product", detail, SQRT2, "sqrt(2)")


def test_amalgam_and_hnn_gate_grid():
    for i, j in itertools.product((1, 2, 3, math.inf), repeat=2):
        product = 0 if 1 in (i, j) else (i - 1) * (j - 1)
        note = f"({_fmt_index(i)}-1)({_fmt_index(j)}-1) = {_fmt_index(product)}"
        detail = [("index_product_ge_2", product >= 2, note)]
        assert_gated(amalgam_bound(i, j), "bucher_harpe_amalgam", detail, FOURTH_ROOT_2, "2^(1/4)")
        note = f"{_fmt_index(i)}+{_fmt_index(j)} = {_fmt_index(i + j)}"
        detail = [("index_sum_ge_3", i + j >= 3, note)]
        assert_gated(hnn_bound(i, j), "bucher_harpe_hnn", detail, FOURTH_ROOT_2, "2^(1/4)")


def test_index_validation():
    for bad in (0, -1, 1.5, True):
        with pytest.raises((ValueError, TypeError)):
            amalgam_bound(bad, 2)


# --- bcg, solvable -----------------------------------------------------------


def test_bcg_table_and_bound():
    table = make_bcg_table({(3, 1): 0.05, (2, 1): 0.04})
    r = bcg_bound(3, 1, table)
    assert r.hypotheses_ok
    assert r.value == pytest.approx(math.exp(0.05))
    missing = bcg_bound(5, 1, table)
    assert not missing.hypotheses_ok and missing.value is None
    # a bool is an int, but as in `cli._load_bcg` it is no constant
    for c in (-0.5, True, False):
        with pytest.raises(ValueError, match=r"constant for \(3, 1\) must be positive"):
            make_bcg_table({(3, 1): c})


@pytest.mark.parametrize("c", [800, 709.8, 10**400, math.inf, math.nan], ids=str)
def test_bcg_constant_without_finite_exponential_rejected(c):
    with pytest.raises(ValueError, match=r"\(3, 1\)"):
        make_bcg_table({(3, 1): c})


def test_solvable_bound():
    r = solvable_bound()
    assert r.value == SOLVABLE_UNIVERSAL
    assert r.theorem == "solvable_universal"
    assert r.hypotheses_ok


def test_named_constants_ordering():
    assert 1 < SOLVABLE_UNIVERSAL < FOURTH_ROOT_2 < SQRT2 < 2
    assert SQRT2 == 2 ** 0.5
    assert FOURTH_ROOT_2 == 2 ** 0.25
    assert SOLVABLE_UNIVERSAL == 2 ** (1 / 6)


# --- matrix scan -------------------------------------------------------------------


PHI = QuadraticValue(1, 1, 5)  # (1+sqrt(5))/2
PHI_SQUARED = QuadraticValue(3, 1, 5)  # (3+sqrt(5))/2
DET_MINUS_ONE_NOTE = (
    "for det=+1 hyperbolic means |tr| >= 3, so Lambda >= (3+sqrt(5))/2 > 2; "
    "for det=-1 hyperbolic means |tr| >= 1, and Lambda <= 2 exactly when |tr| = 1, "
    "where Lambda = (1+sqrt(5))/2; the Osin value increases with Lambda, so the "
    "det=-1 minimum 1.32847 still clears the 2^(1/6) solvable floor"
)
naive_scan = functools.lru_cache(maxsize=None)(oracles.naive_scan)


def test_scan_classes_bound3():
    report = scan_hyperbolic(3)
    by_det = {c.det: c for c in report.classes}
    assert by_det[1].min_lambda == PHI_SQUARED
    assert not by_det[1].lambda_le_2
    assert by_det[1].note == "every det=+1 stretch factor exceeds 2"
    assert by_det[-1].min_lambda == PHI
    assert by_det[-1].lambda_le_2
    assert by_det[-1].note == DET_MINUS_ONE_NOTE


@pytest.mark.parametrize("bound", range(13))
def test_scan_matches_four_loop_oracle(bound):
    rows, classes = naive_scan(bound)
    report = scan_hyperbolic(bound)
    # the summaries come from per-key counts, before any row exists
    assert report.hyperbolic_count == len(rows)
    for summary in report.classes:
        count, min_lam, min_osin, le2, witness = classes[summary.det]
        assert summary.count == count
        assert summary.min_lambda == min_lam
        assert summary.min_osin == min_osin
        assert summary.lambda_le_2 == le2
        assert summary.witness == witness
    assert "rows" not in vars(report)
    got = [(r.a, r.b, r.c, r.d, r.det, r.trace, r.lam.exact_str(), r.osin) for r in report.rows]
    assert got == [(*row[:6], row[6].exact_str(), row[7]) for row in rows]
    assert report.rows is vars(report)["rows"]


@pytest.mark.parametrize("bound", range(9))
def test_scan_computes_each_spectrum_once_in_first_occurrence_order(bound, monkeypatch):
    """lambda_max sees the first matrix of each (|tr|, det) key in lexicographic order, once.

    The keys include the non-hyperbolic ones, some of which only matrices
    with b*c = 0 reach, so the call count is that of the plain matrix loop.
    """
    seen = []
    real = bounds.lambda_max

    def recording(m):
        seen.append((m.a, m.b, m.c, m.d))
        return real(m)

    monkeypatch.setattr(bounds, "lambda_max", recording)
    expected, keys = [], set()
    for a, b, c, d in oracles.all_int_matrices(bound):
        key = (abs(a + d), a * d - b * c)
        if key[1] in (1, -1) and key not in keys:
            keys.add(key)
            expected.append((a, b, c, d))
    hyperbolic_keys = {(abs(row[5]), row[4]) for row in naive_scan(bound)[0]}
    report = scan_hyperbolic(bound)
    # osin_bound reads Lambda again, so each hyperbolic key is seen twice in a row
    assert list(dict.fromkeys(seen)) == expected
    assert len(seen) == len(expected) + len(hyperbolic_keys)
    # building the rows reads the stored spectra
    assert len(report.rows) == report.hyperbolic_count
    assert len(seen) == len(expected) + len(hyperbolic_keys)


def test_scan_cli_builds_no_rows(monkeypatch, capsys):
    reports = []

    def scan(entry_bound):
        reports.append(scan_hyperbolic(entry_bound))
        return reports[-1]

    monkeypatch.setattr(cli, "scan_hyperbolic", scan)
    assert cli.main(["scan", "--entry-bound", "8"]) == 0
    assert '"hyperbolic_count": 1016' in capsys.readouterr().out
    assert "rows" not in vars(reports[0])


def test_scan_csv_bytes_match_oracle_rows(tmp_path, capsys):
    path = tmp_path / "scan.csv"
    assert cli.main(["scan", "--entry-bound", "6", "--out", str(path)]) == 0
    capsys.readouterr()
    lines = ["det,trace,a,b,c,d,lambda_exact,lambda_float,osin_bound"]
    for a, b, c, d, det, trace, lam, osin in naive_scan(6)[0]:
        lines.append(f"{det},{trace},{a},{b},{c},{d},{lam.exact_str()},{float(lam):.12g},{osin:.12g}")
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("bound", range(1, 13))
def test_det_minus_one_note_holds(bound):
    """Each clause of the det=-1 note, checked on the brute-force scan."""
    rows, classes = naive_scan(bound)
    # hyperbolic means |tr| >= 3 for det=+1 and |tr| >= 1 for det=-1
    least_trace = {1: 3, -1: 1}
    expected = {1: 0, -1: 0}
    for a, b, c, d in oracles.all_int_matrices(bound):
        det = a * d - b * c
        if det in expected and abs(a + d) >= least_trace[det]:
            expected[det] += 1
    assert {det: sum(1 for r in rows if r[4] == det) for det in expected} == expected
    # det=+1: Lambda >= (3+sqrt(5))/2 > 2, attained once an entry can reach 2
    plus = [r[6] for r in rows if r[4] == 1]
    assert PHI_SQUARED > 2
    assert all(lam >= PHI_SQUARED for lam in plus)
    assert (min(plus) == PHI_SQUARED) if bound >= 2 else not plus
    # det=-1: Lambda <= 2 exactly when |tr| = 1, and then Lambda = (1+sqrt(5))/2
    for r in rows:
        if r[4] == -1:
            assert (r[6] <= 2) == (abs(r[5]) == 1)
            assert (r[6] == PHI) == (abs(r[5]) == 1)
    # the Osin value increases with Lambda
    by_lam = sorted({(float(r[6]), r[7]) for r in rows})
    assert all(o1 < o2 for (_, o1), (_, o2) in zip(by_lam, by_lam[1:]))
    # so the det=-1 minimum is the value at (1+sqrt(5))/2 and clears 2^(1/6)
    min_osin = classes[-1][2]
    assert min_osin == osin_bound(mat(1, 1, 1, 0)).value
    assert f"{min_osin:.6g}" == "1.32847"
    assert min_osin > SOLVABLE_UNIVERSAL
    assert {c.det: c.note for c in scan_hyperbolic(bound).classes}[-1] == DET_MINUS_ONE_NOTE


def test_scan_witnesses_attain_the_minimum(scan5):
    for summary in scan5.classes:
        a, b, c, d = summary.witness
        assert lambda_max(mat(a, b, c, d)) == summary.min_lambda
        assert mat(a, b, c, d).det() == summary.det


def test_scan_rows_sorted_and_hyperbolic(scan5):
    keys = [(r.a, r.b, r.c, r.d) for r in scan5.rows]
    assert keys == sorted(keys)
    for r in scan5.rows[:50]:
        assert is_hyperbolic(mat(r.a, r.b, r.c, r.d))
        assert abs(r.det) == 1


def test_scan_counts_small():
    report = scan_hyperbolic(1)
    by_det = {c.det: c for c in report.classes}
    # entries in {-1,0,1}: no det=+1 matrix reaches |tr| >= 3
    assert by_det[1].count == 0
    assert by_det[1].min_lambda is None
    assert by_det[-1].count > 0
    assert by_det[-1].min_lambda == QuadraticValue(1, 1, 5)


def test_scan_rejects_negative_bound():
    with pytest.raises(ValueError):
        scan_hyperbolic(-1)


def test_scan_csv_layout(scan5):
    rows = scan_csv_rows(scan5)
    assert rows[0] == "det,trace,a,b,c,d,lambda_exact,lambda_float,osin_bound"
    assert len(rows) == len(scan5.rows) + 1
    first = rows[1].split(",")
    assert len(first) == 9
