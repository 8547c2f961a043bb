import math
import os
import subprocess
import sys

import pytest

import groupgrowth
import oracles
from groupgrowth import (
    GroupSpec,
    WindowTooSmall,
    estimate_rates,
    growth_table,
    make_group,
    ratio_estimates,
    root_bounds,
)


def small_table(spec, kmax):
    handle = make_group(spec)
    return growth_table(handle, handle.default_generators(), kmax)


# --- root bounds ----------------------------------------------------------------


def test_root_bounds_free2(free2_k8):
    roots = root_bounds(free2_k8)
    assert len(roots) == 8
    for k, u in enumerate(roots, start=1):
        assert u == pytest.approx((2 * 3 ** k - 1) ** (1 / k))
    # upper bounds decrease toward the true rate 3
    assert all(roots[i] > roots[i + 1] for i in range(len(roots) - 1))
    assert all(u > 3 for u in roots)


def test_root_bounds_are_valid_upper_bounds(heisenberg_k40, fp23_k8):
    # Fekete: gamma(k)^(1/k) >= inf_j gamma(j)^(1/j); the minimum sits at kmax
    for table in (heisenberg_k40, fp23_k8):
        roots = root_bounds(table)
        assert min(roots) == pytest.approx(roots[-1], rel=1e-12)


# --- sphere ratios ----------------------------------------------------------------


def test_ratios_free2(free2_k8):
    # sigma(k) = 4 * 3^(k-1), so each ratio is exactly 3
    assert ratio_estimates(free2_k8) == [3.0] * 7


def test_ratio_estimates_stop_at_dead_sphere():
    # cyclic(5) spheres are 1, 2, 2, 0, 0: the ratios end with the 0 of the first empty sphere
    table = small_table(GroupSpec.cyclic(5), 4)
    assert table.sigma == (1, 2, 2, 0, 0)
    assert ratio_estimates(table) == [1.0, 0.0]
    assert ratio_estimates(small_table(GroupSpec.trivial(), 3)) == []


# --- polynomial degree fits ----------------------------------------------------------


def test_heisenberg_degree_four(heisenberg_k40):
    est = estimate_rates(heisenberg_k40, (10, 40))
    assert est.verdict == "polynomial"
    assert est.degree == 4
    assert est.loglog_slope == pytest.approx(4.0, abs=0.5)
    assert est.doubling_degree == pytest.approx(4.0, abs=0.5)


def test_abelian_degrees(z2_k30, z3_k40):
    est2 = estimate_rates(z2_k30, (10, 30))
    assert est2.degree == 2
    est3 = estimate_rates(z3_k40, (10, 40))
    assert est3.degree == 3
    assert est3.loglog_slope == pytest.approx(3.0, abs=0.3)


def test_free2_is_exponential(free2_k8):
    est = estimate_rates(free2_k8, (2, 8))
    assert est.verdict == "exponential"
    assert est.degree is None


def test_dihedral_linear(dihedral_k50):
    est = estimate_rates(dihedral_k50, (10, 50))
    assert est.verdict == "polynomial"
    assert est.degree == 1


def test_window_validation(free2_k8):
    with pytest.raises(WindowTooSmall):
        estimate_rates(free2_k8, (2, 4))  # 3 points
    with pytest.raises(WindowTooSmall):
        estimate_rates(free2_k8, (1, 8))  # kmin below 2
    with pytest.raises(WindowTooSmall):
        estimate_rates(free2_k8, (5, 12))  # beyond the table


def test_window_past_a_budget_cut_is_not_fitted():
    handle = make_group(GroupSpec.free(2))
    table = growth_table(handle, handle.default_generators(), 8, max_elements=1000)
    assert not table.complete and table.kmax == 5
    est = estimate_rates(table, (4, 8))
    fits = (est.window, est.loglog_slope, est.doubling_degree, est.degree, est.extrapolated_rate)
    assert fits == (None,) * 5
    assert est.verdict_label() == "inconclusive"
    # a window that fits no table is still rejected
    with pytest.raises(WindowTooSmall):
        estimate_rates(table, (1, 8))


# --- least-squares fits against the exact oracle ---------------------------------


@pytest.mark.parametrize("name", ["free2_k8", "heisenberg_k40", "fp23_k8", "torus_bundle_k12"])
def test_fits_match_exact_least_squares(request, name):
    table = request.getfixturevalue(name)
    for lo, hi in ((2, 5), (table.kmax // 2, table.kmax)):
        ks = range(lo, hi + 1)
        logs = [math.log(table.gamma[k]) for k in ks]
        estimate = estimate_rates(table, (lo, hi))
        loglog = oracles.least_squares_slope([math.log(k) for k in ks], logs)
        assert estimate.loglog_slope == pytest.approx(loglog, rel=1e-12)
        if estimate.verdict == "polynomial":
            assert estimate.extrapolated_rate is None
        else:
            rate = math.exp(oracles.least_squares_slope(list(ks), logs))
            assert estimate.extrapolated_rate == pytest.approx(rate, rel=1e-12)


def test_cli_import_leaves_numpy_out():
    # a fresh interpreter, so no other test's imports leak into sys.modules
    src = os.path.dirname(os.path.dirname(groupgrowth.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, groupgrowth.cli; print('numpy' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert result.stdout.strip() == "False"


# --- bundled estimates ---------------------------------------------------------------


def test_estimate_rates_free2(free2_k8):
    d = estimate_rates(free2_k8).to_dict()
    assert d["verdict"] == "exponential"
    assert d["window"] == [4, 8]  # default trailing half
    assert d["inf_root"] == pytest.approx(min(root_bounds(free2_k8)), rel=1e-9)
    assert d["entropy"] == pytest.approx(math.log(d["inf_root"]), rel=1e-9)
    assert d["extrapolated_rate"] == pytest.approx(3.0, abs=0.05)
    assert len(d["root_bounds"]) == 8
    assert d["ratios"] == [3.0] * 7


def test_estimate_rates_polynomial_verdict_rendering(z2_k30):
    d = estimate_rates(z2_k30).to_dict()
    assert d["verdict"] == "polynomial(2)"
    assert d["extrapolated_rate"] is None


def test_estimate_rates_on_finite_group():
    table = small_table(GroupSpec.cyclic(5), 6)
    d = estimate_rates(table).to_dict()
    # spheres die at k=3; ratios stop there and the verdict is flat growth
    assert d["verdict"] == "polynomial(0)"
    assert d["ratios"] == [1.0, 0.0]


def test_estimate_rates_small_table_is_inconclusive():
    table = small_table(GroupSpec.free(2), 4)
    d = estimate_rates(table).to_dict()
    assert d["verdict"] == "inconclusive"
    assert d["window"] is None


def test_estimate_rates_explicit_window(heisenberg_k40):
    d = estimate_rates(heisenberg_k40, window=(10, 40)).to_dict()
    assert d["verdict"] == "polynomial(4)"
    assert d["window"] == [10, 40]


def test_rates_of_balls_past_the_float_range():
    # gamma(1000) of surface(2) is about 7^1000, and gamma(1000)/gamma(500)
    # too is past a float
    table = small_table(GroupSpec.surface(2), 1000)
    assert table.gamma[1000] > 10**400
    est = estimate_rates(table)
    assert est.root_bounds[4] == table.gamma[5] ** (1.0 / 5)
    assert est.root_bounds[-1] == pytest.approx(math.exp(math.log(table.gamma[1000]) / 1000), rel=1e-15)
    assert est.doubling_degree == pytest.approx(math.log2(table.gamma[1000]) - math.log2(table.gamma[500]))
    # Cannon's denominator is palindromic, so the growth rate is its largest root
    rate = est.extrapolated_rate
    assert rate**4 - 6 * rate**3 - 6 * rate**2 - 6 * rate + 1 == pytest.approx(0, abs=1e-6)
    assert est.to_dict()["extrapolated_rate"] == 6.97983577922
