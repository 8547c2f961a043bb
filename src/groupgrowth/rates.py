"""Growth-rate estimates from exact ball counts.

Since log gamma is subadditive, gamma(k)^(1/k) converges to its infimum
(Fekete), so every k-th root is a certified upper bound for the growth rate
of the pair and the minimum over k is the best bound the table supports.
Ratio and least-squares estimates are heuristics layered on the same data.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

from .cayley import GrowthTable, root_bound
from .errors import WindowTooSmall

EXPONENTIAL_RATIO_THRESHOLD = 1.2
POLYNOMIAL_RATIO_THRESHOLD = 1.1
_VERDICT_POINTS = 5  # trailing ratios consulted for the verdict


def root_bounds(table: GrowthTable) -> list[float]:
    """u_k = gamma(k)^(1/k) for k = 1..kmax; each bounds the rate from above."""
    return [root_bound(table.gamma[k], k) for k in range(1, table.kmax + 1)]


def ratio_estimates(table: GrowthTable) -> list[float]:
    """sigma(k+1)/sigma(k) for k = 1..kmax-1; heuristic only, no bound semantics.

    The list stops at the first empty sphere: it ends with that sphere's
    ratio 0, or is empty when sphere 1 already is.
    """
    out = []
    for k in range(1, table.kmax):
        if table.sigma[k] == 0:
            break
        out.append(table.sigma[k + 1] / table.sigma[k])
        if table.sigma[k + 1] == 0:
            break
    return out


def check_window(window, kmax) -> tuple[int, int]:
    """The window (lo, hi); raises WindowTooSmall unless it fits a table up to radius kmax."""
    lo, hi = window
    if lo < 2:
        raise WindowTooSmall(f"window must start at k >= 2, got {lo}")
    if hi > kmax:
        raise WindowTooSmall(f"window end {hi} exceeds table kmax {kmax}")
    if hi - lo + 1 < 4:
        raise WindowTooSmall(f"window [{lo},{hi}] has fewer than 4 points")
    return lo, hi


def _verdict(ratios, lo: int, hi: int, slope: float) -> tuple[str, int | None]:
    """Growth verdict and degree from the sphere ratios of the last few window points.

    `ratios[k-2]` is sigma(k)/sigma(k-1), up to the first empty sphere.  The
    verdict is exponential when those ratios all clear 1.2, polynomial when
    they all stay under 1.1 (degree = rounded log-log slope), and
    inconclusive in between.
    """
    if len(ratios) <= hi - 2:
        # the first empty sphere, len(ratios)+1, is at most hi-1; at most lo+1, gamma is flat
        return ("polynomial", 0) if len(ratios) <= lo else ("inconclusive", None)
    last = ratios[max(lo, hi - _VERDICT_POINTS + 1) - 2 : hi - 1]
    if all(r >= EXPONENTIAL_RATIO_THRESHOLD for r in last):
        return "exponential", None
    if all(r <= POLYNOMIAL_RATIO_THRESHOLD for r in last):
        return "polynomial", round(slope)
    return "inconclusive", None


def _log_gamma_slope(table: GrowthTable, lo: int, hi: int, x) -> float:
    """Least-squares slope of log gamma(k) against x(k) for k = lo..hi."""
    ks = range(lo, hi + 1)
    logs = [math.log(table.gamma[k]) for k in ks]
    return statistics.linear_regression([x(k) for k in ks], logs).slope


@dataclass(frozen=True)
class RateEstimates:
    """The table's exact rate data and, when a window is fitted, the fits over it."""

    root_bounds: tuple[float, ...]
    ratios: tuple[float, ...]
    inf_root: float
    entropy: float
    window: tuple[int, int] | None = None
    loglog_slope: float | None = None
    doubling_degree: float | None = None
    verdict: str = "inconclusive"  # or "polynomial" | "exponential"
    degree: int | None = None
    extrapolated_rate: float | None = None

    def verdict_label(self) -> str:
        return self.verdict if self.degree is None else f"polynomial({self.degree})"

    def to_dict(self) -> dict:
        return {
            "root_bounds": [round12(u) for u in self.root_bounds],
            "ratios": [round12(r) for r in self.ratios],
            "inf_root": round12(self.inf_root),
            "entropy": round12(self.entropy),
            "window": None if self.window is None else list(self.window),
            "verdict": self.verdict_label(),
            "extrapolated_rate": None
            if self.extrapolated_rate is None
            else round12(self.extrapolated_rate),
        }


def round12(x: float) -> float:
    """x rounded to the 12 significant digits every JSON report carries."""
    return float("%.12g" % x)


def estimate_rates(table: GrowthTable, window=None) -> RateEstimates:
    """Every estimate the table supports, with one least-squares fit over a window.

    The window defaults to the top half of the table.  Without a window (too
    few points for the default, or a budget that cut the table inside the
    given one) the verdict is inconclusive and only the exact parts (root
    bounds, ratios, entropy of the infimum) are reported.  Over a window the
    fits are the log-log slope of gamma(k), the doubling degree
    log2(gamma(2k)/gamma(k)) at the largest k <= hi with 2k <= kmax, and the
    extrapolated rate, exp of the least-squares slope of log gamma(k), left
    None on a polynomial verdict, where it means nothing.
    """
    roots = tuple(root_bounds(table))
    ratios = tuple(ratio_estimates(table))
    # every gamma(k) >= 1, so inf_root >= 1 and its log (the entropy) is >= 0
    inf_root = min(roots) if roots else 1.0
    exact = (roots, ratios, inf_root, math.log(inf_root))
    if window is None and table.kmax >= 5:
        window = (max(2, table.kmax // 2), table.kmax)
    if window is not None:
        lo, hi = check_window(window, table.kmax if table.complete else math.inf)
    if window is None or hi > table.kmax:  # no window, or a budget cut the table inside it
        return RateEstimates(*exact)
    slope = _log_gamma_slope(table, lo, hi, math.log)
    k = min(hi, table.kmax // 2)
    verdict, degree = _verdict(ratios, lo, hi, slope)
    return RateEstimates(
        *exact,
        window=(lo, hi),
        loglog_slope=slope,
        doubling_degree=math.log2(table.gamma[2 * k]) - math.log2(table.gamma[k]),
        verdict=verdict,
        degree=degree,
        extrapolated_rate=None
        if verdict == "polynomial"
        else math.exp(_log_gamma_slope(table, lo, hi, float)),
    )


def table_csv_rows(table: GrowthTable, rates: RateEstimates) -> list[str]:
    """CSV lines `k,gamma,sigma,root_bound,ratio` (12 significant digits).

    Row k carries u_k (blank at k=0) and the sphere ratio sigma(k)/sigma(k-1)
    (blank past the end of `rates.ratios`), both read from `rates`, the
    table's `estimate_rates` over any window.
    """
    lines = ["k,gamma,sigma,root_bound,ratio"]
    for k in range(table.kmax + 1):
        root = "%.12g" % rates.root_bounds[k - 1] if k else ""
        ratio = "%.12g" % rates.ratios[k - 2] if 2 <= k < len(rates.ratios) + 2 else ""
        lines.append(f"{k},{table.gamma[k]},{table.sigma[k]},{root},{ratio}")
    return lines
