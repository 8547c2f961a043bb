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

from .cayley import GrowthTable
from .errors import WindowTooSmall

EXPONENTIAL_RATIO_THRESHOLD = 1.2
POLYNOMIAL_RATIO_THRESHOLD = 1.1
_VERDICT_POINTS = 5  # trailing ratios consulted for the verdict


def root_bounds(table: GrowthTable) -> list[float]:
    """u_k = gamma(k)^(1/k) for k = 1..kmax; each bounds the rate from above."""
    return [table.gamma[k] ** (1.0 / k) for k in range(1, table.kmax + 1)]


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


def _check_window(table: GrowthTable, window) -> tuple[int, int]:
    lo, hi = window
    if lo < 2:
        raise WindowTooSmall(f"window must start at k >= 2, got {lo}")
    if hi > table.kmax:
        raise WindowTooSmall(f"window end {hi} exceeds table kmax {table.kmax}")
    if hi - lo + 1 < 4:
        raise WindowTooSmall(f"window [{lo},{hi}] has fewer than 4 points")
    return lo, hi


def _trailing_ratios(table: GrowthTable, lo: int, hi: int) -> list[float] | None:
    """sigma(k)/sigma(k-1) for the last few window points; None when a sphere died."""
    ks = range(max(lo, hi - _VERDICT_POINTS + 1), hi + 1)
    out = []
    for k in ks:
        if table.sigma[k - 1] == 0:
            return None
        out.append(table.sigma[k] / table.sigma[k - 1])
    return out


def _log_gamma_slope(table: GrowthTable, lo: int, hi: int, x) -> float:
    """Least-squares slope of log gamma(k) against x(k) for k = lo..hi."""
    ks = range(lo, hi + 1)
    logs = [math.log(table.gamma[k]) for k in ks]
    return statistics.linear_regression([x(k) for k in ks], logs).slope


def _verdict_label(verdict: str, degree: int | None) -> str:
    return verdict if degree is None else f"polynomial({degree})"


@dataclass(frozen=True)
class DegreeEstimate:
    loglog_slope: float
    doubling_degree: float | None
    verdict: str  # "polynomial" | "exponential" | "inconclusive"
    degree: int | None
    window: tuple[int, int]

    def verdict_label(self) -> str:
        return _verdict_label(self.verdict, self.degree)


def poly_degree(table: GrowthTable, window) -> DegreeEstimate:
    """Least-squares degree of gamma over a window, with a growth verdict.

    The verdict is exponential when the trailing sphere ratios all clear 1.2,
    polynomial when they all stay under 1.1 (degree = rounded log-log slope),
    and inconclusive in between.
    """
    lo, hi = _check_window(table, window)
    slope = _log_gamma_slope(table, lo, hi, math.log)

    doubling = None
    for k in range(hi, 0, -1):
        if 2 * k <= table.kmax:
            doubling = math.log2(table.gamma[2 * k] / table.gamma[k])
            break

    ratios = _trailing_ratios(table, lo, hi)
    if ratios is None:
        # spheres died inside the window: growth stopped entirely
        if table.gamma[hi] == table.gamma[lo]:
            return DegreeEstimate(slope, doubling, "polynomial", 0, (lo, hi))
        return DegreeEstimate(slope, doubling, "inconclusive", None, (lo, hi))
    if all(r >= EXPONENTIAL_RATIO_THRESHOLD for r in ratios):
        return DegreeEstimate(slope, doubling, "exponential", None, (lo, hi))
    if all(r <= POLYNOMIAL_RATIO_THRESHOLD for r in ratios):
        return DegreeEstimate(slope, doubling, "polynomial", round(slope), (lo, hi))
    return DegreeEstimate(slope, doubling, "inconclusive", None, (lo, hi))


@dataclass(frozen=True)
class RateEstimates:
    root_bounds: tuple[float, ...]
    ratios: tuple[float, ...]
    inf_root: float
    entropy: float
    window: tuple[int, int] | None
    verdict: str
    degree: int | None
    extrapolated_rate: float | None

    def to_dict(self) -> dict:
        return {
            "root_bounds": [round12(u) for u in self.root_bounds],
            "ratios": [round12(r) for r in self.ratios],
            "inf_root": round12(self.inf_root),
            "entropy": round12(self.entropy),
            "window": None if self.window is None else list(self.window),
            "verdict": _verdict_label(self.verdict, self.degree),
            "extrapolated_rate": None
            if self.extrapolated_rate is None
            else round12(self.extrapolated_rate),
        }


def round12(x: float) -> float:
    """x rounded to the 12 significant digits every JSON report carries."""
    return float("%.12g" % x)


def estimate_rates(table: GrowthTable, window=None) -> RateEstimates:
    """Bundle every estimator the table supports.

    The window defaults to the top half of the table; when too few points
    exist for a fit the verdict is inconclusive and only the exact parts
    (root bounds, ratios, entropy of the infimum) are reported.  The
    extrapolated rate is exp of the least-squares slope of log gamma(k) over
    the window, left None on a polynomial verdict, where it means nothing.
    """
    roots = root_bounds(table)
    ratios = ratio_estimates(table)
    # every gamma(k) >= 1, so inf_root >= 1 and its log (the entropy) is >= 0
    inf_root = min(roots) if roots else 1.0
    if window is None and table.kmax >= 5:
        window = (max(2, table.kmax // 2), table.kmax)
    verdict = "inconclusive"
    degree = None
    extrapolated = None
    win = None
    if window is not None:
        estimate = poly_degree(table, window)
        win = estimate.window
        verdict = estimate.verdict
        degree = estimate.degree
        if verdict != "polynomial":
            extrapolated = math.exp(_log_gamma_slope(table, *win, float))
    return RateEstimates(
        root_bounds=tuple(roots),
        ratios=tuple(ratios),
        inf_root=inf_root,
        entropy=math.log(inf_root),
        window=win,
        verdict=verdict,
        degree=degree,
        extrapolated_rate=extrapolated,
    )
