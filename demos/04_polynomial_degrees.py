"""Polynomial growth degrees read off from exact tables.

The Heisenberg group grows like k^4 even though it is generated by two
elements; abelian groups grow like k^rank.  Two estimators are compared:
the log-log slope of gamma(k) and the doubling estimate
log2(gamma(2k)/gamma(k)), both over a trailing window.
"""

from groupgrowth import GroupSpec, estimate_rates, growth_table, make_group

CASES = [
    (GroupSpec.free_abelian(1), 40, (10, 40)),
    (GroupSpec.free_abelian(2), 40, (10, 40)),
    (GroupSpec.free_abelian(3), 40, (10, 40)),
    (GroupSpec.heisenberg(), 40, (10, 40)),
    (GroupSpec.klein_bottle(), 40, (10, 40)),
]

if __name__ == "__main__":
    print(f"{'group':18s} {'log-log slope':>14s} {'doubling':>10s} {'verdict':>16s}")
    for spec, kmax, window in CASES:
        handle = make_group(spec)
        table = growth_table(handle, handle.default_generators(), kmax)
        est = estimate_rates(table, window)
        print(
            f"{spec.describe():18s} {est.loglog_slope:14.3f}"
            f" {est.doubling_degree:10.3f} {est.verdict_label():>16s}"
        )
    print()
    print("free(2) for contrast:")
    handle = make_group(GroupSpec.free(2))
    table = growth_table(handle, handle.default_generators(), 10)
    est = estimate_rates(table, (2, 10))
    print(f"    verdict: {est.verdict_label()} (slope {est.loglog_slope:.2f} on log-log axes)")
