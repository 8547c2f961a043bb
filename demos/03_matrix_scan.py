"""Scan small integer matrices for hyperbolic monodromies.

For each hyperbolic matrix (|det| = 1, no eigenvalue of modulus one) the
scan records the dominant root modulus Lambda exactly as a quadratic surd
and the growth bound it implies.  For each (a, d) and det = +-1 it reads
the (b, c) pairs with b*c = a*d - det from one dict of products, so it
does O(B^2) work rather than visit all (2B+1)^4 matrices.  The
per-determinant summary shows why the two classes differ: det = +1
hyperbolic means |tr| >= 3, which forces Lambda >= (3+sqrt(5))/2 > 2,
while det = -1 allows |tr| = 1, where Lambda = (1+sqrt(5))/2 <= 2.  The
growth bound still clears the solvable floor 2^(1/6) there.
"""

from groupgrowth import scan_hyperbolic

if __name__ == "__main__":
    report = scan_hyperbolic(3)
    print(f"hyperbolic matrices with |entries| <= 3: {report.hyperbolic_count}")
    print()
    for summary in report.classes:
        print(f"det = {summary.det:+d}: {summary.count} matrices")
        print(f"    minimal Lambda = {summary.min_lambda.exact_str()}"
              f" = {float(summary.min_lambda):.6f}")
        print(f"    minimal growth bound = {summary.min_osin:.6f}")
        print(f"    witness matrix (a,b,c,d) = {summary.witness}")
        print(f"    any Lambda <= 2: {summary.lambda_le_2}")
        if summary.note:
            print(f"    note: {summary.note}")
        print()

    print("ten smallest Lambda values across both classes:")
    for row in sorted(report.rows, key=lambda r: float(r.lam))[:10]:
        print(f"    [{row.a:2d} {row.b:2d}; {row.c:2d} {row.d:2d}]  det={row.det:+d}"
              f"  Lambda={row.lam.exact_str():>14s}  bound={row.osin:.5f}")
