"""The named lower bounds on exponential growth rates, with their gates.

Every bound comes back as a report: the theorem tag, whether the
hypotheses hold, per-hypothesis detail, and the value in float and exact
form.  Nothing is computed when a gate fails; the report says which
hypothesis broke instead.
"""

import math

from groupgrowth import (
    MatrixZ2,
    amalgam_bound,
    free_product_bound,
    hnn_bound,
    osin_bound,
    solvable_bound,
    surface_bound,
)


def show(report):
    print(f"[{report.theorem}] ok={report.hypotheses_ok} value={report.value}")
    for name, ok, detail in report.hypothesis_detail:
        print(f"    {name}: {ok} ({detail})")
    if report.exact_form:
        print(f"    exact: {report.exact_form}")
    if report.notes:
        print(f"    notes: {report.notes}")
    print()


if __name__ == "__main__":
    # free products: sqrt(2) unless the product is the infinite dihedral group
    show(free_product_bound([2, 3]))
    show(free_product_bound([2, 2]))

    # amalgams and HNN extensions: 2^(1/4) under the index conditions
    show(amalgam_bound(3, 2))
    show(amalgam_bound(math.inf, 1))
    show(hnn_bound(2, 1))

    # surface groups: 4g - 3
    show(surface_bound(2))
    show(surface_bound(2, weak=True))

    # hyperbolic torus bundles: the Osin polycyclic estimate from the monodromy
    show(osin_bound(MatrixZ2.from_rows(((2, 1), (1, 1)))))
    show(osin_bound(MatrixZ2.from_rows(((0, 1), (-1, 0)))))  # rotation: gate fails

    # the solvable floor
    show(solvable_bound())
