"""Regenerate reference_tables.json, the stored ball sizes the benchmark checks.

Run from the repository root:

    PYTHONPATH=src python3 perfbench/make_reference.py

Heisenberg and torus-bundle balls come from `naive_ball_sizes` in
`tests/oracles.py` driven by multiplication rules written here from the
definitions, so they share no code with the package.  The surface(2) ball
comes from `naive_ball_sizes` over the package's surface handle (plain
payload equality, no canonical keys or frontier window), and is checked
against the pairwise Dehn-equality oracle `surface_class_count` up to
`DEHN_RADIUS`, the largest radius at which that oracle is practical.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "tests"))

from oracles import heisenberg_mul, naive_ball_sizes, surface_class_count  # noqa: E402

from workloads import TRACE3_MATRICES, matrix_key  # noqa: E402

HEISENBERG_KMAX = 20
TORUS_KMAX = 10
SURFACE_KMAX = 5
DEHN_RADIUS = 4


class _Rule:
    """The two attributes naive_ball_sizes needs from a group handle."""

    def __init__(self, identity, mul):
        self.identity = identity
        self.mul = mul


def _torus_bundle_rule(matrix):
    (a, b), (c, d) = matrix
    det = a * d - b * c
    inverse = ((d * det, -b * det), (-c * det, a * det))

    powers = {0: ((1, 0), (0, 1))}

    def power(n):
        if n not in powers:
            m, step = power(n - 1 if n > 0 else n + 1), (matrix if n > 0 else inverse)
            powers[n] = tuple(
                tuple(sum(m[i][k] * step[k][j] for k in range(2)) for j in range(2)) for i in range(2)
            )
        return powers[n]

    def mul(u, v):
        (p, q), (r, s) = power(u[2])
        return (u[0] + p * v[0] + q * v[1], u[1] + r * v[0] + s * v[1], u[2] + v[2])

    return _Rule((0, 0, 0), mul)


def _generators(letters):
    """Letters and their inverses; each letter has a single nonzero coordinate."""
    out = list(letters)
    for g in letters:
        inv = tuple(-x for x in g)
        if inv not in out:
            out.append(inv)
    return out


def main() -> int:
    from groupgrowth import GroupSpec, make_group

    tables = {}
    heis = _Rule((0, 0, 0), heisenberg_mul)
    heis_gens = _generators([(1, 0, 0), (0, 1, 0)])
    tables["heisenberg"] = list(naive_ball_sizes(heis, heis_gens, HEISENBERG_KMAX))

    for matrix in TRACE3_MATRICES:
        gens = _generators([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        tables["torus_bundle " + matrix_key(matrix)] = list(
            naive_ball_sizes(_torus_bundle_rule(matrix), gens, TORUS_KMAX)
        )

    surface = make_group(GroupSpec.surface(2))
    gamma = naive_ball_sizes(surface, surface.default_generators().elements, SURFACE_KMAX)
    for k in range(DEHN_RADIUS + 1):
        classes, _ = surface_class_count(2, k)
        if classes != gamma[k]:
            raise SystemExit(f"surface(2): Dehn oracle gives {classes} at k={k}, naive BFS {gamma[k]}")
    tables["surface2"] = list(gamma)

    doc = {
        "generated_by": "PYTHONPATH=src python3 perfbench/make_reference.py",
        "method": {
            "heisenberg": "naive_ball_sizes with oracles.heisenberg_mul",
            "torus_bundle": "naive_ball_sizes with (v, n)(w, m) = (v + A^n w, n + m) written here",
            "surface2": "naive_ball_sizes over the surface handle, equal to "
            f"surface_class_count (pairwise Dehn equality) for k <= {DEHN_RADIUS}",
        },
        "tables": tables,
    }
    with open(os.path.join(HERE, "reference_tables.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
