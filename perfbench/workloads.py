"""Seeded inputs for the three workloads.

Everything here is a pure function of the seed (and, for `queries`, of the
directory the spec files go to), so the same seed always yields the same
tables and the same argv lists.  Nothing in this module imports the package.

* ball-lattice: one growth table each for heisenberg, a torus bundle whose
  trace-3 monodromy the seed picks, and Z^3.  Elements are small int tuples.
* ball-words: one growth table each for surface(2), Z2*Z3, free(2) and
  Z x surface(2).  Elements are words and `mul` does most of the work.
* queries: a fixed list of slots, one short in-process CLI call each, whose
  arguments the seed draws.  The slot list fixes the mix and the cost of
  every slot, so seeds change the inputs but hardly the work.
"""

from __future__ import annotations

import json
import random

WORKLOADS = ("ball-lattice", "ball-words", "queries")

# Hyperbolic monodromies with det +1, trace 3 and entries in [-3, 3].  Their
# balls differ by under 3% in size at the benchmark radius.
TRACE3_MATRICES = (
    ((2, 1), (1, 1)),
    ((1, 1), (1, 2)),
    ((2, -1), (-1, 1)),
    ((1, -1), (-1, 2)),
    ((3, -1), (1, 0)),
    ((3, 1), (-1, 0)),
    ((0, 1), (-1, 3)),
    ((0, -1), (1, 3)),
)


def cyclic(m):
    return {"family": "cyclic", "params": {"m": m}}


def free_product(*orders):
    return {"family": "free_product", "params": {"factors": [cyclic(m) for m in orders]}}


SURFACE2 = {"family": "surface", "params": {"genus": 2}}

FAMILY_SPECS = {
    "heisenberg": {"family": "heisenberg", "params": {}},
    "free_abelian3": {"family": "free_abelian", "params": {"n": 3}},
    "surface2": SURFACE2,
    "z2_z3": free_product(2, 3),
    "free2": {"family": "free", "params": {"n": 2}},
    "z_x_surface2": {"family": "direct_product_with_Z", "params": {"inner": SURFACE2}},
}


def matrix_key(rows) -> str:
    return json.dumps([list(r) for r in rows])


def torus_bundle(matrix):
    return {"family": "torus_bundle", "params": {"matrix": [list(row) for row in matrix]}}


# (family id, radius); radii sized so each table takes a few tenths of a second
BALL_LATTICE = (("heisenberg", 17), ("torus_bundle", 9), ("free_abelian3", 18))
BALL_WORDS = (("surface2", 5), ("z2_z3", 17), ("free2", 8), ("z_x_surface2", 4))

# Generator counts of the default (symmetrized) generating sets, so the seeded
# order can be drawn without building a handle.
DEFAULT_GENERATOR_COUNT = {
    "heisenberg": 4,
    "torus_bundle": 6,
    "free_abelian3": 6,
    "surface2": 8,
    "z2_z3": 3,
    "free2": 4,
    "z_x_surface2": 10,
}


def ball_inputs(workload: str, seed: int) -> list[dict]:
    """Tables of one round: family id, spec, radius and a seeded generator order."""
    rng = random.Random(f"{workload}:{seed}")
    plan = BALL_LATTICE if workload == "ball-lattice" else BALL_WORDS
    tables = []
    for family, kmax in plan:
        if family == "torus_bundle":
            spec = torus_bundle(rng.choice(TRACE3_MATRICES))
        else:
            spec = FAMILY_SPECS[family]
        order = list(range(DEFAULT_GENERATOR_COUNT[family]))
        rng.shuffle(order)
        tables.append({"id": family, "spec": spec, "kmax": kmax, "gen_order": order})
    return tables


def _hyperbolic_matrices(bound: int):
    span = range(-bound, bound + 1)
    out = []
    for a in span:
        for b in span:
            for c in span:
                for d in span:
                    det = a * d - b * c
                    if (det == 1 and abs(a + d) > 2) or (det == -1 and a + d != 0):
                        out.append((a, b, c, d))
    return out


OSIN_MATRICES = tuple(_hyperbolic_matrices(2))
INDEX_CHOICES = (1, 2, 3, "inf")


def _manifold(rng: random.Random, allow_sum: bool = True) -> dict:
    kinds = [
        "spherical",
        "lens_like",
        "three_torus",
        "nil_manifold_heisenberg",
        "seifert_product_circle_times_surface",
        "hyperbolic_torus_bundle",
    ]
    if allow_sum:
        kinds += ["connected_sum", "torus_times_interval_double", "twisted_I_bundle_klein_double"]
    kind = rng.choice(kinds)
    if kind in ("spherical", "lens_like"):
        return {"kind": kind, "params": {"m": rng.randint(2, 12)}}
    if kind == "seifert_product_circle_times_surface":
        return {"kind": kind, "params": {"g": rng.randint(2, 6)}}
    if kind == "hyperbolic_torus_bundle":
        a, b, c, d = rng.choice(OSIN_MATRICES)
        return {"kind": kind, "params": {"matrix": [[a, b], [c, d]]}}
    if kind == "connected_sum":
        count = rng.choice((0, 0, 1))
        n_summands = rng.randint(2 - count, 3)
        summands = [_manifold(rng, allow_sum=False) for _ in range(n_summands)]
        return {"kind": kind, "params": {"summands": summands, "s2xs1_count": count}}
    return {"kind": kind, "params": {}}


def _bcg_table(rng: random.Random) -> list:
    entries = {}
    for _ in range(rng.randint(1, 3)):
        entries[(rng.choice((2, 3)), rng.choice((1, 2)))] = round(rng.uniform(0.05, 0.6), 3)
    return [[n, a, c] for (n, a), c in sorted(entries.items())]


def query_inputs(seed: int, spec_dir: str) -> tuple[dict, list[dict]]:
    """Spec files to write and the calls of one round.

    Returns ({file path: JSON object}, [{"argv": [...], "check": {...}}]).
    `check` names the reference the output is compared against and carries
    the parameters the reference needs.
    """
    rng = random.Random(f"queries:{seed}")
    files: dict[str, object] = {}
    calls: list[dict] = []

    def spec_file(obj) -> str:
        path = f"{spec_dir}/in{len(files):02d}.json"
        files[path] = obj
        return path

    def call(argv, **check):
        calls.append({"argv": [str(x) for x in argv], "check": check})

    # bound: every theorem once
    call(["bound", "--theorem", "solvable"], kind="solvable")
    a, b, c, d = rng.choice(OSIN_MATRICES)
    call(["bound", "--theorem", "osin", f"--matrix={a},{b},{c},{d}"], kind="osin", matrix=[a, b, c, d])
    genus, weak = rng.randint(2, 9), rng.random() < 0.5
    call(["bound", "--theorem", "surface", "--genus", genus] + (["--weak"] if weak else []),
         kind="surface", genus=genus, weak=weak)
    orders = [rng.randint(2, 5) for _ in range(rng.choice((2, 2, 3)))]
    call(["bound", "--theorem", "free_product", "--spec", spec_file(free_product(*orders))],
         kind="free_product", orders=orders)
    for theorem in ("amalgam", "hnn"):
        i1, i2 = rng.choice(INDEX_CHOICES), rng.choice(INDEX_CHOICES)
        call(["bound", "--theorem", theorem, "--indices", f"{i1},{i2}"], kind=theorem, indices=[i1, i2])
    table = _bcg_table(rng)
    dim, pinching = rng.choice((2, 3)), rng.choice((1, 2))
    call(["bound", "--theorem", "bcg", "--bcg", spec_file(table), "--dim", dim, "--pinching", pinching],
         kind="bcg", table=table, dim=dim, pinching=pinching)

    for _ in range(6):
        manifold = _manifold(rng)
        call(["classify", "--spec", spec_file(manifold)], kind="classify", manifold=manifold)

    for _ in range(3):
        table = _bcg_table(rng)
        variant = rng.choice(("plain", "no_bcg", "bcg", "bcg_ignored"))
        argv = ["universal"]
        if variant in ("bcg", "bcg_ignored"):
            argv += ["--bcg", spec_file(table)]
        if variant in ("no_bcg", "bcg_ignored"):
            argv += ["--no-bcg"]
        call(argv, kind="universal", table=table if variant == "bcg" else [])

    for bound in (rng.randint(2, 4), rng.randint(5, 6), 8):
        call(["scan", "--entry-bound", bound], kind="scan", entry_bound=bound)

    verify = [
        (torus_bundle(rng.choice(TRACE3_MATRICES)), 6),
        rng.choice(((SURFACE2, 3), (FAMILY_SPECS["z_x_surface2"], 3))),
        rng.choice(((free_product(2, 3), 12), (free_product(2, 2, 2), 9))),
    ]
    for spec, kmax in verify:
        call(["verify", "--spec", spec_file(spec), "--kmax", kmax], kind="verify", spec=spec, kmax=kmax)

    growth = [
        rng.choice(((FAMILY_SPECS["free2"], 6), ({"family": "free", "params": {"n": 3}}, 4))),
        rng.choice((({"family": "free_abelian", "params": {"n": 2}}, 27), (FAMILY_SPECS["free_abelian3"], 10))),
        rng.choice(((FAMILY_SPECS["heisenberg"], 8), (torus_bundle(rng.choice(TRACE3_MATRICES)), 5),
                    (free_product(2, 3), 14))),
    ]
    for spec, kmax in growth:
        call(["growth", "--spec", spec_file(spec), "--kmax", kmax], kind="growth", spec=spec, kmax=kmax)

    z2 = {"family": "free_abelian", "params": {"n": 2}}
    search = [
        (FAMILY_SPECS["free2"], 2, 3),
        (z2, 2, 4),
        (rng.choice((FAMILY_SPECS["free2"], z2)), 1, rng.randint(3, 5)),
    ]
    for spec, radius, k in search:
        call(["search", "--spec", spec_file(spec), "--radius", radius, "--set-size", 2, "--k", k],
             kind="search", spec=spec, k=k)
    return files, calls


def describe_inputs(workload: str, seed: int) -> dict:
    """The radii or call mix of a run, for the run record."""
    if workload == "queries":
        _, calls = query_inputs(seed, "<specs>")
        mix: dict[str, int] = {}
        for c in calls:
            mix[c["argv"][0]] = mix.get(c["argv"][0], 0) + 1
        return {"calls_per_round": len(calls), "mix": mix, "argv": [c["argv"] for c in calls]}
    return {"tables": [{"id": t["id"], "spec": t["spec"], "kmax": t["kmax"]} for t in ball_inputs(workload, seed)]}
