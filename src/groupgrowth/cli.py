"""Command-line front door: spec files in, CSV/JSON reports out.

Every subcommand prints a JSON report to stdout; `growth` and `scan`
additionally write their CSV artifact when --out is given.  Exit codes:
0 success, 1 verification failure, 2 bad input.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from .bounds import (
    amalgam_bound,
    bcg_bound,
    group_bound,
    hnn_bound,
    make_bcg_table,
    osin_bound,
    scan_csv_rows,
    scan_hyperbolic,
    solvable_bound,
    surface_bound,
    surface_genus,
)
from .cayley import growth_table, search_generating_sets
from .errors import GroupGrowthError, shown
from .groups import GroupSpec, MatrixZ2, make_group
from .manifold import ManifoldSpec, classify_growth, group_of_manifold, universal_constant
from .rates import check_window, estimate_rates, root_bounds, round12, table_csv_rows

VERIFY_MARGIN = 1e-9


def _fields(text: str, count: int, wants: str) -> list[str]:
    """The `count` comma-separated fields of a flag value; `wants` opens the error."""
    parts = text.split(",")
    if len(parts) != count:
        raise ValueError(f"{wants}, got {shown(text)}")
    return parts


def _parse_index(token: str):
    token = token.strip()
    if token in ("inf", "infinity", "oo"):
        return math.inf
    return int(token)


def _load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _load_group_spec(path) -> GroupSpec:
    return GroupSpec.from_dict(_load_json(path))


def _load_bcg(path) -> dict:
    data = _load_json(path)
    if not isinstance(data, list):
        raise ValueError("BCG table file must be a JSON list of [n, a, c] triples")
    entries = {}
    for item in data:
        # exact type checks: JSON true/false load as bool, a subclass of int;
        # make_bcg_table is the one rule for the constant c
        if not (
            isinstance(item, list) and len(item) == 3 and type(item[0]) is int and type(item[1]) is int
        ):
            raise ValueError(f"BCG table entries must be [n, a, c] with integers n and a, got {shown(item)}")
        n, a, c = item
        if (n, a) in entries:
            raise ValueError(f"BCG table has two entries for (n, a) = ({n}, {a})")
        entries[(n, a)] = c
    return make_bcg_table(entries)


# least legal value of each budget, cap, radius and BCG flag, by argparse dest
_FLAG_FLOORS = (
    ("max_elements", 1),
    ("max_seconds", 0),
    ("max_candidates", 0),
    ("radius", 0),
    ("dim", 2),
    ("pinching", 1),
)


def _check_flag_floors(args) -> None:
    """Reject a flag below its floor before any work; `not >=` also rejects nan."""
    for dest, floor in _FLAG_FLOORS:
        value = getattr(args, dest, None)
        if value is not None and not value >= floor:
            raise ValueError(f"--{dest.replace('_', '-')} must be >= {floor}, got {value}")


def _write(path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _emit(report: dict, out_path=None) -> None:
    text = json.dumps(report, indent=2) + "\n"
    if out_path:
        _write(out_path, text)
    sys.stdout.write(text)


def _gens_dict(gens) -> dict:
    return {
        "names": list(gens.names),
        "count": len(gens.elements),
        "symmetrized": gens.symmetrized,
    }


def _default_table(args, window_text=None):
    """The window of `window_text` (checked before any enumeration) and the
    growth table of --spec on the default letters to --kmax under the budget flags."""
    handle = make_group(_load_group_spec(args.spec))
    window = None
    if window_text:
        lo, hi = map(int, _fields(window_text, 2, "--window wants kmin,kmax"))
        window = check_window((lo, hi), args.kmax)
    gens = handle.default_generators()
    table = growth_table(
        handle, gens, args.kmax, max_elements=args.max_elements, max_seconds=args.max_seconds
    )
    return window, table


def _cmd_growth(args) -> int:
    window, table = _default_table(args, args.window)
    rates = estimate_rates(table, window=window)
    if args.out:
        _write(args.out, "\n".join(table_csv_rows(table, rates)) + "\n")
    report = {
        "spec": table.spec.to_dict(),
        "generators": _gens_dict(table.gens),
        "kmax": table.kmax,
        "complete": table.complete,
        "gamma": list(table.gamma),
        "sigma": list(table.sigma),
        "rates": rates.to_dict(),
        "csv": args.out,
    }
    _emit(report)
    return 0


_THEOREM_BUILDERS = ("osin", "surface", "free_product", "amalgam", "hnn", "bcg", "solvable")


def _cmd_bound(args) -> int:
    name = args.theorem
    if name == "osin":
        if not args.matrix:
            raise ValueError("--theorem osin needs --matrix a,b,c,d")
        entries = _fields(args.matrix, 4, "--matrix wants four comma-separated integers")
        report = osin_bound(MatrixZ2(*map(int, entries)))
    elif name == "surface":
        genus = args.genus
        if genus is None and args.spec:
            genus = surface_genus(_load_group_spec(args.spec))
        if genus is None:
            raise ValueError("--theorem surface needs --genus (or a surface group --spec)")
        report = surface_bound(genus, weak=args.weak)
    elif name == "free_product":
        if not args.spec:
            raise ValueError("--theorem free_product needs --spec of a free_product group")
        spec = _load_group_spec(args.spec)
        if spec.family != "free_product":
            raise ValueError(f"spec family is {spec.family}, expected free_product")
        report = group_bound(spec)
    elif name in ("amalgam", "hnn"):
        if not args.indices:
            raise ValueError(f"--theorem {name} needs --indices i1,i2 (use 'inf' for infinite)")
        i1, i2 = map(_parse_index, _fields(args.indices, 2, "--indices wants two values"))
        report = amalgam_bound(i1, i2) if name == "amalgam" else hnn_bound(i1, i2)
    elif name == "bcg":
        table = _load_bcg(args.bcg) if args.bcg else {}
        report = bcg_bound(args.dim, args.pinching, table)
    elif name == "solvable":
        report = solvable_bound()
    else:
        raise ValueError(f"unknown theorem {name!r}; pick one of {', '.join(_THEOREM_BUILDERS)}")
    _emit(report.to_dict(), args.out)
    return 0


def _cmd_verify(args) -> int:
    if args.kmax < 1:
        raise ValueError(f"--kmax must be >= 1 for verify, got {args.kmax}")
    _, table = _default_table(args)
    roots = root_bounds(table)
    if not roots:
        raise ValueError("the budget ran out before sphere 1; no root bound to verify")
    min_root = min(roots)
    bound = group_bound(table.spec)
    applicable = bound is not None and bound.hypotheses_ok
    ok = not applicable or min_root >= bound.value - VERIFY_MARGIN
    if applicable:
        notes = f"min_k gamma(k)^(1/k) = {min_root:.12g} vs bound {bound.value:.12g}"
    elif bound is None:
        notes = "no applicable lower bound for this family; nothing to check"
    else:
        failed = ", ".join(name for name, holds, _ in bound.hypothesis_detail if not holds)
        notes = f"{bound.theorem} does not apply, its hypotheses fail ({failed}); nothing to check"
    report = {
        "spec": table.spec.to_dict(),
        "kmax": table.kmax,
        "complete": table.complete,
        "min_root_bound": round12(min_root),
        "margin": VERIFY_MARGIN,
        "applicable": applicable,
        "bound": None if bound is None else bound.to_dict(),
        "pass": ok,
        "notes": notes,
    }
    _emit(report, args.out)
    return 0 if ok else 1


def _cmd_scan(args) -> int:
    report = scan_hyperbolic(args.entry_bound)
    if args.out:
        _write(args.out, "\n".join(scan_csv_rows(report)) + "\n")
    classes = []
    for summary in report.classes:
        classes.append(
            {
                "det": summary.det,
                "count": summary.count,
                "min_lambda_exact": None
                if summary.min_lambda is None
                else summary.min_lambda.exact_str(),
                "min_lambda": None
                if summary.min_lambda is None
                else round12(float(summary.min_lambda)),
                "min_osin_bound": None if summary.min_osin is None else round12(summary.min_osin),
                "lambda_le_2": summary.lambda_le_2,
                "witness": None if summary.witness is None else list(summary.witness),
                "note": summary.note,
            }
        )
    _emit(
        {
            "entry_bound": report.entry_bound,
            "hyperbolic_count": report.hyperbolic_count,
            "classes": classes,
            "csv": args.out,
        }
    )
    return 0


def _cmd_search(args) -> int:
    spec = _load_group_spec(args.spec)
    handle = make_group(spec)
    report = search_generating_sets(
        handle,
        candidate_radius=args.radius,
        set_size=args.set_size,
        k=args.k,
        max_candidates=args.max_candidates,
        max_seconds=args.max_seconds,
    )
    def _set_dict(gens, u_k):
        return {
            "names": list(gens.names),
            "elements": [handle.format_element(el) for el in gens.elements],
            "u_k": round12(u_k),
        }

    out = {
        "spec": spec.to_dict(),
        "k": args.k,
        "candidate_radius": args.radius,
        "set_size": args.set_size,
        "candidates_tested": report.candidates_tested,
        "complete": report.complete,
        "best": None
        if report.best_set is None
        else _set_dict(report.best_set, report.best_root_bound),
        "per_candidate": [_set_dict(g, u) for g, u in report.per_candidate],
        "note": "minimum over tested sets only; an upper bound for the group's rate",
    }
    _emit(out, args.out)
    return 0


def _cmd_classify(args) -> int:
    manifold = ManifoldSpec.from_dict(_load_json(args.spec))
    growth_class = classify_growth(manifold)
    try:
        group = group_of_manifold(manifold).to_dict()
    except GroupGrowthError:
        group = None
    _emit(
        {
            "manifold": manifold.to_dict(),
            "group": group,
            "growth": growth_class.to_dict(),
        },
        args.out,
    )
    return 0


def _cmd_universal(args) -> int:
    table = _load_bcg(args.bcg) if args.bcg else None
    report = universal_constant(None if args.no_bcg else table)
    _emit(report.to_dict(), args.out)
    return 0


class _Parser(argparse.ArgumentParser):
    """argparse with a one-line `error:` message instead of the usage block.

    Subparsers are built from the same class, so the same holds for them.
    """

    def error(self, message):
        self.exit(2, f"error: {message}\n")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once: `parse_args` fills a fresh namespace on every
    call and changes nothing in the parser, and `_Parser.error` only exits."""
    parser = _Parser(
        prog="groupgrowth",
        description="Exact Cayley-ball growth tables, rate estimates, and lower bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, spec=False, budget=False, out=True):
        if spec:
            p.add_argument("--spec", required=True, help="path to a JSON spec file")
        if budget:
            p.add_argument("--max-elements", type=int, default=None)
            p.add_argument("--max-seconds", type=float, default=None)
        if out:
            p.add_argument("--out", default=None, help="write the report/artifact here")

    p = sub.add_parser("growth", help="enumerate a growth table and rate estimates")
    add_common(p, spec=True, budget=True)
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--window", default=None, help="kmin,kmax window for fits")
    p.set_defaults(func=_cmd_growth)

    p = sub.add_parser("bound", help="evaluate a named lower bound")
    p.add_argument("--theorem", required=True, help=", ".join(_THEOREM_BUILDERS))
    p.add_argument("--matrix", default=None, help="a,b,c,d entries")
    p.add_argument("--genus", type=int, default=None)
    p.add_argument("--weak", action="store_true", help="use the 2g-1 surface variant")
    p.add_argument("--indices", default=None, help="i1,i2 subgroup indices ('inf' allowed)")
    p.add_argument("--spec", default=None)
    p.add_argument("--bcg", default=None, help="path to a JSON list of [n, a, c] triples")
    p.add_argument("--dim", type=int, default=3)
    p.add_argument("--pinching", type=float, default=1)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("verify", help="check min root bound against the applicable theorem")
    add_common(p, spec=True, budget=True)
    p.add_argument("--kmax", type=int, required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("scan", help="scan integer matrices for hyperbolic spectra")
    p.add_argument("--entry-bound", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("search", help="probe generating sets for low root bounds")
    add_common(p, spec=True)
    p.add_argument("--radius", type=int, default=1, help="candidate pool ball radius")
    p.add_argument("--set-size", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--max-candidates", type=int, default=None)
    p.add_argument("--max-seconds", type=float, default=None)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("classify", help="growth class of a manifold spec")
    add_common(p, spec=True)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("universal", help="minimum known branch constant")
    p.add_argument("--bcg", default=None)
    p.add_argument("--no-bcg", action="store_true", help="ignore any supplied table")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_universal)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _check_flag_floors(args)
        return args.func(args)
    except (GroupGrowthError, ValueError, KeyError, OSError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:  # its message is empty
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
