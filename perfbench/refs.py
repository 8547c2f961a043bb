"""References the benchmark checks the program's outputs against.

None of this goes through the package: ball sizes come from closed forms
(`tests/oracles.py` and the syllable counts below) or from the tables in
`reference_tables.json`, which `make_reference.py` generated once by naive
search over independent multiplication rules.  CLI reports are checked
against values derived here from the definitions.
"""

from __future__ import annotations

import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "tests"))

from oracles import cyclic_ball, free_ball, zd_ball  # noqa: E402

from workloads import matrix_key  # noqa: E402

REL_TOL = 1e-10

with open(os.path.join(HERE, "reference_tables.json"), encoding="utf-8") as _fh:
    STORED = json.load(_fh)["tables"]


def _stored(name: str, kmax: int) -> list[int]:
    table = STORED[name]
    if kmax >= len(table):
        raise KeyError(f"stored table {name} stops at k={len(table) - 1}, need {kmax}")
    return table[: kmax + 1]


def _free_product_sphere(orders, k: int) -> int:
    """Sphere sizes of a free product of cyclic groups of order 2 or 3.

    Reduced words alternate between factors and every syllable has length
    one (a Z3 syllable is b or b'), so sigma(k) counts alternating sequences
    of k syllables weighted by each factor's non-identity elements.
    """
    weights = [m - 1 for m in orders]
    if k == 0:
        return 1
    # ends[i] = number of length-k sequences whose last syllable is in factor i
    ends = list(weights)
    for _ in range(k - 1):
        total = sum(ends)
        ends = [w * (total - e) for w, e in zip(weights, ends)]
    return sum(ends)


def reference_gamma(spec: dict, kmax: int) -> list[int]:
    family, params = spec["family"], spec["params"]
    if family == "free":
        return [free_ball(params["n"], k) for k in range(kmax + 1)]
    if family == "free_abelian":
        return [zd_ball(params["n"], k) for k in range(kmax + 1)]
    if family == "cyclic":
        return [cyclic_ball(params["m"], k) for k in range(kmax + 1)]
    if family == "heisenberg":
        return _stored("heisenberg", kmax)
    if family == "torus_bundle":
        return _stored("torus_bundle " + matrix_key(params["matrix"]), kmax)
    if family == "surface" and params["genus"] == 2:
        return _stored("surface2", kmax)
    if family == "direct_product_with_Z":
        # word length in Z x G is |n| + |g|: convolve with the ball of Z
        inner = reference_gamma(params["inner"], kmax)
        return [inner[k] + 2 * sum(inner[: k]) for k in range(kmax + 1)]
    if family == "free_product":
        orders = [f["params"]["m"] for f in params["factors"] if f["family"] == "cyclic"]
        if len(orders) == len(params["factors"]) and set(orders) <= {2, 3}:
            out, total = [], 0
            for k in range(kmax + 1):
                total += _free_product_sphere(orders, k)
                out.append(total)
            return out
    raise KeyError(f"no reference for {spec!r}")


def close(x, y) -> bool:
    return x is not None and y is not None and math.isclose(x, y, rel_tol=REL_TOL)


def _square_part(n: int) -> tuple[int, int]:
    """n = s^2 * D with D squarefree, by trial division."""
    s, f = 1, 2
    while f * f <= n:
        while n % (f * f) == 0:
            n //= f * f
            s *= f
        f += 1
    return s, n


def stretch_factor(trace: int, det: int) -> tuple[float, str]:
    """Dominant root modulus (|t| + sqrt(t^2 - 4 det))/2 of a hyperbolic matrix."""
    t = abs(trace)
    s, D = _square_part(t * t - 4 * det)
    value = (t + s * math.sqrt(D)) / 2
    if t % 2 == 0 and s % 2 == 0:
        root = f"sqrt({D})" if s == 2 else f"{s // 2}*sqrt({D})"
        return value, f"{t // 2}+{root}"
    root = f"sqrt({D})" if s == 1 else f"{s}*sqrt({D})"
    return value, f"({t}+{root})/2"


def osin_value(trace: int, det: int) -> tuple[float, str]:
    lam, lam_str = stretch_factor(trace, det)
    value = 2.0 ** (math.log(lam) / (math.log(2.0) + math.log(lam)))
    return value, f"2^(log L/(log 2 + log L)), L = {lam_str}"


def scan_reference(bound: int) -> dict:
    """Hyperbolic matrices with |entries| <= bound, counted per determinant."""
    span = range(-bound, bound + 1)
    count = {1: 0, -1: 0}
    min_trace = {1: None, -1: None}
    for a in span:
        for d in span:
            for det in (1, -1):
                t = a + d
                if (det == 1 and abs(t) <= 2) or (det == -1 and t == 0):
                    continue
                n = a * d - det  # need b * c = n
                if n == 0:
                    pairs = 4 * bound + 1
                else:
                    pairs = sum(1 for b in span if b and n % b == 0 and abs(n // b) <= bound)
                if pairs:
                    count[det] += pairs
                    if min_trace[det] is None or abs(t) < min_trace[det]:
                        min_trace[det] = abs(t)
    classes = {}
    for det in (1, -1):
        lam = None if min_trace[det] is None else stretch_factor(min_trace[det], det)[1]
        classes[det] = (count[det], lam)
    return {"total": count[1] + count[-1], "classes": classes}


def _index(i):
    return math.inf if i == "inf" else i


def _report_ok(out: dict, value, exact_form=None) -> bool:
    if value is None:
        return out["hypotheses_ok"] is False and out["value"] is None
    ok = out["hypotheses_ok"] is True and close(out["value"], value)
    return ok and (exact_form is None or out["exact_form"] == exact_form)


def _classify_expected(m: dict):
    """(verdict, degree, lower bound, theorem tag) from the manifold kind."""
    kind, p = m["kind"], m["params"]
    if kind in ("spherical", "lens_like"):
        return "finite", None, None, None
    if kind in ("three_torus", "torus_times_interval_double", "twisted_I_bundle_klein_double"):
        return "polynomial", 3, None, None
    if kind == "nil_manifold_heisenberg":
        return "polynomial", 4, None, None
    if kind == "seifert_product_circle_times_surface":
        return "exponential", None, float(4 * p["g"] - 3), "surface_4g3"
    if kind == "hyperbolic_torus_bundle":
        (a, b), (c, d) = p["matrix"]
        return "exponential", None, osin_value(a + d, a * d - b * c)[0], "osin_polycyclic"
    orders = [s["params"]["m"] if s["kind"] in ("spherical", "lens_like") else math.inf for s in p["summands"]]
    orders += [math.inf] * p["s2xs1_count"]
    if sorted(orders) == [2, 2]:
        return "polynomial", 1, None, None
    return "exponential", None, math.sqrt(2.0), "bucher_free_product"


def check_query(check: dict, rc: int, out: dict) -> bool:
    """True when a CLI report matches the reference for its inputs."""
    if rc != 0:
        return False
    kind = check["kind"]
    if kind == "solvable":
        return _report_ok(out, 2.0 ** (1.0 / 6.0), "2^(1/6)")
    if kind == "osin":
        a, b, c, d = check["matrix"]
        return _report_ok(out, *osin_value(a + d, a * d - b * c))
    if kind == "surface":
        g = check["genus"]
        n, form = (2 * g - 1, "2g-1") if check["weak"] else (4 * g - 3, "4g-3")
        return _report_ok(out, float(n), f"{form} = {n}")
    if kind == "free_product":
        orders = sorted(check["orders"])
        ok = len(orders) > 2 or orders[1] >= 3
        return _report_ok(out, math.sqrt(2.0) if ok else None)
    if kind in ("amalgam", "hnn"):
        i1, i2 = (_index(i) for i in check["indices"])
        if kind == "amalgam":
            ok = i1 > 1 and i2 > 1 and (i1 - 1) * (i2 - 1) >= 2
        else:
            ok = i1 + i2 >= 3
        return _report_ok(out, 2.0 ** 0.25 if ok else None)
    if kind == "bcg":
        consts = {(n, a): c for n, a, c in check["table"]}
        c = consts.get((check["dim"], check["pinching"]))
        return _report_ok(out, None if c is None else math.exp(c))
    if kind == "universal":
        consts = {(n, a): c for n, a, c in check["table"]}
        known = [math.sqrt(2.0), 2.0 ** 0.25, 2.0 ** (1.0 / 6.0)]
        known += [math.exp(consts[key]) for key in ((3, 1), (2, 1)) if key in consts]
        return close(out["value"], min(known))
    if kind == "classify":
        verdict, degree, bound, tag = _classify_expected(check["manifold"])
        growth = out["growth"]
        if growth["verdict"] != verdict or growth.get("degree") != degree:
            return False
        if growth.get("theorem_tag") != tag:
            return False
        return bound is None or close(growth.get("lower_bound"), bound)
    if kind == "scan":
        ref = scan_reference(check["entry_bound"])
        if out["hyperbolic_count"] != ref["total"]:
            return False
        for cls in out["classes"]:
            if (cls["count"], cls["min_lambda_exact"]) != ref["classes"][cls["det"]]:
                return False
        return True
    if kind == "verify":
        gamma = reference_gamma(check["spec"], check["kmax"])
        min_root = min(gamma[k] ** (1.0 / k) for k in range(1, check["kmax"] + 1))
        return out["pass"] is True and out["applicable"] is True and close(out["min_root_bound"], min_root)
    if kind == "growth":
        gamma = reference_gamma(check["spec"], check["kmax"])
        return out["complete"] is True and out["gamma"] == gamma
    if kind == "search":
        # every generating pair of F2 or Z^2 is a basis, so all certified
        # pairs have the growth of the standard basis
        k = check["k"]
        u_k = reference_gamma(check["spec"], k)[k] ** (1.0 / k)
        rows = out["per_candidate"]
        return (
            out["complete"] is True
            and bool(rows)
            and out["best"] is not None
            and all(close(r["u_k"], u_k) for r in rows)
            and close(out["best"]["u_k"], u_k)
        )
    raise KeyError(f"unknown check {kind!r}")
