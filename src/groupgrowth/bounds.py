"""Closed-form growth lower bounds with exact hypothesis checking.

Spectral data of 2x2 integer matrices is kept exact: the dominant root
modulus lives in a quadratic field and every comparison (against 1, 2, or
another root) is decided by integer sign analysis, never floating point.
Floats appear only in the final reported bound values.
"""

from __future__ import annotations

import collections
import functools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from .errors import InvalidGenus
from .groups import GroupSpec, MatrixZ2, _is_int, group_order
from .rates import round12

SQRT2 = math.sqrt(2.0)
FOURTH_ROOT_2 = 2.0 ** 0.25
SOLVABLE_UNIVERSAL = 2.0 ** (1.0 / 6.0)

def _sign(x: int) -> int:
    return (x > 0) - (x < 0)


# Both kernels apply one rule to x + y: when sign(x) and sign(y) agree or one
# is 0, that sign is the answer; otherwise it is sign(x) * sign(x^2 - y^2).
def _single_radical_sign(p: int, q: int, D: int) -> int:
    """Sign of p + q*sqrt(D) for integers, D >= 0."""
    sx, sy = _sign(p), _sign(q) if D else 0
    if sx * sy >= 0:
        return sx or sy
    return sx * _sign(p * p - q * q * D)


def _two_radical_sign(a: int, b: int, D1: int, c: int, D2: int) -> int:
    """Sign of a + b*sqrt(D1) + c*sqrt(D2) for integers, D1, D2 >= 0."""
    sx, sy = _single_radical_sign(a, b, D1), _sign(c) if D2 else 0
    if sx * sy >= 0:
        return sx or sy
    # x^2 - y^2 with x = a + b*sqrt(D1), y = c*sqrt(D2) has one radical again
    return sx * _single_radical_sign(a * a + b * b * D1 - c * c * D2, 2 * a * b, D1)


def squarefree_part(m: int) -> tuple[int, int]:
    """m = s^2 * D with D squarefree; returns (s, D). m must be >= 0.

    Trial division stops at the cube root of what is left of m, which then is
    1, p, p*q or p^2 for primes p, q; one integer square root tells which.
    """
    if m < 0:
        raise ValueError("cannot decompose a negative radicand")
    if m == 0:
        return 0, 0
    s, D = 1, 1
    f = 2
    while f * f * f <= m:
        if m % f == 0:
            exp = 0
            while m % f == 0:
                m //= f
                exp += 1
            s *= f ** (exp // 2)
            if exp % 2:
                D *= f
        f += 1
    r = math.isqrt(m)
    return (s * r, D) if r * r == m else (s, D * m)


def _by_sign(op):
    """A rich comparison of QuadraticValue: `op` applied to the sign of self - other."""

    def compare(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else op(c, 0)

    return compare


class QuadraticValue:
    """Exact number of the form (p + q*sqrt(D))/2, integers p, q, D squarefree.

    Supports exact ordering against other QuadraticValues (any D) and against
    ints and Fractions, both read as n/d, via sign analysis.
    """

    __slots__ = ("p", "q", "D")

    def __init__(self, p: int, q: int, D: int):
        if D < 0:
            raise ValueError("radicand must be nonnegative")
        if q != 0 and D > 1:
            s, d0 = squarefree_part(D)
            q, D = q * s, d0
        if D <= 1:
            p, q, D = p + q * D, 0, 0  # sqrt(1) folds in, sqrt(0) vanishes
        if q == 0:
            D = 0
        self.p = p
        self.q = q
        self.D = D

    @classmethod
    def sqrt_int(cls, m: int) -> "QuadraticValue":
        return cls(0, 2, m)

    def __float__(self) -> float:
        return (self.p + self.q * math.sqrt(self.D)) / 2.0

    def _cmp(self, other) -> int:
        if isinstance(other, (int, Fraction)):
            # compare (p+q sqrt(D))/2 with n/d: scale both by 2d
            n, d = other.numerator, other.denominator
            return _single_radical_sign(self.p * d - 2 * n, self.q * d, self.D)
        if not isinstance(other, QuadraticValue):
            return NotImplemented
        return _two_radical_sign(self.p - other.p, self.q, self.D, -other.q, other.D)

    __eq__ = _by_sign(operator.eq)
    __lt__ = _by_sign(operator.lt)
    __le__ = _by_sign(operator.le)
    __gt__ = _by_sign(operator.gt)
    __ge__ = _by_sign(operator.ge)

    def __hash__(self):
        if self.q == 0:
            return hash(Fraction(self.p, 2))  # agree with equal ints/Fractions
        return hash((self.p, self.q, self.D))

    def __repr__(self) -> str:
        return f"QuadraticValue({self.exact_str()})"

    def exact_str(self) -> str:
        if self.q == 0:
            return str(self.p // 2) if self.p % 2 == 0 else f"{self.p}/2"
        p, q, halved = self.p, self.q, self.p % 2 == 0 and self.q % 2 == 0
        if halved:
            p, q = p // 2, q // 2
        root = ("" if abs(q) == 1 else f"{abs(q)}*") + f"sqrt({self.D})"
        sign = "+" if q > 0 else "-"
        if halved:
            return f"{p or ''}{sign}{root}".removeprefix("+")
        return f"({p}{sign}{root})/2"


def lambda_max(A: MatrixZ2) -> QuadraticValue:
    """Largest root modulus of x^2 - tr(A) x + det(A), exactly.

    Real roots give (|tr| + sqrt(tr^2 - 4 det))/2; complex-conjugate pairs
    share modulus sqrt(|det|).
    """
    tr = abs(A.trace())
    det = A.det()
    disc = tr * tr - 4 * det
    if disc < 0:
        return QuadraticValue.sqrt_int(abs(det))
    return QuadraticValue(tr, 1, disc)


def is_hyperbolic(A: MatrixZ2) -> bool:
    """|det A| = 1 and no eigenvalue of modulus one (exact spectral test)."""
    return abs(A.det()) == 1 and lambda_max(A) > 1


@dataclass(frozen=True)
class BoundReport:
    """One theorem's verdict: hypothesis checks and the bound when they hold."""

    theorem: str
    hypotheses_ok: bool
    hypothesis_detail: tuple  # (name, ok, note) triples
    value: float | None
    exact_form: str | None = None
    notes: str | None = None

    def to_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "hypotheses_ok": self.hypotheses_ok,
            "hypothesis_detail": [list(h) for h in self.hypothesis_detail],
            "value": None if self.value is None else round12(self.value),
            "exact_form": self.exact_form,
            "notes": self.notes,
        }


def _gated(theorem: str, hyp: tuple, value: float, exact_form: str) -> BoundReport:
    """The report of `theorem`, with `value` and `exact_form` only when every hypothesis holds."""
    ok = all(holds for _, holds, _ in hyp)
    return BoundReport(theorem, ok, hyp, value if ok else None, exact_form if ok else None)


def osin_bound(A: MatrixZ2) -> BoundReport:
    """2^(log L / (log 2 + log L)) with L the exact dominant root modulus."""
    lam = lambda_max(A)
    hyp = (
        ("abs_det_is_1", abs(A.det()) == 1, f"det = {A.det()}"),
        ("no_modulus_one_eigenvalue", lam > 1, f"Lambda = {lam.exact_str()}"),
    )
    # the value is computed only past the gate: log L fails at det 0, and
    # float(L) overflows for a huge L with |det| != 1
    if not all(holds for _, holds, _ in hyp):
        return BoundReport("osin_polycyclic", False, hyp, None)
    lf = float(lam)
    value = 2.0 ** (math.log(lf) / (math.log(2.0) + math.log(lf)))
    exact = f"2^(log L/(log 2 + log L)), L = {lam.exact_str()}"
    return BoundReport("osin_polycyclic", True, hyp, value, exact_form=exact)


def surface_bound(g: int, weak: bool = False) -> BoundReport:
    """Genus-g surface group bound 4g-3 (or the weaker companion 2g-1)."""
    if not isinstance(g, int) or g < 2:
        raise InvalidGenus(f"surface bound needs genus >= 2, got {g!r}")
    hyp = (("genus_ge_2", True, f"g = {g}"),)
    if weak:
        return BoundReport(
            "surface_2g1", True, hyp, float(2 * g - 1), exact_form=f"2g-1 = {2 * g - 1}"
        )
    return BoundReport(
        "surface_4g3",
        True,
        hyp,
        float(4 * g - 3),
        exact_form=f"4g-3 = {4 * g - 3}",
        notes=f"weaker companion estimate: 2g-1 = {2 * g - 1}",
    )


def free_product_bound(orders) -> BoundReport:
    """sqrt(2) for a nontrivial free product, excluding the Z2 * Z2 case.

    `orders` holds each factor's order: an integer >= 1, or math.inf for an
    infinite factor, as `groups.group_order` gives it.  With three or more
    nontrivial factors the hypothesis always holds after grouping (any two
    factors already form an infinite group).
    """
    orders = sorted(_validate_index(o, "factor order") for o in orders)
    if len(orders) < 2:
        raise ValueError("a free product needs at least two factors")
    nontrivial = [o for o in orders if o > 1]
    hyp = (("two_nontrivial_factors", len(nontrivial) >= 2, f"orders {orders}"),)
    if len(nontrivial) == 2:
        note = f"|G1| = {nontrivial[0]}, |G2| = {nontrivial[1]}"
        hyp += (("not_Z2_star_Z2", nontrivial[1] >= 3, note),)
    elif len(nontrivial) > 2:
        note = f"{len(nontrivial)} nontrivial factors; grouped product is infinite"
        hyp += (("not_Z2_star_Z2", True, note),)
    return _gated("bucher_free_product", hyp, SQRT2, "sqrt(2)")


def surface_genus(spec: GroupSpec) -> int | None:
    """Genus of a surface group or of Z x a surface group, else None."""
    if spec.family == "direct_product_with_Z":
        spec = spec.inner
    return spec.genus if spec.family == "surface" else None


def group_bound(spec: GroupSpec) -> BoundReport | None:
    """The theorem bounding this group's growth rate from below, or None.

    A free product gets the sqrt(2) bound from its factors' orders, a torus
    bundle the Osin bound, and a surface group or Z x a surface group the
    4g-3 bound; no other family has a theorem here.
    """
    if spec.family == "free_product":
        return free_product_bound(group_order(f) for f in spec.factors)
    if spec.family == "torus_bundle":
        return osin_bound(spec.matrix)
    genus = surface_genus(spec)
    return None if genus is None else surface_bound(genus)


def _validate_index(i, name: str):
    if i == math.inf:
        return math.inf
    if _is_int(i) and i >= 1:
        return i
    raise ValueError(f"{name} must be an integer >= 1 or infinity, got {i!r}")


def amalgam_bound(index1, index2) -> BoundReport:
    """2^(1/4) for an amalgam with ([G1:H]-1)([G2:H]-1) >= 2."""
    i1 = _validate_index(index1, "index1")
    i2 = _validate_index(index2, "index2")
    d1, d2 = i1 - 1, i2 - 1
    product = 0 if (d1 == 0 or d2 == 0) else d1 * d2  # inf * 0 reads as 0 here
    note = f"({_fmt_index(i1)}-1)({_fmt_index(i2)}-1) = {_fmt_index(product)}"
    hyp = (("index_product_ge_2", product >= 2, note),)
    return _gated("bucher_harpe_amalgam", hyp, FOURTH_ROOT_2, "2^(1/4)")


def hnn_bound(index_h, index_k) -> BoundReport:
    """2^(1/4) for an HNN extension with [G:H] + [G:K] >= 3."""
    ih = _validate_index(index_h, "index_h")
    ik = _validate_index(index_k, "index_k")
    total = ih + ik
    hyp = (("index_sum_ge_3", total >= 3, f"{_fmt_index(ih)}+{_fmt_index(ik)} = {_fmt_index(total)}"),)
    return _gated("bucher_harpe_hnn", hyp, FOURTH_ROOT_2, "2^(1/4)")


def _fmt_index(i) -> str:
    return "inf" if i == math.inf else str(i)


def make_bcg_table(entries) -> dict:
    """Validate a user-supplied {(n, a): c} table of positive constants.

    Each bound is e^c, so a constant whose e^c is not a finite float (inf,
    or large enough to overflow) is rejected as well.
    """
    table = {}
    for key, c in dict(entries).items():
        n, a = key
        if not ((_is_int(c) or isinstance(c, float)) and c > 0):
            raise ValueError(f"constant for ({n}, {a}) must be positive, got {c!r}")
        try:
            finite = math.isfinite(math.exp(c))
        except OverflowError:
            finite = False
        if not finite:
            raise ValueError(f"constant for ({n}, {a}) must have a finite e^c, got {c!r}")
        table[(n, a)] = float(c)
    return table


def bcg_bound(n, a, table) -> BoundReport:
    """e^{c(n,a)} when the constant is supplied; no built-in values exist."""
    c = table.get((n, a)) if table else None
    if c is None:
        hyp = (("constant_supplied", False, f"no c({n},{a}) in table"),)
        return BoundReport(
            "bcg", False, hyp, None, notes="c(n,a) must be supplied by the caller"
        )
    hyp = (("constant_supplied", True, f"c({n},{a}) = {c}"),)
    return BoundReport("bcg", True, hyp, math.exp(c), exact_form=f"e^{{{c}}}")


def solvable_bound() -> BoundReport:
    """The literal 2^(1/6) bound for the solvable (torus-bundle) branch."""
    hyp = (("always", True, "no hypothesis"),)
    return BoundReport("solvable_universal", True, hyp, SOLVABLE_UNIVERSAL, exact_form="2^(1/6)")


class ScanRow(NamedTuple):
    a: int
    b: int
    c: int
    d: int
    det: int
    trace: int
    lam: QuadraticValue
    osin: float


@dataclass(frozen=True)
class ScanClassSummary:
    det: int
    count: int
    min_lambda: QuadraticValue | None
    min_osin: float | None
    lambda_le_2: bool
    witness: tuple | None  # (a, b, c, d) attaining min_lambda
    note: str | None = None


@dataclass(frozen=True)
class ScanReport:
    """Summaries of a scan; the rows themselves are built on first read.

    `spectra` maps each hyperbolic (|tr|, det) key to its (Lambda, Osin
    value), so reading `rows` computes no spectrum twice.
    """

    entry_bound: int
    hyperbolic_count: int
    classes: tuple  # summaries for det = +1 and det = -1
    spectra: dict = field(repr=False, compare=False)

    @functools.cached_property
    def rows(self) -> tuple:
        """A ScanRow per hyperbolic matrix, in lexicographic (a, b, c, d) order."""
        rows = []
        for a, d, det, pairs in _by_products(self.entry_bound):
            spectrum = self.spectra.get((abs(a + d), det))
            if spectrum is not None:
                rows.extend(ScanRow(a, b, c, d, det, a + d, *spectrum) for b, c in pairs)
        rows.sort()  # a ascends already; this orders each a's rows by (b, c, d)
        return tuple(rows)


def scan_hyperbolic(entry_bound: int) -> ScanReport:
    """All hyperbolic matrices with |entries| <= entry_bound, by determinant class.

    Per class the report keeps the count, the exact minimal root modulus,
    the minimal Osin value, whether any modulus <= 2 occurred, and the
    lexicographically first (a, b, c, d) attaining the minimum.

    The scan reads, for each (a, d) and det = +-1, the (b, c) pairs with
    b*c = a*d - det from one dict of products, so it costs O(B^2) for
    B = entry_bound.  Lambda, and with it the Osin value, depends only on
    (|tr|, det): both are computed once per such key, in the order the keys
    first occur among the matrices, and the summaries are folded over the
    keys.  No row is built until `rows` is read.
    """
    if entry_bound < 0:
        raise ValueError("entry bound must be >= 0")
    # (|tr|, det) -> [matrix count, lexicographically first (a, b, c, d)]
    keys = {}
    for a, d, det, pairs in _by_products(entry_bound):
        key, first = (abs(a + d), det), (a, *pairs[0], d)
        entry = keys.get(key)
        if entry is None:
            keys[key] = [len(pairs), first]
        else:
            entry[0] += len(pairs)
            if first < entry[1]:
                entry[1] = first
    spectra = {}
    found = {1: [], -1: []}
    for key, (count, first) in sorted(keys.items(), key=lambda item: item[1][1]):
        m = MatrixZ2(*first)
        lam = lambda_max(m)
        if lam > 1:
            osin = osin_bound(m).value
            spectra[key] = (lam, osin)
            found[key[1]].append((lam, first, osin, count))
    classes = []
    for det in (1, -1):
        if not found[det]:
            classes.append(ScanClassSummary(det, 0, None, None, False, None))
            continue
        # one key per Lambda within a class; the Osin value increases with
        # Lambda, so the least key holds its minimum too
        min_lam, witness, min_osin, _ = min(found[det])
        le2 = min_lam <= 2
        note = None
        if det == 1 and not le2:
            note = "every det=+1 stretch factor exceeds 2"
        elif det == -1 and le2:
            note = (
                "for det=+1 hyperbolic means |tr| >= 3, so Lambda >= (3+sqrt(5))/2 > 2; "
                "for det=-1 hyperbolic means |tr| >= 1, and Lambda <= 2 exactly when "
                "|tr| = 1, where Lambda = (1+sqrt(5))/2; the Osin value increases with "
                f"Lambda, so the det=-1 minimum {min_osin:.6g} still clears the "
                "2^(1/6) solvable floor"
            )
        count = sum(s[3] for s in found[det])
        classes.append(ScanClassSummary(det, count, min_lam, min_osin, le2, witness, note))
    total = sum(c.count for c in classes)
    return ScanReport(entry_bound, total, tuple(classes), spectra)


def _by_products(entry_bound: int):
    """(a, d, det, pairs) for the diagonals of the matrices with det = +-1, a then d ascending.

    pairs lists, in lexicographic order, the (b, c) with |b|, |c| <= entry_bound
    and b*c = a*d - det; a diagonal (a, d) with no such pair is skipped.
    """
    span = range(-entry_bound, entry_bound + 1)
    products = collections.defaultdict(list)
    for b in span:
        for c in span:
            products[b * c].append((b, c))
    for a in span:
        for d in span:
            for det in (1, -1):
                pairs = products.get(a * d - det)
                if pairs:
                    yield a, d, det, pairs


def scan_csv_rows(report: ScanReport) -> list[str]:
    """CSV lines `det,trace,a,b,c,d,lambda_exact,lambda_float,osin_bound`."""
    lines = ["det,trace,a,b,c,d,lambda_exact,lambda_float,osin_bound"]
    for r in report.rows:
        lines.append(
            f"{r.det},{r.trace},{r.a},{r.b},{r.c},{r.d},"
            f"{r.lam.exact_str()},{float(r.lam):.12g},{r.osin:.12g}"
        )
    return lines
