"""Closed 3-manifold descriptions, their fundamental groups, and growth class.

Every supported manifold kind maps to a group spec (or is an explicit
classification-only tag), and classification follows the trichotomy: finite
fundamental group, polynomial growth of a known degree, or exponential
growth with a concrete lower bound and the theorem that supplies it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bounds import (
    BoundReport,
    FOURTH_ROOT_2,
    SOLVABLE_UNIVERSAL,
    SQRT2,
    free_product_bound,
    is_hyperbolic,
    lambda_max,
    osin_bound,
)
from .errors import InvalidSpec, NoEnumerableGroup
from .groups import GroupOrder, GroupSpec, MatrixZ2, SpecBase, _is_int, group_order

MANIFOLD_PARAMS = {
    "connected_sum": ("summands", "s2xs1_count"),
    "hyperbolic_torus_bundle": ("matrix",),
    "seifert_product_circle_times_surface": ("g",),
    "three_torus": (),
    "nil_manifold_heisenberg": (),
    "spherical": ("m",),
    "lens_like": ("m",),
    "torus_times_interval_double": (),
    "twisted_I_bundle_klein_double": (),
}
KINDS = tuple(MANIFOLD_PARAMS)

# flat-branch tags whose groups are not enumerable here
_TAG_ONLY = ("torus_times_interval_double", "twisted_I_bundle_klein_double")


@dataclass(frozen=True)
class ManifoldSpec(SpecBase):
    kind: str
    summands: tuple["ManifoldSpec", ...] | None = None
    s2xs1_count: int | None = None
    matrix: MatrixZ2 | None = None
    g: int | None = None
    m: int | None = None
    label: str | None = None

    _TAG = "kind"
    _NOUN = "manifold"
    _UNKNOWN = "unknown manifold kind {!r}"
    _SCHEMA = MANIFOLD_PARAMS
    _CHILDREN = ("summands",)
    _DEFAULTS = {"s2xs1_count": 0}

    def __post_init__(self):
        super().__post_init__()
        kind = self.kind
        if kind == "connected_sum":
            if not _is_int(self.s2xs1_count) or self.s2xs1_count < 0:
                raise InvalidSpec(f"s2xs1_count must be an integer >= 0, got {self.s2xs1_count!r}")
            if len(self.summands) + self.s2xs1_count < 2:
                raise InvalidSpec("a connected sum needs at least two pieces")
        if kind == "hyperbolic_torus_bundle" and not is_hyperbolic(self.matrix):
            raise InvalidSpec(
                f"matrix {self.matrix.rows()} is not hyperbolic "
                "(need |det| = 1 and no eigenvalue of modulus one)"
            )
        if kind == "seifert_product_circle_times_surface" and (not _is_int(self.g) or self.g < 2):
            raise InvalidSpec(f"base surface genus must be >= 2, got {self.g!r}")
        if kind in ("spherical", "lens_like") and (not _is_int(self.m) or self.m < 1):
            raise InvalidSpec(f"quotient order must be >= 1, got {self.m!r}")

    # -- constructors ------------------------------------------------------

    @classmethod
    def connected_sum(cls, summands, s2xs1_count: int = 0, label=None) -> "ManifoldSpec":
        return cls("connected_sum", summands=tuple(summands), s2xs1_count=s2xs1_count, label=label)

    @classmethod
    def hyperbolic_torus_bundle(cls, matrix, label=None) -> "ManifoldSpec":
        return cls("hyperbolic_torus_bundle", matrix=matrix, label=label)

    @classmethod
    def seifert_product(cls, g: int, label=None) -> "ManifoldSpec":
        return cls("seifert_product_circle_times_surface", g=g, label=label)

    @classmethod
    def three_torus(cls, label=None) -> "ManifoldSpec":
        return cls("three_torus", label=label)

    @classmethod
    def nil_manifold(cls, label=None) -> "ManifoldSpec":
        return cls("nil_manifold_heisenberg", label=label)

    @classmethod
    def spherical(cls, m: int, label=None) -> "ManifoldSpec":
        return cls("spherical", m=m, label=label)

    @classmethod
    def lens_like(cls, m: int, label=None) -> "ManifoldSpec":
        return cls("lens_like", m=m, label=label)

    @classmethod
    def torus_interval_double(cls, label=None) -> "ManifoldSpec":
        return cls("torus_times_interval_double", label=label)

    @classmethod
    def klein_bundle_double(cls, label=None) -> "ManifoldSpec":
        return cls("twisted_I_bundle_klein_double", label=label)


def group_of_manifold(manifold: ManifoldSpec) -> GroupSpec:
    """Fundamental group of the manifold as a group spec.

    The two flat I-bundle doubles are classification-only tags with no
    enumerable group here and raise NoEnumerableGroup.
    """
    kind = manifold.kind
    if kind == "connected_sum":
        factors = [group_of_manifold(s) for s in manifold.summands]
        factors.extend(GroupSpec.free(1) for _ in range(manifold.s2xs1_count))
        return GroupSpec.free_product(*factors)
    if kind == "hyperbolic_torus_bundle":
        return GroupSpec.torus_bundle(manifold.matrix)
    if kind == "seifert_product_circle_times_surface":
        return GroupSpec.direct_product_with_Z(GroupSpec.surface(manifold.g))
    if kind == "three_torus":
        return GroupSpec.free_abelian(3)
    if kind == "nil_manifold_heisenberg":
        return GroupSpec.heisenberg()
    if kind in ("spherical", "lens_like"):
        return GroupSpec.cyclic(manifold.m)
    raise NoEnumerableGroup(
        f"{kind} is a classification-only tag; its group is not enumerable here"
    )


@dataclass(frozen=True)
class GrowthClass:
    verdict: str  # "finite" | "polynomial" | "exponential"
    degree: int | None = None
    lower_bound: float | None = None
    theorem_tag: str | None = None
    notes: str | None = None

    def __post_init__(self):
        if self.verdict == "exponential":
            if self.lower_bound is None or self.lower_bound <= 1 or self.theorem_tag is None:
                raise ValueError("exponential verdict needs a bound > 1 and a theorem tag")

    def to_dict(self) -> dict:
        out: dict = {"verdict": self.verdict}
        if self.degree is not None:
            out["degree"] = self.degree
        if self.lower_bound is not None:
            out["lower_bound"] = float("%.12g" % self.lower_bound)
        if self.theorem_tag is not None:
            out["theorem_tag"] = self.theorem_tag
        out["notes"] = self.notes
        return out


def classify_growth(manifold: ManifoldSpec) -> GrowthClass:
    """Trichotomy verdict: finite, polynomial(degree), or exponential(bound)."""
    kind = manifold.kind
    if kind in ("spherical", "lens_like"):
        return GrowthClass("finite", notes=f"fundamental group is cyclic of order {manifold.m}")
    if kind == "three_torus":
        return GrowthClass("polynomial", degree=3, notes="abelian of rank 3")
    if kind == "nil_manifold_heisenberg":
        return GrowthClass("polynomial", degree=4, notes="nilpotent Heisenberg lattice")
    if kind in _TAG_ONLY:
        return GrowthClass(
            "polynomial",
            degree=3,
            notes="flat branch (virtually abelian of rank 3); "
            "classification-only tag, not verified by enumeration",
        )
    if kind == "seifert_product_circle_times_surface":
        g = manifold.g
        return GrowthClass(
            "exponential",
            lower_bound=float(4 * g - 3),
            theorem_tag="surface_4g3",
            notes=f"base surface of genus {g}",
        )
    if kind == "hyperbolic_torus_bundle":
        report = osin_bound(manifold.matrix)
        return GrowthClass(
            "exponential",
            lower_bound=report.value,
            theorem_tag="osin_polycyclic",
            notes=f"Lambda = {lambda_max(manifold.matrix).exact_str()}",
        )
    # connected sum
    group = group_of_manifold(manifold)
    factors = group.factors
    if (
        manifold.s2xs1_count == 0
        and len(factors) == 2
        and all(group_order(f) == GroupOrder.finite(2) for f in factors)
    ):
        return GrowthClass(
            "polynomial",
            degree=1,
            notes="degenerate sum: both pieces have order-2 group (infinite dihedral, virtually Z)",
        )
    report = free_product_bound(factors)
    if not report.hypotheses_ok:
        return GrowthClass(
            "polynomial", degree=1, notes="free-product hypotheses fail; growth is linear"
        )
    return GrowthClass(
        "exponential",
        lower_bound=report.value,
        theorem_tag="bucher_free_product",
        notes=f"free product of {len(factors)} pieces",
    )


def universal_constant(include_bcg: bool = True, bcg_table=None) -> BoundReport:
    """Minimum over the known branch constants, flagging unknown branches.

    The three closed-form branches contribute 2^(1/4) (JSJ), sqrt(2)
    (nonprime), and 2^(1/6) (solvable); the hyperbolic and Seifert branches
    contribute e^{c(3,1)} and e^{c(2,1)} only when a constant table supplies
    them.
    """
    branches = [
        ("nonprime_free_product", SQRT2, "sqrt(2)"),
        ("jsj_amalgam_or_hnn", FOURTH_ROOT_2, "2^(1/4)"),
        ("solvable_torus_bundle", SOLVABLE_UNIVERSAL, "2^(1/6)"),
    ]
    table = bcg_table if (include_bcg and bcg_table) else {}
    for branch, key in (("hyperbolic", (3, 1)), ("seifert_sl2", (2, 1))):
        c = table.get(key)
        branches.append((branch, None if c is None else math.exp(c), f"e^{{c{key}}}"))
    detail = []
    known = []
    for name, value, form in branches:
        if value is None:
            detail.append((name, False, "constant unknown (not supplied)"))
        else:
            detail.append((name, True, f"{form} = {value:.12g}"))
            known.append((value, name, form))
    best = min(known)
    return BoundReport(
        theorem="universal_C",
        hypotheses_ok=True,
        hypothesis_detail=tuple(detail),
        value=best[0],
        exact_form=best[2],
        notes=f"minimum attained by the {best[1]} branch; "
        f"{sum(1 for _, ok, _ in detail if not ok)} branch(es) lack a known constant",
    )
