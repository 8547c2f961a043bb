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
    group_bound,
    is_hyperbolic,
    lambda_max,
    osin_bound,  # unused here; the traced benchmark runs patch manifold.osin_bound
)
from .errors import InvalidSpec, NoEnumerableGroup, shown
from .groups import GroupSpec, MatrixZ2, SpecBase, _is_int
from .rates import round12

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

# kinds with a finite (cyclic) fundamental group of order m
_FINITE = ("spherical", "lens_like")
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
    _UNKNOWN = "unknown manifold kind {}"
    _SCHEMA = MANIFOLD_PARAMS
    _CHILDREN = ("summands",)
    _DEFAULTS = {"s2xs1_count": 0}

    def __post_init__(self):
        super().__post_init__()
        kind = self.kind
        if kind == "connected_sum":
            if not _is_int(self.s2xs1_count) or self.s2xs1_count < 0:
                raise InvalidSpec(f"s2xs1_count must be an integer >= 0, got {shown(self.s2xs1_count)}")
            if len(self.summands) + self.s2xs1_count < 2:
                raise InvalidSpec("a connected sum needs at least two pieces")
            if any(s.kind in _FINITE and s.m == 1 for s in self.summands):
                raise InvalidSpec(
                    "a connected sum summand must have a non-trivial group; "
                    "S^3 (spherical or lens_like with m = 1) is the unit of #"
                )
        if kind == "hyperbolic_torus_bundle" and not is_hyperbolic(self.matrix):
            raise InvalidSpec(
                f"matrix {self.matrix.rows()} is not hyperbolic "
                "(need |det| = 1 and no eigenvalue of modulus one)"
            )
        if kind == "seifert_product_circle_times_surface" and (not _is_int(self.g) or self.g < 2):
            raise InvalidSpec(f"base surface genus must be >= 2, got {shown(self.g)}")
        if kind in _FINITE and (not _is_int(self.m) or self.m < 1):
            raise InvalidSpec(f"quotient order must be >= 1, got {shown(self.m)}")

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
    if kind in _FINITE:
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
            out["lower_bound"] = round12(self.lower_bound)
        if self.theorem_tag is not None:
            out["theorem_tag"] = self.theorem_tag
        out["notes"] = self.notes
        return out


def classify_growth(manifold: ManifoldSpec) -> GrowthClass:
    """Trichotomy verdict: finite, polynomial(degree), or exponential(bound).

    Finite orders and polynomial degrees follow from the kind.  An
    exponential bound and its theorem come from `bounds`: a connected sum's
    from its pieces' orders, any other kind's from its group.
    """
    kind = manifold.kind
    if kind in _FINITE:
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
    if kind == "connected_sum":
        orders = [s.m if s.kind in _FINITE else math.inf for s in manifold.summands]
        orders += [math.inf] * manifold.s2xs1_count
        report = free_product_bound(orders)
        notes = f"free product of {len(orders)} pieces"
    else:  # a Seifert product or a hyperbolic torus bundle
        report = group_bound(group_of_manifold(manifold))
        if kind == "hyperbolic_torus_bundle":
            notes = f"Lambda = {lambda_max(manifold.matrix).exact_str()}"
        else:
            notes = f"base surface of genus {manifold.g}"
    if not report.hypotheses_ok:
        # every summand is non-trivial, so only Z2 # Z2 fails the gate
        return GrowthClass(
            "polynomial",
            degree=1,
            notes="degenerate sum: both pieces have order-2 group (infinite dihedral, virtually Z)",
        )
    return GrowthClass(
        "exponential", lower_bound=report.value, theorem_tag=report.theorem, notes=notes
    )


def universal_constant(bcg_table=None) -> BoundReport:
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
    table = bcg_table or {}
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
