import math

import pytest
from hypothesis import given, settings, strategies as st

from groupgrowth import (
    GroupSpec,
    InvalidSpec,
    MatrixZ2,
    ManifoldSpec,
    NoEnumerableGroup,
    SOLVABLE_UNIVERSAL,
    SQRT2,
    classify_growth,
    estimate_rates,
    group_bound,
    group_of_manifold,
    growth_table,
    make_bcg_table,
    make_group,
    universal_constant,
)
from groupgrowth.manifold import KINDS, MANIFOLD_PARAMS

A21 = MatrixZ2.from_rows(((2, 1), (1, 1)))

ALL_MANIFOLDS = [
    ManifoldSpec.spherical(1),
    ManifoldSpec.spherical(8),
    ManifoldSpec.lens_like(7),
    ManifoldSpec.three_torus(),
    ManifoldSpec.nil_manifold(),
    ManifoldSpec.hyperbolic_torus_bundle(A21),
    ManifoldSpec.seifert_product(2),
    ManifoldSpec.torus_interval_double(),
    ManifoldSpec.klein_bundle_double(),
    ManifoldSpec.connected_sum([ManifoldSpec.spherical(5), ManifoldSpec.three_torus()]),
    ManifoldSpec.connected_sum([ManifoldSpec.spherical(2)] * 2, s2xs1_count=1),
]


def test_kind_registry():
    assert len(KINDS) == 9
    assert {m.kind for m in ALL_MANIFOLDS} == set(KINDS)


# --- validation and serialization ------------------------------------------------


def test_manifold_validation():
    with pytest.raises(InvalidSpec):
        ManifoldSpec.connected_sum([ManifoldSpec.spherical(5)])
    with pytest.raises(InvalidSpec, match="non-trivial"):  # S^3 is the unit of #
        ManifoldSpec.connected_sum([ManifoldSpec.lens_like(1), ManifoldSpec.three_torus()])
    with pytest.raises(InvalidSpec):
        ManifoldSpec.hyperbolic_torus_bundle(MatrixZ2(1, 0, 0, 1))
    with pytest.raises(InvalidSpec):
        ManifoldSpec.seifert_product(1)
    with pytest.raises(InvalidSpec):
        ManifoldSpec.spherical(0)
    with pytest.raises(InvalidSpec):
        ManifoldSpec.from_dict({"kind": "mystery", "params": {}})


@pytest.mark.parametrize(
    "data",
    [
        {"kind": "spherical", "params": {"m": True}},
        {"kind": "lens_like", "params": {"m": True}},
        {"kind": "seifert_product_circle_times_surface", "params": {"g": True}},
        {"kind": "connected_sum", "params": {"summands": [{"kind": "three_torus"}] * 2, "s2xs1_count": True}},
    ],
    ids=lambda d: d["kind"],
)
def test_bool_parameters_rejected(data):
    with pytest.raises(InvalidSpec):
        ManifoldSpec.from_dict(data)


def test_connected_sum_summands_given_as_list():
    pieces = [ManifoldSpec.spherical(5), ManifoldSpec.three_torus()]
    spec, ref = ManifoldSpec("connected_sum", summands=pieces, s2xs1_count=0), ManifoldSpec.connected_sum(pieces)
    assert spec == ref and hash(spec) == hash(ref)
    with pytest.raises(InvalidSpec):
        ManifoldSpec("connected_sum", summands=5, s2xs1_count=2)
    with pytest.raises(InvalidSpec):
        ManifoldSpec("connected_sum", summands=[1, 2], s2xs1_count=0)


@pytest.mark.parametrize("manifold", ALL_MANIFOLDS, ids=lambda m: m.kind)
def test_manifold_dict_roundtrip(manifold):
    assert ManifoldSpec.from_dict(manifold.to_dict()) == manifold


def test_kinds_are_the_schema():
    assert KINDS == tuple(MANIFOLD_PARAMS)
    for manifold in ALL_MANIFOLDS:
        assert tuple(manifold.to_dict()["params"]) == MANIFOLD_PARAMS[manifold.kind]


def test_s2xs1_count_defaults_to_zero():
    data = {"kind": "connected_sum", "params": {"summands": [{"kind": "three_torus"}] * 2}}
    assert ManifoldSpec.from_dict(data).s2xs1_count == 0


def test_hyperbolic_matrix_given_as_rows():
    spec = ManifoldSpec("hyperbolic_torus_bundle", matrix=[[2, 1], [1, 1]])
    assert spec == ManifoldSpec.hyperbolic_torus_bundle(A21)
    assert ManifoldSpec.hyperbolic_torus_bundle([[2, 1], [1, 1]]) == spec


@pytest.mark.parametrize(
    "data, message",
    [
        ({"kind": "three_torus", "params": {"m": 3}}, "three_torus takes no parameter 'm'"),
        ({"kind": "spherical", "params": {"m": 3, "g": 2}}, "spherical takes no parameter 'g'"),
        ({"kind": "three_torus", "lable": "T3"}, "manifold spec takes no key 'lable'"),
        ({"kind": ["x"]}, "unknown manifold kind ['x']"),
        ({"kind": {}}, "unknown manifold kind {}"),
        ({"kind": "spherical"}, "spherical spec is missing parameter 'm'"),
    ],
    ids=["param-three-torus", "param-spherical", "top-level", "list-tag", "dict-tag", "missing"],
)
def test_from_dict_rejects_keys_outside_the_schema(data, message):
    with pytest.raises(InvalidSpec) as info:
        ManifoldSpec.from_dict(data)
    assert str(info.value) == message


# --- fundamental groups -----------------------------------------------------------


def test_group_of_manifold_mapping():
    assert group_of_manifold(ManifoldSpec.spherical(8)) == GroupSpec.cyclic(8)
    assert group_of_manifold(ManifoldSpec.lens_like(7)) == GroupSpec.cyclic(7)
    assert group_of_manifold(ManifoldSpec.three_torus()) == GroupSpec.free_abelian(3)
    assert group_of_manifold(ManifoldSpec.nil_manifold()) == GroupSpec.heisenberg()
    assert group_of_manifold(
        ManifoldSpec.hyperbolic_torus_bundle(A21)
    ) == GroupSpec.torus_bundle(A21)
    assert group_of_manifold(
        ManifoldSpec.seifert_product(2)
    ) == GroupSpec.direct_product_with_Z(GroupSpec.surface(2))


def test_connected_sum_group_is_a_free_product():
    manifold = ManifoldSpec.connected_sum(
        [ManifoldSpec.spherical(5), ManifoldSpec.three_torus()], s2xs1_count=2
    )
    spec = group_of_manifold(manifold)
    assert spec.family == "free_product"
    # one factor per summand plus one free(1) per S2 x S1 piece
    assert len(spec.factors) == 4
    assert spec.factors[0] == GroupSpec.cyclic(5)
    assert spec.factors[1] == GroupSpec.free_abelian(3)
    assert spec.factors[2:] == (GroupSpec.free(1), GroupSpec.free(1))


def test_tag_only_kinds_have_no_enumerable_group():
    for manifold in (ManifoldSpec.torus_interval_double(), ManifoldSpec.klein_bundle_double()):
        with pytest.raises(NoEnumerableGroup):
            group_of_manifold(manifold)


# --- growth classification ----------------------------------------------------------


def test_classify_finite_branches():
    for manifold in (ManifoldSpec.spherical(8), ManifoldSpec.lens_like(7)):
        gc = classify_growth(manifold)
        assert gc.verdict == "finite"
        assert gc.degree is None and gc.lower_bound is None


def test_classify_polynomial_branches():
    assert classify_growth(ManifoldSpec.three_torus()).degree == 3
    assert classify_growth(ManifoldSpec.nil_manifold()).degree == 4
    for manifold in (ManifoldSpec.torus_interval_double(), ManifoldSpec.klein_bundle_double()):
        gc = classify_growth(manifold)
        assert gc.verdict == "polynomial" and gc.degree == 3
        assert "classification-only" in gc.notes


def test_classify_exponential_branches():
    sum_gc = classify_growth(
        ManifoldSpec.connected_sum([ManifoldSpec.spherical(5), ManifoldSpec.three_torus()])
    )
    assert sum_gc.verdict == "exponential"
    assert sum_gc.lower_bound == SQRT2
    assert sum_gc.theorem_tag == "bucher_free_product"

    hyp_gc = classify_growth(ManifoldSpec.hyperbolic_torus_bundle(A21))
    assert hyp_gc.theorem_tag == "osin_polycyclic"
    assert hyp_gc.lower_bound == pytest.approx(1.4962221128324007)
    assert "(3+sqrt(5))/2" in hyp_gc.notes

    seifert_gc = classify_growth(ManifoldSpec.seifert_product(3))
    assert seifert_gc.theorem_tag == "surface_4g3"
    assert seifert_gc.lower_bound == 9.0


def test_classify_degenerate_connected_sum():
    gc = classify_growth(
        ManifoldSpec.connected_sum([ManifoldSpec.spherical(2), ManifoldSpec.spherical(2)])
    )
    assert gc.verdict == "polynomial"
    assert gc.degree == 1
    # adding an S2 x S1 handle breaks the degeneracy
    gc2 = classify_growth(
        ManifoldSpec.connected_sum(
            [ManifoldSpec.spherical(2), ManifoldSpec.spherical(2)], s2xs1_count=1
        )
    )
    assert gc2.verdict == "exponential"


HYPERBOLIC_MATRICES = [MatrixZ2(2, 1, 1, 1), MatrixZ2(1, 1, 1, 0), MatrixZ2(3, 1, 2, 1), MatrixZ2(0, 1, 1, 3)]
_pieces = st.one_of(
    st.builds(ManifoldSpec.spherical, st.integers(2, 12)),
    st.builds(ManifoldSpec.lens_like, st.integers(2, 12)),
    st.just(ManifoldSpec.three_torus()),
    st.just(ManifoldSpec.nil_manifold()),
    st.builds(ManifoldSpec.seifert_product, st.integers(2, 6)),
    st.sampled_from(HYPERBOLIC_MATRICES).map(ManifoldSpec.hyperbolic_torus_bundle),
)
ENUMERABLE_MANIFOLDS = st.one_of(
    st.just(ManifoldSpec.spherical(1)),
    st.recursive(
        _pieces,
        lambda children: st.tuples(st.lists(children, max_size=3), st.integers(0, 2))
        .filter(lambda t: len(t[0]) + t[1] >= 2)
        .map(lambda t: ManifoldSpec.connected_sum(*t)),
        max_leaves=6,
    ),
)


@settings(max_examples=200, deadline=None)
@given(ENUMERABLE_MANIFOLDS)
def test_classify_takes_its_bound_from_the_group(manifold):
    bound = group_bound(group_of_manifold(manifold))
    expected = (None, None)
    if bound is not None and bound.hypotheses_ok:
        expected = (bound.value, bound.theorem)
    gc = classify_growth(manifold)
    assert (gc.lower_bound, gc.theorem_tag) == expected


def test_growth_class_dict_shape():
    d = classify_growth(ManifoldSpec.three_torus()).to_dict()
    assert d["verdict"] == "polynomial" and d["degree"] == 3
    assert "lower_bound" not in d
    d2 = classify_growth(ManifoldSpec.hyperbolic_torus_bundle(A21)).to_dict()
    assert set(d2) == {"verdict", "lower_bound", "theorem_tag", "notes"}


def test_classification_agrees_with_enumeration():
    # the predicted class matches what the tables actually show
    # Z^3 sphere ratios only fall below the polynomial threshold around k = 22
    cases = [
        (ManifoldSpec.three_torus(), 30, "polynomial(3)"),
        (ManifoldSpec.lens_like(7), 6, "polynomial(0)"),
        (ManifoldSpec.hyperbolic_torus_bundle(A21), 10, "exponential"),
    ]
    for manifold, kmax, expected in cases:
        handle = make_group(group_of_manifold(manifold))
        table = growth_table(handle, handle.default_generators(), kmax)
        d = estimate_rates(table).to_dict()
        assert d["verdict"] == expected


# --- universal constant -----------------------------------------------------------


def test_universal_constant_default():
    r = universal_constant()
    assert r.value == SOLVABLE_UNIVERSAL
    assert r.exact_form == "2^(1/6)"
    assert r.theorem == "universal_C"
    detail = {name: ok for name, ok, _ in r.hypothesis_detail}
    assert detail["hyperbolic"] is False
    assert detail["seifert_sl2"] is False
    assert detail["solvable_torus_bundle"] is True


def test_universal_constant_with_curvature_table():
    table = make_bcg_table({(3, 1): 0.05, (2, 1): 0.05})
    r = universal_constant(bcg_table=table)
    assert r.value == pytest.approx(math.exp(0.05))
    detail = {name: ok for name, ok, _ in r.hypothesis_detail}
    assert detail["hyperbolic"] is True
