import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from groupgrowth import (
    GroupSpec,
    InvalidGenus,
    InvalidSpec,
    MatrixZ2,
    ball_elements,
    group_order,
    growth_table,
    is_generating,
    make_generating_set,
    make_group,
)
from groupgrowth.groups import FAMILIES, GROUP_PARAMS
from groupgrowth.surface import SurfaceRelator, dehn_reduce, surface_canonical
from groupgrowth.words import free_reduce, invert

import oracles

A21 = MatrixZ2.from_rows(((2, 1), (1, 1)))
A_DETM1 = MatrixZ2.from_rows(((1, 1), (1, 0)))  # det = -1

ALL_SPECS = [
    GroupSpec.trivial(),
    GroupSpec.cyclic(2),
    GroupSpec.cyclic(6),
    GroupSpec.free(1),
    GroupSpec.free(2),
    GroupSpec.free_abelian(2),
    GroupSpec.free_abelian(3),
    GroupSpec.heisenberg(),
    GroupSpec.klein_bottle(),
    GroupSpec.surface(2),
    GroupSpec.torus_bundle(A21),
    GroupSpec.torus_bundle(A_DETM1),
    GroupSpec.free_product(GroupSpec.cyclic(2), GroupSpec.cyclic(3)),
    GroupSpec.free_product(GroupSpec.cyclic(2), GroupSpec.free(1)),
    GroupSpec.direct_product_with_Z(GroupSpec.surface(2)),
    GroupSpec.direct_product_with_Z(GroupSpec.free(2)),
]


# --- spec construction and validation ---------------------------------------


def test_invalid_specs_rejected():
    with pytest.raises(InvalidSpec):
        GroupSpec.cyclic(0)
    with pytest.raises(InvalidSpec):
        GroupSpec.free(0)
    with pytest.raises(InvalidGenus):
        GroupSpec.surface(1)
    with pytest.raises(InvalidSpec):
        GroupSpec.torus_bundle(MatrixZ2.from_rows(((2, 0), (0, 2))))  # det 4
    with pytest.raises(InvalidSpec):
        GroupSpec.free_product(GroupSpec.cyclic(2))  # needs two factors
    with pytest.raises(InvalidSpec):
        GroupSpec.free_product(GroupSpec.cyclic(2), GroupSpec.trivial())
    with pytest.raises(InvalidSpec):
        GroupSpec.from_dict({"family": "nope", "params": {}})
    with pytest.raises(InvalidSpec, match="inner"):
        GroupSpec("direct_product_with_Z", inner=5)
    with pytest.raises(InvalidSpec, match="label"):
        GroupSpec.free(2, label=3)


@pytest.mark.parametrize(
    "data",
    [
        {"family": "cyclic", "params": {"m": True}},
        {"family": "free", "params": {"n": True}},
        {"family": "free_abelian", "params": {"n": True}},
        {"family": "surface", "params": {"genus": True}},
    ],
    ids=lambda d: d["family"],
)
def test_bool_parameters_rejected(data):
    with pytest.raises(InvalidSpec):
        GroupSpec.from_dict(data)


def test_torus_bundle_matrix_given_as_rows():
    spec = GroupSpec("torus_bundle", matrix=[[2, 1], [1, 1]])
    assert spec == GroupSpec.torus_bundle(MatrixZ2(2, 1, 1, 1))
    assert hash(spec) == hash(GroupSpec.torus_bundle(MatrixZ2(2, 1, 1, 1)))
    with pytest.raises(InvalidSpec):
        GroupSpec("torus_bundle", matrix=[[2, 1], [1]])


def test_free_product_factors_given_as_list():
    c2, c3 = GroupSpec.cyclic(2), GroupSpec.cyclic(3)
    spec, ref = GroupSpec("free_product", factors=[c2, c3]), GroupSpec.free_product(c2, c3)
    assert spec == ref and hash(spec) == hash(ref)
    tables = []
    for s in (spec, ref):
        handle = make_group(s)
        tables.append(growth_table(handle, handle.default_generators(), 3))
    assert tables[0] == tables[1] and hash(tables[0]) == hash(tables[1])
    with pytest.raises(InvalidSpec):
        GroupSpec("free_product", factors=5)
    with pytest.raises(InvalidSpec):
        GroupSpec("free_product", factors=[2, 3])


def test_matrix_validation():
    with pytest.raises(InvalidSpec):
        MatrixZ2.from_rows(((1, 2), (3,)))
    with pytest.raises(InvalidSpec):
        MatrixZ2.from_rows(((1.5, 0), (0, 1)))
    with pytest.raises(InvalidSpec):
        MatrixZ2.from_rows(((True, 0), (0, 1)))


def test_matrix_is_its_entry_tuple():
    assert A21 == (2, 1, 1, 1) and hash(A21) == hash((2, 1, 1, 1))
    assert repr(A21) == "MatrixZ2(a=2, b=1, c=1, d=1)"
    assert A21.rows() == [[2, 1], [1, 1]]


def test_matrix_algebra():
    assert A21.det() == 1
    assert A21.trace() == 3
    ident = MatrixZ2(1, 0, 0, 1)
    assert A21.mul(ident) == A21
    assert A21.mul(A21.inverse()) == ident
    assert A_DETM1.det() == -1
    assert A_DETM1.mul(A_DETM1.inverse()) == ident
    with pytest.raises(InvalidSpec):
        MatrixZ2.from_rows(((2, 0), (0, 2))).inverse()


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.describe())
def test_spec_dict_roundtrip(spec):
    again = GroupSpec.from_dict(spec.to_dict())
    assert again == spec


def test_spec_label_roundtrip():
    spec = GroupSpec.free(2, label="F2")
    assert spec.label == "F2"
    assert GroupSpec.from_dict(spec.to_dict()).label == "F2"


def test_families_are_the_schema():
    assert FAMILIES == tuple(GROUP_PARAMS)
    assert {s.family for s in ALL_SPECS} == set(FAMILIES)
    for spec in ALL_SPECS:
        assert tuple(spec.to_dict()["params"]) == GROUP_PARAMS[spec.family]


@pytest.mark.parametrize(
    "data, message",
    [
        ({"family": "trivial", "params": {"m": 3}}, "trivial takes no parameter 'm'"),
        ({"family": "cyclic", "params": {"m": 3, "n": 2}}, "cyclic takes no parameter 'n'"),
        ({"family": "free", "params": {"n": 2}, "lable": "F2"}, "group spec takes no key 'lable'"),
        ({"family": ["x"]}, "unknown family ['x']"),
        ({"family": {}}, "unknown family {}"),
        ({"family": 5}, "unknown family 5"),
        ({"family": "cyclic", "params": {}}, "cyclic spec is missing parameter 'm'"),
    ],
    ids=["param-trivial", "param-cyclic", "top-level", "list-tag", "dict-tag", "int-tag", "missing"],
)
def test_from_dict_rejects_keys_outside_the_schema(data, message):
    with pytest.raises(InvalidSpec) as info:
        GroupSpec.from_dict(data)
    assert str(info.value) == message


def test_group_order_values():
    assert group_order(GroupSpec.trivial()) == 1
    assert group_order(GroupSpec.cyclic(6)) == 6
    for spec in ALL_SPECS[3:]:
        assert group_order(spec) == math.inf


# --- group laws on sampled ball elements -------------------------------------


def sample_elements(spec, radius=3, cap=40):
    handle = make_group(spec)
    gens = handle.default_generators()
    elements = ball_elements(handle, gens, radius)
    return handle, elements[:cap]


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.describe())
def test_group_laws(spec):
    handle, elements = sample_elements(spec)
    e = handle.identity
    for g in elements:
        assert handle.mul(g, e) == g
        assert handle.mul(e, g) == g
        assert handle.mul(g, handle.inv(g)) == e
        assert handle.mul(handle.inv(g), g) == e
    # associativity on a deterministic sample of triples
    for g, h, k in itertools.islice(itertools.product(elements[:8], repeat=3), 200):
        assert handle.mul(handle.mul(g, h), k) == handle.mul(g, handle.mul(h, k))


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.describe())
def test_canonical_keys_are_injective(spec):
    handle, elements = sample_elements(spec, radius=3, cap=200)
    keys = [handle.canonical_key(g) for g in elements]
    assert len(set(keys)) == len(elements)
    assert handle.canonical_key(handle.identity) == b""


# --- family-specific relations ----------------------------------------------


def test_cyclic_matches_residues():
    handle = make_group(GroupSpec.cyclic(6))
    for a in range(6):
        for b in range(6):
            assert handle.mul(a, b) == (a + b) % 6
        assert handle.inv(a) == (-a) % 6


@given(
    st.lists(st.integers(-3, 3).filter(bool), max_size=8),
    st.lists(st.integers(-3, 3).filter(bool), max_size=4),
)
def test_free_mul_is_reduced_concatenation(w, c):
    # mul takes canonical, i.e. free-reduced, operands; c and its inverse
    # meet at the seam, so the cancellation there is exercised
    handle = make_group(GroupSpec.free(3))
    left = oracles.reduce_free(tuple(w[: len(w) // 2]) + tuple(c))
    right = oracles.reduce_free(invert(c) + tuple(w[len(w) // 2 :]))
    assert handle.mul(left, right) == oracles.reduce_free(left + right)


def test_heisenberg_multiplication_oracle():
    handle = make_group(GroupSpec.heisenberg())
    triples = [(x, y, z) for x in (-1, 0, 2) for y in (-2, 0, 1) for z in (-1, 0, 3)]
    for a in triples:
        for b in triples:
            assert handle.mul(a, b) == oracles.heisenberg_mul(a, b)
        assert handle.mul(a, handle.inv(a)) == (0, 0, 0)


def test_heisenberg_commutator_is_central():
    handle = make_group(GroupSpec.heisenberg())
    x, y = (1, 0, 0), (0, 1, 0)
    comm = handle.mul(
        handle.mul(x, y), handle.inv(handle.mul(y, x))
    )
    assert comm == (0, 0, 1)
    for g in ball_elements(handle, handle.default_generators(), 3):
        assert handle.mul(comm, g) == handle.mul(g, comm)


def test_klein_bottle_defining_relation():
    handle = make_group(GroupSpec.klein_bottle())
    a, b = (1, 0), (0, 1)
    # b a b' = a'
    assert handle.mul(handle.mul(b, a), handle.inv(b)) == handle.inv(a)
    # a and b^2 commute (index-2 Z^2 subgroup)
    b2 = handle.mul(b, b)
    assert handle.mul(a, b2) == handle.mul(b2, a)


def test_surface_relator_is_identity():
    handle = make_group(GroupSpec.surface(2))
    word = handle.identity
    for letter in (1, 2, -1, -2, 3, 4, -3, -4):
        word = handle.mul(word, (letter,))
    assert word == handle.identity


@pytest.mark.parametrize("matrix", [A21, A_DETM1], ids=["det+1", "det-1"])
def test_torus_bundle_conjugation(matrix):
    handle = make_group(GroupSpec.torus_bundle(matrix))
    t = (0, 0, 1)
    e1, e2 = (1, 0, 0), (0, 1, 0)
    # t (x, y) t^-1 = A (x, y)
    for v in (e1, e2, (3, -2, 0)):
        conj = handle.mul(handle.mul(t, v), handle.inv(t))
        x, y, _ = v
        assert conj == (matrix.a * x + matrix.b * y, matrix.c * x + matrix.d * y, 0)
    # the fiber Z^2 is abelian
    assert handle.mul(e1, e2) == handle.mul(e2, e1)


@pytest.mark.parametrize("first_n", [-12, 12])
@pytest.mark.parametrize(
    "matrix", [MatrixZ2(3, 1, 2, 1), MatrixZ2(1, 2, 1, 1)], ids=["det+1", "det-1"]
)
def test_torus_bundle_arithmetic_matches_oracle(matrix, first_n):
    # not symmetric, so a transposed power fails; a fresh handle whose first
    # product needs M^first_n fills its memo in that direction
    handle = make_group(GroupSpec.torus_bundle(matrix))
    rows = matrix.rows()
    rng = random.Random(first_n)

    def sample(n=None):
        return (rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(-12, 12) if n is None else n)

    pairs = [(sample(first_n), sample())] + [(sample(), sample()) for _ in range(400)]
    for a, b in pairs:
        assert handle.mul(a, b) == oracles.torus_bundle_mul(rows, a, b)
        inv = handle.inv(a)
        assert oracles.torus_bundle_mul(rows, a, inv) == handle.identity
        assert oracles.torus_bundle_mul(rows, inv, a) == handle.identity
    assert sorted(handle._powers) == list(range(-12, 13))  # one contiguous run


def test_free_product_syllables_alternate():
    spec = GroupSpec.free_product(GroupSpec.cyclic(2), GroupSpec.cyclic(3))
    handle = make_group(spec)
    for g in ball_elements(handle, handle.default_generators(), 5):
        sides = [side for side, _ in g]
        assert all(sides[i] != sides[i + 1] for i in range(len(sides) - 1))
        for side, payload in g:
            assert payload != handle.factor_handles[side].identity


def test_free_product_mul_matches_syllable_reference():
    spec = GroupSpec.free_product(GroupSpec.cyclic(2), GroupSpec.cyclic(3), GroupSpec.free(1))
    handle = make_group(spec)
    # a2 a1 times a1 a2: the Z2 syllables cancel, and then the Z3 ones merge
    assert handle.mul(((1, 1), (0, 1)), ((0, 1), (1, 1))) == ((1, 2),)
    ball = ball_elements(handle, handle.default_generators(), 4)
    for a in ball:
        for b in ball:
            ref = oracles.free_product_normal_ref(a + b, handle.factor_handles)
            assert handle.mul(a, b) == ref, (a, b)


def test_free_product_factor_orders():
    spec = GroupSpec.free_product(GroupSpec.cyclic(2), GroupSpec.cyclic(3))
    handle = make_group(spec)
    a = ((0, 1),)
    b = ((1, 1),)
    assert handle.mul(a, a) == ()
    assert handle.mul(handle.mul(b, b), b) == ()
    # mixed word stays in normal form and collapses correctly
    ab = handle.mul(a, b)
    assert ab == ((0, 1), (1, 1))
    assert handle.mul(ab, handle.inv(ab)) == ()


def test_direct_product_with_z_components():
    spec = GroupSpec.direct_product_with_Z(GroupSpec.free(2))
    handle = make_group(spec)
    t = (1, ())
    a = (0, (1,))
    assert handle.mul(t, a) == (1, (1,))
    assert handle.mul(a, t) == (1, (1,))  # z-factor is central
    assert handle.inv((2, (1, 2))) == (-2, (-2, -1))


def test_direct_product_z_letter_avoids_collision():
    # surface names use a1/b1/..., so "t" is free to use
    handle = make_group(GroupSpec.direct_product_with_Z(GroupSpec.surface(2)))
    names = [n for n, _ in handle._letters()]
    assert names[0] == "t"
    assert len(set(names)) == len(names)


def test_free_product_letters_stay_distinct_when_factor_names_collide():
    # a1 of factor 1 plus factor number 1 would read a11, which factor 11's a also takes
    f1 = GroupSpec.free(1)
    spec = GroupSpec.free_product(GroupSpec.free_product(f1, GroupSpec.cyclic(2)), *[f1] * 10)
    names = [n for n, _ in make_group(spec)._letters()]
    assert names == ["a1.1", "a2.1", *(f"a.{i}" for i in range(2, 12))]
    gens = make_group(spec).default_generators()
    assert len(set(gens.names)) == len(gens.names) == 23
    # names that are unique without a dot keep their old form
    plain = make_group(GroupSpec.free_product(GroupSpec.cyclic(2), GroupSpec.free(1)))
    assert [n for n, _ in plain._letters()] == ["a1", "a2"]


# --- generating sets ----------------------------------------------------------


def test_default_generators_are_symmetrized():
    handle = make_group(GroupSpec.free(2))
    gens = handle.default_generators()
    assert gens.symmetrized
    keys = {handle.canonical_key(g) for g in gens.elements}
    for g in gens.elements:
        assert handle.canonical_key(handle.inv(g)) in keys
    assert len(gens.elements) == 4
    assert list(gens.names) == ["a", "b", "a'", "b'"]


def test_involutions_not_duplicated():
    spec = GroupSpec.free_product(GroupSpec.cyclic(2), GroupSpec.cyclic(2))
    handle = make_group(spec)
    gens = handle.default_generators()
    # both generators are involutions; symmetrization adds nothing
    assert len(gens.elements) == 2


def test_make_generating_set_rejects_identity():
    handle = make_group(GroupSpec.free(2))
    with pytest.raises(InvalidSpec):
        make_generating_set(handle, [("e", ())])
    with pytest.raises(InvalidSpec):
        make_generating_set(handle, [])


def test_trivial_group_has_empty_generating_set():
    handle = make_group(GroupSpec.trivial())
    gens = handle.default_generators()
    assert gens.elements == ()


def test_custom_generating_set_symmetrization():
    handle = make_group(GroupSpec.free_abelian(1))
    gens = make_generating_set(handle, [("s", (2,)), ("u", (3,))])
    assert [handle.canonical_key(g) for g in gens.elements] == [b"2", b"3", b"-2", b"-3"]
    assert list(gens.names) == ["s", "u", "s'", "u'"]
    plain = make_generating_set(handle, [("s", (2,))], symmetrize=False)
    assert not plain.symmetrized
    assert len(plain.elements) == 1


# --- exact generation tests ---------------------------------------------------


def free_words(n):
    letters = st.integers(-n, n).filter(bool)
    return st.lists(letters, min_size=1, max_size=6).map(oracles.reduce_free).filter(bool)


def lattice_points(n):
    return st.tuples(*[st.integers(-3, 3)] * n).filter(any)


GENERATION_CASES = {
    "free2": (GroupSpec.free(2), free_words(2)),
    "free3": (GroupSpec.free(3), free_words(3)),
    "z2": (GroupSpec.free_abelian(2), lattice_points(2)),
    "z3": (GroupSpec.free_abelian(3), lattice_points(3)),
    "heisenberg": (GroupSpec.heisenberg(), lattice_points(3)),
}


@pytest.mark.parametrize("case", sorted(GENERATION_CASES))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_generates_matches_the_oracle_and_bfs(case, data):
    spec, points = GENERATION_CASES[case]
    handle = make_group(spec)
    elements = data.draw(st.lists(points, min_size=1, max_size=4, unique=True))
    verdict = handle.generates(elements)
    assert verdict is oracles.generation_ref(spec, elements)
    gens = make_generating_set(handle, [(f"g{i}", el) for i, el in enumerate(elements)])
    # BFS can only confirm: a set whose balls reach every default letter generates
    if is_generating(handle, gens, 3) is True:
        assert verdict is True


def test_generates_examples():
    free2 = make_group(GroupSpec.free(2))
    # a'a'a'b' (a'a'b')^-1 = a', so the pair generates; BFS reaches a only at radius 5
    assert free2.generates([(-1, -1, -1, -2), (-1, -1, -2)]) is True
    assert free2.generates([(1, 1), (2,)]) is False
    assert free2.generates([(1, 2, -1), (1,)]) is True
    z2 = make_group(GroupSpec.free_abelian(2))
    assert z2.generates([(2, 1), (1, 1)]) is True
    assert z2.generates([(2, 0), (3, 0), (0, 1)]) is True
    # fewer than n vectors have no n x n minor
    assert z2.generates([(1, 0)]) is False
    heisenberg = make_group(GroupSpec.heisenberg())
    assert heisenberg.generates([(1, 0, 5), (1, 1, -2)]) is True
    # z = [x, y] is central: no set of x and z reaches y
    assert heisenberg.generates([(1, 0, 0), (0, 0, 1)]) is False


@pytest.mark.parametrize(
    "spec",
    [
        GroupSpec.surface(2),
        GroupSpec.torus_bundle(A21),
        GroupSpec.direct_product_with_Z(GroupSpec.surface(2)),
        GroupSpec.direct_product_with_Z(GroupSpec.free(2)),
        GroupSpec.free_product(GroupSpec.cyclic(2), GroupSpec.cyclic(3)),
        GroupSpec.cyclic(6),
        GroupSpec.klein_bottle(),
    ],
    ids=lambda spec: spec.describe(),
)
def test_generates_is_unknown_without_an_exact_test(spec):
    # a surface group inherits FreeGroup's words but is not free: a set of
    # 2g elements that generates it need not be a basis, so it answers None
    handle = make_group(spec)
    assert handle.generates(handle.default_generators().elements) is None


# --- formatting ---------------------------------------------------------------


def test_format_element_examples():
    assert make_group(GroupSpec.cyclic(6)).format_element(4) == "a^4"
    assert make_group(GroupSpec.cyclic(6)).format_element(0) == "1"
    assert make_group(GroupSpec.free(2)).format_element((1, -2)) == "a b'"
    assert make_group(GroupSpec.trivial()).format_element(0) == "1"


def test_describe_strings():
    assert GroupSpec.free(2).describe() == "free(2)"
    assert "cyclic(2) * cyclic(3)" == GroupSpec.free_product(
        GroupSpec.cyclic(2), GroupSpec.cyclic(3)
    ).describe()
    assert GroupSpec.direct_product_with_Z(GroupSpec.surface(2)).describe() == (
        "Z x (surface(2))"
    )
    assert GroupSpec.torus_bundle(A21).describe() == "torus_bundle([[2, 1], [1, 1]])"
    assert GroupSpec.heisenberg().describe() == "heisenberg"
    assert GroupSpec.cyclic(6, label="C6").describe() == "C6"


# --- surface normal-form shortcut --------------------------------------------
# The old path, surface_canonical(dehn_reduce(free_reduce(w))), is the oracle
# for SurfaceGroup, which skips it for words holding no half of the relator.


def _surface_oracle(handle, word):
    return surface_canonical(dehn_reduce(free_reduce(word), handle.relator), handle.relator)


@pytest.mark.parametrize("genus, radius", [(2, 4), (3, 3)])
def test_surface_mul_matches_full_canonicalization(genus, radius):
    handle = make_group(GroupSpec.surface(genus))
    gens = handle.default_generators()
    for a in ball_elements(handle, gens, radius):
        for s in gens.elements:
            assert handle.mul(a, s) == _surface_oracle(handle, a + s)


def _surface_words(genus):
    """Words mixing single letters with relator halves and their complements,
    so that both the shortcut and the full canonicalization get exercised."""
    variants = oracles.surface_relator_variants(genus)
    n = 2 * genus
    pieces = [(x,) for x in range(-n, n + 1) if x] + [v[:n] for v in variants]
    pieces += [v[n - 1 :] for v in variants]
    return st.lists(st.sampled_from(pieces), max_size=6).map(lambda ps: sum(ps, ()))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_surface_canon_and_inv_match_full_canonicalization(data):
    genus = data.draw(st.sampled_from([2, 3]))
    handle = make_group(GroupSpec.surface(genus))
    word = data.draw(_surface_words(genus))
    canon = handle._normal(free_reduce(word))
    assert canon == _surface_oracle(handle, word)
    assert handle.inv(canon) == _surface_oracle(handle, invert(canon))


def test_surface_mul_takes_the_full_path_on_a_relator_half():
    handle = make_group(GroupSpec.surface(2))
    # b2 a2 b2' a2' is half of a cyclic variant of the relator; its canonical
    # form is the other half inverted, a1 b1 a1' b1'
    assert handle.mul((4, 3, -4), (-3,)) == (1, 2, -1, -2)


def test_counting_a_surface_group_builds_no_half_swap_table():
    # the table holds O(g^2) letters; a counted table reads no word
    handle = make_group(GroupSpec.surface(400))
    table = growth_table(handle, handle.default_generators(), 3)
    assert "_half_swap" not in vars(handle.relator)
    # below length 2g no relation shortens a word, so the ball is the free group's
    assert table.gamma == tuple(oracles.free_ball(800, k) for k in range(4))


def test_the_first_product_of_length_2g_builds_the_half_swap_table():
    handle = make_group(GroupSpec.surface(2))
    gens = handle.default_generators()
    # sphere 3 holds words of length 3 < 2g only
    for a in ball_elements(handle, gens, 2):
        for s in gens.elements:
            handle.mul(a, s)
    assert "_half_swap" not in vars(handle.relator)
    assert handle.mul((1, 2, -1), (-2,)) == (1, 2, -1, -2)
    assert len(vars(handle.relator)["_half_swap"]) == 16
