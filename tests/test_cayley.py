import functools
import itertools
import random

import pytest

from groupgrowth import (
    ClosureBudgetExceeded,
    GroupSpec,
    MatrixZ2,
    ball_elements,
    growth_table,
    is_generating,
    make_generating_set,
    make_group,
    search_generating_sets,
)
from groupgrowth import cayley, estimate_rates, groups
from groupgrowth.cayley import GrowthTable
from groupgrowth.rates import table_csv_rows

import oracles


def default_table(spec, kmax, **kwargs):
    handle = make_group(spec)
    return handle, growth_table(handle, handle.default_generators(), kmax, **kwargs)


# --- closed forms -------------------------------------------------------------


def test_free2_closed_form(free2_k8):
    assert free2_k8.gamma == tuple(2 * 3 ** k - 1 for k in range(9))
    assert free2_k8.complete


def test_free3_closed_form():
    _, table = default_table(GroupSpec.free(3), 5)
    assert table.gamma == tuple(oracles.free_ball(3, k) for k in range(6))


def test_z_closed_form():
    _, table = default_table(GroupSpec.free_abelian(1), 10)
    assert table.gamma == tuple(2 * k + 1 for k in range(11))


def test_z2_closed_form(z2_k30):
    assert z2_k30.gamma == tuple(2 * k * k + 2 * k + 1 for k in range(31))


def test_z3_closed_form(z3_k40):
    assert z3_k40.gamma == tuple(oracles.zd_ball(3, k) for k in range(41))


def test_dihedral_closed_form(dihedral_k50):
    assert dihedral_k50.gamma == tuple(oracles.dihedral_ball(k) for k in range(51))


def test_cyclic_exhausts_and_pads():
    _, table = default_table(GroupSpec.cyclic(7), 10)
    assert table.gamma == (1, 3, 5, 7, 7, 7, 7, 7, 7, 7, 7)
    assert table.complete


def bfs_forbidden(monkeypatch):
    """Make `cayley.spheres` raise, so a table counted by BFS fails."""

    def no_bfs(handle, *args, **kwargs):
        raise AssertionError(f"BFS ran on {handle.spec.describe()}")

    monkeypatch.setattr(cayley, "spheres", no_bfs)


def test_trivial_group_table(monkeypatch):
    # the trivial group is cyclic(1) to its counter, not BFS over no letters
    bfs_forbidden(monkeypatch)
    _, table = default_table(GroupSpec.trivial(), 5)
    assert table.gamma == (1,) * 6
    assert table.sigma == (1, 0, 0, 0, 0, 0)


# --- BFS oracle cross-checks ---------------------------------------------------


@pytest.mark.parametrize(
    "spec,kmax",
    [
        (GroupSpec.heisenberg(), 6),
        (GroupSpec.klein_bottle(), 6),
        (GroupSpec.torus_bundle(MatrixZ2.from_rows(((2, 1), (1, 1)))), 5),
        (GroupSpec.torus_bundle(MatrixZ2.from_rows(((1, 1), (1, 0)))), 5),
        (GroupSpec.free_product(GroupSpec.cyclic(2), GroupSpec.cyclic(3)), 6),
        (GroupSpec.surface(2), 3),
        (GroupSpec.direct_product_with_Z(GroupSpec.free(1)), 6),
        (GroupSpec.cyclic(6), 5),
        (GroupSpec.trivial(), 3),
        (GroupSpec.free_product(GroupSpec.cyclic(2), GroupSpec.cyclic(2), GroupSpec.cyclic(2)), 6),
        (GroupSpec.direct_product_with_Z(GroupSpec.heisenberg()), 5),
    ],
    ids=lambda v: v.describe() if isinstance(v, GroupSpec) else str(v),
)
def test_gamma_matches_naive_bfs(spec, kmax):
    handle, table = default_table(spec, kmax)
    gens = handle.default_generators()
    assert table.gamma == oracles.naive_ball_sizes(handle, gens.elements, kmax)


def test_klein_growth_equals_z2():
    # quadratic growth; same ball sizes as Z^2 with standard generators
    _, table = default_table(GroupSpec.klein_bottle(), 12)
    assert table.gamma == tuple(2 * k * k + 2 * k + 1 for k in range(13))


# --- counting plans against full BFS ----------------------------------------------


def Z(m):
    return GroupSpec.cyclic(m)


def product_mul_forbidden(handle):
    """Make `handle.mul` raise, so a table that forms an element of the group fails."""

    def no_mul(a, b):
        raise AssertionError(f"element of {handle.spec.describe()} formed")

    handle.mul = no_mul


FREE_PRODUCTS = [
    (GroupSpec.free_product(Z(2), Z(3)), 12),
    (GroupSpec.free_product(Z(2), Z(2)), 12),
    (GroupSpec.free_product(Z(2), Z(2), Z(2)), 9),
    (GroupSpec.free_product(Z(4), Z(5)), 8),
    (GroupSpec.free_product(GroupSpec.free(1), Z(2)), 8),
    (GroupSpec.free_product(GroupSpec.heisenberg(), Z(2)), 6),
    (GroupSpec.free_product(GroupSpec.surface(2), Z(2), Z(3)), 3),
    (GroupSpec.free_product(GroupSpec.torus_bundle(MatrixZ2(2, 1, 1, 1)), Z(3)), 5),
    (GroupSpec.free_product(GroupSpec.klein_bottle(), Z(3)), 6),
    # a Z x G factor is planned by BFS on its own letters
    (GroupSpec.free_product(GroupSpec.direct_product_with_Z(GroupSpec.free(1)), Z(2)), 6),
    (GroupSpec.free_product(GroupSpec.free_product(Z(2), Z(3)), Z(4)), 7),
]


def spec_id(value):
    return value.describe() if isinstance(value, GroupSpec) else str(value)


@pytest.mark.parametrize("spec,kmax", FREE_PRODUCTS, ids=spec_id)
def test_free_product_series_matches_full_bfs(spec, kmax):
    handle = make_group(spec)
    gens = handle.default_generators()
    expected = oracles.naive_ball_sizes(handle, gens.elements, kmax)
    product_mul_forbidden(handle)
    table = growth_table(handle, gens, kmax)
    assert table.gamma == expected
    assert table.complete


def test_series_inverse_matches_closed_forms():
    # Z's (1+x)/(1-x) inverts to 1 - 2x + 2x^2 - ..., free(2)'s (1+x)/(1-3x) to 1 - 4x + 4x^2 - ...
    inverse = functools.partial(cayley._quotient, {0: 1})
    z = [2] * 12
    free2 = [4 * 3 ** (k - 1) for k in range(1, 13)]
    assert list(inverse(z)) == [2 * (-1) ** k for k in range(1, 13)]
    assert list(inverse(free2)) == [4 * (-1) ** k for k in range(1, 13)]
    assert list(inverse(inverse(free2))) == free2
    # one term out per term in: a free product stops where a factor cut by the cap stops
    for n in range(13):
        assert len(list(inverse(free2[:n]))) == n


class CountedTerm(int):
    """A den term that counts the products it takes part in."""

    products = 0

    def __mul__(self, other):
        CountedTerm.products += 1
        return int(self) * other

    __rmul__ = __mul__


def test_quotient_multiplies_by_no_zero_den_term():
    # a leaf's den is finite and padded with zeros; a product per zero would
    # make sphere k cost O(k), and a long table quadratic
    num, den = cayley._sphere_series(GroupSpec.surface(2))
    terms = map(CountedTerm, map(den.get, itertools.count(1), itertools.repeat(0)))
    spheres = cayley._quotient(num, terms)
    for _ in range(100):
        before = CountedTerm.products
        next(spheres)
        assert CountedTerm.products - before <= len(den) - 1


def test_z2_star_z2_spheres_stay_at_two():
    # the infinite dihedral group: two reduced words of each length k >= 1
    _, table = default_table(GroupSpec.free_product(Z(2), Z(2)), 30)
    assert table.sigma == (1,) + (2,) * 30


@pytest.mark.parametrize("m", range(1, 9))
def test_cyclic_leaf_matches_the_closed_form(m):
    handle = make_group(Z(m))
    gens = handle.default_generators()
    expected = oracles.naive_ball_sizes(handle, gens.elements, m + 2)
    assert expected == tuple(oracles.cyclic_ball(m, k) for k in range(m + 3))
    product_mul_forbidden(handle)
    assert growth_table(handle, gens, m + 2).gamma == expected


@pytest.mark.parametrize("spec", [GroupSpec.trivial(), Z(5), Z(6)], ids=GroupSpec.describe)
@pytest.mark.parametrize(
    "budget", [{"max_elements": 1}, {"max_elements": 4}, {"max_seconds": 0}], ids=["cap 1", "cap 4", "no time"]
)
def test_cyclic_leaf_stops_where_bfs_stops(spec, budget, monkeypatch):
    handle = make_group(spec)
    gens = handle.default_generators()
    with monkeypatch.context() as mp:
        mp.setattr(cayley, "_plan", lambda h, cap: map(len, cayley.spheres(h, gens, cap)))
        bfs = growth_table(handle, gens, 8, **budget)
    bfs_forbidden(monkeypatch)
    planned = growth_table(handle, gens, 8, **budget)
    assert (planned.gamma, planned.complete) == (bfs.gamma, bfs.complete)


@pytest.mark.parametrize(
    "spec,kmax",
    [
        pytest.param(spec, kmax, id=spec.describe())
        for spec, kmax in (
            (Z(10**12), 6),
            (GroupSpec.free_product(Z(10**12), Z(2)), 6),
            (GroupSpec.free_product(Z(10**12), GroupSpec.surface(2)), 3),
        )
    ],
)
def test_cyclic_leaf_of_huge_order(spec, kmax):
    # cyclic(m)'s series numerator is sparse, so the order costs neither time nor memory
    handle, table = default_table(spec, kmax)
    assert table.gamma == oracles.naive_ball_sizes(handle, handle.default_generators().elements, kmax)


def test_shuffled_default_order_takes_the_plan():
    handle = make_group(GroupSpec.free_product(GroupSpec.heisenberg(), Z(3), Z(2)))
    named = handle.default_generators().named()
    random.Random(3).shuffle(named)
    gens = make_generating_set(handle, named, symmetrize=False)
    expected = oracles.naive_ball_sizes(handle, gens.elements, 5)
    product_mul_forbidden(handle)
    assert growth_table(handle, gens, 5).gamma == expected


def test_other_generating_set_of_a_free_product_runs_bfs():
    handle = make_group(GroupSpec.free_product(Z(2), Z(3)))
    # a1, a2 and a1 a2, whose ball is not the default one
    gens = make_generating_set(handle, [("a", ((0, 1),)), ("b", ((1, 1),)), ("c", ((0, 1), (1, 1)))])
    expected = oracles.naive_ball_sizes(handle, gens.elements, 8)
    assert expected != oracles.naive_ball_sizes(handle, handle.default_generators().elements, 8)
    products = 0
    mul = handle.mul

    def counting_mul(a, b):
        nonlocal products
        products += 1
        return mul(a, b)

    handle.mul = counting_mul
    assert growth_table(handle, gens, 8).gamma == expected
    assert products > 0


@pytest.mark.parametrize(
    "spec,kmax",
    [
        (GroupSpec.free_product(Z(2), Z(2), Z(2)), 8),
        (GroupSpec.free_product(GroupSpec.heisenberg(), Z(2)), 5),
        (GroupSpec.free_product(GroupSpec.klein_bottle(), Z(3)), 5),
        # the Z x G factor runs BFS and is cut by the cap at the radius where
        # the product's ball first passes it; the product must stop there
        (GroupSpec.free_product(GroupSpec.direct_product_with_Z(GroupSpec.free(1)), Z(2)), 5),
        (GroupSpec.free_product(Z(2), GroupSpec.direct_product_with_Z(GroupSpec.free(2))), 3),
    ],
    ids=spec_id,
)
def test_capped_free_product_stops_where_bfs_stops(spec, kmax):
    # BFS stops before the first ball larger than the cap and reports
    # complete only when the whole table fits
    handle = make_group(spec)
    gens = handle.default_generators()
    full = oracles.naive_ball_sizes(handle, gens.elements, kmax)
    caps = set(range(1, 40)) | {c for ball in full[1:] for c in (ball - 1, ball, ball + 1)}
    for cap in sorted(caps):
        table = growth_table(handle, gens, kmax, max_elements=cap)
        assert table.gamma == tuple(ball for ball in full if ball <= cap), cap
        assert table.complete == (full[-1] <= cap), cap


# --- table invariants and budgets ----------------------------------------------


def test_table_constructor_rejects_bad_data():
    handle = make_group(GroupSpec.free(2))
    gens = handle.default_generators()
    with pytest.raises(ValueError, match="identity"):
        GrowthTable(spec=handle.spec, gens=gens, gamma=(2, 5), complete=True)
    with pytest.raises(ValueError, match="negative"):
        GrowthTable(spec=handle.spec, gens=gens, gamma=(1, 5, 3), complete=True)
    with pytest.raises(ValueError, match="submultiplicativity"):
        # violates gamma(2) <= gamma(1)^2
        GrowthTable(spec=handle.spec, gens=gens, gamma=(1, 3, 10), complete=True)
    with pytest.raises(ValueError, match=r"^submultiplicativity violated at \(1,2\): 28 > 3\*9$"):
        # the first violating pair has m <= n: (1, 2), never (2, 1)
        GrowthTable(spec=handle.spec, gens=gens, gamma=(1, 3, 9, 28), complete=True)
    with pytest.raises(ValueError, match=r"^sigma\(3\) positive after the empty sphere 2$"):
        # gamma(3) <= gamma(1)gamma(2), yet no sphere follows an empty one
        GrowthTable(spec=handle.spec, gens=gens, gamma=(1, 3, 3, 5), complete=True)


def test_table_derives_kmax_and_sigma_from_gamma():
    handle = make_group(GroupSpec.free(2))
    table = GrowthTable(spec=handle.spec, gens=handle.default_generators(), gamma=(1, 5, 17), complete=False)
    assert table.kmax == 2
    assert table.sigma == (1, 4, 12)


def test_submultiplicative_on_fixtures(free2_k8, heisenberg_k40, fp23_k8):
    for table in (free2_k8, heisenberg_k40, fp23_k8):
        g = table.gamma
        for m in range(len(g)):
            for n in range(len(g) - m):
                assert g[m + n] <= g[m] * g[n]


def test_element_budget_truncates():
    _, table = default_table(GroupSpec.free(2), 8, max_elements=30)
    assert not table.complete
    assert table.kmax == 2
    assert table.gamma == (1, 5, 17)  # last fully enumerated sphere


def test_element_budget_stops_inside_the_overflowing_sphere(monkeypatch):
    # free(2)'s counter forms no product; this counts the products BFS forms
    handle = make_group(GroupSpec.free(2))
    gens = handle.default_generators()
    monkeypatch.setattr(cayley, "_plan", lambda h, cap: map(len, cayley.spheres(h, gens, cap)))
    products = 0
    mul = handle.mul

    def counting_mul(a, b):
        nonlocal products
        products += 1
        return mul(a, b)

    handle.mul = counting_mul
    table = growth_table(handle, gens, 8, max_elements=30)
    assert not table.complete
    assert table.gamma == (1, 5, 17)
    # spheres 1 and 2 take 4 + 4*4 products; sphere 3 would take 12*4 more,
    # but the cap of 30 is passed after its 14th new element
    assert 4 + 16 < products < 4 + 16 + 48
    products = 0
    assert growth_table(handle, gens, 3).gamma == (1, 5, 17, 53)
    assert products == 4 + 16 + 48


@pytest.mark.parametrize("factor", [False, True], ids=["root", "factor"])
def test_z_x_g_plan_stops_inside_the_overflowing_sphere(factor):
    # a Z x G node's plan is BFS under the root's cap, as the root or as a
    # factor: in (Z x free(2)) * Z2 the cap of 50 falls between the product's
    # B(2) = 42 and the factor's B(3) = 99
    zxg = GroupSpec.direct_product_with_Z(GroupSpec.free(2))
    handle = make_group(GroupSpec.free_product(zxg, Z(2)) if factor else zxg)
    node = handle.factor_handles[0] if factor else handle
    products = 0
    mul = node.mul

    def counting_mul(a, b):
        nonlocal products
        products += 1
        return mul(a, b)

    node.mul = counting_mul
    table = growth_table(handle, handle.default_generators(), 8, max_elements=50)
    assert (table.gamma, table.complete) == (((1, 8, 42) if factor else (1, 7, 29)), False)
    # the node's spheres 1 and 2 take 6 + 6*6 products; sphere 3 would take 22*6 more,
    # but the cap of 50 is passed after its 22nd new element
    assert 6 + 36 < products < 6 + 36 + 132


def test_zero_time_budget():
    _, table = default_table(GroupSpec.free(2), 3, max_seconds=0.0)
    assert not table.complete
    assert table.gamma == (1,)


def test_rerun_determinism(free2_k8):
    handle = make_group(GroupSpec.free(2))
    again = growth_table(handle, handle.default_generators(), 8)
    assert again == free2_k8


# --- surface payloads in composite groups -----------------------------------------


def test_z_x_surface2_is_z_ball_convolution_of_dehn_classes(seifert2_k4):
    # |(n, g)| = |n| + |g|, so gamma(k) = sum_j sigma_surface(j) * (2(k-j) + 1);
    # the class counts come from pairwise Dehn equality, and k=4 is the first
    # radius where the relator identifies distinct geodesic words
    balls = [oracles.surface_class_count(2, j)[0] for j in range(5)]
    sigma = [1] + [balls[j] - balls[j - 1] for j in range(1, 5)]
    expected = tuple(
        sum(sigma[j] * (2 * (k - j) + 1) for j in range(k + 1)) for k in range(5)
    )
    assert seifert2_k4.gamma == expected


def test_budget_exhaustion_propagates_from_compound_groups(monkeypatch):
    def exhausted(*args):
        raise ClosureBudgetExceeded("geodesic closure exceeded 20000 words")

    monkeypatch.setattr(groups, "surface_canonical", exhausted)
    handle = make_group(GroupSpec.direct_product_with_Z(GroupSpec.surface(2)))
    with pytest.raises(ClosureBudgetExceeded):
        growth_table(handle, handle.default_generators(), 4)


# --- ball enumeration ------------------------------------------------------------


def test_ball_elements_order_and_counts(free2_k8):
    handle = make_group(GroupSpec.free(2))
    els = ball_elements(handle, handle.default_generators(), 2)
    assert len(els) == free2_k8.gamma[2]
    assert els[0] == ()
    assert set(els[1:5]) == {(1,), (-1,), (2,), (-2,)}
    for spec in (
        GroupSpec.free(2),
        GroupSpec.heisenberg(),
        GroupSpec.free_product(GroupSpec.cyclic(2), GroupSpec.cyclic(3)),
    ):
        handle, table = default_table(spec, 4)
        els = ball_elements(handle, handle.default_generators(), 4)
        assert len(els) == table.gamma[4]
        assert len(set(els)) == len(els)
        assert els[0] == handle.identity
        # spheres come out in distance order, sorted by canonical key inside
        for k in range(1, 5):
            sphere = els[table.gamma[k - 1] : table.gamma[k]]
            assert sphere == sorted(sphere, key=handle.canonical_key)


def test_ball_radius_zero():
    handle = make_group(GroupSpec.free(2))
    assert ball_elements(handle, handle.default_generators(), 0) == [()]


# --- the BFS precondition -------------------------------------------------------------


def test_bfs_rejects_letters_without_their_inverses():
    # {a} in Z3 lacks a^-1; with only two spheres kept, BFS would count a, a^2,
    # a^3 = 1, a, ... as new elements forever
    handle = make_group(GroupSpec.cyclic(3))
    gens = make_generating_set(handle, [("a", 1)], symmetrize=False)
    calls = (
        lambda: growth_table(handle, gens, 6),
        lambda: ball_elements(handle, gens, 5),
        lambda: is_generating(handle, gens, 5),
    )
    for call in calls:
        with pytest.raises(ValueError, match="closed under inverses"):
            call()


@pytest.mark.parametrize(
    "spec",
    [
        GroupSpec.cyclic(3),
        GroupSpec.klein_bottle(),
        GroupSpec.free_product(GroupSpec.cyclic(2), GroupSpec.cyclic(3)),
        GroupSpec.direct_product_with_Z(GroupSpec.free(2)),
    ],
    ids=["cyclic3", "klein", "z2_z3", "z_x_free2"],
)
def test_unsymmetrized_set_that_holds_every_inverse_counts(spec):
    # every spec takes its plan on both sets, Z x free(2)'s being BFS on its
    # default letters; ball_elements and is_generating run BFS on the set given
    handle = make_group(spec)
    default = handle.default_generators()
    named = default.named()
    random.Random(5).shuffle(named)
    gens = make_generating_set(handle, named, symmetrize=False)
    assert not gens.symmetrized and set(gens.elements) == set(default.elements)
    assert growth_table(handle, gens, 6).gamma == growth_table(handle, default, 6).gamma
    assert ball_elements(handle, gens, 4) == ball_elements(handle, default, 4)
    assert is_generating(handle, gens, 4) is True


# --- generating detection ---------------------------------------------------------


def test_is_generating_definitive_yes():
    handle = make_group(GroupSpec.free_abelian(1))
    gens = make_generating_set(handle, [("s", (2,)), ("u", (3,))])
    assert is_generating(handle, gens, 3) is True


def test_is_generating_unknown_within_cap():
    handle = make_group(GroupSpec.free_abelian(2))
    gens = make_generating_set(handle, [("s", (2, 0)), ("u", (0, 1))])
    assert is_generating(handle, gens, 10) is None


def test_is_generating_definitive_no():
    handle = make_group(GroupSpec.cyclic(6))
    gens = make_generating_set(handle, [("s", 2)])
    assert is_generating(handle, gens, 10) is False


# --- generating set search ----------------------------------------------------------


def test_search_z_singletons():
    handle = make_group(GroupSpec.free_abelian(1))
    report = search_generating_sets(handle, candidate_radius=2, set_size=1, k=10)
    # pool {1,-1,2,-2} collapses to two symmetrized singleton sets; {2,-2}
    # provably fails to reach 1, leaving the standard set
    assert report.candidates_tested == 2
    assert report.complete
    assert len(report.per_candidate) == 1
    assert report.best_root_bound == pytest.approx(21 ** (1 / 10))
    assert set(report.best_set.elements) == {(1,), (-1,)}


def test_search_free2_default_pairs():
    handle = make_group(GroupSpec.free(2))
    report = search_generating_sets(handle, candidate_radius=1, set_size=2, k=6)
    assert report.candidates_tested == 3
    assert report.best_root_bound == pytest.approx((2 * 3 ** 6 - 1) ** (1 / 6))


@pytest.mark.parametrize(
    "spec,radius,set_size,k",
    [
        (GroupSpec.free_abelian(2), 2, 2, 4),
        (GroupSpec.free_abelian(1), 3, 1, 2),
        # {2, 3} reaches 1 = 3 - 2 only at radius 2, past k
        (GroupSpec.free_abelian(1), 3, 2, 1),
        (GroupSpec.free_abelian(3), 1, 3, 3),
        (GroupSpec.free(2), 1, 2, 3),
        # sets of three: generating sets that are no basis, counted by BFS
        (GroupSpec.free(2), 2, 3, 3),
        (GroupSpec.free(3), 1, 3, 2),
        (GroupSpec.cyclic(6), 3, 1, 5),
        (GroupSpec.heisenberg(), 1, 2, 6),
        (GroupSpec.heisenberg(), 2, 2, 4),
        # no exact test: is_generating to radius max(k, 4)
        (GroupSpec.surface(2), 1, 2, 2),
        (GroupSpec.torus_bundle(MatrixZ2(2, 1, 1, 1)), 1, 2, 3),
        (GroupSpec.direct_product_with_Z(GroupSpec.surface(2)), 1, 2, 2),
    ],
    ids=lambda v: v.describe() if isinstance(v, GroupSpec) else str(v),
)
def test_search_matches_generation_check_then_table(spec, radius, set_size, k):
    # the reference decides generation by the separately written exact test
    # where the family has one and elsewhere by a naive BFS that must reach
    # every default letter by radius max(k, 4), then counts the ball by BFS
    # on the set itself
    handle = make_group(spec)
    report = search_generating_sets(handle, candidate_radius=radius, set_size=set_size, k=k)
    pool = sorted(ball_elements(handle, handle.default_generators(), radius)[1:], key=handle.canonical_key)
    expected, seen = [], set()
    for combo in itertools.combinations(pool, set_size):
        gens = make_generating_set(handle, [(f"g{i + 1}", el) for i, el in enumerate(combo)])
        if frozenset(gens.elements) in seen:
            continue
        seen.add(frozenset(gens.elements))
        verdict = oracles.generation_ref(spec, combo)
        if verdict is None:
            verdict = oracles.reaches_default_letters(handle, gens.elements, max(k, 4))
        if verdict:
            expected.append((gens, oracles.naive_ball_sizes(handle, gens.elements, k)[k] ** (1.0 / k)))
    assert report.candidates_tested == len(seen)
    assert list(report.per_candidate) == expected
    # the best set is the first of the least u_k
    first_min = next((pair for pair in expected if pair[1] == min(u for _, u in expected)), (None, None))
    assert (report.best_set, report.best_root_bound) == first_min
    if (spec, radius, set_size, k) == (GroupSpec.free_abelian(2), 2, 2, 4):
        # a tie: each candidate that generates is a basis of Z^2, so all share one u_k
        assert [u for _, u in expected].count(first_min[1]) > 1


@pytest.mark.parametrize(
    "spec,radius,k,exact,bfs",
    [(GroupSpec.free(2), 4, 4, 129, 89), (GroupSpec.heisenberg(), 3, 4, 93, 69)],
    ids=["free2", "heisenberg"],
)
def test_exact_test_certifies_sets_the_bfs_check_missed(spec, radius, k, exact, bfs):
    # BFS to radius max(k, 4) = 4 certified `bfs` of these pairs; each pair
    # the exact test adds reaches the default letters at radius 5
    handle = make_group(spec)
    report = search_generating_sets(handle, candidate_radius=radius, set_size=2, k=k)
    assert len(report.per_candidate) == exact
    reaches = oracles.reaches_default_letters
    missed = [gens for gens, _ in report.per_candidate if not reaches(handle, gens.elements, 4)]
    assert len(missed) == exact - bfs
    for gens in missed:
        assert reaches(handle, gens.elements, 5)
    if spec.family == "free":
        formatted = [sorted(map(handle.format_element, gens.elements)) for gens in missed]
        assert sorted(["a' a' a' b'", "a' a' b'", "b a a a", "b a a"]) in formatted


@pytest.mark.parametrize(
    "spec,radius,k",
    [
        (GroupSpec.free(2), 2, 5),
        (GroupSpec.free(3), 1, 4),
        (GroupSpec.free_abelian(2), 2, 8),
        (GroupSpec.free_abelian(3), 1, 6),
        (GroupSpec.heisenberg(), 2, 6),
    ],
    ids=lambda v: v.describe() if isinstance(v, GroupSpec) else str(v),
)
def test_basis_takes_the_default_gamma(spec, radius, k):
    # search takes a basis's gamma(k) from the default counter; BFS on the
    # set itself must give the default table at every radius
    handle = make_group(spec)
    default = growth_table(handle, handle.default_generators(), k)
    rank = len(default.gens.elements) // 2
    report = search_generating_sets(handle, candidate_radius=radius, set_size=rank, k=k)
    assert report.per_candidate
    for gens, u_k in report.per_candidate:
        assert len(gens.elements) == len(default.gens.elements)
        assert oracles.naive_ball_sizes(handle, gens.elements, k) == default.gamma
        assert u_k == default.gamma[k] ** (1.0 / k)


def test_search_rejects_bad_set_size():
    handle = make_group(GroupSpec.free_abelian(1))
    with pytest.raises(ValueError):
        search_generating_sets(handle, candidate_radius=2, set_size=0, k=5)


def test_search_candidate_cap():
    handle = make_group(GroupSpec.free_abelian(1))
    report = search_generating_sets(
        handle, candidate_radius=3, set_size=1, k=5, max_candidates=1
    )
    assert report.candidates_tested == 1
    assert not report.complete


# --- CSV ------------------------------------------------------------------------


def test_csv_rows_layout(free2_k8):
    rows = table_csv_rows(free2_k8, estimate_rates(free2_k8))
    assert rows[0] == "k,gamma,sigma,root_bound,ratio"
    assert rows[1] == "0,1,1,,"
    assert rows[2] == "1,5,4,5,"
    k2 = rows[3].split(",")
    assert k2[:3] == ["2", "17", "12"]
    assert float(k2[3]) == pytest.approx(17 ** 0.5)
    assert float(k2[4]) == pytest.approx(3.0)
    assert len(rows) == 10


def test_csv_ratio_blank_after_dead_sphere():
    _, table = default_table(GroupSpec.cyclic(5), 4)
    rows = table_csv_rows(table, estimate_rates(table))
    assert table.sigma == (1, 2, 2, 0, 0)
    assert rows[4] == "3,5,0,1.70997594668,0"
    # ratio is undefined once the previous sphere is empty
    assert rows[5].endswith(",")
