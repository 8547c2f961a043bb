"""Orbit maps and the orbit-reduced sphere kernel.

The automorphism lists in `oracles` are written from the definitions; these
tests check that each family's `orbit_rep`/`orbit_size` agree with the
brute-force orbits of those lists, and that `growth_table` counts the same
balls one orbit at a time as the plain kernel and the naive oracle do.
"""

import itertools
import pathlib
import random
import sys

import pytest

from groupgrowth import GroupSpec, MatrixZ2, growth_table, make_generating_set, make_group

import oracles

# every det-1, trace-3 monodromy with entries in [-3, 3]
TRACE3 = tuple(
    ((a, b), (c, d))
    for a, b, c, d in itertools.product(range(-3, 4), repeat=4)
    if a * d - b * c == 1 and a + d == 3
)

# monodromies whose flip P (P M = M^-1 P) is a rotation, a swap and a
# reflection; a det -1 matrix and one with det 1, which have no P
ROTATION = ((2, 1), (1, 1))
SWAP = ((3, -1), (1, 0))
REFLECTION = ((2, 3), (1, 2))
DET_MINUS_1 = ((1, 1), (1, 0))
NO_FLIP = ((3, 1), (2, 1))


def bundle(rows):
    return GroupSpec.torus_bundle(MatrixZ2.from_rows(rows))


def box(radius, dim):
    return list(itertools.product(range(-radius, radius + 1), repeat=dim))


# id -> (spec, its automorphisms from the definitions, elements around the identity)
FAMILIES = {
    "Z^2": (GroupSpec.free_abelian(2), oracles.z_n_automorphisms(2), box(3, 2)),
    "Z^3": (GroupSpec.free_abelian(3), oracles.z_n_automorphisms(3), box(3, 3)),
    "Z^4": (GroupSpec.free_abelian(4), oracles.z_n_automorphisms(4), box(2, 4)),
    "heisenberg": (
        GroupSpec.heisenberg(),
        oracles.heisenberg_automorphisms(),
        list(itertools.product(range(-4, 5), range(-4, 5), range(-9, 10))),
    ),
    **{
        name: (
            bundle(rows),
            oracles.torus_bundle_automorphisms(rows),
            list(itertools.product(range(-3, 4), range(-3, 4), range(-2, 3))),
        )
        for name, rows in (
            ("bundle", ROTATION),
            ("bundle-swap", SWAP),
            ("bundle-reflection", REFLECTION),
            ("bundle-det-1", DET_MINUS_1),
            ("bundle-no-flip", NO_FLIP),
        )
    },
}

# at n = 0 the axes and the diagonals x = +-y hold the eigenvectors of P,
# and (0, 0, n) is fixed by -I
BUNDLE_TIES = [
    (2, 2, 0), (-2, -2, 0), (2, -2, 0), (-3, 3, 0), (1, 1, 0), (3, 0, 0), (-3, 0, 0), (0, 2, 0), (0, -1, 0),
    (0, 0, 3), (0, 0, -3), (0, 0, 1), (0, 0, -1), (0, 0, 0),
    (0, -2, 1), (0, 2, -1), (-1, 5, 2), (1, -5, 2), (2, 2, -1), (-2, 2, 1), (1, 2, 0), (2, 1, 0),
]

# the elements on the axes and diagonals, where the stabiliser is not trivial
TIES = {
    "heisenberg": [
        (0, 3, 2), (0, 3, -2), (0, -3, 5), (0, 3, 0), (0, -2, 0), (3, 0, 4), (-3, 0, 0),
        (3, 3, 2), (3, 3, 7), (-3, -3, 4), (3, -3, 1), (2, 2, 2), (-2, 2, 2), (2, 2, 0), (2, 2, 4),
        (0, 0, 5), (0, 0, -5), (0, 0, 0),
    ],
    "Z^3": [(2, 2, 0), (-2, 2, 0), (0, 0, 3), (0, 0, 0), (1, -1, 1), (-3, 0, 3), (2, -1, 2), (0, 5, 0)],
    "Z^4": [(1, 1, 1, 1), (-1, 0, 1, 0), (0, 0, 0, 2), (3, -3, 0, 0), (2, 2, -1, -1)],
    **{name: BUNDLE_TIES for name in FAMILIES if name.startswith("bundle")},
}


def shuffled_defaults(handle, seed=0):
    """The default letters in a seeded order, as a new generating set equal to them as a set."""
    named = handle.default_generators().named()
    random.Random(seed).shuffle(named)
    return make_generating_set(handle, named, symmetrize=False)


def plain_table(handle, gens, kmax, **kwargs):
    # an instance attribute hides the family's orbit map from growth_table
    handle.orbit_rep = None
    try:
        return growth_table(handle, gens, kmax, **kwargs)
    finally:
        del handle.orbit_rep


# --- the maps -------------------------------------------------------------------


@pytest.mark.parametrize("family", FAMILIES)
def test_automorphisms_preserve_products_and_permute_default_generators(family):
    spec, maps, box = FAMILIES[family]
    handle = make_group(spec)
    letters = set(handle.default_generators().elements)
    rng = random.Random(7)
    pairs = [(rng.choice(box), rng.choice(box)) for _ in range(300)]
    for f in maps:
        assert {f(s) for s in letters} == letters
        for a, b in pairs:
            assert f(handle.mul(a, b)) == handle.mul(f(a), f(b))


def test_oracle_lists_have_the_group_orders():
    # distinct maps on a point with trivial stabiliser
    assert len(oracles.orbit(oracles.z_n_automorphisms(3), (1, 2, 3))) == 48
    assert len(oracles.orbit(oracles.heisenberg_automorphisms(), (1, 2, 5))) == 8
    for rows in (ROTATION, SWAP, REFLECTION):
        assert len(oracles.orbit(oracles.torus_bundle_automorphisms(rows), (1, 2, 3))) == 4
    for rows in (DET_MINUS_1, NO_FLIP):
        assert len(oracles.orbit(oracles.torus_bundle_automorphisms(rows), (1, 2, 3))) == 2


def assert_orbit_map(handle, maps, elements):
    for a in elements:
        orb = oracles.orbit(maps, a)
        rep = handle.orbit_rep(a)
        assert rep in orb, a
        assert {handle.orbit_rep(b) for b in orb} == {rep}, a
        assert handle.orbit_size(rep) == len(orb), a


@pytest.mark.parametrize("family", FAMILIES)
def test_rep_is_constant_on_orbits_and_size_is_orbit_length(family):
    spec, maps, box = FAMILIES[family]
    assert_orbit_map(make_group(spec), maps, box)


@pytest.mark.parametrize("family", TIES)
def test_named_ties(family):
    spec, maps, _ = FAMILIES[family]
    assert_orbit_map(make_group(spec), maps, TIES[family])


# --- the kernel ------------------------------------------------------------------


@pytest.mark.parametrize(
    "spec,kmax",
    [
        (GroupSpec.heisenberg(), 20),
        (GroupSpec.free_abelian(3), 22),
        (GroupSpec.free_abelian(2), 30),
        (GroupSpec.free_abelian(4), 9),
        (GroupSpec.free_abelian(1), 12),
        *[(bundle(rows), 10) for rows in TRACE3],
        (bundle(REFLECTION), 9),
        (bundle(DET_MINUS_1), 10),
        (bundle(NO_FLIP), 10),
    ],
    ids=lambda v: v.describe() if isinstance(v, GroupSpec) else str(v),
)
def test_orbit_gamma_matches_naive_bfs(spec, kmax):
    handle = make_group(spec)
    gens = shuffled_defaults(handle, seed=kmax)
    table = growth_table(handle, gens, kmax)
    assert table.complete
    assert table.gamma == oracles.naive_ball_sizes(handle, gens.elements, kmax)


@pytest.mark.parametrize(
    "spec,kmax",
    [
        (GroupSpec.heisenberg(), 9),
        (GroupSpec.free_abelian(3), 8),
        (bundle(TRACE3[3]), 6),
        (bundle(SWAP), 6),
        (bundle(NO_FLIP), 5),
    ],
    ids=lambda v: v.describe() if isinstance(v, GroupSpec) else str(v),
)
def test_element_caps_cut_at_the_plain_kernels_sphere(spec, kmax):
    handle = make_group(spec)
    gens = shuffled_defaults(handle)
    full = plain_table(handle, gens, kmax).gamma
    # on a sphere boundary, one either side of it, and inside each sphere
    caps = {1, 2, 3}
    for lo, hi in zip(full, full[1:]):
        caps |= {lo - 1, lo, lo + 1, (lo + hi) // 2, lo + (hi - lo) // 8, hi - 2}
    for cap in sorted(c for c in caps if c >= 1):
        orbit = growth_table(handle, gens, kmax, max_elements=cap)
        plain = plain_table(handle, gens, kmax, max_elements=cap)
        assert (orbit.gamma, orbit.complete) == (plain.gamma, plain.complete), cap
        # the table holds exactly the spheres that fit under the cap
        assert orbit.gamma == tuple(g for g in full if g <= cap), cap
        assert orbit.complete == (full[-1] <= cap), cap


@pytest.mark.parametrize(
    "spec,letters,kmax",
    [
        (GroupSpec.free_abelian(2), [("a", (1, 0)), ("b", (0, 1)), ("c", (1, 1))], 8),
        (GroupSpec.free_abelian(3), [("a", (1, 0, 0)), ("b", (0, 1, 0)), ("c", (0, 0, 2)), ("d", (0, 0, 3))], 6),
        (GroupSpec.heisenberg(), [("x", (1, 0, 0)), ("w", (1, 1, 0))], 8),
        (GroupSpec.heisenberg(), [("x", (1, 0, 0)), ("y", (0, 1, 0)), ("z", (0, 0, 1))], 6),
        (bundle(TRACE3[0]), [("e1", (1, 0, 0)), ("t", (0, 0, 1)), ("u", (1, 0, 1))], 6),
    ],
    ids=lambda v: v.describe() if isinstance(v, GroupSpec) else None,
)
def test_other_generating_sets_run_the_plain_kernel(spec, letters, kmax):
    handle = make_group(spec)
    gens = make_generating_set(handle, letters)

    def no_orbits(a):
        raise AssertionError("orbit map used on a non-default generating set")

    handle.orbit_rep = no_orbits
    table = growth_table(handle, gens, kmax)
    assert table.gamma == oracles.naive_ball_sizes(handle, gens.elements, kmax)


def product_counts(spec, kmax, seed):
    """Products formed by the orbit kernel and by the plain kernel, on shuffled default letters."""
    handle = make_group(spec)
    gens = shuffled_defaults(handle, seed=seed)
    products = 0
    mul = handle.mul

    def counting_mul(a, b):
        nonlocal products
        products += 1
        return mul(a, b)

    handle.mul = counting_mul
    orbit = growth_table(handle, gens, kmax)
    orbit_products, products = products, 0
    plain = plain_table(handle, gens, kmax)
    assert orbit.gamma == plain.gamma
    # the plain kernel multiplies every element of the ball of radius kmax-1 by every letter
    assert products == len(gens.elements) * plain.gamma[kmax - 1]
    return orbit_products, products


# a refactor that silently falls back to whole spheres, or to a smaller orbit
# group, still gets every gamma right; only the product count shows it


def test_heisenberg_orbit_path_forms_under_a_third_of_the_products():
    orbit_products, plain_products = product_counts(GroupSpec.heisenberg(), 17, seed=17)
    assert orbit_products < plain_products / 3


def test_bundle_orbit_path_forms_under_a_third_of_the_products():
    # 10,944 of 43,662; the order-2 group {+-I} alone forms 21,882
    orbit_products, plain_products = product_counts(bundle(ROTATION), 9, seed=9)
    assert plain_products == 43_662
    assert orbit_products < plain_products / 3


def test_bundle_without_a_flip_keeps_the_order_two_products():
    orbit_products, _ = product_counts(bundle(NO_FLIP), 9, seed=9)
    assert orbit_products == 48_342


def test_every_benchmark_monodromy_has_a_flip(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # perfbench/ stays untouched
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parent.parent / "perfbench"))
    from workloads import TRACE3_MATRICES

    assert set(TRACE3_MATRICES) == set(TRACE3)
    for rows in TRACE3_MATRICES:
        assert len(oracles.torus_bundle_automorphisms(rows)) == 4, rows
        assert make_group(bundle(rows)).orbit_size((1, 2, 3)) == 4, rows
