"""Automorphisms and the per-family sphere counters of `growth_table`.

The automorphism lists in `oracles` are written from the definitions.  These
tests check them, check that word length is constant on their orbits and
that the symmetries the counters fold in are on them: (x, y, z) -> (-x, y, -z)
and (x, -y, -z) on heisenberg, and on a torus bundle (v, n) -> (-v, n) and,
when the counter finds a signed permutation P with P M = M^-1 P, (Pv, -n).
They check that the counters of free groups, surface groups, Z^n, heisenberg
and torus bundles give the same balls as the plain BFS kernel and the naive
oracle, under every budget, without forming a product, and check each step of
the derivation of heisenberg's sphere series against the column counter
`oracles.heisenberg_column_spheres`.
"""

import itertools
import pathlib
import random
import sys
import types
from fractions import Fraction

import pytest

from groupgrowth import (
    GroupSpec,
    ManifoldSpec,
    MatrixZ2,
    cayley,
    classify_growth,
    growth_table,
    make_generating_set,
    make_group,
)

import oracles

# every det-1, trace-3 monodromy with entries in [-3, 3]
TRACE3 = tuple(
    ((a, b), (c, d))
    for a, b, c, d in itertools.product(range(-3, 4), repeat=4)
    if a * d - b * c == 1 and a + d == 3
)

# monodromies whose oracle list holds a map (v, n) -> (Pv, -n), with P a
# rotation, a swap and a reflection; a det -1 matrix and one with det 1,
# whose lists hold only +-I
ROTATION = ((2, 1), (1, 1))
SWAP = ((3, -1), (1, 0))
REFLECTION = ((2, 3), (1, 2))
DET_MINUS_1 = ((1, 1), (1, 0))
NO_FLIP = ((3, 1), (2, 1))
# monodromies of finite order and a parabolic one: bounded or linear powers
ELLIPTIC = (((1, 0), (0, 1)), ((-1, 0), (0, -1)), ((0, -1), (1, 0)), ((0, -1), (1, 1)), ((1, 1), (0, 1)))


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

# the radius to which each family's spheres are split into orbits
ORBIT_RADIUS = {"Z^2": 8, "Z^3": 6, "Z^4": 4, "heisenberg": 7, **{name: 5 for name in FAMILIES if name.startswith("bundle")}}


def shuffled_defaults(handle, seed=0):
    """The default letters in a seeded order, as a new generating set equal to them as a set."""
    named = handle.default_generators().named()
    random.Random(seed).shuffle(named)
    return make_generating_set(handle, named, symmetrize=False)


def plain_table(handle, gens, kmax, **kwargs):
    """growth_table with BFS over `gens`, in their order, in place of the counting plan."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cayley, "_plan", lambda h, cap: map(len, cayley.spheres(h, gens, cap)))
        return growth_table(handle, gens, kmax, **kwargs)


# --- the oracle maps -------------------------------------------------------------------


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


def word_lengths(handle, done):
    """Word length on the default letters, by BFS, of every element of the
    balls up to the first radius k where `done(k, lengths)` holds."""
    lengths = {handle.identity: 0}
    k = 0
    for k, sphere in enumerate(cayley.spheres(handle, handle.default_generators()), 1):
        if done(k - 1, lengths):
            break
        lengths.update(dict.fromkeys(sphere, k))
    assert done(k - 1, lengths)
    return lengths


# word length is constant on the orbits of automorphisms that permute the
# letters: that is what lets a counter fold a symmetry


@pytest.mark.parametrize("family", FAMILIES)
def test_rep_is_constant_on_orbits_and_size_is_orbit_length(family):
    spec, maps, _ = FAMILIES[family]
    handle = make_group(spec)
    radius = ORBIT_RADIUS[family]
    lengths = word_lengths(handle, lambda k, _: k == radius)
    # sphere -> the least element of each orbit in it -> the orbit's length
    reps = {k: {} for k in range(radius + 1)}
    for a, k in lengths.items():
        orb = oracles.orbit(maps, a)
        assert {lengths.get(b) for b in orb} == {k}, a
        reps[k][min(orb)] = len(orb)
    # the counter's spheres are the BFS spheres, orbit by orbit
    table = growth_table(handle, shuffled_defaults(handle, seed=radius), radius)
    assert table.sigma == tuple(sum(sizes.values()) for sizes in reps.values())


@pytest.mark.parametrize("family", TIES)
def test_named_ties(family):
    spec, maps, _ = FAMILIES[family]
    handle = make_group(spec)
    orbits = {a: oracles.orbit(maps, a) for a in TIES[family]}
    everything = set().union(*orbits.values())
    lengths = word_lengths(handle, lambda k, lengths: k == 12 or everything <= lengths.keys())
    assert everything <= lengths.keys()
    for a, orb in orbits.items():
        assert a in orb
        assert {lengths[b] for b in orb} == {lengths[a]}, a


# --- the counters ------------------------------------------------------------------


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
    # the default letters in any order reach the family's counter
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
        counted = growth_table(handle, gens, kmax, max_elements=cap)
        plain = plain_table(handle, gens, kmax, max_elements=cap)
        assert (counted.gamma, counted.complete) == (plain.gamma, plain.complete), cap
        # the table holds exactly the spheres that fit under the cap
        assert counted.gamma == tuple(g for g in full if g <= cap), cap
        assert counted.complete == (full[-1] <= cap), cap


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
def test_other_generating_sets_run_the_plain_kernel(spec, letters, kmax, monkeypatch):
    handle = make_group(spec)
    gens = make_generating_set(handle, letters)

    def no_plan(handle, max_elements):
        raise AssertionError("counting plan used on a non-default generating set")

    monkeypatch.setattr(cayley, "_plan", no_plan)
    table = growth_table(handle, gens, kmax)
    assert table.gamma == oracles.naive_ball_sizes(handle, gens.elements, kmax)


def on_list(maps, f):
    """Whether a map in `maps` agrees with f on a box around the identity."""
    points = list(itertools.product(range(-3, 4), range(-3, 4), range(-2, 3)))
    return any(all(g(p) == f(p) for p in points) for g in maps)


def test_counter_symmetries_are_on_the_oracle_lists():
    # heisenberg's counter keeps the quarter x, y >= 0, bundles keep one of v and -v
    for f in (
        lambda p: (-p[0], -p[1], p[2]),
        lambda p: (-p[0], p[1], -p[2]),
        lambda p: (p[0], -p[1], -p[2]),
    ):
        assert on_list(oracles.heisenberg_automorphisms(), f)
    for rows in (*TRACE3, ROTATION, SWAP, REFLECTION, DET_MINUS_1, NO_FLIP, *ELLIPTIC):
        assert on_list(oracles.torus_bundle_automorphisms(rows), lambda p: (-p[0], -p[1], p[2])), rows


@pytest.mark.parametrize(
    "rows",
    (*TRACE3, ROTATION, SWAP, REFLECTION, DET_MINUS_1, NO_FLIP, *ELLIPTIC),
    ids=lambda rows: bundle(rows).describe(),
)
def test_bundle_flip_exactly_when_the_oracle_list_swaps_t(rows):
    # the counter keeps layers n >= 0 exactly when a map (v, n) -> (Pv, -n) exists
    swaps_t = [f for f in oracles.torus_bundle_automorphisms(rows) if f((0, 0, 1)) == (0, 0, -1)]
    flip = cayley._bundle_flip(MatrixZ2.from_rows(rows))
    assert (flip is not None) == bool(swaps_t)
    if flip is not None:
        a, b, c, d = flip
        assert on_list(swaps_t, lambda p: (a * p[0] + b * p[1], c * p[0] + d * p[1], -p[2]))


# counted specs of every counted family, each with a radius its plain kernel reaches quickly
COUNTED = [
    (GroupSpec.heisenberg(), 30),
    *[(bundle(rows), 10) for rows in (*TRACE3, NO_FLIP, REFLECTION, DET_MINUS_1)],
    *[(bundle(rows), 12) for rows in ELLIPTIC],
    *[(GroupSpec.free_abelian(n), 15) for n in (1, 2, 3, 4)],
    (GroupSpec.surface(2), 6),
    (GroupSpec.surface(3), 4),
    (GroupSpec.surface(4), 3),
    (GroupSpec.free(1), 15),
    (GroupSpec.free(2), 9),
    (GroupSpec.free(3), 7),
    (GroupSpec.free(4), 6),
]


@pytest.mark.parametrize(
    "spec,kmax", COUNTED, ids=lambda v: v.describe() if isinstance(v, GroupSpec) else str(v)
)
def test_counter_gamma_matches_the_plain_kernel(spec, kmax):
    handle = make_group(spec)
    gens = shuffled_defaults(handle, seed=kmax)
    table = growth_table(handle, gens, kmax)
    assert table.complete
    assert table.gamma == plain_table(handle, gens, kmax).gamma
    if spec.family == "free_abelian":
        assert table.gamma == tuple(oracles.zd_ball(spec.n, k) for k in range(kmax + 1))
    if spec.family == "free":
        assert table.gamma == tuple(oracles.free_ball(spec.n, k) for k in range(kmax + 1))
    if spec == GroupSpec.surface(2):
        # past the reference table's k=5, so surface BFS stays checked where
        # no benchmark runs it on the default letters
        assert table.gamma[6] == 155_577


@pytest.mark.parametrize(
    "kmax,budget,gamma,complete",
    [
        (0, {}, (1,), True),
        (1, {}, None, True),
        (3, {"max_seconds": 0}, (1,), False),
        # every default set has at least two letters, so sphere 1 passes this cap
        (3, {"max_elements": 2}, (1,), False),
    ],
    ids=["kmax 0", "kmax 1", "no time", "cap inside sphere 1"],
)
@pytest.mark.parametrize("spec", [spec for spec, _ in COUNTED], ids=GroupSpec.describe)
def test_counter_edges_match_the_plain_kernel(spec, kmax, budget, gamma, complete):
    handle = make_group(spec)
    gens = shuffled_defaults(handle)
    counted = growth_table(handle, gens, kmax, **budget)
    plain = plain_table(handle, gens, kmax, **budget)
    assert (counted.gamma, counted.complete) == (plain.gamma, plain.complete)
    assert counted.gamma == (gamma or (1, 1 + len(gens.elements)))
    assert counted.complete == complete


def test_free_abelian_series_counter_matches_zd_ball():
    for n in range(1, 6):
        handle = make_group(GroupSpec.free_abelian(n))
        table = growth_table(handle, handle.default_generators(), 40)
        assert table.gamma == tuple(oracles.zd_ball(n, k) for k in range(41)), n


@pytest.mark.parametrize(
    "spec,cap",
    [
        pytest.param(spec, cap, id=spec.describe())
        for spec, cap in (
            (GroupSpec.heisenberg(), 100_000),
            (bundle(ROTATION), 100_000),
            (bundle(NO_FLIP), 100_000),
            (bundle(DET_MINUS_1), 100_000),
            (bundle(ELLIPTIC[3]), 100_000),
            (GroupSpec.free_abelian(3), 100_000),
            (GroupSpec.free(2), 100_000),
            (GroupSpec.surface(2), 25_000),
        )
    ],
)
def test_large_kmax_under_a_cap_matches_the_plain_kernel(spec, cap):
    # each counter sizes its encoding by the radius it reaches, not by kmax
    handle = make_group(spec)
    gens = handle.default_generators()
    counted = growth_table(handle, gens, 1000, max_elements=cap)
    plain = plain_table(handle, gens, 1000, max_elements=cap)
    assert (counted.gamma, counted.complete) == (plain.gamma, plain.complete)
    assert not counted.complete and counted.gamma[-1] <= cap


@pytest.mark.parametrize(
    "spec,kmax",
    [
        (GroupSpec.heisenberg(), 12),
        (bundle(ROTATION), 8),
        (bundle(DET_MINUS_1), 8),
        (bundle(NO_FLIP), 8),
        (GroupSpec.free_abelian(3), 12),
        (GroupSpec.free(2), 8),
        (GroupSpec.surface(2), 5),
        (GroupSpec.surface(3), 4),
        (GroupSpec.klein_bottle(), 12),
        (GroupSpec.cyclic(9), 8),
        (GroupSpec.cyclic(10), 8),
    ],
    ids=lambda v: v.describe() if isinstance(v, GroupSpec) else str(v),
)
def test_counters_form_no_product(spec, kmax):
    # a refactor that falls back to BFS still gets every gamma right; only this shows it
    handle = make_group(spec)
    gens = shuffled_defaults(handle, seed=kmax)
    expected = plain_table(handle, gens, kmax).gamma

    def no_mul(a, b):
        raise AssertionError("the counter formed a product")

    handle.mul = no_mul
    assert growth_table(handle, gens, kmax).gamma == expected


def test_heisenberg_columns_at_radius_60():
    # gamma(60) as counted by a column prototype with no fold
    handle = make_group(GroupSpec.heisenberg())
    table = growth_table(handle, handle.default_generators(), 60)
    assert table.gamma[60] == 5_544_471


def test_heisenberg_columns_are_intervals_through_the_xy_reflection():
    # the two facts the height counter rests on, on a BFS that uses only the oracle product:
    # column (x, y) of B(r) is an integer interval [lo, hi], and lo = xy - hi
    group = types.SimpleNamespace(identity=(0, 0, 0), mul=oracles.heisenberg_mul)
    letters = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)]
    for r, ball in enumerate(oracles.naive_balls(group, letters, 10)):
        columns = {}
        for x, y, z in ball:
            columns.setdefault((x, y), set()).add(z)
        assert len(columns) == 2 * r * r + 2 * r + 1
        for (x, y), column in columns.items():
            lo, hi = min(column), max(column)
            assert column == set(range(lo, hi + 1)), (r, x, y)
            assert lo == x * y - hi, (r, x, y)


# --- heisenberg's sphere series, step by step as `cayley._sphere_series` derives it


def closed_form_height(r, x, y):
    """Step 1: h_r(x, y) for x, y >= 0, the largest (x+i)(y+j) with i + j = s."""
    x, y = sorted((x, y))
    s = (r - x - y) // 2
    t = x + y + s
    return (t // 2) * ((t + 1) // 2) if y - x <= s else (x + s) * y


HEISENBERG_C = (72, 72, 44, 108, 72, 8, 108, 108, 8, 72, 108, 44)


def quasi_polynomial_ball(r):
    """Step 2: B(r) = (31r^4 - 14r^3 + 127r^2 + 144r + c(r mod 12))/72."""
    value = 31 * r**4 - 14 * r**3 + 127 * r**2 + 144 * r + HEISENBERG_C[r % 12]
    assert value % 72 == 0, r
    return value // 72


def polynomial_product(*factors):
    out = [1]
    for factor in factors:
        out = [sum(out[i] * factor[k - i] for i in range(len(out)) if 0 <= k - i < len(factor))
               for k in range(len(out) + len(factor) - 1)]
    return out


def test_heisenberg_closed_form_heights_match_the_column_counter():
    for r, heights in zip(range(61), oracles.heisenberg_column_heights()):
        assert len(heights) == (r + 1) * (r + 2) // 2
        for (x, y), h in heights.items():
            assert h == closed_form_height(r, x, y), (r, x, y)
    # the lower bound's word y^-j x^(x+i) y^(y+j) x^-i, on the oracle product alone
    for r in range(13):
        for x, y in itertools.product(range(r + 1), repeat=2):
            s = (r - x - y) // 2
            for i in range(s + 1):
                j = s - i
                word = [(0, -1, 0)] * j + [(1, 0, 0)] * (x + i) + [(0, 1, 0)] * (y + j) + [(-1, 0, 0)] * i
                end = (0, 0, 0)
                for letter in word:
                    end = oracles.heisenberg_mul(end, letter)
                assert len(word) <= r and end == (x, y, (x + i) * (y + j))


def test_heisenberg_quasi_polynomial_sums_the_closed_form_heights():
    # B(12q + p) is a polynomial of degree <= 4 in q, so r < 60 fixes it
    for r in range(60):
        ball = sum(
            (2 - (not x)) * (2 - (not y)) * (2 * closed_form_height(r, x, y) - x * y + 1)
            for x in range(r + 1)
            for y in range(r - x + 1)
        )
        assert ball == quasi_polynomial_ball(r), r


def test_heisenberg_quasi_polynomial_matches_the_series_balls():
    handle = make_group(GroupSpec.heisenberg())
    table = growth_table(handle, handle.default_generators(), 300)
    assert table.gamma == tuple(quasi_polynomial_ball(r) for r in range(301))
    # step 3: c satisfies the recurrence of (1-x^3)(1+x^2), so den = (1-x)^4 (1+x+x^2)(1+x^2)
    c = HEISENBERG_C * 2
    assert all(c[r] + c[r + 2] == c[r + 3] + c[r + 5] for r in range(12))
    num, den = cayley._sphere_series(GroupSpec.heisenberg())
    assert [den[j] for j in range(len(den))] == polynomial_product(*[(1, -1)] * 4, (1, 1, 1), (1, 0, 1))
    assert [num[j] for j in range(len(num))] == polynomial_product(den, table.sigma)[:9]


def test_heisenberg_series_matches_the_column_counter():
    handle = make_group(GroupSpec.heisenberg())
    table = growth_table(handle, handle.default_generators(), 120)
    assert table.sigma == oracles.heisenberg_column_spheres(120)


def test_heisenberg_den_has_a_fourth_order_pole_at_one():
    # S = num/den has a pole of order 4 at x = 1, so B's series S/(1-x) one of
    # order 5 and B a quartic, the degree the trichotomy gives Nil manifolds
    num, den = (
        [series[j] for j in range(len(series))] for series in cayley._sphere_series(GroupSpec.heisenberg())
    )
    order = 0
    while sum(den) == 0:
        # divide by 1 - x: the quotient's coefficients are den's partial sums
        den = list(itertools.accumulate(den))[:-1]
        order += 1
    assert order == 4 and sum(num) != 0
    assert order == classify_growth(ManifoldSpec.nil_manifold()).degree
    # B's leading coefficient num(1)/(den(1) 4!) is the quartic's 31/72
    assert Fraction(sum(num), sum(den) * 24) == Fraction(31, 72)


def product_counts(spec, kmax, seed):
    """Products formed by `growth_table`, then by the plain kernel, on shuffled default letters."""
    handle = make_group(spec)
    gens = shuffled_defaults(handle, seed=seed)
    products = 0
    mul = handle.mul

    def counting_mul(a, b):
        nonlocal products
        products += 1
        return mul(a, b)

    handle.mul = counting_mul
    counted = growth_table(handle, gens, kmax)
    counted_products, products = products, 0
    plain = plain_table(handle, gens, kmax)
    assert counted.gamma == plain.gamma
    # the plain kernel multiplies every element of the ball of radius kmax-1 by every letter
    assert products == len(gens.elements) * plain.gamma[kmax - 1]
    return counted_products, products


def test_heisenberg_counter_forms_none_of_the_plain_kernels_products():
    counted_products, _ = product_counts(GroupSpec.heisenberg(), 17, seed=17)
    assert counted_products == 0


def test_bundle_counter_forms_none_of_the_plain_kernels_43662_products():
    counted_products, plain_products = product_counts(bundle(ROTATION), 9, seed=9)
    assert plain_products == 43_662
    assert counted_products == 0


def test_every_benchmark_monodromy_has_a_flip(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # perfbench/ stays untouched
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parent.parent / "perfbench"))
    from workloads import TRACE3_MATRICES

    assert set(TRACE3_MATRICES) == set(TRACE3)
    for rows in TRACE3_MATRICES:
        assert len(oracles.torus_bundle_automorphisms(rows)) == 4, rows
        # the counter folds -I and the flip, and counts the same balls as BFS
        handle = make_group(bundle(rows))
        gens = handle.default_generators()
        assert growth_table(handle, gens, 6).gamma == plain_table(handle, gens, 6).gamma, rows
