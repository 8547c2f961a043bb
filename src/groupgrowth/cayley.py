"""Exact Cayley-ball counts: a counting plan per spec node, or breadth-first search.

`growth_table` chooses its counting path in one place: the default generating
set (equal as a set, in any order) goes to `_plan`, any other set to
`spheres`, a frontier BFS.  It sums the sphere sizes into balls in one place,
and applies the element cap and the time budget there.  `_plan` counts every
spec node on its default letters, and none but a Z x G node forms an element
of the group it counts:

* a leaf other than a torus bundle (free groups, Z^n, surface groups,
  heisenberg, the Klein bottle, cyclic and trivial groups) has a rational
  sphere series num/den, given with its sources by `_sphere_series`, and
  `_quotient` divides it out one term at a time;
* a free product of n factors obeys 1/S = sum_i 1/S_i - (n-1) between sphere
  series, coefficient by coefficient (de la Harpe, *Topics in Geometric Group
  Theory*, ch. VI), so `_quotient` inverts each factor's series and then their
  sum: sphere k needs sphere k of each factor, and the product stops where a
  factor cut by the root's cap stops;
* a torus bundle, by t-layers of sign classes, over n >= 0 when a signed
  permutation P has P M = M^-1 P: (v, n) -> (-v, n) and (Pv, -n), as
  P M^n = M^-n P, permute the letters, so word length is constant on orbits;
* a Z x G node, whether the root or a factor, by `spheres` on its default
  letters under the root's element cap.

BFS dedups spheres on element payloads, which every family keeps in canonical
hashable form, so no product is encoded to bytes.  Because every generator
has word length one and its inverse is a letter too (`spheres` checks it), a
product of a sphere-k element with a letter lands in sphere k-1, k, or k+1;
keeping the two newest spheres in memory is therefore enough for exact counts.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field

from .groups import GeneratingSet, GroupHandle, GroupSpec, MatrixZ2, make_generating_set


@dataclass(frozen=True)
class GrowthTable:
    """Ball counts gamma(k) for k = 0..kmax; kmax and the sphere counts sigma(k) follow."""

    spec: GroupSpec
    gens: GeneratingSet
    gamma: tuple[int, ...]
    complete: bool
    # derived once here, so reading them costs no more than reading gamma
    kmax: int = field(init=False)
    sigma: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        gamma = self.gamma
        if not gamma or gamma[0] != 1:
            raise ValueError("ball of radius 0 must contain exactly the identity")
        for k in range(1, len(gamma)):
            if gamma[k] < gamma[k - 1]:
                raise ValueError(f"sigma({k}) negative")
            # every element of sphere k is a neighbour of sphere k-1
            if k >= 2 and gamma[k - 2] == gamma[k - 1] < gamma[k]:
                raise ValueError(f"sigma({k}) positive after the empty sphere {k - 1}")
        # the bound is symmetric in m and n, so pairs with m <= n suffice
        for m in range(1, len(gamma)):
            for n in range(m, len(gamma) - m):
                if gamma[m + n] > gamma[m] * gamma[n]:
                    raise ValueError(
                        f"submultiplicativity violated at ({m},{n}): "
                        f"{gamma[m + n]} > {gamma[m]}*{gamma[n]}"
                    )
        object.__setattr__(self, "kmax", len(gamma) - 1)
        sigma = (1,) + tuple(gamma[k] - gamma[k - 1] for k in range(1, len(gamma)))
        object.__setattr__(self, "sigma", sigma)


def spheres(handle: GroupHandle, gens: GeneratingSet, max_elements: int | None = None):
    """Yield the spheres S(1), S(2), ... of the Cayley graph as sets of payloads.

    Payloads are canonical and hashable, so set membership is group equality.
    Only the two newest spheres are kept, which is exact only when every
    letter's inverse is a letter too; a set that is not closed under inverses
    raises ValueError before the first sphere.  The first empty sphere (the group
    is exhausted) is yielded last.  With `max_elements`, the generator stops
    inside the product loop as soon as the ball would outgrow the cap, without
    yielding the sphere that overflowed; a run that ends without an empty
    sphere was therefore cut short.
    """
    mul = handle.mul
    letters = gens.elements
    if not {handle.inv(s) for s in letters} <= set(letters):
        raise ValueError("BFS needs a generating set closed under inverses")
    room = math.inf if max_elements is None else max_elements - 1
    prev: set = set()
    cur = {handle.identity}
    while cur:
        nxt: set = set()
        for el in cur:
            for s in letters:
                prod = mul(el, s)
                # repeats land in S(k+1) or S(k-1) more often than in S(k)
                if prod in nxt or prod in prev or prod in cur:
                    continue
                nxt.add(prod)
                if len(nxt) > room:
                    return
        yield nxt
        room -= len(nxt)
        prev, cur = cur, nxt


def _bundle_flip(m):
    """A signed permutation P of Z^2 with P M = M^-1 P, or None."""
    inverse = m.inverse()
    for a, d in itertools.product((1, -1), repeat=2):
        for p in (MatrixZ2(a, 0, 0, d), MatrixZ2(0, a, d, 0)):
            if p.mul(m) == inverse.mul(p):
                return p
    return None


def _recode(layer, old, new, p=(1, 0, 0, 1)):
    """The codes |E| at width `new` of Pv, for the v that `layer` codes at width `old`.

    Code E at width `old` is v = (x, E - x old) with x = (E + old//2) // old,
    so the code of Pv is linear in E and x."""
    a, b, c, d = p
    beta = b * new + d
    gamma = a * new + c - old * beta
    half = old // 2
    return {abs(beta * e + gamma * ((e + half) // old)) for e in layer}


def _torus_bundle_spheres(handle):
    """sigma(1), sigma(2), ... of a torus bundle on e1, e2 and t, by t-layers.

    As (v, n)e_i^+-1 = (v +- M^n e_i, n) and (v, n)t^+-1 = (v, n+-1), layer n
    of S(k+1) is layer n of S(k) shifted by +-M^n e_i, plus layers n-1 and
    n+1 of S(k) as they are, less layer n of S(k) and of S(k-1).  A vector
    (x, y) is encoded as E = xW + y.  E is linear, so a shift is one addition,
    and it is injective where W > 2 max(|x|, |y|).  A word of length K adds at
    most K vectors M^n e_i with |n| < K, so W = 2K max_{|n|<=K} |M^n|_max + 1
    covers B(K); K doubles, and the two kept spheres are re-encoded, when the
    radius reaches it.  (v, n) -> (-v, n) is an automorphism that permutes
    the letters, and E(-v) = -E(v), so a layer holds |E| for each class
    {v, -v}: two elements, or one for v = 0.  A signed permutation P with
    P M = M^-1 P has P M^n = M^-n P, so (v, n) -> (Pv, -n) keeps the product
    (v1 + M^n1 v2, n1 + n2) and permutes the letters, swapping t and t^-1.
    With such a P only layers n >= 0 are kept, counted twice for n > 0, and
    layer -1, which layer 0 reads, is P applied to layer 1.
    """
    power = handle.power
    flip = _bundle_flip(power(1))

    def width(K):
        return 2 * K * max(max(map(abs, power(n))) for n in range(-K, K + 1)) + 1

    K, W = 4, width(4)
    prev, cur = {}, {0: {0}}
    for k in itertools.count():
        if k >= K:
            K, old, W = 2 * K, W, width(2 * K)
            prev, cur = ({n: _recode(layer, old, W) for n, layer in sphere.items()} for sphere in (prev, cur))
        if flip is not None:
            cur[-1] = _recode(cur.get(1, ()), W, W, flip)
        nxt = {}
        for n in range(-k - 1 if flip is None else 0, k + 2):
            new = cur.get(n - 1, set()) | cur.get(n + 1, set())
            layer = cur.get(n, set())
            if layer:
                p, q, r, s = power(n)
                for d in (p * W + r, q * W + s):
                    new.update(map(abs, map(d.__add__, layer)), map(abs, map((-d).__add__, layer)))
            new -= layer
            new -= prev.get(n, set())
            if new:
                nxt[n] = new
        yield sum((1 + (flip is not None and n > 0)) * (2 * len(layer) - (0 in layer)) for n, layer in nxt.items())
        prev, cur = cur, nxt


def _sphere_series(spec: GroupSpec):
    """(num, den) of the sphere series num/den of a leaf other than a torus
    bundle on its default letters, as sparse {degree: coefficient} maps with
    den[0] = 1.

    free(n): (1+x)/(1-(2n-1)x).  Z^n: ((1+x)/(1-x))^n.  The Klein bottle has
    Z^2's: its letters a^+-1 move m by 1 and b^+-1 move n by 1, so
    |(m, n)| >= |m| + |n|, which a^m b^n attains.  surface(g): Cannon's N/D
    with N = 1 + 2x + ... + 2x^(2g-1) + x^(2g) and
    D = 1 + (2-4g)(x + ... + x^(2g-1)) + x^(2g) (Cannon, Geom. Dedicata 16,
    1984; Floyd-Plotnick, Invent. Math. 88, 1987).  cyclic(m), the trivial
    group being m = 1: (1 + x - x^ceil(m/2) - x^(floor(m/2)+1))/(1-x), 2 per
    sphere while 2k < m and 1 at k = m/2, sparse as its degree grows with m.

    heisenberg on x and y (rational by Shapiro, Math. Ann. 285, 1989), from
    column heights.  Column (x, y) of B(r), the z with (x, y, z) in B(r), is
    the union of columns (x, y), (x+-1, y) of B(r-1), (x, y-1) shifted by x
    and (x, y+1) shifted by -x, as (x, y, z)x^+-1 = (x+-1, y, z) and
    (x, y, z)y^+-1 = (x, y+-1, z+-x).  It is an integer interval [xy - h, h]:
    a word's z sums, over its y-letters y^d, d times the x reached before;
    arrangements of one multiset of letters end at one (x, y), adjacent swaps
    join them, and swapping x^e y^d moves z by ed = +-1, any other swap by 0,
    so their z fill an interval through 0 (y-letters first) and xy (x-letters
    first).  (x, y, z) -> (-x, y, -z) and (x, -y, -z) are automorphisms (they
    negate z1 + z2 + x1 y2 with z) that permute the letters, as inversion
    does, so (x, y, z) -> (x, y, xy - z), their composite of g^-1, keeps word
    length, whence the lower end xy - h and h(-x, y) = h(x, -y) = h(x, y) - xy.
    So h_r = max(h(x, y), h(x+-1, y), h(x, y-1) + x, h(x, y+1) - x) at r-1,
    and the column holds 2h - xy + 1 elements.

    1. For x, y >= 0 and s = floor((r-x-y)/2), h_r(x, y) = H, the largest
    (x+i)(y+j) with i, j >= 0 and i + j = s (-inf for s < 0: no column).  Its
    factors sum to T = x+y+s, so for x <= y, H = floor(T/2) ceil(T/2) when
    y - x <= s, that is 3y - x <= r, and (x+s)y otherwise.  h >= H:
    y^-j x^(x+i) y^(y+j) x^-i has x+y+2s <= r letters and ends at
    (x, y, (x+i)(y+j)).  h <= H by induction on r from h_0(0, 0) = 0: with
    (i, j) the best pair at radius r-1, each term is at most a product in H.
    h(x, y) has no larger s; h(x+1, y) and h(x, y+1) - x have s-1, so
    (x+1+i)(y+j) and (x+i)(y+1+j) - x; h(x-1, y) for x >= 1 is (x-1+i)(y+j);
    h(x, y-1) + x for y >= 1 is (x+i)(y+j) - i; at x = 0, h(-1, y) =
    h(1, y) - y = (1+i)(y+j) - y, and at y = 0, h(x, -1) + x = h(x, 1) =
    (x+i)(1+j), each with i + j = s-1.

    2. Columns (+-x, +-y) hold as many elements, and layer |x| + |y| = n >= 1
    is four quarter turns of (a, n-a), 0 <= a < n, so B(r) = 1 + 2H(0, 0) +
    sum_{n=1..r} 4 sum_{a<n} (2H(a, n-a) - a(n-a) + 1), where H(0, 0) =
    floor(floor(r/2)^2/4).  With s = floor((r-n)/2), H(a, n-a) is (a+s)(n-a)
    for a <= floor((n-s-1)/2), a(n-a+s) for a > floor((n+s)/2), and
    floor((n+s)^2/4) between; for 3n <= r only the last occurs.  On a class
    of n mod 4 and r mod 4, s, these bounds and H are polynomials in n and r,
    so a layer is a cubic on either side of 3n = r.  With n = 4m + v and
    r = 12q + p the sides end at m = q + floor((floor(p/3) - v)/4) and
    3q + floor((p-v)/4), affine in q and never below their starts less 1, so
    by Faulhaber B(12q + p) is a polynomial of degree <= 4 in q for every
    q >= 0, fixed by its values at r < 60: B(r) = (31r^4 - 14r^3 + 127r^2 +
    144r + c(r mod 12))/72, c = (72, 72, 44, 108, 72, 8, 108, 108, 8, 72, 108, 44).

    3. The quartic satisfies the recurrence of (1-x)^5 and, as
    c(r) + c(r+2) = c(r+3) + c(r+5), c that of (1-x^3)(1+x^2); so B satisfies
    that of (1-x)^4 (1-x^3)(1+x^2) = (1-x) den, of degree 9, with den =
    (1-x)^4 (1+x+x^2)(1+x^2) = 1 - 3x + 4x^2 - 5x^3 + 6x^4 - 5x^5 + 4x^6 -
    3x^7 + x^8.  So den S, S = (1-x) sum_r B(r) x^r, has degree <= 8, and its
    terms give num = 1 + x + 4x^2 + 11x^3 + 8x^4 + 21x^5 + 6x^6 + 9x^7 + x^8.
    """
    if spec.family == "free":
        return {0: 1, 1: 1}, {0: 1, 1: 1 - 2 * spec.n}
    if spec.family in ("free_abelian", "klein_bottle"):
        n = spec.n if spec.family == "free_abelian" else 2
        binomials = [math.comb(n, i) for i in range(n + 1)]
        return dict(enumerate(binomials)), {i: (-1) ** i * c for i, c in enumerate(binomials)}
    if spec.family == "surface":
        inner = 2 * spec.genus - 1
        return dict(enumerate((1, *[2] * inner, 1))), dict(enumerate((1, *[2 - 4 * spec.genus] * inner, 1)))
    if spec.family == "heisenberg":
        return dict(enumerate((1, 1, 4, 11, 8, 21, 6, 9, 1))), dict(enumerate((1, -3, 4, -5, 6, -5, 4, -3, 1)))
    if spec.family in ("cyclic", "trivial"):
        m = spec.m or 1
        num = {0: 1, 1: 1}
        for d in (-(-m // 2), m // 2 + 1):
            num[d] = num.get(d, 0) - 1
        return num, {0: 1, 1: -1}


def _quotient(num, den):
    """s_1, s_2, ... of the series num/den, where `num` is a sparse
    {degree: coefficient} map and `den` yields d_1, d_2, ... with d_0 = 1.

    Coefficient k of num = den * S gives s_k = num_k - sum_{j=1..k} d_j s_{k-j},
    summed over the nonzero d_j read so far, so a finite den padded with zeros
    costs O(its terms) a step.  One term is yielded per den term read, so the
    quotient ends where den ends."""
    s = [num.get(0, 0)]
    terms = []  # (j, d_j) for each nonzero d_j
    for k, d in enumerate(den, 1):
        if d:
            terms.append((k, d))
        s.append(num.get(k, 0) - sum(dj * s[k - j] for j, dj in terms))
        yield s[k]


def _plan(handle: GroupHandle, max_elements: int | None):
    """sigma(1), sigma(2), ... of the handle's default generating set.  Only a
    Z x G node forms elements, and it stops inside the sphere that would pass
    `max_elements`."""
    family = handle.spec.family
    if family == "free_product":
        # 1/S = sum_i 1/S_i - (n-1): the constant terms sum to n - (n-1) = 1
        inverses = [_quotient({0: 1}, _plan(factor, max_elements)) for factor in handle.factor_handles]
        return _quotient({0: 1}, map(sum, zip(*inverses)))
    if family == "torus_bundle":
        return _torus_bundle_spheres(handle)
    if family == "direct_product_with_Z":
        return map(len, spheres(handle, handle.default_generators(), max_elements))
    num, den = _sphere_series(handle.spec)
    return _quotient(num, map(den.get, itertools.count(1), itertools.repeat(0)))


def growth_table(
    handle: GroupHandle,
    gens: GeneratingSet,
    kmax: int,
    max_elements: int | None = None,
    max_seconds: float | None = None,
) -> GrowthTable:
    """Exact gamma over `gens`, by `_plan` when `gens` is the default
    generating set as a set, else by frontier BFS.

    Stops early with ``complete=False`` when a budget runs out: before the
    first ball larger than `max_elements`, or at the first radius reached
    after `max_seconds`.  The table is truncated at the last ball counted in
    full.  ClosureBudgetExceeded arises only where a surface word is formed:
    on BFS, or at a Z x G node.
    """
    if kmax < 0:
        raise ValueError("kmax must be >= 0")
    t0 = time.monotonic()
    if set(gens.elements) == set(handle.default_generators().elements):
        sizes = _plan(handle, max_elements)
    else:
        sizes = map(len, spheres(handle, gens, max_elements))
    cap = math.inf if max_elements is None else max_elements
    gamma = [1]
    complete = True
    while len(gamma) <= kmax:
        if max_seconds is not None and time.monotonic() - t0 > max_seconds:
            complete = False
            break
        size = next(sizes, None)
        # BFS stops inside the sphere that would pass the cap; a counter's sphere is cut here
        if size is None or gamma[-1] + size > cap:
            complete = False
            break
        if size == 0:
            # group exhausted: every later ball is this one
            gamma.extend([gamma[-1]] * (kmax + 1 - len(gamma)))
            break
        gamma.append(gamma[-1] + size)
    return GrowthTable(spec=handle.spec, gens=gens, gamma=tuple(gamma), complete=complete)


def ball_elements(handle: GroupHandle, gens: GeneratingSet, radius: int) -> list:
    """Elements of the closed ball, identity first, in BFS sphere order.

    Within a sphere elements are sorted by canonical key, so the order is a
    pure function of the inputs.
    """
    out = [handle.identity]
    for sphere in itertools.islice(spheres(handle, gens), max(radius, 0)):
        out.extend(sorted(sphere, key=handle.canonical_key))
    return out


def is_generating(handle: GroupHandle, gens: GeneratingSet, radius_cap: int) -> bool | None:
    """True if BFS over `gens` reaches every default generator within the cap.

    Returns False only when the BFS closes (finite reach) without covering
    them, and None when the cap is exhausted first, as `GroupHandle.generates`
    does where it cannot decide; an infinite group can never earn a
    definitive False.
    """
    targets = set(handle.default_generators().elements) - {handle.identity}
    if not targets:
        return True
    for sphere in itertools.islice(spheres(handle, gens), max(radius_cap, 0)):
        targets -= sphere
        if not targets:
            return True
        if not sphere:
            return False
    return None


@dataclass(frozen=True)
class SearchReport:
    """Outcome of probing u_k over candidate generating sets."""

    candidates_tested: int
    best_set: GeneratingSet | None
    best_root_bound: float | None
    per_candidate: tuple  # (GeneratingSet, u_k) pairs in test order
    complete: bool


def search_generating_sets(
    handle: GroupHandle,
    candidate_radius: int,
    set_size: int,
    k: int,
    max_candidates: int | None = None,
    max_seconds: float | None = None,
) -> SearchReport:
    """Probe gamma(k)^[1/k] over symmetrized candidate sets from a ball.

    Candidates are all size-`set_size` subsets of the ball of
    `candidate_radius` (identity excluded), ordered lexicographically by
    canonical keys; sets equal after symmetrization are tested once.  Only
    sets known to generate are reported, so the minimum is an upper bound
    over *verified* generating sets.

    On free groups (Stallings folding), Z^n and heisenberg (minors),
    `handle.generates` decides generation exactly.  Where it cannot decide
    (surface groups, torus bundles, composites), a set passes when
    `is_generating` finds every default letter within radius max(k, 4).
    Each passing set's gamma(k) comes from `growth_table`, except that a
    certified set holding as many elements as the default set is a basis
    and takes the default set's gamma(k), computed once per call.
    """
    if set_size < 1:
        raise ValueError("set_size must be >= 1")
    if k < 1:
        raise ValueError("k must be >= 1")
    t0 = time.monotonic()

    default = handle.default_generators()
    # the ball lists the identity first; it is no candidate
    pool = ball_elements(handle, default, candidate_radius)[1:]
    pool.sort(key=handle.canonical_key)
    # a ball is closed under inverses
    inverse = {el: handle.inv(el) for el in pool}

    basis_ball = None
    results = []
    seen_sets: set[frozenset] = set()
    complete = True
    for combo in itertools.combinations(pool, set_size):
        if max_candidates is not None and len(seen_sets) >= max_candidates:
            complete = False
            break
        if max_seconds is not None and time.monotonic() - t0 > max_seconds:
            complete = False
            break
        elements = frozenset(combo).union(map(inverse.__getitem__, combo))
        if elements in seen_sets:
            continue
        seen_sets.add(elements)
        verdict = handle.generates(combo)
        if verdict is False:
            continue
        gens = make_generating_set(handle, [(f"g{i + 1}", el) for i, el in enumerate(combo)])
        if verdict is None and is_generating(handle, gens, max(k, 4)) is not True:
            continue
        if verdict is True and len(elements) == len(default.elements):
            if basis_ball is None:
                basis_ball = growth_table(handle, default, k).gamma[k]
            ball = basis_ball
        else:
            ball = growth_table(handle, gens, k).gamma[k]
        results.append((gens, root_bound(ball, k)))
    # min keeps the first of equal u_k
    best_set, best_root_bound = min(results, key=lambda pair: pair[1], default=(None, None))
    return SearchReport(
        candidates_tested=len(seen_sets),
        best_set=best_set,
        best_root_bound=best_root_bound,
        per_candidate=tuple(results),
        complete=complete,
    )


def root_bound(ball: int, k: int) -> float:
    """u_k = ball^(1/k); through logs only when the ball is too large for a float."""
    try:
        return ball ** (1.0 / k)
    except OverflowError:
        return math.exp(math.log(ball) / k)

