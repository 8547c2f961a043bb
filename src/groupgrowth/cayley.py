"""Exact Cayley-ball enumeration by breadth-first search.

Spheres are deduped on element payloads, which every family keeps in canonical
hashable form, so no product is encoded to bytes.  Because every generator has
word length one, a product of a sphere-k element with a letter lands in sphere
k-1, k, or k+1; keeping the two newest spheres in memory is therefore enough
for exact counts.

`growth_table` counts one automorphism orbit at a time when it can.  Z^n
(signed coordinate permutations), heisenberg (the dihedral group of order 8
on x, y) and torus bundles declare a finite group A of automorphisms that
permutes their default generators.  A bundle's A holds -I on Z^2 and, when a
signed permutation P of Z^2 has P M = M^-1 P for the monodromy M, the map
(v, n) -> (Pv, -n) as well, which swaps t and t^-1: order 4, else order 2.  A then maps every
sphere onto itself, since a(g s) = a(g) a(s), so BFS keeps one representative
per A-orbit and adds the orbit's length to the count.  This holds only for a
generating set equal, as a set, to the default one; any other set, and every
other family, enumerates whole spheres.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field

from .groups import GeneratingSet, GroupHandle, GroupSpec, make_generating_set


class _Unknown:
    """Result of a generation check that neither succeeded nor refuted."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "UNKNOWN"

    def __bool__(self) -> bool:
        raise TypeError("UNKNOWN is not a truth value; compare with `is UNKNOWN`")


UNKNOWN = _Unknown()


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
        for m in range(1, len(gamma)):
            for n in range(1, len(gamma) - m):
                if gamma[m + n] > gamma[m] * gamma[n]:
                    raise ValueError(
                        f"submultiplicativity violated at ({m},{n}): "
                        f"{gamma[m + n]} > {gamma[m]}*{gamma[n]}"
                    )
        object.__setattr__(self, "kmax", len(gamma) - 1)
        sigma = (1,) + tuple(gamma[k] - gamma[k - 1] for k in range(1, len(gamma)))
        object.__setattr__(self, "sigma", sigma)


def spheres(handle: GroupHandle, gens: GeneratingSet, max_elements: int | None = None, orbits: bool = False):
    """Yield (sphere, size) for the spheres S(1), S(2), ... of the Cayley graph.

    A sphere is a set of payloads; payloads are canonical and hashable, so set
    membership is group equality.  Plain, it holds every element and its size
    is its length.  With `orbits`, the caller vouches that the handle's orbit
    map permutes `gens`: the sphere then holds one `orbit_rep` per orbit, and
    its size is the sum of their `orbit_size`s.  Only the two newest spheres
    are kept.  The first empty sphere (the group is exhausted) is yielded
    last.  With `max_elements`, the generator stops as soon as the ball would
    outgrow the cap, inside the product loop when the sphere's length already
    does, without yielding the sphere that overflowed; a run that ends
    without an empty sphere was therefore cut short.
    """
    mul = handle.mul
    if orbits:
        rep, orbit_size = handle.orbit_rep, handle.orbit_size

        def step(el, s):
            return rep(mul(el, s))

        def weight(sphere):
            return sum(map(orbit_size, sphere))

    else:
        step, weight = mul, len
    letters = gens.elements
    room = math.inf if max_elements is None else max_elements - 1
    prev: set = set()
    cur = {handle.identity}
    while cur:
        nxt: set = set()
        for el in cur:
            for s in letters:
                prod = step(el, s)
                # repeats land in S(k+1) or S(k-1) more often than in S(k)
                if prod in nxt or prod in prev or prod in cur:
                    continue
                nxt.add(prod)
                # a sphere's size is at least its length
                if len(nxt) > room:
                    return
        size = weight(nxt)
        if size > room:
            return
        yield nxt, size
        room -= size
        prev, cur = cur, nxt


def growth_table(
    handle: GroupHandle,
    gens: GeneratingSet,
    kmax: int,
    max_elements: int | None = None,
    max_seconds: float | None = None,
) -> GrowthTable:
    """Exact gamma via frontier BFS, one automorphism orbit at a time when
    `gens` is the default generating set of a family with an orbit map.

    Stops early with ``complete=False`` when a budget runs out; the table is
    truncated at the last fully enumerated sphere.  A surface group whose
    canonicalization blows its closure budget raises ClosureBudgetExceeded.
    """
    if kmax < 0:
        raise ValueError("kmax must be >= 0")
    t0 = time.monotonic()
    orbits = handle.orbit_rep is not None and set(gens.elements) == set(
        handle.default_generators().elements
    )
    kernel = spheres(handle, gens, max_elements, orbits)
    gamma = [1]
    complete = True
    while len(gamma) <= kmax:
        if max_seconds is not None and time.monotonic() - t0 > max_seconds:
            complete = False
            break
        sphere = next(kernel, None)
        if sphere is None:  # the element cap cut this sphere short
            complete = False
            break
        _, size = sphere
        gamma.append(gamma[-1] + size)
        if not size:
            # group exhausted: every later sphere is empty
            gamma.extend([gamma[-1]] * (kmax + 1 - len(gamma)))
    return GrowthTable(spec=handle.spec, gens=gens, gamma=tuple(gamma), complete=complete)


def ball_elements(handle: GroupHandle, gens: GeneratingSet, radius: int) -> list:
    """Elements of the closed ball, identity first, in BFS sphere order.

    Within a sphere elements are sorted by canonical key, so the order is a
    pure function of the inputs.
    """
    out = [handle.identity]
    for sphere, _ in itertools.islice(spheres(handle, gens), max(radius, 0)):
        out.extend(sorted(sphere, key=handle.canonical_key))
    return out


def is_generating(handle: GroupHandle, gens: GeneratingSet, radius_cap: int):
    """True if BFS over `gens` reaches every default generator within the cap.

    Returns False only when the BFS closes (finite reach) without covering
    them, and UNKNOWN when the cap is exhausted first; an infinite group can
    never earn a definitive False.
    """
    targets = set(handle.default_generators().elements) - {handle.identity}
    if not targets:
        return True
    for sphere, _ in itertools.islice(spheres(handle, gens), max(radius_cap, 0)):
        targets -= sphere
        if not targets:
            return True
        if not sphere:
            return False
    return UNKNOWN


def _ball_if_generating(handle: GroupHandle, gens: GeneratingSet, k: int, targets: frozenset):
    """gamma(k) over `gens` if BFS reaches all of `targets` by radius max(k, 4), else None.

    One plain sphere pass does the work of `is_generating` to radius
    max(k, 4) and of `growth_table` to radius k.
    """
    ball = 1
    for radius, (sphere, size) in enumerate(spheres(handle, gens), 1):
        targets = targets - sphere
        if radius <= k:
            ball += size
        if not size or (radius >= k and not targets) or radius == max(k, 4):
            break
    return None if targets else ball


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
    canonical keys; sets equal after symmetrization are tested once.  Sets
    whose generation check (BFS to radius max(k, 4)) does not certify True
    are skipped, so the reported minimum is an upper bound over *verified*
    generating sets only.
    """
    if set_size < 1:
        raise ValueError("set_size must be >= 1")
    if k < 1:
        raise ValueError("k must be >= 1")
    t0 = time.monotonic()

    # the ball lists the identity first; it is no candidate
    pool = ball_elements(handle, handle.default_generators(), candidate_radius)[1:]
    pool.sort(key=handle.canonical_key)

    targets = frozenset(handle.default_generators().elements)
    tested = 0
    results = []
    best = None
    seen_sets: set[frozenset] = set()
    complete = True
    for combo in itertools.combinations(pool, set_size):
        if max_candidates is not None and tested >= max_candidates:
            complete = False
            break
        if max_seconds is not None and time.monotonic() - t0 > max_seconds:
            complete = False
            break
        named = [(f"g{i + 1}", el) for i, el in enumerate(combo)]
        gens = make_generating_set(handle, named, symmetrize=True)
        elements = frozenset(gens.elements)
        if elements in seen_sets:
            continue
        seen_sets.add(elements)
        tested += 1
        ball = _ball_if_generating(handle, gens, k, targets)
        if ball is None:
            continue
        u_k = ball ** (1.0 / k)
        results.append((gens, u_k))
        if best is None or u_k < best[1]:
            best = (gens, u_k)
    return SearchReport(
        candidates_tested=tested,
        best_set=None if best is None else best[0],
        best_root_bound=None if best is None else best[1],
        per_candidate=tuple(results),
        complete=complete,
    )


def table_csv_rows(table: GrowthTable) -> list[str]:
    """CSV lines `k,gamma,sigma,root_bound,ratio` (12 significant digits).

    Row k carries u_k = gamma(k)^[1/k] (blank at k=0) and the sphere ratio
    sigma(k)/sigma(k-1) (blank when undefined).
    """
    lines = ["k,gamma,sigma,root_bound,ratio"]
    for k in range(table.kmax + 1):
        root = "" if k == 0 else "%.12g" % (table.gamma[k] ** (1.0 / k))
        ratio = ""
        if k >= 2 and table.sigma[k - 1] > 0:
            ratio = "%.12g" % (table.sigma[k] / table.sigma[k - 1])
        lines.append(f"{k},{table.gamma[k]},{table.sigma[k]},{root},{ratio}")
    return lines
