"""Independent reference implementations used to cross-check the package.

Everything here is deliberately naive and written from the definitions, not
from the library code: plain BFS over element payloads, a from-scratch Dehn
reducer that scans every relator variant at every position, and closed-form
ball sizes for the families that have them.  The matrix scan oracle is the
exception noted in its docstring: it takes Lambda and the Osin value from
the package.
"""

from fractions import Fraction
from itertools import count, islice, permutations, product


def naive_balls(handle, elements, kmax):
    """The balls B(0), ..., B(kmax) by breadth-first search over raw payloads.

    Uses only handle.mul and payload equality (payloads are canonical, so
    `==` is group equality).  No frontier tricks, no canonical keys.  Yields
    one set, grown in place to the next radius after each yield.
    """
    seen = {handle.identity}
    frontier = [handle.identity]
    yield seen
    for _ in range(kmax):
        nxt = []
        for g in frontier:
            for s in elements:
                h = handle.mul(g, s)
                if h not in seen:
                    seen.add(h)
                    nxt.append(h)
        frontier = nxt
        yield seen


def naive_ball_sizes(handle, elements, kmax):
    """Ball sizes gamma(0), ..., gamma(kmax) by `naive_balls`."""
    return tuple(len(ball) for ball in naive_balls(handle, elements, kmax))


def reaches_default_letters(handle, elements, radius):
    """Whether the ball of `radius` over `elements` holds every default letter, by `naive_balls`."""
    *_, ball = naive_balls(handle, elements, radius)
    return ball.issuperset(handle.default_generators().elements)


def free_ball(n, k):
    """|B(k)| in the free group of rank n: 1 + 2n * ((2n-1)^k - 1) / (2n-2)."""
    if n == 1:
        return 2 * k + 1
    return 1 + 2 * n * ((2 * n - 1) ** k - 1) // (2 * n - 2)


def zd_ball(d, k):
    """Lattice points of l1 norm <= k in Z^d, by one-axis-at-a-time convolution."""
    counts = {0: 1}  # norm -> count, one coordinate added per pass
    for _ in range(d):
        nxt = {}
        for norm, c in counts.items():
            for x in range(-(k - norm), k - norm + 1):
                nxt[norm + abs(x)] = nxt.get(norm + abs(x), 0) + c
        counts = nxt
    return sum(counts.values())


def dihedral_ball(k):
    # infinite dihedral Z2 * Z2 with the two reflections as generators
    return 1 if k == 0 else 2 * k + 1


def cyclic_ball(m, k):
    return min(m, 2 * k + 1)


def free_product_normal_ref(syllables, factors):
    """Normal form of a free-product word, rewritten until no rule applies.

    A syllable is (factor index, factor element) and ``factors`` holds the
    factor handles.  The two rules come from the definition: drop a syllable
    that is the factor's identity, and multiply two neighbours from the same
    factor into one.  Each pass applies the first rule it finds and starts
    over, like ``dehn_reduce_ref``.
    """
    w = list(syllables)
    changed = True
    while changed:
        changed = False
        for i, (side, x) in enumerate(w):
            if x == factors[side].identity:
                del w[i]
                changed = True
                break
            if i + 1 < len(w) and w[i + 1][0] == side:
                w[i : i + 2] = [(side, factors[side].mul(x, w[i + 1][1]))]
                changed = True
                break
    return tuple(w)


# --- surface words ---------------------------------------------------------


def surface_relator_variants(genus):
    relator = []
    for i in range(genus):
        a, b = 2 * i + 1, 2 * i + 2
        relator += [a, b, -a, -b]
    relator = tuple(relator)
    inverse = tuple(-x for x in reversed(relator))
    out = []
    for base in (relator, inverse):
        for s in range(len(base)):
            out.append(base[s:] + base[:s])
    return out


def reduce_free(word):
    out = []
    for x in word:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def dehn_reduce_ref(word, genus):
    """Reference Dehn reduction: scan every variant at every position.

    Quadratic and dumb on purpose; replaces the first strictly-more-than-half
    relator subword it finds and restarts.
    """
    variants = surface_relator_variants(genus)
    half = 2 * genus
    w = reduce_free(word)
    changed = True
    while changed:
        changed = False
        for i in range(len(w)):
            for v in variants:
                m = 0
                while i + m < len(w) and m < len(v) and w[i + m] == v[m]:
                    m += 1
                if m > half:
                    tail = tuple(-x for x in reversed(v[m:]))
                    w = reduce_free(w[:i] + tail + w[i + m:])
                    changed = True
                    break
            if changed:
                break
    return w


def surface_equal_ref(u, v, genus):
    inv_v = tuple(-x for x in reversed(v))
    return dehn_reduce_ref(u + inv_v, genus) == ()


def freely_reduced_words(n_letters, max_len):
    """All freely reduced words over letters 1..n (and inverses) up to max_len."""
    letters = [x for i in range(1, n_letters + 1) for x in (i, -i)]
    words = [()]
    frontier = [()]
    for _ in range(max_len):
        nxt = []
        for w in frontier:
            for x in letters:
                if w and w[-1] == -x:
                    continue
                nxt.append(w + (x,))
        words.extend(nxt)
        frontier = nxt
    return words


class UnionFind:
    def __init__(self):
        self.parent = {}

    def find(self, x):
        self.parent.setdefault(x, x)
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb
            return True
        return False


def surface_class_count(genus, max_len):
    """Count distinct group elements among freely reduced words of length <= max_len.

    Pairwise equality via the reference Dehn reducer, bucketed by
    abelianization so only plausible pairs are compared.  Returns
    (n_classes, n_merges).
    """
    words = freely_reduced_words(2 * genus, max_len)
    buckets = {}
    for w in words:
        ab = [0] * (2 * genus)
        for x in w:
            ab[abs(x) - 1] += 1 if x > 0 else -1
        buckets.setdefault((len(w) % 2, tuple(ab)), []).append(w)

    uf = UnionFind()
    merges = 0
    for group in buckets.values():
        for i in range(len(group)):
            for j in range(i + 1, len(group)):
                u, v = group[i], group[j]
                if uf.find(u) == uf.find(v):
                    continue
                if surface_equal_ref(u, v, genus):
                    uf.union(u, v)
                    merges += 1
    classes = {uf.find(w) for w in words}
    return len(classes), merges


def heisenberg_mul(a, b):
    # (x, y, z) * (x', y', z') = (x+x', y+y', z+z'+x*y')
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2] + a[0] * b[1])


def heisenberg_column_heights():
    """Yield, for r = 0, 1, 2, ..., the heights h_r(x, y) of heisenberg's
    ball B(r) on x and y over the columns x, y >= 0 that B(r) meets.

    Column (x, y) of B(r), the z with (x, y, z) in B(r), is the integer
    interval [xy - h, h] (proved in `groupgrowth.cayley._sphere_series`).  As
    (x, y, z)x^+-1 = (x+-1, y, z) and (x, y, z)y^+-1 = (x, y+-1, z+-x),
    h_r(x, y) = max(h(x, y), h(x+-1, y), h(x, y-1) + x, h(x, y+1) - x) over
    the columns of B(r-1), and the reflections (-x, y, -z) and (x, -y, -z)
    give h(-1, y) = h(1, y) - y and h(x, -1) = h(x, 1) - x.
    """
    absent = -float("inf")
    heights = {(0, 0): 0}
    for r in count(1):
        yield heights
        edges = {}
        for i in range(r - 1):
            edges[-1, i] = heights[1, i] - i
            edges[i, -1] = heights[i, 1] - i
        get = {**heights, **edges}.get
        heights = {
            (x, y): max(get((x, y), absent), get((x - 1, y), absent), get((x + 1, y), absent),
                        get((x, y - 1), absent) + x, get((x, y + 1), absent) - x)
            for x in range(r + 1)
            for y in range(r - x + 1)
        }


def heisenberg_column_spheres(kmax):
    """sigma(0), ..., sigma(kmax) of heisenberg on x and y from
    `heisenberg_column_heights`: column (x, y) holds 2h - xy + 1 elements, as
    do columns (+-x, +-y), so each counts four times, twice on an axis and
    once at (0, 0)."""
    balls = [
        sum((2 - (not x)) * (2 - (not y)) * (2 * h - x * y + 1) for (x, y), h in heights.items())
        for heights in islice(heisenberg_column_heights(), kmax + 1)
    ]
    return (1, *(b - a for a, b in zip(balls, balls[1:])))


def torus_bundle_mul(rows, a, b):
    """(v1, n1) * (v2, n2) = (v1 + A^n1 v2, n1 + n2) in the bundle of A = rows.

    A^n is a product of |n| factors A, or of A^-1 when n < 0; A^-1 is the
    adjugate times det A, as det A = +-1.
    """
    (p, q), (r, s) = rows
    det = p * s - q * r
    step = rows if a[2] >= 0 else ((det * s, -det * q), (-det * r, det * p))
    power = ((1, 0), (0, 1))
    for _ in range(abs(a[2])):
        power = tuple(
            tuple(sum(power[i][k] * step[k][j] for k in range(2)) for j in range(2))
            for i in range(2)
        )
    x = a[0] + power[0][0] * b[0] + power[0][1] * b[1]
    y = a[1] + power[1][0] * b[0] + power[1][1] * b[1]
    return (x, y, a[2] + b[2])


def all_int_matrices(bound):
    rng = range(-bound, bound + 1)
    return product(rng, rng, rng, rng)


def naive_scan(bound):
    """The hyperbolic matrix scan by four nested loops over all (2B+1)^4 matrices.

    Only the enumeration and the per-class folding are independent of the
    package: Lambda and the Osin value come from `lambda_max` and
    `osin_bound`, which are tested on their own.  Returns (rows, classes):
    rows are (a, b, c, d, det, trace, lam, osin) in lexicographic order, and
    classes maps det to (count, min_lam, min_osin, lambda_le_2, witness),
    the witness being the first row that attains min_lam.
    """
    from groupgrowth.bounds import lambda_max, osin_bound
    from groupgrowth.groups import MatrixZ2

    rows = []
    classes = {1: (0, None, None, False, None), -1: (0, None, None, False, None)}
    for a, b, c, d in all_int_matrices(bound):
        det = a * d - b * c
        if det not in (1, -1):
            continue
        m = MatrixZ2(a, b, c, d)
        lam = lambda_max(m)
        if not lam > 1:
            continue
        osin = osin_bound(m).value
        rows.append((a, b, c, d, det, a + d, lam, osin))
        count, min_lam, min_osin, le2, witness = classes[det]
        if min_lam is None or lam < min_lam:
            min_lam, witness = lam, (a, b, c, d)
        min_osin = osin if min_osin is None else min(min_osin, osin)
        classes[det] = (count + 1, min_lam, min_osin, le2 or lam <= 2, witness)
    return rows, classes


def squarefree_part(m):
    """(s, D) with m = s^2 * D and D squarefree, by trial division up to sqrt(m)."""
    if m == 0:
        return 0, 0
    s = D = 1
    p = 2
    while p * p <= m:
        exp = 0
        while m % p == 0:
            m //= p
            exp += 1
        s *= p ** (exp // 2)
        D *= p ** (exp % 2)
        p += 1
    return s, D * m


def surd_str(p, q, D):
    """(p + q*sqrt(D))/2 written out, for squarefree D > 1.

    Halves are cancelled when p and q are both even; a coefficient of 1 is
    dropped from the radical, and a zero integer part is left out once halved.
    """
    if q == 0:
        return str(Fraction(p, 2))
    halve = p % 2 == 0 and q % 2 == 0
    a, b = (p // 2, q // 2) if halve else (p, q)
    radical = f"sqrt({D})" if abs(b) == 1 else f"{abs(b)}*sqrt({D})"
    if halve and a == 0:
        return radical if b > 0 else "-" + radical
    text = str(a) + ("+" if b > 0 else "-") + radical
    return text if halve else "(" + text + ")/2"


def least_squares_slope(xs, ys):
    """Slope of the least-squares line through the points, from the normal equations.

    Every float converts to a Fraction exactly, so the one rounding is the
    final conversion of the quotient back to float.
    """
    xs = [Fraction(x) for x in xs]
    ys = [Fraction(y) for y in ys]
    n = len(xs)
    sx, sy = sum(xs), sum(ys)
    sxy = sum(x * y for x, y in zip(xs, ys))
    sxx = sum(x * x for x in xs)
    return float((n * sxy - sx * sy) / (n * sxx - sx * sx))


# --- automorphisms that permute the default generators -------------------------


def z_n_automorphisms(n):
    """The 2^n * n! signed permutations of the coordinates of Z^n, as functions."""
    maps = []
    for perm in permutations(range(n)):
        for signs in product((1, -1), repeat=n):
            maps.append(lambda a, perm=perm, signs=signs: tuple(e * a[i] for e, i in zip(signs, perm)))
    return maps


def heisenberg_automorphisms():
    """The 8 automorphisms of the Heisenberg group generated by x -> x^-1,
    y -> y^-1 and the swap x <-> y, in the coordinates of `heisenberg_mul`.

    With a = (-x, y, -z), b = (x, -y, -z) and s = (y, x, xy - z), the list is
    1, a, b, ab, s, sa, sb, sab, each composed out by hand.
    """
    return [
        lambda p: (p[0], p[1], p[2]),
        lambda p: (-p[0], p[1], -p[2]),
        lambda p: (p[0], -p[1], -p[2]),
        lambda p: (-p[0], -p[1], p[2]),
        lambda p: (p[1], p[0], p[0] * p[1] - p[2]),
        lambda p: (p[1], -p[0], p[2] - p[0] * p[1]),
        lambda p: (-p[1], p[0], p[2] - p[0] * p[1]),
        lambda p: (-p[1], -p[0], p[0] * p[1] - p[2]),
    ]


def torus_bundle_automorphisms(rows):
    """(v, n) -> (Pv, e*n) for each of the 8 signed permutations P of Z^2 and
    each e = +-1 with P A = A^e P, in the bundle of A = rows.

    Then P A^n = A^(e*n) P for every n, so the map is a homomorphism: it
    permutes e1, e2 and their inverses and sends t to t^e.  P = I with e = 1
    is always kept, and so is P = -I.
    """
    (p, q), (r, s) = rows
    det = p * s - q * r
    power = {1: ((p, q), (r, s)), -1: ((det * s, -det * q), (-det * r, det * p))}

    def matmul(u, v):
        return tuple(tuple(sum(u[i][k] * v[k][j] for k in range(2)) for j in range(2)) for i in range(2))

    maps = []
    for perm in permutations(range(2)):
        for signs in product((1, -1), repeat=2):
            P = tuple(tuple(signs[i] if j == perm[i] else 0 for j in range(2)) for i in range(2))
            for e in (1, -1):
                if matmul(P, power[1]) == matmul(power[e], P):
                    maps.append(
                        lambda a, P=P, e=e: (
                            P[0][0] * a[0] + P[0][1] * a[1], P[1][0] * a[0] + P[1][1] * a[1], e * a[2]
                        )
                    )
    return maps


def orbit(maps, a):
    return {f(a) for f in maps}


# --- generation tests -------------------------------------------------------------


def folds_to_rose(words, n):
    """Whether free-group words generate F_n, by folding their loops at vertex 0.

    The graph is a set of labelled edges (u, x, v), x a positive letter.
    Whenever two edges with one label leave or enter one vertex, their other
    ends are merged by renaming one vertex everywhere; the words generate F_n
    exactly when that stops at one vertex with a loop for every letter.
    """
    edges, fresh = set(), 1
    for word in words:
        path = [0]
        for _ in word[1:]:
            path.append(fresh)
            fresh += 1
        path.append(0)
        for u, x, v in zip(path, word, path[1:]):
            edges.add((u, x, v) if x > 0 else (v, -x, u))
    while True:
        pair = next(
            (
                (e[2], f[2]) if e[0] == f[0] else (e[0], f[0])
                for e in edges
                for f in edges
                if e != f and e[1] == f[1] and (e[0] == f[0] or e[2] == f[2])
            ),
            None,
        )
        if pair is None:
            break
        keep, gone = sorted(pair)  # vertex 0 is kept
        edges = {(keep if u == gone else u, x, keep if v == gone else v) for u, x, v in edges}
    vertices = {u for u, _, _ in edges} | {v for _, _, v in edges}
    return vertices == {0} and {x for _, x, _ in edges} == set(range(1, n + 1))


def spans_lattice(vectors, n):
    """Whether integer vectors span Z^n, by row reduction with Euclid's
    algorithm: the span is Z^n exactly when every column ends with pivot +-1."""
    rows = [list(v) for v in vectors]
    for col in range(n):
        live = [r for r in rows if r[col]]
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[col]))
            pivot = live[0]
            for r in live[1:]:
                q = r[col] // pivot[col]
                for j in range(n):
                    r[j] -= q * pivot[j]
            live = [pivot] + [r for r in live[1:] if r[col]]
        if not live or abs(live[0][col]) != 1:
            return False
        rows = [r for r in rows if r is not live[0]]
    return True


def generation_ref(spec, elements):
    """Whether `elements` generate the group of `spec` by the tests above, or
    None for a family without one."""
    if spec.family == "free":
        return folds_to_rose(elements, spec.n)
    if spec.family == "free_abelian":
        return spans_lattice(elements, spec.n)
    if spec.family == "heisenberg":
        # a subgroup of a nilpotent group that maps onto the abelianization is the whole group
        return spans_lattice([(x, y) for x, y, _ in elements], 2)
    return None
