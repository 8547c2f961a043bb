"""Group families with exact element arithmetic and canonical normal forms.

Each family stores elements as plain hashable payloads (ints, tuples of
ints, words) already in canonical form, so equality is structural and the
byte key is a direct encoding of the payload.  The identity of every family
encodes to the empty key.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields
from typing import NamedTuple

from .errors import InvalidSpec, InvalidGenus, shown
from .surface import SurfaceRelator, dehn_reduce, surface_canonical
from .words import ALPHABET, cancel_seam, free_reduce, format_word, invert


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _as_tuple(value, what: str) -> tuple:
    """A list or tuple of child specs as a tuple, so the parent spec stays hashable."""
    if not isinstance(value, (list, tuple)):
        raise InvalidSpec(f"{what} must be a list, got {shown(value)}")
    return tuple(value)


def _letter_names(n: int) -> list[str]:
    if n <= len(ALPHABET):
        return [ALPHABET[i] for i in range(n)]
    return [f"x{i + 1}" for i in range(n)]


def _det(rows) -> int:
    """Determinant of a square integer matrix, by Bareiss's fraction-free elimination."""
    m = [list(r) for r in rows]
    sign, prev = 1, 1
    for i in range(len(m) - 1):
        if m[i][i] == 0:
            swap = next((j for j in range(i + 1, len(m)) if m[j][i]), None)
            if swap is None:
                return 0
            m[i], m[swap], sign = m[swap], m[i], -sign
        for j in range(i + 1, len(m)):
            for c in range(i + 1, len(m)):
                # exact: Sylvester's identity makes prev divide the difference
                m[j][c] = (m[j][c] * m[i][i] - m[j][i] * m[i][c]) // prev
        prev = m[i][i]
    return sign * m[-1][-1]


def _spans_lattice(vectors, n: int) -> bool:
    """Whether integer `vectors` of length n span Z^n: the gcd of their n x n
    minors is 1.  Fewer than n vectors have no minor and span no Z^n."""
    g = 0
    for minor in itertools.combinations(vectors, n):
        g = math.gcd(g, _det(minor))
        if g == 1:
            return True
    return False


class MatrixZ2(NamedTuple):
    """Exact 2x2 integer matrix, row-major entries a b / c d.

    It is the tuple (a, b, c, d): it unpacks as four ints and compares equal
    to the plain 4-tuple of its entries.
    """

    a: int
    b: int
    c: int
    d: int

    @classmethod
    def from_rows(cls, rows) -> "MatrixZ2":
        try:
            (a, b), (c, d) = rows
        except (TypeError, ValueError):
            raise InvalidSpec(f"expected a 2x2 integer matrix, got {shown(rows)}")
        for e in (a, b, c, d):
            if not _is_int(e):
                raise InvalidSpec(f"matrix entries must be integers, got {shown(e)}")
        return cls(a, b, c, d)

    def rows(self) -> list[list[int]]:
        return [[self.a, self.b], [self.c, self.d]]

    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    def trace(self) -> int:
        return self.a + self.d

    def mul(self, other: "MatrixZ2") -> "MatrixZ2":
        a, b, c, d = self
        e, f, g, h = other
        return MatrixZ2(a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)

    def inverse(self) -> "MatrixZ2":
        a, b, c, d = self
        det = a * d - b * c
        if det not in (1, -1):
            raise InvalidSpec(f"matrix with det {det} has no integer inverse")
        return MatrixZ2(det * d, -det * b, -det * c, det * a)  # the adjugate over det


class SpecBase:
    """Checking, parsing and serialization shared by GroupSpec and ManifoldSpec.

    A subclass declares its families in one table, ``_SCHEMA``: tag (the
    ``family`` or ``kind``) -> the names of the parameters it takes, in JSON
    order.  That table is the one place where a family is declared; the
    presence check, ``to_dict`` and ``from_dict`` all read it.  Parameters
    named in ``_CHILD`` hold one child spec of the same class, those named
    in ``_CHILDREN`` a list of them (stored as a tuple, so the spec stays
    hashable), and ``matrix`` holds a MatrixZ2 that may be given as rows.
    ``from_dict`` fills omitted parameters from ``_DEFAULTS``.  Range checks
    that concern one family stay in the subclass's ``__post_init__``.
    """

    _TAG: str  # the dataclass field that holds the tag
    _NOUN: str  # "group" or "manifold", for messages
    _UNKNOWN: str  # message for an unknown tag, with one {} slot for its repr
    _SCHEMA: dict
    _CHILD: tuple = ()
    _CHILDREN: tuple = ()
    _DEFAULTS: dict = {}

    @classmethod
    def _params_of(cls, tag) -> tuple:
        # a tag that cannot be hashed is as unknown as a misspelled one
        if not isinstance(tag, str) or tag not in cls._SCHEMA:
            raise InvalidSpec(cls._UNKNOWN.format(shown(tag)))
        return cls._SCHEMA[tag]

    def __post_init__(self):
        tag = getattr(self, self._TAG)
        names = self._params_of(tag)
        if self.label is not None and not isinstance(self.label, str):
            # anything else would leave the spec unhashable
            raise InvalidSpec(f"label must be a string, got {shown(self.label)}")
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name in names:
                if value is None:
                    raise InvalidSpec(f"{tag} requires parameter {f.name!r}")
            elif value is not None and f.name not in (self._TAG, "label"):
                raise InvalidSpec(f"{tag} takes no parameter {f.name!r}")
        for name in names:
            value = getattr(self, name)
            if name == "matrix" and not isinstance(value, MatrixZ2):
                object.__setattr__(self, name, MatrixZ2.from_rows(value))
            elif name in self._CHILDREN:
                value = _as_tuple(value, f"{tag} {name}")
                object.__setattr__(self, name, value)
                for child in value:
                    if not isinstance(child, type(self)):
                        raise InvalidSpec(f"{tag} {name} must be {self._NOUN} specs, got {shown(child)}")
            elif name in self._CHILD and not isinstance(value, type(self)):
                raise InvalidSpec(f"{tag} {name} must be a {self._NOUN} spec, got {shown(value)}")

    def to_dict(self) -> dict:
        tag = getattr(self, self._TAG)
        params = {name: _to_json(getattr(self, name)) for name in self._SCHEMA[tag]}
        out = {self._TAG: tag, "params": params}
        if self.label is not None:
            out["label"] = self.label
        return out

    @classmethod
    def from_dict(cls, data):
        if not isinstance(data, dict) or cls._TAG not in data:
            raise InvalidSpec(
                f"{cls._NOUN} spec must be an object with a {cls._TAG!r} key, got {shown(data)}"
            )
        tag = data[cls._TAG]
        params = data.get("params", {})
        if not isinstance(params, dict):
            raise InvalidSpec(f"'params' must be an object, got {shown(params)}")
        names = cls._params_of(tag)
        for key in data:
            if key not in (cls._TAG, "params", "label"):
                raise InvalidSpec(f"{cls._NOUN} spec takes no key {shown(key)}")
        for key in params:
            if key not in names:
                raise InvalidSpec(f"{tag} takes no parameter {shown(key)}")
        kwargs: dict = {}
        for name in names:
            if name not in params and name not in cls._DEFAULTS:
                raise InvalidSpec(f"{tag} spec is missing parameter {name!r}")
            value = params.get(name, cls._DEFAULTS.get(name))
            if name in cls._CHILD:
                value = cls.from_dict(value)
            elif name in cls._CHILDREN:
                value = tuple(cls.from_dict(v) for v in _as_tuple(value, f"{tag} {name}"))
            kwargs[name] = value
        return cls(tag, label=data.get("label"), **kwargs)

    def describe(self) -> str:
        return self.label or getattr(self, self._TAG)


def _to_json(value):
    if isinstance(value, MatrixZ2):
        return value.rows()
    if isinstance(value, SpecBase):
        return value.to_dict()
    if isinstance(value, tuple):
        return [_to_json(v) for v in value]
    return value


GROUP_PARAMS = {
    "trivial": (),
    "cyclic": ("m",),
    "free": ("n",),
    "free_abelian": ("n",),
    "heisenberg": (),
    "klein_bottle": (),
    "surface": ("genus",),
    "torus_bundle": ("matrix",),
    "free_product": ("factors",),
    "direct_product_with_Z": ("inner",),
}
FAMILIES = tuple(GROUP_PARAMS)


@dataclass(frozen=True)
class GroupSpec(SpecBase):
    """Declarative description of one supported group, parameters and all."""

    family: str
    m: int | None = None
    n: int | None = None
    genus: int | None = None
    matrix: MatrixZ2 | None = None
    factors: tuple["GroupSpec", ...] | None = None
    inner: "GroupSpec | None" = None
    label: str | None = None

    _TAG = "family"
    _NOUN = "group"
    _UNKNOWN = "unknown family {}"
    _SCHEMA = GROUP_PARAMS
    _CHILD = ("inner",)
    _CHILDREN = ("factors",)

    def __post_init__(self):
        super().__post_init__()
        family = self.family
        if family == "cyclic" and (not _is_int(self.m) or self.m < 1):
            raise InvalidSpec(f"cyclic order must be a positive integer, got {shown(self.m)}")
        if family in ("free", "free_abelian") and (not _is_int(self.n) or self.n < 1):
            raise InvalidSpec(f"{family} rank must be >= 1, got {shown(self.n)}")
        if family == "surface" and (not _is_int(self.genus) or self.genus < 2):
            raise InvalidGenus(f"surface genus must be >= 2, got {shown(self.genus)}")
        if family == "torus_bundle" and abs(self.matrix.det()) != 1:
            raise InvalidSpec(f"torus_bundle matrix must have |det| = 1, got det {self.matrix.det()}")
        if family == "free_product":
            if len(self.factors) < 2:
                raise InvalidSpec("free_product needs at least two factors")
            if any(group_order(f) == 1 for f in self.factors):
                raise InvalidSpec("free_product factors must be non-trivial")

    # -- constructors ------------------------------------------------------

    @classmethod
    def trivial(cls, label: str | None = None) -> "GroupSpec":
        return cls("trivial", label=label)

    @classmethod
    def cyclic(cls, m: int, label: str | None = None) -> "GroupSpec":
        return cls("cyclic", m=m, label=label)

    @classmethod
    def free(cls, n: int, label: str | None = None) -> "GroupSpec":
        return cls("free", n=n, label=label)

    @classmethod
    def free_abelian(cls, n: int, label: str | None = None) -> "GroupSpec":
        return cls("free_abelian", n=n, label=label)

    @classmethod
    def heisenberg(cls, label: str | None = None) -> "GroupSpec":
        return cls("heisenberg", label=label)

    @classmethod
    def klein_bottle(cls, label: str | None = None) -> "GroupSpec":
        return cls("klein_bottle", label=label)

    @classmethod
    def surface(cls, genus: int, label: str | None = None) -> "GroupSpec":
        return cls("surface", genus=genus, label=label)

    @classmethod
    def torus_bundle(cls, matrix, label: str | None = None) -> "GroupSpec":
        return cls("torus_bundle", matrix=matrix, label=label)

    @classmethod
    def free_product(cls, *factors: "GroupSpec", label: str | None = None) -> "GroupSpec":
        return cls("free_product", factors=factors, label=label)

    @classmethod
    def direct_product_with_Z(cls, inner: "GroupSpec", label: str | None = None) -> "GroupSpec":
        return cls("direct_product_with_Z", inner=inner, label=label)

    def describe(self) -> str:
        if self.label:
            return self.label
        if self.family == "free_product":
            return " * ".join(f.describe() for f in self.factors)
        if self.family == "direct_product_with_Z":
            return f"Z x ({self.inner.describe()})"
        params = self.to_dict()["params"]
        if params:
            (value,) = params.values()
            return f"{self.family}({value})"
        return self.family


def group_order(spec: GroupSpec) -> int | float:
    """Order of the group: finite only for trivial and cyclic specs, else math.inf."""
    if spec.family == "trivial":
        return 1
    if spec.family == "cyclic":
        return spec.m
    return math.inf


@dataclass(frozen=True)
class GeneratingSet:
    """Generators as group elements; identity excluded, inverses included when symmetrized."""

    elements: tuple
    symmetrized: bool
    names: tuple[str, ...]

    def named(self):
        return list(zip(self.names, self.elements))


def make_generating_set(handle: "GroupHandle", named, symmetrize: bool = True) -> GeneratingSet:
    """Build a generating set from (name, element) pairs, deduped on payloads.

    The identity is rejected; an empty set is allowed only when the group
    itself is trivial (order one), where no generator exists to list.
    `symmetrize=False` is for a list that already holds every inverse: BFS
    (`cayley.spheres`) rejects a set that is not closed under inverses.
    """
    base = []
    seen = set()
    for name, el in named:
        if el == handle.identity:
            raise InvalidSpec("the identity cannot be a generator")
        if el not in seen:
            seen.add(el)
            base.append((name, el))
    if not base:
        if group_order(handle.spec) != 1:
            raise InvalidSpec("generating set must be nonempty")
    out = list(base)
    if symmetrize:
        for name, el in base:
            iv = handle.inv(el)
            if iv not in seen:
                seen.add(iv)
                out.append((name + "'", iv))
    return GeneratingSet(
        elements=tuple(el for _, el in out),
        symmetrized=symmetrize,
        names=tuple(name for name, _ in out),
    )


class GroupHandle:
    """Element arithmetic for one group family.

    Elements are plain hashable payloads in canonical form, so payload
    equality is group equality.  A handle's parameters are fixed at
    construction, but it is not immutable: it may keep a memo that grows as
    it is used (TorusBundleGroup caches matrix powers).  The memo never
    changes a result.

    A handle holds element arithmetic, and for some families an exact
    generation test (`generates`).  How balls are counted is
    `cayley.growth_table`'s choice.
    """

    identity = None

    def __init__(self, spec: GroupSpec):
        self.spec = spec

    def mul(self, a, b):
        """Canonical payload of the product of two canonical payloads.

        Both operands must be canonical, as the handle hands them out; a
        family may rely on it (a free group cancels only at the seam).
        """
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def canonical_key(self, a) -> bytes:
        """Injective byte key of a payload, empty for the identity; a sort key only.

        The default suits tuple-of-int payloads: their ints comma-joined.
        """
        if a == self.identity:
            return b""
        return ",".join(map(str, a)).encode()

    def _letters(self):
        """Unsymmetrized default generators as (name, element) pairs."""
        raise NotImplementedError

    def generates(self, elements) -> bool | None:
        """Whether `elements` generate the group, decided exactly; None where
        the family has no exact test.

        A family that answers is relatively free and Hopfian on its default
        letters (free, free abelian, free nilpotent of class 2), so a set
        that generates and holds as many elements, inverses included, as the
        default set is the image of the default letters under an
        automorphism and has the default set's growth;
        `cayley.search_generating_sets` relies on that.
        """
        return None

    def default_generators(self) -> GeneratingSet:
        return make_generating_set(self, self._letters(), symmetrize=True)

    def format_element(self, a) -> str:
        """Readable form of a payload; the default renders int tuples as (x,y,z)."""
        return "(" + ",".join(map(str, a)) + ")"


class CyclicGroup(GroupHandle):
    """Cyclic group of order m on residues mod m; the trivial group is m = 1."""

    identity = 0

    def __init__(self, spec: GroupSpec):
        super().__init__(spec)
        self.m = group_order(spec)

    def mul(self, a, b):
        return (a + b) % self.m

    def inv(self, a):
        return (-a) % self.m

    def canonical_key(self, a) -> bytes:
        return b"" if a == 0 else str(a).encode()

    def _letters(self):
        if self.m == 1:
            return []
        return [("a", 1)]

    def format_element(self, a) -> str:
        if a == 0:
            return "1"
        return "a" if a == 1 else f"a^{a}"


class FreeGroup(GroupHandle):
    """Free group: elements are free-reduced words, one letter per name."""

    identity = ()

    def __init__(self, spec: GroupSpec, names=None):
        super().__init__(spec)
        self._names = _letter_names(spec.n) if names is None else names

    def mul(self, a, b):
        # canonical payloads are free-reduced, so only the seam can cancel
        return cancel_seam(a, b)

    def inv(self, a):
        return invert(a)

    def _letters(self):
        return [(name, (i + 1,)) for i, name in enumerate(self._names)]

    def generates(self, elements) -> bool:
        """Stallings folding: the words, as loops at vertex 0, fold to the
        rose with one loop per letter exactly when they generate F_n
        (Stallings, Invent. Math. 71, 1983).

        ``edges[v]`` maps a letter to the far end of v's edge with that
        label (its reverse is stored at the far end under the inverse
        letter); vertices merge through union-find, so an end read from
        ``edges`` is resolved with ``find``.
        """
        parent, edges = [0], [{}]

        def find(v):
            while parent[v] != v:
                parent[v] = v = parent[parent[v]]
            return v

        def merge(u, v):
            pending = [(u, v)]
            while pending:
                u, v = map(find, pending.pop())
                if u == v:
                    continue
                if len(edges[u]) < len(edges[v]):
                    u, v = v, u
                parent[v] = u
                for x, w in edges[v].items():
                    if x in edges[u]:
                        pending.append((edges[u][x], w))
                    else:
                        edges[u][x] = w
                edges[v] = None

        for word in elements:
            inner = range(len(parent), len(parent) + len(word) - 1)
            parent.extend(inner)
            edges.extend({} for _ in inner)
            path = [0, *inner, 0]
            for u, x, v in zip(path, word, path[1:]):
                u, v = find(u), find(v)
                if x in edges[u]:
                    merge(edges[u][x], v)
                elif -x in edges[v]:
                    merge(edges[v][-x], u)
                else:
                    edges[u][x], edges[v][-x] = v, u
        root = find(0)
        return len(edges[root]) == 2 * len(self._names) and all(find(v) == root for v in range(len(parent)))

    def format_element(self, a) -> str:
        return format_word(a, self._names)


class FreeAbelianGroup(GroupHandle):
    def __init__(self, spec: GroupSpec):
        super().__init__(spec)
        self.n = spec.n
        self.identity = (0,) * self.n
        self._names = _letter_names(self.n)

    def mul(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def inv(self, a):
        return tuple(-x for x in a)

    def _letters(self):
        out = []
        for i in range(self.n):
            e = tuple(1 if j == i else 0 for j in range(self.n))
            out.append((self._names[i], e))
        return out

    def generates(self, elements) -> bool:
        return _spans_lattice(elements, self.n)

    def format_element(self, a) -> str:
        parts = []
        for name, exp in zip(self._names, a):
            if exp == 0:
                continue
            if exp == 1:
                parts.append(name)
            else:
                parts.append(f"{name}^{exp}")
        return " ".join(parts) if parts else "1"


class HeisenbergGroup(GroupHandle):
    """Integer Heisenberg group: triples (x, y, z) with z twisted by x1*y2."""

    identity = (0, 0, 0)

    def mul(self, a, b):
        x1, y1, z1 = a
        x2, y2, z2 = b
        return (x1 + x2, y1 + y2, z1 + z2 + x1 * y2)

    def inv(self, a):
        x, y, z = a
        return (-x, -y, -z + x * y)

    def _letters(self):
        # z = [x, y] is a product of the others, so two letters suffice
        return [("x", (1, 0, 0)), ("y", (0, 1, 0))]

    def generates(self, elements) -> bool:
        # a subgroup of a nilpotent group that maps onto the abelianization
        # is the whole group, and (x, y, z) -> (x, y) is the abelianization
        return _spans_lattice([(x, y) for x, y, _ in elements], 2)


class KleinBottleGroup(GroupHandle):
    """Klein bottle group on pairs (m, n): n flips the sign of later m's."""

    identity = (0, 0)

    def mul(self, a, b):
        m1, n1 = a
        m2, n2 = b
        sign = 1 if n1 % 2 == 0 else -1
        return (m1 + sign * m2, n1 + n2)

    def inv(self, a):
        m, n = a
        sign = 1 if n % 2 == 0 else -1
        return (-sign * m, -n)

    def _letters(self):
        return [("a", (1, 0)), ("b", (0, 1))]


class SurfaceGroup(FreeGroup):
    """Closed orientable surface group of genus g >= 2.

    Elements are canonical geodesic words: Dehn-reduced, then minimized over
    the half-relator swap closure.

    Most free-reduced words are already canonical, and that is cheap to
    recognise exactly: if no length-2g window of the word is a half of the
    relator (a key of ``SurfaceRelator._half_swap``), Dehn's algorithm has
    nothing to replace, since every match longer than half starts with such
    a window, and the half-swap closure is the word alone, since the swaps
    act on exactly those windows.  So ``_normal`` returns such a word as it
    is and runs ``surface_canonical(dehn_reduce(w))`` only when a window
    matches.  A word shorter than 2g has no window; it is returned before the
    table is read, so single letters never build it.
    """

    def __init__(self, spec: GroupSpec):
        super().__init__(spec, [f"{x}{i}" for i in range(1, spec.genus + 1) for x in "ab"])
        self.relator = SurfaceRelator(spec.genus)

    def _normal(self, w):
        """Canonical form of the free-reduced word ``w``."""
        half = self.relator.half
        if len(w) < half:
            return w
        halves = self.relator._half_swap
        for i in range(len(w) - half + 1):
            if w[i : i + half] in halves:
                return surface_canonical(dehn_reduce(w, self.relator), self.relator)
        return w

    def generates(self, elements) -> None:
        # a surface group is not free, and a set of 2g elements that generates
        # it need not be the image of the default letters under an automorphism
        return None

    def mul(self, a, b):
        return self._normal(cancel_seam(a, b))

    def inv(self, a):
        return self._normal(free_reduce(invert(a)))


class TorusBundleGroup(GroupHandle):
    """Split extension of Z^2 by Z: elements (x, y, n), conjugation by the matrix."""

    identity = (0, 0, 0)

    def __init__(self, spec: GroupSpec):
        super().__init__(spec)
        # M^n for a contiguous run of exponents n around 0
        self._powers = {0: MatrixZ2(1, 0, 0, 1), 1: spec.matrix, -1: spec.matrix.inverse()}

    def power(self, n: int) -> MatrixZ2:
        """The monodromy's n-th power M^n, from the memo."""
        powers = self._powers
        if n not in powers:
            # extend the run from its end on n's side, one factor of M^(+-1) at a time
            unit = 1 if n > 0 else -1
            k = max(powers) if n > 0 else min(powers)
            while k != n:
                powers[k + unit] = powers[k].mul(powers[unit])
                k += unit
        return powers[n]

    def mul(self, a, b):
        x1, y1, n1 = a
        x2, y2, n2 = b
        p, q, r, s = self.power(n1)
        return (x1 + p * x2 + q * y2, y1 + r * x2 + s * y2, n1 + n2)

    def inv(self, a):
        x, y, n = a
        p, q, r, s = self.power(-n)
        return (-p * x - q * y, -r * x - s * y, -n)

    def _letters(self):
        return [("e1", (1, 0, 0)), ("e2", (0, 1, 0)), ("t", (0, 0, 1))]


class FreeProductGroup(GroupHandle):
    """Free product: alternating syllables (factor index, factor element)."""

    identity = ()

    def __init__(self, spec: GroupSpec):
        super().__init__(spec)
        self.factor_handles = tuple(make_group(f) for f in spec.factors)

    def mul(self, a, b):
        # peel syllables at the seam, as words.cancel_seam does for letters
        i, j = len(a), 0
        while i and j < len(b) and a[i - 1][0] == b[j][0]:
            side = b[j][0]
            handle = self.factor_handles[side]
            prod = handle.mul(a[i - 1][1], b[j][1])
            i -= 1
            j += 1
            if prod != handle.identity:
                return a[:i] + ((side, prod),) + b[j:]
        return a[:i] + b[j:]

    def inv(self, a):
        return tuple((s, self.factor_handles[s].inv(p)) for s, p in reversed(a))

    def canonical_key(self, a) -> bytes:
        parts = []
        for side, payload in a:
            key = self.factor_handles[side].canonical_key(payload)
            parts.append(b"%d:%d:%s;" % (side, len(key), key))
        return b"".join(parts)

    def _letters(self):
        letters = [
            (i, name, el) for i, handle in enumerate(self.factor_handles) for name, el in handle._letters()
        ]
        # name + factor number, unless two letters would then share a name:
        # then name.number, whose text after the last dot fixes the factor
        dot = "" if len({f"{name}{i + 1}" for i, name, _ in letters}) == len(letters) else "."
        return [(f"{name}{dot}{i + 1}", ((i, el),)) for i, name, el in letters]

    def format_element(self, a) -> str:
        if not a:
            return "1"
        return " ".join(
            f"<{s + 1}:{self.factor_handles[s].format_element(p)}>" for s, p in a
        )


class DirectProductWithZ(GroupHandle):
    """Direct product Z x inner, elements (n, inner element)."""

    def __init__(self, spec: GroupSpec):
        super().__init__(spec)
        self.inner = make_group(spec.inner)
        self.identity = (0, self.inner.identity)
        used = {name for name, _ in self.inner._letters()}
        # t1 .. t(n+1) hold a name that none of the n inner letters takes
        names = (*"tzswuv", *(f"t{i}" for i in range(1, len(used) + 2)))
        self._z_name = next(c for c in names if c not in used)

    def mul(self, a, b):
        return (a[0] + b[0], self.inner.mul(a[1], b[1]))

    def inv(self, a):
        return (-a[0], self.inner.inv(a[1]))

    def canonical_key(self, a) -> bytes:
        if a == self.identity:
            return b""
        return b"%d|%s" % (a[0], self.inner.canonical_key(a[1]))

    def _letters(self):
        out = [(self._z_name, (1, self.inner.identity))]
        for name, el in self.inner._letters():
            out.append((name, (0, el)))
        return out

    def format_element(self, a) -> str:
        n, x = a
        z_part = "" if n == 0 else (self._z_name if n == 1 else f"{self._z_name}^{n}")
        x_part = self.inner.format_element(x)
        if not z_part:
            return x_part
        if x_part == "1":
            return z_part
        return f"{z_part} {x_part}"


_HANDLE_CLASSES = {
    "trivial": CyclicGroup,
    "cyclic": CyclicGroup,
    "free": FreeGroup,
    "free_abelian": FreeAbelianGroup,
    "heisenberg": HeisenbergGroup,
    "klein_bottle": KleinBottleGroup,
    "surface": SurfaceGroup,
    "torus_bundle": TorusBundleGroup,
    "free_product": FreeProductGroup,
    "direct_product_with_Z": DirectProductWithZ,
}


def make_group(spec: GroupSpec) -> GroupHandle:
    """Build the arithmetic handle for a validated spec."""
    return _HANDLE_CLASSES[spec.family](spec)
