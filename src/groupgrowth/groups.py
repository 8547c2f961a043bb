"""Group families with exact element arithmetic and canonical normal forms.

Each family stores elements as plain hashable payloads (ints, tuples of
ints, words) already in canonical form, so equality is structural and the
byte key is a direct encoding of the payload.  The identity of every family
encodes to the empty key.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidSpec, InvalidGenus
from .surface import SurfaceRelator, dehn_reduce, surface_canonical
from .words import cancel_seam, free_reduce, format_word, invert

FAMILIES = (
    "trivial",
    "cyclic",
    "free",
    "free_abelian",
    "heisenberg",
    "klein_bottle",
    "surface",
    "torus_bundle",
    "free_product",
    "direct_product_with_Z",
)

_ALPHABET = "abcdefghijklmnopqrstuvwxyz"


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _as_tuple(value, what: str) -> tuple:
    """A list or tuple of child specs as a tuple, so the parent spec stays hashable."""
    if not isinstance(value, (list, tuple)):
        raise InvalidSpec(f"{what} must be a list, got {value!r}")
    return tuple(value)


def _check_label(label) -> None:
    """A label is a string or absent; anything else would leave the spec unhashable."""
    if label is not None and not isinstance(label, str):
        raise InvalidSpec(f"label must be a string, got {label!r}")


def _letter_names(n: int) -> list[str]:
    if n <= len(_ALPHABET):
        return [_ALPHABET[i] for i in range(n)]
    return [f"x{i + 1}" for i in range(n)]


@dataclass(frozen=True)
class MatrixZ2:
    """Exact 2x2 integer matrix, row-major entries a b / c d."""

    a: int
    b: int
    c: int
    d: int

    @classmethod
    def from_rows(cls, rows) -> "MatrixZ2":
        try:
            (a, b), (c, d) = rows
        except (TypeError, ValueError):
            raise InvalidSpec(f"expected a 2x2 integer matrix, got {rows!r}")
        for e in (a, b, c, d):
            if not _is_int(e):
                raise InvalidSpec(f"matrix entries must be integers, got {e!r}")
        return cls(a, b, c, d)

    def rows(self) -> list[list[int]]:
        return [[self.a, self.b], [self.c, self.d]]

    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    def trace(self) -> int:
        return self.a + self.d

    def mul(self, other: "MatrixZ2") -> "MatrixZ2":
        return MatrixZ2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def apply(self, v: tuple[int, int]) -> tuple[int, int]:
        x, y = v
        return (self.a * x + self.b * y, self.c * x + self.d * y)

    def inverse(self) -> "MatrixZ2":
        det = self.det()
        if det == 1:
            return MatrixZ2(self.d, -self.b, -self.c, self.a)
        if det == -1:
            return MatrixZ2(-self.d, self.b, self.c, -self.a)
        raise InvalidSpec(f"matrix with det {det} has no integer inverse")

    @classmethod
    def identity(cls) -> "MatrixZ2":
        return cls(1, 0, 0, 1)


@dataclass(frozen=True)
class GroupSpec:
    """Declarative description of one supported group, parameters and all."""

    family: str
    m: int | None = None
    n: int | None = None
    genus: int | None = None
    matrix: MatrixZ2 | None = None
    factors: tuple["GroupSpec", ...] | None = None
    inner: "GroupSpec | None" = None
    label: str | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise InvalidSpec(f"unknown family {self.family!r}")
        _check_label(self.label)
        allowed = {
            "cyclic": ("m",),
            "free": ("n",),
            "free_abelian": ("n",),
            "surface": ("genus",),
            "torus_bundle": ("matrix",),
            "free_product": ("factors",),
            "direct_product_with_Z": ("inner",),
        }.get(self.family, ())
        for name in ("m", "n", "genus", "matrix", "factors", "inner"):
            value = getattr(self, name)
            if name in allowed:
                if value is None:
                    raise InvalidSpec(f"{self.family} requires parameter {name!r}")
            elif value is not None:
                raise InvalidSpec(f"{self.family} takes no parameter {name!r}")
        if self.family == "cyclic" and (not _is_int(self.m) or self.m < 1):
            raise InvalidSpec(f"cyclic order must be a positive integer, got {self.m!r}")
        if self.family in ("free", "free_abelian") and (not _is_int(self.n) or self.n < 1):
            raise InvalidSpec(f"{self.family} rank must be >= 1, got {self.n!r}")
        if self.family == "surface":
            if not _is_int(self.genus) or self.genus < 2:
                raise InvalidGenus(f"surface genus must be >= 2, got {self.genus!r}")
        if self.family == "torus_bundle":
            if not isinstance(self.matrix, MatrixZ2):
                object.__setattr__(self, "matrix", MatrixZ2.from_rows(self.matrix))
            if abs(self.matrix.det()) != 1:
                raise InvalidSpec(f"torus_bundle matrix must have |det| = 1, got det {self.matrix.det()}")
        if self.family == "free_product":
            object.__setattr__(self, "factors", _as_tuple(self.factors, "free_product factors"))
            if len(self.factors) < 2:
                raise InvalidSpec("free_product needs at least two factors")
            for f in self.factors:
                if not isinstance(f, GroupSpec):
                    raise InvalidSpec(f"free_product factors must be group specs, got {f!r}")
                if group_order(f).m == 1:
                    raise InvalidSpec("free_product factors must be non-trivial")
        if self.family == "direct_product_with_Z" and not isinstance(self.inner, GroupSpec):
            raise InvalidSpec(f"direct_product_with_Z inner must be a group spec, got {self.inner!r}")

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
        if len(factors) == 1 and isinstance(factors[0], (list, tuple)):
            factors = tuple(factors[0])
        return cls("free_product", factors=tuple(factors), label=label)

    @classmethod
    def direct_product_with_Z(cls, inner: "GroupSpec", label: str | None = None) -> "GroupSpec":
        return cls("direct_product_with_Z", inner=inner, label=label)

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        params: dict = {}
        if self.family == "cyclic":
            params["m"] = self.m
        elif self.family in ("free", "free_abelian"):
            params["n"] = self.n
        elif self.family == "surface":
            params["genus"] = self.genus
        elif self.family == "torus_bundle":
            params["matrix"] = self.matrix.rows()
        elif self.family == "free_product":
            params["factors"] = [f.to_dict() for f in self.factors]
        elif self.family == "direct_product_with_Z":
            params["inner"] = self.inner.to_dict()
        out = {"family": self.family, "params": params}
        if self.label is not None:
            out["label"] = self.label
        return out

    @classmethod
    def from_dict(cls, data) -> "GroupSpec":
        if not isinstance(data, dict) or "family" not in data:
            raise InvalidSpec(f"group spec must be an object with a 'family' key, got {data!r}")
        family = data["family"]
        params = data.get("params", {})
        if not isinstance(params, dict):
            raise InvalidSpec(f"'params' must be an object, got {params!r}")
        label = data.get("label")
        kwargs: dict = {}
        try:
            if family == "cyclic":
                kwargs["m"] = params["m"]
            elif family in ("free", "free_abelian"):
                kwargs["n"] = params["n"]
            elif family == "surface":
                kwargs["genus"] = params["genus"]
            elif family == "torus_bundle":
                kwargs["matrix"] = params["matrix"]
            elif family == "free_product":
                factors = _as_tuple(params["factors"], "free_product factors")
                kwargs["factors"] = tuple(cls.from_dict(f) for f in factors)
            elif family == "direct_product_with_Z":
                kwargs["inner"] = cls.from_dict(params["inner"])
        except KeyError as exc:
            raise InvalidSpec(f"{family} spec is missing parameter {exc.args[0]!r}")
        return cls(family, label=label, **kwargs)

    def describe(self) -> str:
        if self.label:
            return self.label
        if self.family == "cyclic":
            return f"cyclic({self.m})"
        if self.family in ("free", "free_abelian"):
            return f"{self.family}({self.n})"
        if self.family == "surface":
            return f"surface({self.genus})"
        if self.family == "torus_bundle":
            return f"torus_bundle({self.matrix.rows()})"
        if self.family == "free_product":
            return " * ".join(f.describe() for f in self.factors)
        if self.family == "direct_product_with_Z":
            return f"Z x ({self.inner.describe()})"
        return self.family


@dataclass(frozen=True)
class GroupOrder:
    kind: str  # "finite" | "infinite"
    m: int | None = None

    @classmethod
    def finite(cls, m: int) -> "GroupOrder":
        return cls("finite", m)

    @classmethod
    def infinite(cls) -> "GroupOrder":
        return cls("infinite")

    @property
    def is_finite(self) -> bool:
        return self.kind == "finite"


def group_order(spec: GroupSpec) -> GroupOrder:
    """Order of the group: finite only for trivial and cyclic specs."""
    if spec.family == "trivial":
        return GroupOrder.finite(1)
    if spec.family == "cyclic":
        return GroupOrder.finite(spec.m)
    return GroupOrder.infinite()


@dataclass(frozen=True)
class GeneratingSet:
    """Generators as group elements; identity excluded, inverses included when symmetrized."""

    elements: tuple
    symmetrized: bool
    names: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.elements)

    def named(self):
        return list(zip(self.names, self.elements))


def make_generating_set(handle: "GroupHandle", named, symmetrize: bool = True) -> GeneratingSet:
    """Build a generating set from (name, element) pairs, deduped by canonical key.

    The identity is rejected; an empty set is allowed only when the group
    itself is trivial (order one), where no generator exists to list.
    """
    base = []
    seen = set()
    for name, el in named:
        key = handle.canonical_key(el)
        if key == b"":
            raise InvalidSpec("the identity cannot be a generator")
        if key not in seen:
            seen.add(key)
            base.append((name, el))
    if not base:
        order = group_order(handle.spec)
        if not (order.is_finite and order.m == 1):
            raise InvalidSpec("generating set must be nonempty")
    out = list(base)
    if symmetrize:
        for name, el in base:
            iv = handle.inv(el)
            key = handle.canonical_key(iv)
            if key not in seen:
                seen.add(key)
                out.append((name + "'", iv))
    return GeneratingSet(
        elements=tuple(el for _, el in out),
        symmetrized=symmetrize,
        names=tuple(name for name, _ in out),
    )


class GroupHandle:
    """Element arithmetic for one group family.

    Elements are plain hashable payloads in canonical form.  A handle's
    parameters are fixed at construction, but it is not immutable: it may
    keep a memo that grows as it is used (TorusBundleGroup caches matrix
    powers).  The memo never changes a result.
    """

    identity = None

    def __init__(self, spec: GroupSpec):
        self.spec = spec

    def mul(self, a, b):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def canonical_key(self, a) -> bytes:
        raise NotImplementedError

    def _letters(self):
        """Unsymmetrized default generators as (name, element) pairs."""
        raise NotImplementedError

    def default_generators(self) -> GeneratingSet:
        return make_generating_set(self, self._letters(), symmetrize=True)

    def order(self) -> GroupOrder:
        return group_order(self.spec)

    def format_element(self, a) -> str:
        raise NotImplementedError


class TrivialGroup(GroupHandle):
    identity = 0

    def mul(self, a, b):
        return 0

    def inv(self, a):
        return 0

    def canonical_key(self, a) -> bytes:
        return b""

    def _letters(self):
        return []

    def format_element(self, a) -> str:
        return "1"


class CyclicGroup(GroupHandle):
    identity = 0

    def __init__(self, spec: GroupSpec):
        super().__init__(spec)
        self.m = spec.m

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
    identity = ()

    def __init__(self, spec: GroupSpec):
        super().__init__(spec)
        self.n = spec.n
        self._names = _letter_names(self.n)

    def mul(self, a, b):
        return free_reduce(a + b)

    def inv(self, a):
        return invert(a)

    def canonical_key(self, a) -> bytes:
        return ",".join(map(str, a)).encode()

    def _letters(self):
        return [(self._names[i], (i + 1,)) for i in range(self.n)]

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

    def canonical_key(self, a) -> bytes:
        if a == self.identity:
            return b""
        return ",".join(map(str, a)).encode()

    def _letters(self):
        out = []
        for i in range(self.n):
            e = tuple(1 if j == i else 0 for j in range(self.n))
            out.append((self._names[i], e))
        return out

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

    def canonical_key(self, a) -> bytes:
        if a == self.identity:
            return b""
        return ",".join(map(str, a)).encode()

    def _letters(self):
        # z = [x, y] is a product of the others, so two letters suffice
        return [("x", (1, 0, 0)), ("y", (0, 1, 0))]

    def format_element(self, a) -> str:
        return f"({a[0]},{a[1]},{a[2]})"


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

    def canonical_key(self, a) -> bytes:
        if a == self.identity:
            return b""
        return ",".join(map(str, a)).encode()

    def _letters(self):
        return [("a", (1, 0)), ("b", (0, 1))]

    def format_element(self, a) -> str:
        return f"({a[0]},{a[1]})"


class SurfaceGroup(GroupHandle):
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
    matches.
    """

    identity = ()

    def __init__(self, spec: GroupSpec):
        super().__init__(spec)
        self.genus = spec.genus
        self.relator = SurfaceRelator(spec.genus)
        self._names = []
        for i in range(1, spec.genus + 1):
            self._names.extend([f"a{i}", f"b{i}"])

    def _canon(self, word):
        return self._normal(free_reduce(word))

    def _normal(self, w):
        """Canonical form of the free-reduced word ``w``."""
        half, halves = self.relator.half, self.relator._half_swap
        for i in range(len(w) - half + 1):
            if w[i : i + half] in halves:
                return surface_canonical(dehn_reduce(w, self.relator), self.relator)
        return w

    def mul(self, a, b):
        # canonical payloads are free-reduced, so only the seam can cancel
        return self._normal(cancel_seam(a, b))

    def inv(self, a):
        return self._canon(invert(a))

    def canonical_key(self, a) -> bytes:
        return ",".join(map(str, a)).encode()

    def _letters(self):
        return [(self._names[i], (i + 1,)) for i in range(2 * self.genus)]

    def format_element(self, a) -> str:
        return format_word(a, self._names)


class TorusBundleGroup(GroupHandle):
    """Split extension of Z^2 by Z: elements (x, y, n), conjugation by the matrix."""

    identity = (0, 0, 0)

    def __init__(self, spec: GroupSpec):
        super().__init__(spec)
        self.matrix = spec.matrix
        self._inverse = spec.matrix.inverse()
        self._powers = {0: MatrixZ2.identity()}

    def _power(self, n: int) -> MatrixZ2:
        cached = self._powers.get(n)
        if cached is not None:
            return cached
        step = self.matrix if n > 0 else self._inverse
        closest = max(self._powers) if n > 0 else min(self._powers)
        acc = self._powers[closest]
        k = closest
        while k != n:
            k += 1 if n > 0 else -1
            acc = acc.mul(step) if n > 0 else step.mul(acc)
            self._powers[k] = acc
        return acc

    def mul(self, a, b):
        x1, y1, n1 = a
        x2, y2, n2 = b
        tx, ty = self._power(n1).apply((x2, y2))
        return (x1 + tx, y1 + ty, n1 + n2)

    def inv(self, a):
        x, y, n = a
        tx, ty = self._power(-n).apply((x, y))
        return (-tx, -ty, -n)

    def canonical_key(self, a) -> bytes:
        if a == self.identity:
            return b""
        return ",".join(map(str, a)).encode()

    def _letters(self):
        return [("e1", (1, 0, 0)), ("e2", (0, 1, 0)), ("t", (0, 0, 1))]

    def format_element(self, a) -> str:
        return f"({a[0]},{a[1]},{a[2]})"


class FreeProductGroup(GroupHandle):
    """Free product: alternating syllables (factor index, factor element)."""

    identity = ()

    def __init__(self, spec: GroupSpec):
        super().__init__(spec)
        self.factor_handles = tuple(make_group(f) for f in spec.factors)

    def mul(self, a, b):
        left = list(a)
        right = list(b)
        j = 0
        while left and j < len(right):
            si, pi = left[-1]
            sj, pj = right[j]
            if si != sj:
                break
            prod = self.factor_handles[si].mul(pi, pj)
            if prod == self.factor_handles[si].identity:
                left.pop()
                j += 1
            else:
                left[-1] = (si, prod)
                j += 1
                break
        return tuple(left) + tuple(right[j:])

    def inv(self, a):
        return tuple((s, self.factor_handles[s].inv(p)) for s, p in reversed(a))

    def canonical_key(self, a) -> bytes:
        parts = []
        for side, payload in a:
            key = self.factor_handles[side].canonical_key(payload)
            parts.append(b"%d:%d:%s;" % (side, len(key), key))
        return b"".join(parts)

    def _letters(self):
        out = []
        for i, handle in enumerate(self.factor_handles):
            for name, el in handle._letters():
                out.append((f"{name}{i + 1}", ((i, el),)))
        return out

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
        self._z_name = next(c for c in ("t", "z", "s", "w", "u", "v") if c not in used)

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
    "trivial": TrivialGroup,
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
