"""Dehn's algorithm for the standard genus-g surface relator.

The relator is the product of commutators [a1,b1]...[ag,bg], length 4g over
2g generators.  Any two distinct cyclic variants of the relator or its
inverse share no common subword of length 2 (all 8g ordered letter pairs are
distinct), so a length-2 window already pins down the variant.  That gives
linear-time detection of long relator subwords:

* a subword strictly longer than half the relator (> 2g letters) is replaced
  by the inverse of the complementary piece, strictly shortening the word;
* a subword of exactly half the relator (2g letters) can be swapped for the
  inverse of the other half, preserving length.

Iterating the first move is Dehn's algorithm and decides the word problem.
The second move generates the length-preserving closure used for canonical
forms.

Both moves start at a length-2g window that is a key of
``SurfaceRelator._half_swap``: a match longer than half begins with one, and
the swaps act on exactly those windows.  A free-reduced word with no such
window is therefore its own canonical form: ``dehn_reduce`` returns it
unchanged and its closure is the word alone.  ``SurfaceGroup`` in
``groups`` uses this to skip both functions on almost every product.
"""

from __future__ import annotations

from .errors import ClosureBudgetExceeded
from .words import Word, free_reduce, invert, letter_rank

DEFAULT_CLOSURE_BUDGET = 20000


class SurfaceRelator:
    """Precomputed cyclic variants and lookup tables for one genus."""

    def __init__(self, genus: int):
        if genus < 2:
            raise ValueError("surface relator needs genus >= 2")
        self.genus = genus
        self.n_generators = 2 * genus
        relator = []
        for i in range(genus):
            a, b = 2 * i + 1, 2 * i + 2
            relator += [a, b, -a, -b]
        self.relator: Word = tuple(relator)
        self.length = 4 * genus
        self.half = 2 * genus

        variants = []
        for base in (self.relator, invert(self.relator)):
            for shift in range(self.length):
                variants.append(base[shift:] + base[:shift])
        assert len(set(variants)) == 8 * genus
        self.variants: tuple[Word, ...] = tuple(variants)

        # A length-2 subword of any variant determines variant and offset;
        # with all rotations stored, matching reduces to prefix matching.
        self._by_pair: dict[tuple[int, int], Word] = {}
        for v in self.variants:
            self._by_pair[(v[0], v[1])] = v
        # exactly-half prefix -> inverse of the complementary half
        self._half_swap: dict[Word, Word] = {
            v[: self.half]: invert(v[self.half :]) for v in self.variants
        }

    def _match_at(self, word: Word, i: int):
        """Longest common prefix of word[i:] with the variant pinned by its pair."""
        if i + 1 >= len(word):
            return None, 0
        v = self._by_pair.get((word[i], word[i + 1]))
        if v is None:
            return None, 0
        m = 2
        limit = min(self.length, len(word) - i)
        while m < limit and word[i + m] == v[m]:
            m += 1
        return v, m


def dehn_reduce(word, relator: SurfaceRelator) -> Word:
    """Shorten a word with Dehn's algorithm until no more-than-half subword remains.

    When several matches exist, the leftmost is replaced, taking the longest
    match at that position.  The result equals the input in the surface group
    and never gets longer; the empty output means the input was trivial.
    """
    w = free_reduce(word)
    while True:
        replaced = False
        for i in range(len(w) - relator.half):
            v, m = relator._match_at(w, i)
            if v is not None and m > relator.half:
                w = free_reduce(w[:i] + invert(v[m:]) + w[i + m :])
                replaced = True
                break
        if not replaced:
            return w


def _half_swaps(w: Word, relator: SurfaceRelator):
    half = relator.half
    for i in range(len(w) - half + 1):
        repl = relator._half_swap.get(w[i : i + half])
        if repl is not None:
            yield free_reduce(w[:i] + repl + w[i + half :])


def geodesic_closure(word, relator: SurfaceRelator, budget: int = DEFAULT_CLOSURE_BUDGET):
    """All words reachable from a Dehn-reduced word by exactly-half swaps.

    On Dehn-reduced input the swaps cannot cancel, so the closure is
    length-preserving; a swap that does shorten restarts the closure from the
    shorter word after re-reducing it.  Raises ClosureBudgetExceeded when the
    closure outgrows the budget.
    """
    w = tuple(word)
    while True:
        seen = {w}
        frontier = [w]
        restart = None
        while frontier and restart is None:
            nxt = []
            for u in frontier:
                for cand in _half_swaps(u, relator):
                    if len(cand) < len(w):
                        restart = cand
                        break
                    if cand not in seen:
                        seen.add(cand)
                        nxt.append(cand)
                        if len(seen) > budget:
                            raise ClosureBudgetExceeded(
                                f"geodesic closure exceeded {budget} words"
                            )
                if restart is not None:
                    break
            frontier = nxt
        if restart is None:
            return seen
        w = dehn_reduce(restart, relator)


def surface_canonical(word, relator: SurfaceRelator, budget: int = DEFAULT_CLOSURE_BUDGET) -> Word:
    """Lexicographically least word in the half-swap closure of a Dehn-reduced word.

    Letter order is a < a' < b < b' < ...; since words in one closure share a
    length, this is a plain lexicographic minimum.
    """
    closure = geodesic_closure(word, relator, budget)
    return min(closure, key=lambda u: tuple(letter_rank(x) for x in u))
