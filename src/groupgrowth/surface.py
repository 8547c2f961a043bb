"""Dehn's algorithm for the standard genus-g surface relator, run as half swaps.

The relator is the product of commutators [a1,b1]...[ag,bg], length 4g over
2g generators.  Its 8g cyclic variants (rotations of the relator and of its
inverse) have distinct halves, so one table, ``SurfaceRelator._half_swap``,
maps each half v[:2g] to the inverse of the other half, invert(v[2g:]).  A
half swap replaces such a window of a word by its table value, then
free-reduces.  The table holds 8g words of 2g letters, so it is built on its
first lookup: a word shorter than 2g has no window, and counting a surface
group's default-set balls, which reads no word at all, never builds it.

* A swap that cancels at neither seam keeps the length.  These swaps
  generate the closure whose least word is the canonical form.
* Dehn's move is the half swap whose right seam cancels.  A match longer
  than half, w[i:i+m] = v[:m] with m > 2g, begins with the window v[:2g],
  whose swap value ends with -v[2g] = -w[i+2g], so free reduction cancels
  exactly the m-2g matched letters past the window and leaves Dehn's
  replacement invert(v[m:]).  A swap that shortens only at its left seam
  shows such a match one letter earlier, so the leftmost shortening swap
  is Dehn's leftmost, longest match.

A free-reduced word with no half window is therefore its own canonical form:
``dehn_reduce`` returns it unchanged and its closure is the word alone.
``SurfaceGroup`` in ``groups`` uses this to skip both functions on almost
every product.

``geodesic_closure`` needs no Dehn reduction of its own.  It processes its
input word first and tries the swaps left to right, so the first shortening
swap it meets is exactly ``dehn_reduce``'s next step, and it restarts from
that shorter word.  By induction on length, the closure of any free-reduced
word equals the closure of its Dehn reduction, word for word.
"""

from __future__ import annotations

import functools

from .errors import ClosureBudgetExceeded
from .words import Word, free_reduce, invert, letter_rank

DEFAULT_CLOSURE_BUDGET = 20000


class SurfaceRelator:
    """One genus's relator and the half-swap table of its cyclic variants."""

    def __init__(self, genus: int):
        if genus < 2:
            raise ValueError("surface relator needs genus >= 2")
        self.relator: Word = tuple(x for a in range(1, 2 * genus, 2) for x in (a, a + 1, -a, -a - 1))
        self.half = 2 * genus

    @functools.cached_property
    def _half_swap(self) -> dict[Word, Word]:
        """Exactly-half prefix of each cyclic variant -> inverse of the complementary half."""
        half = self.half
        table = {
            v[:half]: invert(v[half:])
            for base in (self.relator, invert(self.relator))
            for v in (base[shift:] + base[:shift] for shift in range(2 * half))
        }
        assert len(table) == 4 * half
        return table


def _half_swaps(w: Word, relator: SurfaceRelator):
    """Free-reduced results of the half swaps of ``w``, leftmost window first."""
    half = relator.half
    for i in range(len(w) - half + 1):
        repl = relator._half_swap.get(w[i : i + half])
        if repl is not None:
            yield free_reduce(w[:i] + repl + w[i + half :])


def dehn_reduce(word, relator: SurfaceRelator) -> Word:
    """Shorten a word with Dehn's algorithm until no more-than-half subword remains.

    Each step applies the leftmost half swap that shortens the word, which is
    Dehn's replacement of the leftmost, longest match (see the module
    docstring).  The result equals the input in the surface group and never
    gets longer; the empty output means the input was trivial.
    """
    w = free_reduce(word)
    while True:
        shorter = next((u for u in _half_swaps(w, relator) if len(u) < len(w)), None)
        if shorter is None:
            return w
        w = shorter


def geodesic_closure(word, relator: SurfaceRelator):
    """All words reachable from a free-reduced word by exactly-half swaps.

    One FIFO worklist from the input word.  Swaps that keep the length grow
    the closure; a swap that shortens, which can occur even in the closure of
    a Dehn-reduced word, returns the closure of the shorter word.  The input
    is processed first, its swaps left to right, so on a word that is not
    Dehn-reduced that swap is ``dehn_reduce``'s next step: the closure of a
    word is the closure of its Dehn reduction (see the module docstring).
    Raises ClosureBudgetExceeded past DEFAULT_CLOSURE_BUDGET words.  The
    closure grows exponentially with the word's length: on genus 2,
    (a1 b1 a1' b1')^m took about 0.5 s at m = 12 and 2.6 s at m = 14 (2-vCPU
    host), and at m = 16 the budget stops it after about 1.5-2 s.
    """
    w = tuple(word)
    seen = {w}
    queue = [w]
    for u in queue:
        for cand in _half_swaps(u, relator):
            if len(cand) < len(w):
                return geodesic_closure(cand, relator)
            if cand not in seen:
                seen.add(cand)
                queue.append(cand)
                if len(seen) > DEFAULT_CLOSURE_BUDGET:
                    raise ClosureBudgetExceeded(
                        f"geodesic closure exceeded {DEFAULT_CLOSURE_BUDGET} words"
                    )
    return seen


def surface_canonical(word, relator: SurfaceRelator) -> Word:
    """Lexicographically least word in the half-swap closure of a Dehn-reduced word.

    Letter order is a < a' < b < b' < ...; since words in one closure share a
    length, this is a plain lexicographic minimum.  It costs what
    ``geodesic_closure`` costs, which is exponential in the word's length.
    """
    closure = geodesic_closure(word, relator)
    return min(closure, key=lambda u: tuple(letter_rank(x) for x in u))
