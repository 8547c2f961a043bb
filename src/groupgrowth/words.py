"""Words over a finite inverse-closed alphabet.

A word is a tuple of nonzero integers: letter ``i+1`` is the i-th generator,
``-(i+1)`` its inverse.  The empty tuple is the identity.  Letters are ordered
a < a' < b < b' < ... (generator before its inverse).
"""

from __future__ import annotations

Word = tuple[int, ...]

ALPHABET = "abcdefghijklmnopqrstuvwxyz"


def free_reduce(word) -> Word:
    """Cancel adjacent inverse pairs until none remain."""
    out: list[int] = []
    for x in word:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def cancel_seam(a: Word, b: Word) -> Word:
    """Free reduction of ``a + b``, cancelling only where the two words meet.

    Precondition: ``a`` and ``b`` are both free-reduced tuples.  Then the
    only inverse pairs in ``a + b`` sit across the seam, and peeling them off
    from the seam outwards gives exactly ``free_reduce(a + b)``.  On a word
    that is not free-reduced the result may keep inverse pairs.
    """
    i, j = len(a), 0
    while i and j < len(b) and a[i - 1] == -b[j]:
        i -= 1
        j += 1
    return a[:i] + b[j:]


def invert(word) -> Word:
    return tuple(-x for x in reversed(word))


def letter_rank(letter: int) -> int:
    """Total order on letters: a < a' < b < b' < ..."""
    return 2 * (abs(letter) - 1) + (0 if letter > 0 else 1)


def format_word(word, names) -> str:
    """Render a word as space-separated letters of ``names``, apostrophe for inverses.

    The empty word renders as "1".
    """
    if not word:
        return "1"
    parts = []
    for x in word:
        name = names[abs(x) - 1]
        parts.append(name if x > 0 else name + "'")
    return " ".join(parts)


def parse_word(text: str, gen_names) -> Word:
    """Parse whitespace-separated generator names, each with an optional ' for the inverse.

    Any other token (a comma, an unknown name) raises ValueError.
    """
    index = {name: i + 1 for i, name in enumerate(gen_names)}
    letters = []
    for term in text.split():
        inverse = term.endswith("'")
        name = term[:-1] if inverse else term
        if name not in index:
            raise ValueError(f"unknown generator {name!r} in word {text!r}")
        letters.append(-index[name] if inverse else index[name])
    return tuple(letters)
