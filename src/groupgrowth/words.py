"""Words over a finite inverse-closed alphabet.

A word is a tuple of nonzero integers: letter ``i+1`` is the i-th generator,
``-(i+1)`` its inverse.  The empty tuple is the identity.  Letters are ordered
a < a' < b < b' < ... (generator before its inverse).
"""

from __future__ import annotations

import re

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


def format_word(word, names=None) -> str:
    """Render a word as space-separated letters, apostrophe for inverses.

    The empty word renders as "1".
    """
    if not word:
        return "1"
    parts = []
    for x in word:
        name = names[abs(x) - 1] if names else ALPHABET[abs(x) - 1]
        parts.append(name if x > 0 else name + "'")
    return " ".join(parts)


_NAME_RE = re.compile(r"[a-z][a-z0-9_]*")


def parse_presentation(text: str) -> tuple[list[str], list[Word]]:
    """Parse a presentation in the text form ``"a,b | a b a' b'"``.

    Generators are comma-separated lowercase names before the bar; relators
    are comma-separated after it, each a whitespace-separated sequence of
    generator names with an optional trailing apostrophe for the inverse.
    The bar and relator list may be omitted for a free group.
    """
    head, _, tail = text.partition("|")
    gen_names = [g.strip() for g in head.split(",") if g.strip()]
    if not gen_names:
        raise ValueError("presentation needs at least one generator")
    for g in gen_names:
        if not _NAME_RE.fullmatch(g):
            raise ValueError(f"bad generator name: {g!r}")
    if len(set(gen_names)) != len(gen_names):
        raise ValueError("duplicate generator name")
    index = {g: i + 1 for i, g in enumerate(gen_names)}

    relators: list[Word] = []
    for chunk in tail.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        letters = []
        for term in chunk.split():
            inverse = term.endswith("'")
            name = term[:-1] if inverse else term
            if name not in index:
                raise ValueError(f"unknown generator {name!r} in relator {chunk!r}")
            letters.append(-index[name] if inverse else index[name])
        relators.append(tuple(letters))
    return gen_names, relators


def parse_word(text: str, gen_names) -> Word:
    """Parse a single word in the relator syntax against the given generators."""
    _, relators = parse_presentation(",".join(gen_names) + " | " + text)
    return relators[0] if relators else ()
