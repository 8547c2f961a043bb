import pytest
from hypothesis import given, strategies as st

from groupgrowth.words import (
    cancel_seam,
    free_reduce,
    format_word,
    invert,
    letter_rank,
    parse_word,
)

letters = st.integers(min_value=-4, max_value=4).filter(lambda x: x != 0)
words = st.lists(letters, max_size=12).map(tuple)


def test_free_reduce_examples():
    assert free_reduce(()) == ()
    assert free_reduce((1, -1)) == ()
    assert free_reduce((1, 2, -2, -1)) == ()
    assert free_reduce((1, 2, -2, 3)) == (1, 3)
    # cancellation can cascade through the pop
    assert free_reduce((1, 2, -2, -1, 1)) == (1,)


@given(words)
def test_free_reduce_idempotent(w):
    r = free_reduce(w)
    assert free_reduce(r) == r


@given(words)
def test_free_reduce_no_adjacent_inverse_pair(w):
    r = free_reduce(w)
    assert all(r[i] != -r[i + 1] for i in range(len(r) - 1))


@given(words)
def test_word_times_inverse_is_trivial(w):
    assert free_reduce(w + invert(w)) == ()
    assert invert(invert(w)) == tuple(w)


@given(words, words, words)
def test_cancel_seam_equals_free_reduce_on_reduced_words(u, v, c):
    # the shared middle c makes the seam cancel several letters deep
    a, b = free_reduce(u + c), free_reduce(invert(c) + v)
    assert cancel_seam(a, b) == free_reduce(a + b)


def test_letter_rank_order():
    # a < a' < b < b' < ...
    ranked = sorted([1, -1, 2, -2, 3], key=letter_rank)
    assert ranked == [1, -1, 2, -2, 3]


def test_parse_word_names_and_inverses():
    assert parse_word("a b a' b'", ["a", "b"]) == (1, 2, -1, -2)
    assert parse_word("", ["a"]) == ()
    with pytest.raises(ValueError):
        parse_word("c", ["a", "b"])
    # a comma is no separator: "a1," names no generator, so b1 is not dropped
    with pytest.raises(ValueError):
        parse_word("a1, b1", ["a1", "b1"])


def test_format_word():
    assert format_word((), ["a", "b"]) == "1"
    assert format_word((1, 2, -1, -2), ["a", "b"]) == "a b a' b'"


@given(st.lists(letters, min_size=1, max_size=12).map(tuple))
def test_parse_format_roundtrip(w):
    # identity formats as "1", which is not parseable; nonempty words roundtrip
    names = ["a", "b", "c", "d"]
    assert parse_word(format_word(w, names), names) == tuple(w)
