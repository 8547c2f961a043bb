import pytest
from hypothesis import given, settings, strategies as st

from groupgrowth import GroupSpec, make_group, surface
from groupgrowth.errors import ClosureBudgetExceeded
from groupgrowth.surface import (
    SurfaceRelator,
    dehn_reduce,
    geodesic_closure,
    surface_canonical,
)
from groupgrowth.words import free_reduce, invert

import oracles

R2 = SurfaceRelator(2)
R2_VARIANTS = oracles.surface_relator_variants(2)

letters4 = st.integers(min_value=-4, max_value=4).filter(lambda x: x != 0)
words4 = st.lists(letters4, max_size=10).map(tuple)
# single letters and relator pieces longer than half, so that words often hold
# overlapping Dehn matches, where the choice of match changes the output
_pieces = [(x,) for x in range(-4, 5) if x] + [
    v[a:b]
    for v in R2_VARIANTS
    for a in range(len(v))
    for b in range(a + R2.half + 1, len(v) + 1)
]
piece_words4 = st.lists(st.sampled_from(_pieces), max_size=5).map(lambda ps: sum(ps, ()))


def test_relator_layout():
    assert R2.relator == (1, 2, -1, -2, 3, 4, -3, -4)
    assert R2.half == 4
    assert len(R2._half_swap) == 16
    # all length-2 prefixes of variants are distinct (small cancellation)
    assert len({v[:2] for v in R2_VARIANTS}) == 16


def test_relator_reduces_to_identity():
    for v in R2_VARIANTS:
        assert dehn_reduce(v, R2) == ()


def test_more_than_half_subword_is_shortened():
    w = (1, 2, -1, -2, 3)  # 5 > half of the relator, complement has 3 letters
    out = dehn_reduce(w, R2)
    assert len(out) == 3
    assert oracles.surface_equal_ref(w, out, 2)


def test_exactly_half_is_left_alone_by_dehn():
    half = R2.relator[:4]
    assert dehn_reduce(half, R2) == half


def test_half_swap_closure_pairs():
    half = (1, 2, -1, -2)
    closure = geodesic_closure(half, R2)
    assert closure == {(1, 2, -1, -2), (4, 3, -4, -3)}
    assert surface_canonical(half, R2) == (1, 2, -1, -2)
    # both members map to the same canonical word
    assert surface_canonical((4, 3, -4, -3), R2) == (1, 2, -1, -2)


def test_generic_word_has_singleton_closure():
    w = (1, 3)
    assert geodesic_closure(w, R2) == {w}


def test_closure_budget_raises(monkeypatch):
    monkeypatch.setattr(surface, "DEFAULT_CLOSURE_BUDGET", 1)
    with pytest.raises(ClosureBudgetExceeded):
        geodesic_closure((1, 2, -1, -2), R2)


def test_closure_budget_stops_an_exponential_closure():
    # (a1 b1 a1' b1')^16 passes the real budget after a second or two; its
    # closure grows exponentially with m, and m = 14 already takes seconds
    handle = make_group(GroupSpec.surface(2))
    with pytest.raises(ClosureBudgetExceeded, match=f"exceeded {surface.DEFAULT_CLOSURE_BUDGET} words"):
        handle.mul((), (1, 2, -1, -2) * 16)


def test_genus_three_relator():
    r3 = SurfaceRelator(3)
    assert len(r3._half_swap) == 24
    assert dehn_reduce(r3.relator * 2, r3) == ()


def test_genus_below_two_rejected():
    with pytest.raises(ValueError):
        SurfaceRelator(1)


@settings(max_examples=200, deadline=None)
@given(st.one_of(words4, piece_words4))
def test_dehn_reduce_matches_reference(w):
    ours = dehn_reduce(free_reduce(w), R2)
    assert len(ours) <= len(free_reduce(w))
    # both replace the leftmost, longest match, so they agree word for word
    assert ours == oracles.dehn_reduce_ref(w, 2)


@pytest.mark.parametrize("genus, max_len", [(2, 5), (3, 4)])
def test_dehn_reduce_equals_reference_on_all_short_words(genus, max_len):
    relator = SurfaceRelator(genus)
    for w in oracles.freely_reduced_words(2 * genus, max_len):
        assert dehn_reduce(w, relator) == oracles.dehn_reduce_ref(w, genus), w


def test_closure_equals_closure_of_dehn_reduction_on_all_short_words():
    for w in oracles.freely_reduced_words(4, 6):
        assert geodesic_closure(w, R2) == geodesic_closure(dehn_reduce(w, R2), R2), w


@settings(max_examples=200, deadline=None)
@given(piece_words4)
def test_closure_equals_closure_of_dehn_reduction(w):
    w = free_reduce(w)
    assert geodesic_closure(w, R2) == geodesic_closure(dehn_reduce(w, R2), R2)


def test_closure_restarts_from_a_shorter_word():
    # a1 b1 a1' b1' b2' a1 b1 a1' is Dehn-reduced, but a half swap inside its
    # closure cancels, so the closure restarts and ends at length 6
    w = (1, 2, -1, -2, -4, 1, 2, -1)
    assert dehn_reduce(w, R2) == w == oracles.dehn_reduce_ref(w, 2)
    assert {len(u) for u in geodesic_closure(w, R2)} == {6}
    canon = surface_canonical(w, R2)
    assert len(canon) == 6
    assert oracles.surface_equal_ref(canon, w, 2)


@settings(max_examples=40, deadline=None)
@given(words4)
def test_canonical_constant_on_closures(w):
    reduced = dehn_reduce(free_reduce(w), R2)
    closure = geodesic_closure(reduced, R2)
    canon = surface_canonical(reduced, R2)
    assert canon in closure or len(canon) < len(reduced)
    for u in closure:
        assert surface_canonical(u, R2) == canon


@settings(max_examples=40, deadline=None)
@given(words4)
def test_canonical_word_represents_the_same_element(w):
    reduced = dehn_reduce(free_reduce(w), R2)
    canon = surface_canonical(reduced, R2)
    assert oracles.surface_equal_ref(canon, tuple(w), 2)


def test_inverse_through_canonical():
    w = (1, 2, 3)
    canon = surface_canonical(dehn_reduce(w, R2), R2)
    inv = surface_canonical(dehn_reduce(invert(canon), R2), R2)
    assert oracles.surface_equal_ref(free_reduce(canon + inv), (), 2)
