"""The traced benchmark round patches package names by getattr; they must all resolve.

`perfbench/layers.py` wraps module attributes such as `groups.dehn_reduce`
and `cli.make_group`.  Renaming one breaks only a traced benchmark run, so
this test installs and removes the real `LayerTrace` on the package, which
fails with the missing name.
"""

import pathlib
import sys
import types

import pytest

from groupgrowth import GroupSpec, bounds, cayley, cli, groups, make_group, manifold, surface, words

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
MODULES = (bounds, cayley, cli, groups, manifold, surface, words)


@pytest.fixture
def trace(monkeypatch):
    """perfbench's LayerTrace on the package, not yet installed."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # perfbench/ stays untouched
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from layers import LayerTrace

    return LayerTrace(types.SimpleNamespace(**{m.__name__.rsplit(".", 1)[1]: m for m in MODULES}))


def test_layer_trace_installs_and_removes_cleanly(trace):
    before = [dict(vars(m)) for m in MODULES]
    # surface(2) alone is counted from its series; inside Z x surface(2) it runs BFS
    handle = make_group(GroupSpec.direct_product_with_Z(GroupSpec.surface(2)))
    trace.install([handle])
    try:
        table = cayley.growth_table(handle, handle.default_generators(), 4)
    finally:
        trace.remove()
    assert [dict(vars(m)) for m in MODULES] == before
    assert "mul" not in vars(handle)
    # the surface spans see the calls, so groups still looks them up by name
    assert table.complete and trace.tracer.calls("groups.mul") > 0
    assert trace.tracer.calls("surface.dehn") > 0
    assert trace.tracer.calls("surface.canonical") > 0


def test_search_looks_up_is_generating_through_cayley(trace):
    # handle.generates cannot decide on surface(2), so search checks each
    # candidate with is_generating; the span sees those calls only if search
    # reads the name from cayley's globals, where LayerTrace patches it
    handle = make_group(GroupSpec.surface(2))
    trace.install([handle])
    try:
        report = cayley.search_generating_sets(handle, candidate_radius=1, set_size=4, k=2)
    finally:
        trace.remove()
    assert report.per_candidate
    assert trace.tracer.calls("cayley.is_generating") == report.candidates_tested
