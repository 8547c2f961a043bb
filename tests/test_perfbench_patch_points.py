"""The traced benchmark round patches package names by getattr; they must all resolve.

`perfbench/layers.py` wraps module attributes such as `groups.dehn_reduce`
and `cli.make_group`.  Renaming one breaks only a traced benchmark run, so
this test installs and removes the real `LayerTrace` on the package, which
fails with the missing name.
"""

import pathlib
import sys
import types

from groupgrowth import GroupSpec, bounds, cayley, cli, groups, make_group, manifold, surface, words

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
MODULES = (bounds, cayley, cli, groups, manifold, surface, words)


def test_layer_trace_installs_and_removes_cleanly(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # perfbench/ stays untouched
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from layers import LayerTrace

    gg = types.SimpleNamespace(**{m.__name__.rsplit(".", 1)[1]: m for m in MODULES})
    before = [dict(vars(m)) for m in MODULES]
    # surface(2) alone is counted from its series; inside Z x surface(2) it runs BFS
    handle = make_group(GroupSpec.direct_product_with_Z(GroupSpec.surface(2)))
    trace = LayerTrace(gg)
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
