import groupgrowth


def test_export_list_resolves():
    # a stale name left in __all__ breaks `from groupgrowth import *` and nothing else
    names = groupgrowth.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(groupgrowth, name)] == []
    namespace = {}
    exec("from groupgrowth import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(names)
