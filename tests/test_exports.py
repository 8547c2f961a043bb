import ast
import pathlib

import groupgrowth


def test_export_list_resolves():
    # a stale name left in __all__ breaks `from groupgrowth import *` and nothing else
    names = groupgrowth.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(groupgrowth, name)] == []
    namespace = {}
    exec("from groupgrowth import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(names)


ROOT = pathlib.Path(__file__).resolve().parent.parent
# code outside tests/ that may use the package: its own modules, the demos and the benchmark
USERS = (
    *(p for p in sorted((ROOT / "src" / "groupgrowth").glob("*.py")) if p.name != "__init__.py"),
    *sorted((ROOT / "demos").glob("*.py")),
    *sorted((ROOT / "perfbench").glob("*.py")),
)


def references(node, own=frozenset()) -> set[str]:
    """Names read under `node`, as a bare name or an attribute, outside their own definition."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        own = own | {node.name}
    elif isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        own = own | {t.id for t in targets if isinstance(t, ast.Name)}
    found = set()
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        found.add(node.id)
    elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        found.add(node.attr)
    found -= own
    for child in ast.iter_child_nodes(node):
        found |= references(child, own)
    return found


def test_every_export_has_a_user_outside_tests():
    # an export that only tests reach is library surface kept for its own sake
    used = set()
    for path in USERS:
        used |= references(ast.parse(path.read_text(encoding="utf-8")))
    assert sorted(set(groupgrowth.__all__) - used) == []
