"""Property fuzz of the CLI boundary: random JSON through every file-reading subcommand.

Each example writes one JSON document as a spec file or a `--bcg` table and
runs it through `cli.main`.  Whatever the document, the call must exit 0,
1 (only `verify`, when the bound fails) or 2 (bad input: nothing on stdout
and exactly one `error:` line on stderr), and never raise.  Documents are
built from the spec schemas' key names and tags, so many of them are valid
or one mistake away from it.  Ints stay at most 8 and every enumeration runs
under a tiny `--kmax` plus an element or candidate cap, so no example is slow.
"""

import contextlib
import io
import json

from hypothesis import given, settings, strategies as st

from groupgrowth import cli
from groupgrowth.groups import GROUP_PARAMS, GroupSpec
from groupgrowth.manifold import MANIFOLD_PARAMS, ManifoldSpec

SCHEMAS = {"family": GROUP_PARAMS, "kind": MANIFOLD_PARAMS}
PARAM_NAMES = sorted({name for schema in SCHEMAS.values() for names in schema.values() for name in names})
KEYS = sorted({*SCHEMAS, "params", "label", *PARAM_NAMES})
TAGS = sorted({tag for schema in SCHEMAS.values() for tag in schema})
CHILD = GroupSpec._CHILD + ManifoldSpec._CHILD
CHILDREN = GroupSpec._CHILDREN + ManifoldSpec._CHILDREN

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 8),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=3),
    st.sampled_from(TAGS),
)
junk = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(KEYS), inner, max_size=3),
    max_leaves=8,
)


def _weighted(common, weight, rare):
    """`common` about `weight` times as often as `rare`."""
    return st.sampled_from([common] * weight + [rare]).flatmap(lambda strategy: strategy)


def _param(name, children):
    if name == "matrix":
        good = st.lists(st.lists(st.integers(-3, 3), min_size=2, max_size=2), min_size=2, max_size=2)
    elif name in CHILD:
        good = children
    elif name in CHILDREN:
        good = st.lists(children, max_size=3)
    else:
        good = st.integers(0, 8)
    return _weighted(good, 3, scalars)


def specs(tag_key):
    """Spec objects that follow the schema, with some parameters replaced by junk, or junk."""
    schema = SCHEMAS[tag_key]
    leaves = sorted(tag for tag, names in schema.items() if not set(names) & set(CHILD + CHILDREN))

    def spec(tags, children):
        def for_tag(tag):
            params = st.fixed_dictionaries({name: _param(name, children) for name in schema[tag]})
            return st.fixed_dictionaries(
                {tag_key: st.just(tag), "params": params},
                optional={"label": st.text(max_size=3) | scalars},
            )

        return st.sampled_from(tags).flatmap(for_tag)

    tree = st.recursive(spec(leaves, junk), lambda children: spec(sorted(schema), children), max_leaves=4)
    return _weighted(tree, 3, junk)


numbers = st.integers(-2, 8) | st.floats(allow_nan=True, allow_infinity=True)
bcg_entries = st.tuples(st.sampled_from([2, 3]), st.sampled_from([1, 2]), numbers).map(list)
bcg_tables = _weighted(st.lists(bcg_entries, max_size=3), 3, st.lists(bcg_entries | junk, max_size=3) | junk)

small = st.integers(0, 3).map(str)
GROUP_CALLS = st.one_of(
    st.tuples(st.just("growth"), st.builds(lambda k: ["--kmax", k, "--max-elements", "300"], small)),
    st.tuples(st.just("verify"), st.builds(lambda k: ["--kmax", k, "--max-elements", "300"], small)),
    st.tuples(
        st.just("search"),
        st.builds(
            lambda size, k: ["--set-size", size, "--k", k, "--max-candidates", "3"],
            st.sampled_from(["1", "2"]),
            st.sampled_from(["1", "2"]),
        ),
    ),
    st.tuples(st.just("bound"), st.sampled_from([["--theorem", "surface"], ["--theorem", "free_product"]])),
)
CALLS = st.one_of(
    st.tuples(GROUP_CALLS, specs("family")).map(lambda c: (c[0][0], c[0][1], "--spec", c[1])),
    st.tuples(st.just("classify"), st.just([]), st.just("--spec"), specs("kind")),
    st.tuples(st.just("bound"), st.just(["--theorem", "bcg"]), st.just("--bcg"), bcg_tables),
    st.tuples(st.just("universal"), st.just([]), st.just("--bcg"), bcg_tables),
)


@settings(max_examples=300, deadline=None)
@given(CALLS)
def test_cli_boundary_exit_codes(tmp_path_factory, call):
    command, flags, file_flag, document = call
    path = tmp_path_factory.getbasetemp() / "fuzz-input.json"
    path.write_text(json.dumps(document))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([command, *flags, file_flag, str(path)])
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2)
    if code == 2:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
    else:
        assert code == 0 or command == "verify"
        assert err == ""
        json.loads(out)
