"""Property fuzz of the CLI boundary: random JSON files and random flag values.

The first test writes one JSON document as a spec file or a `--bcg` table
and runs it through `cli.main`; the second runs a valid spec through random
values of the flags themselves.  Whatever the input, the call must exit 0,
1 (only `verify`, when the bound fails) or 2 (bad input: nothing on stdout
and exactly one `error:` line on stderr), and never raise.  Documents are
built from the spec schemas' key names and tags, so many of them are valid
or one mistake away from it.  Flag values are drawn from negatives, 0, nan,
inf, small ints and tokens argparse cannot parse (nan and junk for int
flags, junk for float flags); a value below its floor or one that does not
parse must exit 2.  Ints stay at most 8, every enumeration runs under a
tiny `--kmax`, and random specs and every search also under an element or
candidate cap, so no example is slow.
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


def _run_checked(argv) -> int:
    """Run `cli.main` on argv, assert the exit contract and return the code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejected the command line
            code = exc.code
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2)
    if code == 2:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
    else:
        assert code == 0 or argv[0] == "verify"
        assert err == ""
        json.loads(out)
    return code


@settings(max_examples=300, deadline=None)
@given(CALLS)
def test_cli_boundary_exit_codes(tmp_path_factory, call):
    command, flags, file_flag, document = call
    path = tmp_path_factory.getbasetemp() / "fuzz-input.json"
    path.write_text(json.dumps(document))
    _run_checked([command, *flags, file_flag, str(path)])


# --- flags ----------------------------------------------------------------------------

# valid specs whose balls stay small at the radii drawn below
FLAG_SPECS = [
    {"family": "trivial", "params": {}},
    {"family": "cyclic", "params": {"m": 3}},
    {"family": "free", "params": {"n": 2}},
    {"family": "free_abelian", "params": {"n": 2}},
    {"family": "surface", "params": {"genus": 2}},
    {"family": "heisenberg", "params": {}},
    {"family": "torus_bundle", "params": {"matrix": [[2, 1], [1, 1]]}},
    {"family": "free_product", "params": {"factors": [{"family": "cyclic", "params": {"m": 2}},
                                                      {"family": "cyclic", "params": {"m": 3}}]}},
]
# least legal value of each budget, cap and BCG flag; a value below it (or nan) must exit 2
FLOORS = {
    "--max-elements": 1,
    "--max-seconds": 0,
    "--max-candidates": 0,
    "--radius": 0,
    "--dim": 2,
    "--pinching": 1,
}
INT_FLAGS = {"--kmax", "--k", "--entry-bound", "--max-elements", "--max-candidates", "--radius", "--set-size",
             "--genus", "--dim"}
FLOAT_FLAGS = {"--max-seconds", "--pinching"}
UNPARSEABLE = ["x", "1.5", "", "2e"]

ints = _weighted(st.integers(-2, 3).map(str), 6, st.sampled_from(["nan", *UNPARSEABLE]))
# argparse reads "-inf" as an option, so the negatives here are numerals
floats = _weighted(st.sampled_from(["-1", "-0.5", "0", "0.5", "2", "nan", "inf"]), 6, st.sampled_from(UNPARSEABLE))
tokens = st.sampled_from(["-1", "0", "1", "2", "3", "5", "inf", "nan", "oo", "x", "", " 2"])


def flag(name, values):
    return values.map(lambda value: [name, value])


def maybe(flag_list):
    """The flag, or no flag at all."""
    return st.just([]) | flag_list


def joined(name, min_size, max_size):
    """`name=t1,t2,...` as one argument, since argparse reads a bare "-1,2" as an option."""
    return st.lists(tokens, min_size=min_size, max_size=max_size).map(lambda ts: [f"{name}={','.join(ts)}"])


def argv(command, *flag_lists):
    return st.tuples(*flag_lists).map(lambda lists: [command, *(item for part in lists for item in part)])


budget = (maybe(flag("--max-elements", ints)), maybe(flag("--max-seconds", floats)))
SPEC_CALLS = st.one_of(
    argv("growth", flag("--kmax", ints), *budget, maybe(joined("--window", 1, 3))),
    argv("verify", flag("--kmax", ints), *budget),
    argv(
        "search",
        flag("--set-size", st.sampled_from(["-1", "0", "1", "2"])),
        flag("--k", ints),
        maybe(flag("--radius", st.sampled_from(["-2", "-1", "0", "1"]))),
        flag("--max-candidates", ints),
        maybe(flag("--max-seconds", floats)),
    ),
)
OTHER_CALLS = st.one_of(
    argv("bound", st.just(["--theorem", "osin"]), joined("--matrix", 3, 5)),
    argv("bound", st.sampled_from([["--theorem", "amalgam"], ["--theorem", "hnn"]]), joined("--indices", 1, 3)),
    argv("bound", st.just(["--theorem", "surface"]), flag("--genus", st.integers(-2, 5).map(str)),
         st.sampled_from([[], ["--weak"]])),
    argv("bound", st.just(["--theorem", "bcg"]), flag("--dim", ints), flag("--pinching", floats)),
    argv("scan", flag("--entry-bound", ints)),
)


def _parses(value, kind) -> bool:
    try:
        kind(value)
    except ValueError:
        return False
    return True


def _must_fail(args) -> bool:
    """A flag value that does not parse, or that lies below its floor."""
    for name, value in zip(args, args[1:]):
        if name in INT_FLAGS and not _parses(value, int):
            return True
        if name in FLOAT_FLAGS and not _parses(value, float):
            return True
        if name in FLOORS and not float(value) >= FLOORS[name]:
            return True
    return False


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.tuples(SPEC_CALLS, st.sampled_from(FLAG_SPECS)), st.tuples(OTHER_CALLS, st.none())))
def test_cli_flag_exit_codes(tmp_path_factory, call):
    args, spec = call
    if spec is not None:
        path = tmp_path_factory.getbasetemp() / "fuzz-spec.json"
        path.write_text(json.dumps(spec))
        args = [*args, "--spec", str(path)]
    code = _run_checked(args)
    if _must_fail(args):
        assert code == 2
