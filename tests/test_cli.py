import json
import math
import sys

import pytest

from groupgrowth import cli


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(argv, capsys):
    code, out, err = run(argv, capsys)
    assert err == ""
    return code, json.loads(out)


@pytest.fixture()
def free2_spec(tmp_path):
    path = tmp_path / "free2.json"
    path.write_text(json.dumps({"family": "free", "params": {"n": 2}}))
    return str(path)


@pytest.fixture()
def tb_spec(tmp_path):
    path = tmp_path / "tb.json"
    path.write_text(json.dumps({"family": "torus_bundle", "params": {"matrix": [[2, 1], [1, 1]]}}))
    return str(path)


# --- growth -----------------------------------------------------------------


def test_growth_report_and_csv(free2_spec, tmp_path, capsys):
    out_csv = tmp_path / "table.csv"
    code, report = run_json(
        ["growth", "--spec", free2_spec, "--kmax", "6", "--out", str(out_csv)], capsys
    )
    assert code == 0
    assert report["gamma"] == [2 * 3 ** k - 1 for k in range(7)]
    assert report["complete"] is True
    assert report["rates"]["verdict"] == "exponential"
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "k,gamma,sigma,root_bound,ratio"
    assert lines[-1].startswith("6,1457,972,")


def test_growth_with_window(free2_spec, capsys):
    code, report = run_json(
        ["growth", "--spec", free2_spec, "--kmax", "6", "--window", "2,6"], capsys
    )
    assert code == 0
    assert report["rates"]["window"] == [2, 6]


def test_growth_window_past_a_budget_cut_reports_the_table_without_a_fit(free2_spec, capsys):
    code, report = run_json(
        ["growth", "--spec", free2_spec, "--kmax", "8", "--window", "4,8", "--max-elements", "1000"],
        capsys,
    )
    assert code == 0
    assert report["complete"] is False
    assert report["gamma"] == [2 * 3 ** k - 1 for k in range(6)]
    assert report["rates"]["window"] is None
    assert report["rates"]["verdict"] == "inconclusive"
    assert report["rates"]["extrapolated_rate"] is None


def test_growth_window_beyond_kmax_exits_two_before_enumerating(free2_spec, capsys, monkeypatch):
    def no_enumeration(*args, **kwargs):
        raise AssertionError("growth_table called")

    monkeypatch.setattr(cli, "growth_table", no_enumeration)
    code, out, err = run(["growth", "--spec", free2_spec, "--kmax", "5", "--window", "2,6"], capsys)
    assert (code, out, err) == (2, "", "error: window end 6 exceeds table kmax 5\n")


def test_growth_budget_flag(free2_spec, capsys):
    code, report = run_json(
        ["growth", "--spec", free2_spec, "--kmax", "8", "--max-elements", "30"], capsys
    )
    assert code == 0
    assert report["complete"] is False
    assert report["gamma"] == [1, 5, 17]


# --- bound -----------------------------------------------------------------


def test_bound_osin(capsys):
    code, report = run_json(["bound", "--theorem", "osin", "--matrix", "2,1,1,1"], capsys)
    assert code == 0
    assert report["theorem"] == "osin_polycyclic"
    assert report["value"] == pytest.approx(1.4962221128, abs=1e-9)
    assert "sqrt(5)" in report["exact_form"]


def test_bound_surface_variants(capsys):
    code, report = run_json(["bound", "--theorem", "surface", "--genus", "2"], capsys)
    assert report["value"] == 5.0
    code, weak = run_json(
        ["bound", "--theorem", "surface", "--genus", "2", "--weak"], capsys
    )
    assert weak["value"] == 3.0


def test_bound_free_product_from_spec(tmp_path, capsys):
    spec = tmp_path / "fp.json"
    spec.write_text(
        json.dumps(
            {
                "family": "free_product",
                "params": {
                    "factors": [
                        {"family": "cyclic", "params": {"m": 2}},
                        {"family": "cyclic", "params": {"m": 2}},
                    ]
                },
            }
        )
    )
    code, report = run_json(["bound", "--theorem", "free_product", "--spec", str(spec)], capsys)
    # infinite dihedral: gates fail but the report still comes back cleanly
    assert code == 0
    assert report["hypotheses_ok"] is False
    assert report["value"] is None


def test_bound_amalgam_and_hnn(capsys):
    code, report = run_json(["bound", "--theorem", "amalgam", "--indices", "3,2"], capsys)
    assert report["value"] == pytest.approx(2 ** 0.25)
    code, report = run_json(["bound", "--theorem", "hnn", "--indices", "inf,1"], capsys)
    assert report["hypotheses_ok"] is True
    code, report = run_json(["bound", "--theorem", "amalgam", "--indices", "inf,1"], capsys)
    assert report["hypotheses_ok"] is False


def test_bound_bcg_and_solvable(tmp_path, capsys):
    table = tmp_path / "bcg.json"
    table.write_text(json.dumps([[3, 1, 0.05]]))
    code, report = run_json(
        ["bound", "--theorem", "bcg", "--bcg", str(table), "--dim", "3", "--pinching", "1"],
        capsys,
    )
    assert report["value"] == pytest.approx(math.exp(0.05))
    code, report = run_json(["bound", "--theorem", "solvable"], capsys)
    assert report["value"] == pytest.approx(2 ** (1 / 6))


# --- verify -----------------------------------------------------------------


def test_verify_passes_torus_bundle(tb_spec, capsys):
    code, report = run_json(["verify", "--spec", tb_spec, "--kmax", "8"], capsys)
    assert code == 0
    assert report["pass"] is True
    assert report["applicable"] is True
    assert report["bound"]["theorem"] == "osin_polycyclic"


def test_growth_and_verify_past_the_float_range(tmp_path, capsys):
    # surface(2) balls leave the float range at k=366; root bounds and fits stay finite
    spec = tmp_path / "surface2.json"
    spec.write_text(json.dumps({"family": "surface", "params": {"genus": 2}}))
    out_csv = tmp_path / "table.csv"
    code, report = run_json(["growth", "--spec", str(spec), "--kmax", "400", "--out", str(out_csv)], capsys)
    assert code == 0
    assert report["rates"]["extrapolated_rate"] == 6.97983577922
    assert out_csv.read_text().splitlines()[-1].startswith(f"400,{report['gamma'][400]},")
    code, report = run_json(["verify", "--spec", str(spec), "--kmax", "400"], capsys)
    assert code == 0 and report["pass"] is True


def test_growth_past_the_int_string_limit_exits_2(tmp_path, capsys):
    # a ball with more decimal digits than Python prints (4300 by default) cannot
    # be written; the call exits 2 with one error line, and the CLI leaves the
    # limit as it is.  Lowered to its floor of 640 here, free(50) passes it near k=320.
    spec = tmp_path / "free50.json"
    spec.write_text(json.dumps({"family": "free", "params": {"n": 50}}))
    out_csv = tmp_path / "table.csv"
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out, err = run(["growth", "--spec", str(spec), "--kmax", "330", "--out", str(out_csv)], capsys)
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 2 and out == "" and not out_csv.exists()
    assert err.startswith("error: Exceeds the limit (640 digits) for integer string conversion")
    assert err.count("\n") == 1


def test_verify_vacuous_when_no_bound_applies(free2_spec, capsys):
    code, report = run_json(["verify", "--spec", free2_spec, "--kmax", "5"], capsys)
    assert code == 0
    assert report["applicable"] is False
    assert report["pass"] is True
    assert report["notes"] == "no applicable lower bound for this family; nothing to check"


@pytest.mark.parametrize(
    "spec, theorem, failed",
    [
        (
            {"family": "free_product", "params": {"factors": [{"family": "cyclic", "params": {"m": 2}}] * 2}},
            "bucher_free_product",
            "not_Z2_star_Z2",
        ),
        (
            {"family": "torus_bundle", "params": {"matrix": [[1, 1], [0, 1]]}},
            "osin_polycyclic",
            "no_modulus_one_eigenvalue",
        ),
    ],
)
def test_verify_note_names_the_theorem_whose_gate_fails(spec, theorem, failed, tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, report = run_json(["verify", "--spec", str(path), "--kmax", "4"], capsys)
    assert code == 0
    assert (report["applicable"], report["pass"]) == (False, True)
    assert report["bound"]["theorem"] == theorem
    assert report["notes"] == f"{theorem} does not apply, its hypotheses fail ({failed}); nothing to check"


def test_verify_failure_exits_one(tb_spec, capsys, monkeypatch):
    from groupgrowth.bounds import BoundReport

    # force an absurd bound to exercise the failure path
    monkeypatch.setattr(
        cli,
        "group_bound",
        lambda spec: BoundReport("osin_polycyclic", True, (), 100.0, "100"),
    )
    code, report = run_json(["verify", "--spec", tb_spec, "--kmax", "4"], capsys)
    assert code == 1
    assert report["pass"] is False


# --- scan, search, classify, universal -----------------------------------------


def test_scan_cli(tmp_path, capsys):
    out_csv = tmp_path / "scan.csv"
    code, report = run_json(["scan", "--entry-bound", "2", "--out", str(out_csv)], capsys)
    assert code == 0
    classes = {c["det"]: c for c in report["classes"]}
    assert classes[1]["min_lambda_exact"] == "(3+sqrt(5))/2"
    assert classes[-1]["min_lambda_exact"] == "(1+sqrt(5))/2"
    assert classes[-1]["lambda_le_2"] is True
    assert classes[-1]["note"]
    lines = out_csv.read_text().splitlines()
    assert lines[0].startswith("det,trace,")
    assert len(lines) == report["hyperbolic_count"] + 1


def test_search_cli(tmp_path, capsys):
    spec = tmp_path / "z.json"
    spec.write_text(json.dumps({"family": "free_abelian", "params": {"n": 1}}))
    code, report = run_json(
        ["search", "--spec", str(spec), "--radius", "2", "--set-size", "1", "--k", "10"],
        capsys,
    )
    assert code == 0
    assert report["candidates_tested"] == 2
    assert report["best"]["u_k"] == pytest.approx(21 ** 0.1)


def test_classify_cli(tmp_path, capsys):
    manifold = tmp_path / "m.json"
    manifold.write_text(
        json.dumps(
            {
                "kind": "connected_sum",
                "params": {
                    "summands": [
                        {"kind": "spherical", "params": {"m": 5}},
                        {"kind": "three_torus", "params": {}},
                    ],
                    "s2xs1_count": 1,
                },
            }
        )
    )
    code, report = run_json(["classify", "--spec", str(manifold)], capsys)
    assert code == 0
    assert report["growth"]["verdict"] == "exponential"
    assert report["growth"]["theorem_tag"] == "bucher_free_product"
    assert report["group"]["family"] == "free_product"


def test_classify_tag_only_kind(tmp_path, capsys):
    manifold = tmp_path / "m.json"
    manifold.write_text(json.dumps({"kind": "twisted_I_bundle_klein_double", "params": {}}))
    code, report = run_json(["classify", "--spec", str(manifold)], capsys)
    assert code == 0
    assert report["group"] is None
    assert report["growth"]["verdict"] == "polynomial"


def _connected_sum_file(tmp_path, *summands):
    path = tmp_path / "m.json"
    pieces = [{"kind": kind, "params": params} for kind, params in summands]
    path.write_text(json.dumps({"kind": "connected_sum", "params": {"summands": pieces}}))
    return str(path)


def test_classify_sum_with_tag_only_summand(tmp_path, capsys):
    spec = _connected_sum_file(
        tmp_path, ("lens_like", {"m": 2}), ("twisted_I_bundle_klein_double", {})
    )
    code, report = run_json(["classify", "--spec", spec], capsys)
    assert code == 0
    assert report["group"] is None
    assert report["growth"] == {
        "verdict": "exponential",
        "lower_bound": 1.41421356237,
        "theorem_tag": "bucher_free_product",
        "notes": "free product of 2 pieces",
    }


@pytest.mark.parametrize("kind", ["spherical", "lens_like"])
def test_classify_rejects_a_trivial_summand(kind, tmp_path, capsys):
    spec = _connected_sum_file(tmp_path, (kind, {"m": 1}), ("three_torus", {}))
    code, out, err = run(["classify", "--spec", spec], capsys)
    assert (code, out) == (2, "")
    assert err == (
        "error: a connected sum summand must have a non-trivial group; "
        "S^3 (spherical or lens_like with m = 1) is the unit of #\n"
    )


def test_universal_cli(tmp_path, capsys):
    code, report = run_json(["universal"], capsys)
    assert code == 0
    assert report["value"] == pytest.approx(2 ** (1 / 6))
    table = tmp_path / "bcg.json"
    table.write_text(json.dumps([[3, 1, 0.05], [2, 1, 0.05]]))
    code, report = run_json(["universal", "--bcg", str(table)], capsys)
    assert report["value"] == pytest.approx(math.exp(0.05))
    code, report = run_json(["universal", "--bcg", str(table), "--no-bcg"], capsys)
    assert report["value"] == pytest.approx(2 ** (1 / 6))


def test_out_flag_duplicates_report(tmp_path, capsys):
    out = tmp_path / "u.json"
    code, report = run_json(["universal", "--out", str(out)], capsys)
    assert code == 0
    assert json.loads(out.read_text()) == report


# --- error handling --------------------------------------------------------------


def test_missing_file_exits_two(capsys):
    code, out, err = run(["growth", "--spec", "no-such-file.json", "--kmax", "3"], capsys)
    assert code == 2
    assert "error:" in err


def test_malformed_json_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out, err = run(["growth", "--spec", str(bad), "--kmax", "3"], capsys)
    assert code == 2


THREE_TORUS = {"kind": "three_torus"}


@pytest.mark.parametrize(
    "argv, spec, word",
    [
        (["growth", "--kmax", "3"], {"family": "surface", "params": {"genus": 1}}, "genus"),
        (["growth", "--kmax", "3"], {"family": "free_product", "params": {"factors": 5}}, "factors"),
        (["classify"], {"kind": "connected_sum", "params": {"summands": 5}}, "summands"),
        (
            ["classify"],
            {"kind": "connected_sum", "params": {"summands": [THREE_TORUS] * 2, "s2xs1_count": "x"}},
            "s2xs1_count",
        ),
        (["growth", "--kmax", "3"], {"family": "free", "params": {"n": 2}, "label": ["x"]}, "label"),
        (["growth", "--kmax", "3"], {"family": "free", "params": {"n": 2}, "label": {"x": 1}}, "label"),
        (["classify"], {**THREE_TORUS, "label": ["x"]}, "label"),
        (["classify"], {**THREE_TORUS, "label": {"x": 1}}, "label"),
        (["growth", "--kmax", "3"], {"family": "trivial", "params": {"m": 3}}, "takes no parameter 'm'"),
        (["growth", "--kmax", "3"], {"family": "free", "params": {"n": 2}, "lable": "F2"}, "'lable'"),
        (["classify"], {**THREE_TORUS, "params": {"g": 2}}, "takes no parameter 'g'"),
        (["classify"], {**THREE_TORUS, "lable": "T3"}, "'lable'"),
        (["growth", "--kmax", "3"], {"family": ["x"]}, "unknown family"),
        (["growth", "--kmax", "3"], {"family": {}}, "unknown family"),
        (["classify"], {"kind": ["x"]}, "unknown manifold kind"),
        (["classify"], {"kind": {}}, "unknown manifold kind"),
    ],
    ids=["genus", "factors", "summands", "s2xs1_count", "growth-list-label", "growth-dict-label",
         "classify-list-label", "classify-dict-label", "growth-unknown-param", "growth-unknown-key",
         "classify-unknown-param", "classify-unknown-key", "growth-list-family", "growth-dict-family",
         "classify-list-kind", "classify-dict-kind"],
)
def test_invalid_spec_exits_two(tmp_path, capsys, argv, spec, word):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(spec))
    code, out, err = run(argv + ["--spec", str(bad)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert word in err


@pytest.mark.parametrize("command", ["growth", "verify"])
def test_too_deep_spec_exits_two(command, tmp_path, capsys):
    # 500 nested products pass Python's recursion limit: in the JSON decoder on
    # Python 3.10 and 3.11, while the spec is read on 3.12 and 3.13
    text = '{"family": "free", "params": {"n": 1}}'
    for _ in range(500):
        text = '{"family": "direct_product_with_Z", "params": {"inner": ' + text + "}}"
    path = tmp_path / "deep.json"
    path.write_text(text)
    code, out, err = run([command, "--spec", str(path), "--kmax", "1"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: maximum recursion depth exceeded") and err.count("\n") == 1


def test_too_deeply_nested_json_exits_two(tmp_path, capsys):
    path = tmp_path / "nested.json"
    path.write_text("[" * 100000 + "]" * 100000)
    code, out, err = run(["growth", "--spec", str(path), "--kmax", "1"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: maximum recursion depth exceeded") and err.count("\n") == 1


@pytest.mark.parametrize(
    "text",
    ["[" * 400 + "]" * 400, json.dumps(list(range(100000))), json.dumps({"family": "x" * 100000})],
    ids=["nested", "long", "long-family"],
)
def test_malformed_spec_message_is_bounded(text, tmp_path, capsys):
    # the message echoes the start of the input, not all of it
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, out, err = run(["growth", "--spec", str(path), "--kmax", "1"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert len(err) < 300 and err.endswith("...\n")


def test_out_of_memory_exits_two_with_a_named_error(free2_spec, capsys, monkeypatch):
    # a MemoryError carries no message; the CLI names it
    def make_group(spec):
        raise MemoryError

    monkeypatch.setattr(cli, "make_group", make_group)
    code, out, err = run(["growth", "--spec", free2_spec, "--kmax", "3"], capsys)
    assert (code, out, err) == (2, "", "error: out of memory\n")


def test_osin_bound_on_large_entries(capsys):
    # tr = 1000000095 and det = 1, so the radicand is 1000000093 * 1000000097, a
    # product of two primes that trial division to its square root would not finish
    code, report = run_json(["bound", "--theorem", "osin", "--matrix", "1000000094,1,1000000093,1"], capsys)
    assert code == 0 and report["hypotheses_ok"] is True
    assert report["exact_form"] == "2^(log L/(log 2 + log L)), L = (1000000095+sqrt(1000000190000009021))/2"


def test_bad_matrix_string_exits_two(capsys):
    code, out, err = run(["bound", "--theorem", "osin", "--matrix", "2,1,1"], capsys)
    assert code == 2
    code, out, err = run(["bound", "--theorem", "osin"], capsys)
    assert code == 2


def test_unknown_theorem_exits_two(capsys):
    code, out, err = run(["bound", "--theorem", "fermat"], capsys)
    assert code == 2


def test_bad_window_exits_two(free2_spec, capsys):
    code, out, err = run(
        ["growth", "--spec", free2_spec, "--kmax", "6", "--window", "nope"], capsys
    )
    assert code == 2


def test_bool_spec_parameter_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    for argv, spec in (
        (["growth", "--kmax", "3"], {"family": "cyclic", "params": {"m": True}}),
        (["classify"], {"kind": "spherical", "params": {"m": True}}),
    ):
        bad.write_text(json.dumps(spec))
        code, out, err = run(argv + ["--spec", str(bad)], capsys)
        assert code == 2
        assert out == ""


@pytest.mark.parametrize("entries", [[5], [[2, 1]], [["a", 1, 0.3]]], ids=str)
def test_malformed_bcg_table_exits_two(tmp_path, capsys, entries):
    table = tmp_path / "bcg.json"
    table.write_text(json.dumps(entries))
    for argv in (["universal", "--bcg", str(table)], ["bound", "--theorem", "bcg", "--bcg", str(table)]):
        code, out, err = run(argv, capsys)
        assert code == 2
        assert err.startswith("error: BCG table entries") and err.count("\n") == 1


@pytest.mark.parametrize("text,shown", [("[[3, 1, true]]", "True"), ('[[3, 1, "x"]]', "'x'")])
def test_bcg_constant_of_the_wrong_type_exits_two(tmp_path, capsys, text, shown):
    # one type rule for c, the table builder's, on both paths that load a table
    table = tmp_path / "bcg.json"
    table.write_text(text)
    for argv in (["universal", "--bcg", str(table)], ["bound", "--theorem", "bcg", "--bcg", str(table)]):
        code, out, err = run(argv, capsys)
        assert code == 2
        assert out == ""
        assert err == f"error: constant for (3, 1) must be positive, got {shown}\n"


@pytest.mark.parametrize("text", ["[[3, 1, 800]]", "[[3, 1, Infinity]]", "[[3, 1, 1e400]]"])
def test_bcg_constant_without_finite_exponential_exits_two(tmp_path, capsys, text):
    table = tmp_path / "bcg.json"
    table.write_text(text)
    for argv in (["universal", "--bcg", str(table)], ["bound", "--theorem", "bcg", "--bcg", str(table)]):
        code, out, err = run(argv, capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: constant for (3, 1)") and err.count("\n") == 1


SEARCH = ["search", "--set-size", "1", "--k", "2"]


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["growth", "--kmax", "3", "--max-elements", "-5"], "--max-elements"),
        (["growth", "--kmax", "3", "--max-elements", "0"], "--max-elements"),
        (["growth", "--kmax", "3", "--max-seconds", "-1"], "--max-seconds"),
        (["growth", "--kmax", "3", "--max-seconds", "nan"], "--max-seconds"),
        (["verify", "--kmax", "3", "--max-elements", "0"], "--max-elements"),
        (["verify", "--kmax", "3", "--max-seconds", "-1"], "--max-seconds"),
        (["verify", "--kmax", "3", "--max-seconds", "nan"], "--max-seconds"),
        (SEARCH + ["--radius", "-1"], "--radius"),
        (SEARCH + ["--max-candidates", "-1"], "--max-candidates"),
        (SEARCH + ["--max-seconds", "-1"], "--max-seconds"),
        (SEARCH + ["--max-seconds", "nan"], "--max-seconds"),
    ],
    ids=["growth-max-elements-neg", "growth-max-elements-0", "growth-max-seconds-neg", "growth-max-seconds-nan",
         "verify-max-elements-0", "verify-max-seconds-neg", "verify-max-seconds-nan", "search-radius-neg",
         "search-max-candidates-neg", "search-max-seconds-neg", "search-max-seconds-nan"],
)
def test_flag_below_floor_exits_two(free2_spec, capsys, argv, flag):
    code, out, err = run(argv + ["--spec", free2_spec], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {flag} must be >= ") and err.count("\n") == 1


def test_flag_at_floor_is_accepted(free2_spec, capsys):
    code, report = run_json(["growth", "--spec", free2_spec, "--kmax", "3", "--max-elements", "1"], capsys)
    assert code == 0 and report["gamma"] == [1]
    code, report = run_json(SEARCH + ["--spec", free2_spec, "--radius", "0", "--max-candidates", "0"], capsys)
    assert code == 0 and report["candidates_tested"] == 0


@pytest.mark.parametrize(
    "flag, value",
    [("--dim", "-1"), ("--dim", "1"), ("--pinching", "nan"), ("--pinching", "0.5"), ("--pinching", "-1")],
)
def test_bcg_flag_below_floor_exits_two(capsys, flag, value):
    code, out, err = run(["bound", "--theorem", "bcg", flag, value], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {flag} must be >= ") and err.count("\n") == 1


def test_bcg_flags_at_floor_are_accepted(capsys):
    code, report = run_json(["bound", "--theorem", "bcg", "--dim", "2", "--pinching", "1"], capsys)
    assert code == 0
    assert report["hypothesis_detail"] == [["constant_supplied", False, "no c(2,1.0) in table"]]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["growth", "--spec", "x.json", "--kmax", "nan"], "argument --kmax: invalid int value: 'nan'"),
        (["bound", "--theorem", "bcg", "--pinching", "x"], "argument --pinching: invalid float value: 'x'"),
        (["scan"], "the following arguments are required: --entry-bound"),
        (["scan", "--entry-bound", "1", "--bogus"], "unrecognized arguments: --bogus"),
        ([], "the following arguments are required: command"),
    ],
    ids=["int-nan", "float-junk", "missing-flag", "unknown-flag", "no-command"],
)
def test_unparseable_command_line_is_one_error_line(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("argv", [["--help"], ["growth", "--help"]])
def test_help_prints_usage_and_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 0
    assert captured.out.startswith("usage: groupgrowth")
    assert captured.err == ""


def test_repeated_bcg_key_exits_two(tmp_path, capsys):
    table = tmp_path / "bcg.json"
    table.write_text(json.dumps([[3, 1, 0.1], [3, 1, 0.5]]))
    for argv in (["universal", "--bcg", str(table)], ["bound", "--theorem", "bcg", "--bcg", str(table)]):
        code, out, err = run(argv, capsys)
        assert code == 2
        assert out == ""
        assert err == "error: BCG table has two entries for (n, a) = (3, 1)\n"


def test_verify_kmax_below_one_exits_two(tb_spec, capsys):
    code, out, err = run(["verify", "--spec", tb_spec, "--kmax", "0"], capsys)
    assert code == 2
    assert "--kmax must be >= 1" in err
    code, out, err = run(["verify", "--spec", tb_spec, "--kmax", "3", "--max-elements", "1"], capsys)
    assert code == 2
    assert "budget ran out before sphere 1" in err


def test_closure_budget_exhaustion_exits_two(tmp_path, capsys, monkeypatch):
    from groupgrowth import groups
    from groupgrowth.errors import ClosureBudgetExceeded

    def exhausted(*args):
        raise ClosureBudgetExceeded("geodesic closure exceeded 20000 words")

    monkeypatch.setattr(groups, "surface_canonical", exhausted)
    spec = tmp_path / "zs2.json"
    spec.write_text(json.dumps(
        {"family": "direct_product_with_Z", "params": {"inner": {"family": "surface", "params": {"genus": 2}}}}
    ))
    code, out, err = run(["growth", "--spec", str(spec), "--kmax", "4"], capsys)
    assert code == 2
    assert out == ""
    assert err == "error: geodesic closure exceeded 20000 words\n"


# --- determinism ------------------------------------------------------------------


def test_growth_stdout_is_deterministic(free2_spec, capsys):
    _, out1, _ = run(["growth", "--spec", free2_spec, "--kmax", "6"], capsys)
    _, out2, _ = run(["growth", "--spec", free2_spec, "--kmax", "6"], capsys)
    assert out1 == out2


def test_scan_stdout_is_deterministic(capsys):
    _, out1, _ = run(["scan", "--entry-bound", "2"], capsys)
    _, out2, _ = run(["scan", "--entry-bound", "2"], capsys)
    assert out1 == out2
