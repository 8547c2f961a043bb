"""Golden replay of recorded CLI calls for every subcommand.

`data/cli_golden.json` holds, per call, its input files, its argv (with
`{dir}` standing for the directory the files are written to) and the exit
code, stdout and stderr it gave when recorded, with the directory written
back as `{dir}`.  A call that writes an `--out` file also records the file's
text under `out_files`.  The test replays each call through `cli.main` and
demands all of it back unchanged.  The numbers of the heisenberg recordings
and of most other `growth` and `verify` recordings are also checked against
references in `oracles`.

After an intended output change, re-record the outputs from the same inputs
with `PYTHONPATH=src python tests/test_cli_golden.py`.
"""

from __future__ import annotations

import io
import itertools
import json
import math
import pathlib
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest

from groupgrowth import GroupSpec, cli, make_group

import oracles

DATA = pathlib.Path(__file__).with_name("data") / "cli_golden.json"
CASES = json.loads(DATA.read_text(encoding="utf-8"))


def replay(case: dict, directory: pathlib.Path) -> dict:
    """Exit code, stdout, stderr and written files of one recorded call, run in `directory`."""
    for name, content in case["files"].items():
        (directory / name).write_text(json.dumps(content), encoding="utf-8")
    argv = [a.replace("{dir}", str(directory)) for a in case["argv"]]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejections
            code = exc.code
    result = {
        "code": code,
        "stdout": out.getvalue().replace(str(directory), "{dir}"),
        "stderr": err.getvalue().replace(str(directory), "{dir}"),
    }
    written = {
        path.name: path.read_text(encoding="utf-8")
        for path in sorted(directory.iterdir())
        if path.name not in case["files"]
    }
    if written:
        result["out_files"] = written
    return result


@pytest.mark.parametrize("case", CASES, ids=[c["id"] for c in CASES])
def test_cli_call_replays_its_recording(case, tmp_path):
    expected = {key: case[key] for key in ("code", "stdout", "stderr", "out_files") if key in case}
    assert replay(case, tmp_path) == expected


def series_inverse(series, kmax):
    """Coefficients 0..kmax of 1/series, for an integer series with constant term 1."""
    out = [1]
    for k in range(1, kmax + 1):
        out.append(-sum(series[j] * out[k - j] for j in range(1, k + 1)))
    return out


def test_heisenberg_recordings_match_the_column_counter():
    # the recorded heisenberg numbers against the column-height counter in
    # `oracles`, which shares no code with the package's series, and the
    # free product also against naive BFS
    ids = ("growth-heisenberg-k100", "verify-heisenberg", "growth-heisenberg-z2-k6")
    cases = {case["id"]: json.loads(case["stdout"]) for case in CASES if case["id"] in ids}
    sigma = oracles.heisenberg_column_spheres(100)

    growth = cases["growth-heisenberg-k100"]
    assert growth["complete"] and growth["kmax"] == 100
    assert growth["sigma"] == list(sigma)
    assert growth["gamma"] == list(itertools.accumulate(sigma))

    verify = cases["verify-heisenberg"]
    gamma = list(itertools.accumulate(sigma[:6]))
    assert verify["complete"] and verify["kmax"] == 5
    assert verify["min_root_bound"] == pytest.approx(min(gamma[k] ** (1 / k) for k in range(1, 6)), abs=1e-11)

    # 1/S = 1/S_heisenberg + 1/S_Z2 - 1 on the union of the letters
    product = cases["growth-heisenberg-z2-k6"]
    inverse = [a + b for a, b in zip(series_inverse(sigma, 6), series_inverse((1, 1, 0, 0, 0, 0, 0), 6))]
    inverse[0] -= 1
    expected = series_inverse(inverse, 6)
    assert product["complete"] and product["sigma"] == expected
    assert product["gamma"] == list(itertools.accumulate(expected))
    handle = make_group(GroupSpec.free_product(GroupSpec.heisenberg(), GroupSpec.cyclic(2)))
    assert tuple(product["gamma"]) == oracles.naive_ball_sizes(handle, handle.default_generators().elements, 6)


def flag(argv, name):
    return int(argv[argv.index(name) + 1]) if name in argv else None


def naive_reference(case):
    handle = make_group(GroupSpec.from_dict(case["files"]["spec.json"]))
    return map(len, oracles.naive_balls(handle, handle.default_generators().elements, flag(case["argv"], "--kmax")))


def test_recorded_tables_match_independent_references():
    """The gamma, `complete` and `min_root_bound` of recorded `growth` and
    `verify` calls against references in `oracles` that never run the
    package's series division.  Unaudited: `growth-surface2-k5` and
    `growth-surface3-k4`, as `surface_class_count` takes 26.8 s and 7.1 s on
    them; the heisenberg recordings are audited above."""
    surface2 = [oracles.surface_class_count(2, k)[0] for k in range(5)]
    # 1/S = 1/S_surface + 1/S_Z2 + 1/S_Z3 - 2, over the audited surface spheres
    sigma = [1, *(b - a for a, b in zip(surface2, surface2[1:]))]
    inverse = [sum(terms) for terms in zip(*(series_inverse(s, 4) for s in (sigma, (1, 1, 0, 0, 0), (1, 2, 0, 0, 0))))]
    inverse[0] -= 2
    references = {
        **dict.fromkeys(
            ("verify-free2", "growth-free2-out", "growth-free2-window", "growth-free2-window-budget-cut"),
            lambda case: (oracles.free_ball(2, k) for k in itertools.count()),
        ),
        **dict.fromkeys(("growth-trivial", "growth-cyclic1"), lambda case: itertools.repeat(1)),
        "verify-z2-z2": lambda case: map(oracles.dihedral_ball, itertools.count()),
        **dict.fromkeys(
            (
                "verify-z2-z3",
                "verify-z2-z2-z2",
                "growth-z2-z2-z2-max-elements",
                "verify-z3-z",
                "growth-free-product-name-collision",
            ),
            naive_reference,
        ),
        **dict.fromkeys(("verify-surface2", "growth-surface2-truncated"), lambda case: surface2),
        "verify-surface2-z2-z3": lambda case: itertools.accumulate(series_inverse(inverse, 4)),
    }
    cases = {case["id"]: case for case in CASES}
    for case_id, reference in references.items():
        case = cases[case_id]
        kmax, cap = flag(case["argv"], "--kmax"), flag(case["argv"], "--max-elements") or math.inf
        gamma = []
        for ball in itertools.islice(reference(case), kmax + 1):
            if ball > cap:
                break
            gamma.append(ball)
        # a complete table reaches kmax; a cut one stops below the first ball past the cap
        complete = len(gamma) == kmax + 1
        assert complete or ball > cap, case_id
        report = json.loads(case["stdout"])
        assert (report["kmax"], report["complete"]) == (len(gamma) - 1, complete), case_id
        if case["argv"][0] == "growth":
            assert report["gamma"] == gamma, case_id
            assert report["sigma"] == [1, *(b - a for a, b in zip(gamma, gamma[1:]))], case_id
        else:
            # stdout keeps 12 significant digits
            roots = [gamma[k] ** (1 / k) for k in range(1, kmax + 1)]
            assert report["min_root_bound"] == pytest.approx(min(roots), rel=1e-11), case_id


if __name__ == "__main__":
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            case.pop("out_files", None)
            case.update(replay(case, pathlib.Path(tmp)))
    DATA.write_text(json.dumps(CASES, indent=1) + "\n", encoding="utf-8")
