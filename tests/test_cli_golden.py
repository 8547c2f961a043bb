"""Golden replay of recorded CLI calls for every subcommand.

`data/cli_golden.json` holds, per call, its input files, its argv (with
`{dir}` standing for the directory the files are written to) and the exit
code, stdout and stderr it gave when recorded, with the directory written
back as `{dir}`.  A call that writes an `--out` file also records the file's
text under `out_files`.  The test replays each call through `cli.main` and
demands all of it back unchanged.  The heisenberg recordings are also
checked against references in `oracles`.

After an intended output change, re-record the outputs from the same inputs
with `PYTHONPATH=src python tests/test_cli_golden.py`.
"""

from __future__ import annotations

import io
import itertools
import json
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


if __name__ == "__main__":
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            case.pop("out_files", None)
            case.update(replay(case, pathlib.Path(tmp)))
    DATA.write_text(json.dumps(CASES, indent=1) + "\n", encoding="utf-8")
