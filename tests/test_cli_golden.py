"""Golden replay of recorded CLI calls for every subcommand.

`data/cli_golden.json` holds, per call, its input files, its argv (with
`{dir}` standing for the directory the files are written to) and the exit
code, stdout and stderr it gave when recorded, with the directory written
back as `{dir}`.  A call that writes an `--out` file also records the file's
text under `out_files`.  The test replays each call through `cli.main` and
demands all of it back unchanged.

After an intended output change, re-record the outputs from the same inputs
with `PYTHONPATH=src python tests/test_cli_golden.py`.
"""

from __future__ import annotations

import io
import json
import pathlib
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest

from groupgrowth import cli

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


if __name__ == "__main__":
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            case.pop("out_files", None)
            case.update(replay(case, pathlib.Path(tmp)))
    DATA.write_text(json.dumps(CASES, indent=1) + "\n", encoding="utf-8")
