"""The README's examples run: the library quickstart prints what its comments
document, and its `growth` command lines succeed."""

import contextlib
import io
import json
import pathlib
import re
import shlex

import pytest

from groupgrowth import cli

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_library_quickstart_prints_what_it_documents():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Library quickstart\n\n```python\n(.*?)```", text, re.S).group(1)
    assert "# (1, 7, 33, 103, ...)" in block
    assert "# 1.4962... '2^(log L/(log 2 + log L)), L = (3+sqrt(5))/2'" in block
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block, {})
    gamma, _, osin = out.getvalue().splitlines()
    assert gamma.startswith("(1, 7, 33, 103, ")
    value, form = osin.split(" ", 1)
    assert value.startswith("1.4962")
    assert form == "2^(log L/(log 2 + log L)), L = (3+sqrt(5))/2"


def _growth_lines():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Command line\n.*?```sh\n(.*?)```", text, re.S).group(1)
    return [line for line in block.splitlines() if line.startswith("groupgrowth growth ")]


def test_readme_has_growth_lines():
    assert len(_growth_lines()) >= 2


@pytest.mark.parametrize("line", _growth_lines())
def test_readme_growth_line_exits_zero(line, tmp_path, monkeypatch):
    # every growth line reads free2.json and writes next to it
    monkeypatch.chdir(tmp_path)
    (tmp_path / "free2.json").write_text(json.dumps({"family": "free", "params": {"n": 2}}))
    argv = shlex.split(line, comments=True)[1:]
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli.main(argv) == 0
    report = json.loads(out.getvalue())
    assert report["gamma"][:3] == [1, 5, 17]
