"""The README's library quickstart runs and prints what its comments document."""

import contextlib
import io
import pathlib
import re

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
