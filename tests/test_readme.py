"""The README's library example runs as printed."""

import contextlib
import io
import re
import shutil
from pathlib import Path

from featflow import compute_first, format_pair, format_roots, parse_category, parse_grammar, query
from support import fixture_path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    """The first ``python`` block under the README's "## Library"."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("\n## Library\n"):]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_the_library_example_prints_the_first_pairs_and_answers_its_query(tmp_path, monkeypatch):
    grammar = tmp_path / "grammar.gr"
    shutil.copy(fixture_path("fig1.gr"), grammar)
    monkeypatch.chdir(tmp_path)
    out, names = io.StringIO(), {}
    with contextlib.redirect_stdout(out):
        exec(compile(library_example(), str(README), "exec"), names)
    first, _ = compute_first(parse_grammar(grammar.read_text(encoding="utf-8")))
    pairs = [format_pair(p) for p in first]
    assert len(pairs) == 8
    assert out.getvalue().splitlines() == pairs
    assert format_roots(query(names["first"], parse_category("VP[agr=sg]"))) == ["vtra[agr=sg, ter=+]"]
