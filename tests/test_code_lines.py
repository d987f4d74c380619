"""tools/code_lines.py: the code-line count that size figures rest on."""

import ast
import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "code_lines", Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

_SOURCE = '''"""Module docstring,
over two lines."""

# a comment
import os  # counted: code before the comment


class A:
    """Class docstring."""

    def f(self):
        """Function docstring,
        over two lines.
        """
        x = 1
        "a string expression that is not the first statement"
        return x


async def g():
    """Async function docstring."""
    if os:
        """The first statement of an if body is no docstring."""
    return 2
'''


def test_code_lines_skips_blanks_comments_and_docstrings():
    # counted: import, class, def, x = 1, the later string, return x,
    # async def, if, the string in the if body, return 2
    assert code_lines.code_lines(_SOURCE) == 10
    assert code_lines.docstring_lines(ast.parse(_SOURCE)) == {1, 2, 9, 12, 13, 14, 21}


def test_code_lines_counts_a_source_without_docstrings_line_by_line():
    assert code_lines.code_lines("x = 1\n\n  # indented comment\ny = '''a\nb'''\n") == 3
    assert code_lines.code_lines("") == 0


def _printed(capsys) -> dict:
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert all(len(row) == 2 for row in rows)
    return {name: int(count) for count, name in rows}


def test_main_prints_each_module_and_their_sum(tmp_path, capsys):
    (tmp_path / "a.py").write_text(_SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n")
    (tmp_path / "notes.txt").write_text("not a module\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert _printed(capsys) == {"a.py": 10, "b.py": 1, "total": 11}


def test_main_totals_the_package_by_default(capsys):
    assert code_lines.main([]) == 0
    counts = _printed(capsys)
    total = counts.pop("total")
    assert "watermark.py" in counts and total == sum(counts.values()) > 0
