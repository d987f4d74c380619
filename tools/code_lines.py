"""Count the code lines of each src/hnttmark module and their total.

A code line is a non-blank line that is not a `#` comment and not inside a
module, class or function docstring.  Standard library only.

    python tools/code_lines.py [package directory]
"""

import ast
import sys
from pathlib import Path

_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set[int]:
    """The 1-based line numbers covered by the docstrings in tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _DOCUMENTED) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(getattr(first.value, "value", None), str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    skip = docstring_lines(ast.parse(source))
    return sum(
        1
        for number, line in enumerate(source.splitlines(), 1)
        if line.strip() and not line.lstrip().startswith("#") and number not in skip
    )


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "hnttmark"
    total = 0
    for path in sorted(package.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print("%5d  %s" % (count, path.name))
    print("%5d  total" % total)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
