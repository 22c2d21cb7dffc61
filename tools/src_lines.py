"""Print the line counts of each module in ``src/vhfl_lab``, split three ways.

Every line of a module falls in exactly one column:

- ``docstring``: a line of a module, class or function docstring, as ``ast``
  finds them, from its first line to its last;
- ``comment/blank``: any other line that is blank or holds only a comment;
- ``code``: every other line.

The last row holds the totals, which add up to ``wc -l src/vhfl_lab/*.py``:

    python tools/src_lines.py
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "vhfl_lab"
_OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set[int]:
    """The 1-based numbers of the lines that docstrings in ``tree`` span."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, _OWNERS) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def counts(text: str) -> tuple[int, int, int]:
    """The (code, docstring, comment/blank) line counts of a module's source."""
    docs = docstring_lines(ast.parse(text))
    code = comment = 0
    for number, line in enumerate(text.splitlines(), start=1):
        if number in docs:
            continue
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            comment += 1
        else:
            code += 1
    return code, len(docs), comment


def main() -> int:
    rows = [(path.name, *counts(path.read_text(encoding="utf-8"))) for path in sorted(SRC.glob("*.py"))]
    rows.append(("total", *(sum(column) for column in list(zip(*rows))[1:])))
    width = max(len(name) for name, *_ in rows)
    print(f"{'module':<{width}}  {'code':>6}  {'docstring':>9}  {'comment/blank':>13}  {'lines':>6}")
    for name, code, doc, comment in rows:
        print(f"{name:<{width}}  {code:>6}  {doc:>9}  {comment:>13}  {code + doc + comment:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
