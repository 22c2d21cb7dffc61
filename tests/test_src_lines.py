"""The source line counter (``tools/src_lines.py``)."""

from __future__ import annotations

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("src_lines", ROOT / "tools" / "src_lines.py")
src_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(src_lines)

MODULE = '''"""Module docstring,
over two lines."""

# a comment

X = """not a docstring"""


class A:
    """Class docstring."""

    def f(self):  # a trailing comment is code
        """Method
        docstring."""
        return 1
'''


def test_each_line_falls_in_one_column():
    # code: X, class, def, return; docstrings: 2 + 1 + 2 lines; the other six
    # lines are blank or a comment
    assert src_lines.counts(MODULE) == (4, 5, 6)


def test_counts_cover_every_line_of_the_package():
    for path in sorted(src_lines.SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        assert sum(src_lines.counts(text)) == len(text.splitlines()), path.name
