"""Count the lines and logic lines of each module under src/.

Run from the repository root:

    python tests/src_lines.py

A logic line is a line holding a code token. Comments, blank lines and
docstrings (the leading string of a module, class or function) are left
out; every other token counts on each line it spans. pytest does not collect
this file: its name does not start with test_.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text: str) -> tuple[int, int]:
    """(lines, logic lines) of one module's source."""
    docstrings = _docstring_lines(ast.parse(text))
    logic: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in _NOT_CODE:
            logic.update(range(token.start[0], token.end[0] + 1))
    return len(text.splitlines()), len(logic - docstrings)


def main() -> int:
    total_lines = total_logic = 0
    for path in sorted(SRC.rglob("*.py")):
        lines, logic = count(path.read_text())
        total_lines += lines
        total_logic += logic
        print(f"{lines:6,} {logic:6,}  {path.relative_to(SRC)}")
    print(f"{total_lines:6,} {total_logic:6,}  total (lines, logic lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
