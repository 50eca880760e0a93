"""Count the lines and logic lines of each module under src/.

Run from the repository root:

    python tests/src_lines.py
    python tests/src_lines.py --against REV

A logic line is a line holding a code token. Comments, blank lines and
docstrings (the leading string of a module, class or function) are left
out; every other token counts on each line it spans. With --against, each
module is also counted as it stands at the git revision REV (read with
`git show REV:<path>`), and the difference to the working tree is printed;
a module missing on one side counts as 0 there. pytest does not collect
this file: its name does not start with test_.
"""

from __future__ import annotations

import argparse
import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
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


def _git(*args: str) -> str:
    return subprocess.run(("git", *args), cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout


def counts_at(rev: str | None) -> dict[str, tuple[int, int]]:
    """(lines, logic lines) of each module under src/, keyed by its path below src/,
    in the working tree (rev None) or at the git revision rev."""
    if rev is None:
        return {str(path.relative_to(SRC)): count(path.read_text())
                for path in sorted(SRC.rglob("*.py"))}
    paths = _git("ls-tree", "-r", "--name-only", rev, "--", "src").split()
    return {path[len("src/"):]: count(_git("show", f"{rev}:{path}"))
            for path in sorted(paths) if path.endswith(".py")}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="REV", help="also count src/ at git revision REV")
    args = parser.parse_args(argv)
    now = counts_at(None)
    if args.against is None:
        for name, (lines, logic) in now.items():
            print(f"{lines:6,} {logic:6,}  {name}")
        lines, logic = map(sum, zip(*now.values()))
        print(f"{lines:6,} {logic:6,}  total (lines, logic lines)")
        return 0
    try:
        before = counts_at(args.against)
    except subprocess.CalledProcessError as exc:
        print(f"git failed: {exc.stderr.strip()}", file=sys.stderr)
        return 2
    rows = {name: (*before.get(name, (0, 0)), *now.get(name, (0, 0)))
            for name in sorted(before.keys() | now.keys())}
    rows["total"] = tuple(map(sum, zip(*rows.values())))
    print(f"{'at ' + args.against:>13}  {'now':>13}  {'difference':>13}")
    print(f"{'lines':>6} {'logic':>6}  " * 3)
    for name, (lines0, logic0, lines1, logic1) in rows.items():
        print(f"{lines0:6,} {logic0:6,}  {lines1:6,} {logic1:6,}  "
              f"{lines1 - lines0:+6,} {logic1 - logic0:+6,}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
