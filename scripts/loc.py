#!/usr/bin/env python3
"""Count the lines of each evgraph module: all of them, and code only.

    python3 scripts/loc.py [DIRECTORY]

DIRECTORY defaults to this checkout's src/evgraph.  One row is printed
per module, then a total row.  A code line holds at least one token
that is neither a comment nor a docstring, the first string statement of
a module, class or function (`ast.get_docstring` reads the same one);
blank lines, comment lines and docstring lines are not code.  A line
holding code and a trailing comment counts as code.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_starts(tree: ast.Module) -> set[tuple[int, int]]:
    """(line, column) of each docstring's first character."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.value.lineno, first.value.col_offset))
    return starts


def count(path: Path) -> tuple[int, int]:
    """(all lines, code lines) of one Python file."""
    source = path.read_bytes()
    docstrings = docstring_starts(ast.parse(source))
    code: set[int] = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type in LAYOUT or (tok.type == tokenize.STRING and tok.start in docstrings):
            continue
        code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code)


def main(argv: list[str]) -> int:
    directory = Path(argv[1]) if len(argv) > 1 else ROOT / "src" / "evgraph"
    rows = [(path.name, *count(path)) for path in sorted(directory.glob("*.py"))]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    width = max(len(r[0]) for r in rows)
    print(f"{'module':<{width}}  {'lines':>6}  {'code':>6}")
    for name, lines, code in rows:
        print(f"{name:<{width}}  {lines:>6}  {code:>6}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
