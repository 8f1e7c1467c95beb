"""Line counts of the ``segmix`` package: physical lines and code lines.

A code line is a line that is not blank, not a comment only, and not part
of a docstring (the leading string of a module, class or function, found
with :mod:`ast`). Prints one row per module of ``src/segmix`` and a total.
Standard library only::

    python tools/loc.py [PACKAGE_DIR]
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "segmix"


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers every docstring of ``tree`` spans."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
                    and isinstance(body[0].value.value, str):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(path: Path) -> tuple[int, int]:
    """Physical lines and code lines of one source file."""
    text = path.read_text()
    lines = text.splitlines()
    skip = docstring_lines(ast.parse(text))
    code = sum(
        1 for number, line in enumerate(lines, start=1)
        if number not in skip and line.strip() and not line.strip().startswith("#")
    )
    return len(lines), code


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else PACKAGE
    rows = [(path.name, *count(path)) for path in sorted(package.glob("*.py"))]
    width = max(len(name) for name, _, _ in rows + [("total", 0, 0)])
    print(f"{'module':<{width}}  {'lines':>6}  {'code':>6}")
    for name, lines, code in rows:
        print(f"{name:<{width}}  {lines:>6}  {code:>6}")
    print(f"{'total':<{width}}  {sum(r[1] for r in rows):>6}  {sum(r[2] for r in rows):>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
