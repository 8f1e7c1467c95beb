"""Definitions of the ``segmix`` package that nothing reaches.

Lists each public name (one that ``segmix/__init__.py`` imports) and each
private top-level function or class of ``src/segmix`` that has no use in
the package beyond its own definition and ``__init__.py``, and none in
``perfbench/``, ``demos/`` or ``tests/test_acceptance.py``. A use is a
name, attribute or import that :mod:`ast` finds, so a mention in a
docstring or comment is not one. Exits 1 if it lists anything.
Standard library only::

    python tools/reach.py [CHECKOUT_DIR]
"""

from __future__ import annotations

import ast
import sys
from collections import defaultdict
from pathlib import Path
from typing import Iterator

ROOT = Path(__file__).resolve().parent.parent


def uses(tree: ast.AST) -> Iterator[tuple[str, int]]:
    """(identifier, line) of every name, attribute and imported name in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            yield from ((alias.name, node.lineno) for alias in node.names)


def unreached(root: Path) -> list[str]:
    """``module.name`` of every unreached definition of the checkout at ``root``."""
    package = root / "src" / "segmix"
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    public = {alias.name for node in trees.pop("__init__").body
              if isinstance(node, ast.ImportFrom) for alias in node.names}
    callers = [*(root / "perfbench").rglob("*.py"), *(root / "demos").rglob("*.py"),
               root / "tests" / "test_acceptance.py"]
    outside = {name for path in callers for name, _ in uses(ast.parse(path.read_text()))}
    inside = defaultdict(list)  # identifier -> (module, line) of each use in the package
    for module, tree in trees.items():
        for name, line in uses(tree):
            inside[name].append((module, line))
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                    or not (node.name.startswith("_") or node.name in public):
                continue
            own = range(node.lineno, node.end_lineno + 1)
            if node.name not in outside and all(
                    at == module and line in own for at, line in inside[node.name]):
                found.append(f"{module}.{node.name}")
    return found


def main(argv: list[str]) -> int:
    found = unreached(Path(argv[0]) if argv else ROOT)
    for name in found:
        print(name)
    print(f"{len(found)} unreached definition(s)")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
