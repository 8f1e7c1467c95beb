"""Statement coverage of ``src/segmix`` under pytest, standard library only::

    python tools/cover.py [PYTEST_ARGS]   # from the repository root

Given no test path, pytest runs pyproject's ``testpaths``. One tracer (:func:`sys.settrace`,
:func:`threading.settrace`) records the lines run in ``src/segmix`` and follows no other
frame. Statements are those :mod:`ast` finds, less
docstrings (read as ``tools/loc.py`` reads them) and ``def``, ``class``, import, ``try`` and
``global`` lines; one ran when a line that no statement nested in it spans ran. Prints each
module's statements run / statements and missed lines, a total, and pytest's exit status,
which is also this tool's. Child processes (sweep ``--jobs`` workers, the demos, ``python -m
segmix``) are not traced, and the tracer slows what it times: timing gates such as
``test_criterion_6_mix_ratio_distribution`` and ``test_criterion_8_mixing_overhead`` can fail.
"""

import ast
import sys
import threading
from pathlib import Path

import pytest

from loc import PACKAGE, docstring_lines

_NOT_RUN = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom,
            ast.Try, ast.Global, ast.Nonlocal)


def owners(path: Path) -> dict[int, int]:
    """Line -> first line of the innermost statement spanning it (0: one not counted)."""
    tree = ast.parse(path.read_text())
    docstrings, owner = docstring_lines(tree), {}
    for node in ast.walk(tree):  # breadth first: a nested statement takes its lines over
        if isinstance(node, ast.stmt):
            counted = not isinstance(node, _NOT_RUN) and node.lineno not in docstrings
            span = range(node.lineno, node.end_lineno + 1)
            owner.update(dict.fromkeys(span, counted and node.lineno))
    return owner


def main(argv: list[str]) -> int:
    prefix, ran = f"{PACKAGE}/", set()

    def trace(frame, event, arg):  # a frame outside the package gets no line tracer
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return trace if frame.f_code.co_filename.startswith(prefix) else None

    sys.path.insert(0, str(PACKAGE.parent))
    threading.settrace(trace)
    sys.settrace(trace)
    status = int(pytest.main(argv))
    sys.settrace(None)
    threading.settrace(None)
    run = total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        owner = owners(path)
        counted = set(filter(None, owner.values()))
        done = {owner[n] for name, n in ran if name == str(path) and owner.get(n)}
        run, total = run + len(done), total + len(counted)
        missed = " ".join(map(str, sorted(counted - done)))
        print(f"{path.name:<18} {len(done):>5} / {len(counted):<5} {missed}")
    print(f"{'total':<18} {run:>5} / {total}")
    print(f"pytest exit status {status}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
