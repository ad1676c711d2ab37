#!/usr/bin/env python
"""Count the lines of Python source that hold code.

Usage: ``python tools/code_lines.py PATH [PATH ...]``

Every ``.py`` file under the given paths (files or directories) is read,
and a line counts when it carries at least one token that is not a
comment. Blank lines, comment-only lines and module, class and function
docstrings are skipped; every other string — including the inner lines of
a multi-line string that is not a docstring — counts as code. The script
prints one ``<count> <path>`` line per file and the total last.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize
from typing import Iterable, List, Set, Tuple

#: Tokens that never make a line count as code.
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_spans(tree: ast.AST) -> List[Tuple[int, int]]:
    """``(first, last)`` line spans of every module/class/function docstring."""
    spans = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            spans.append((first.lineno, first.end_lineno))
    return spans


def count_code_lines(source: str) -> int:
    """Number of lines of ``source`` that hold code."""
    docstrings = _docstring_spans(ast.parse(source))
    lines: Set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _LAYOUT:
            continue
        start, end = token.start[0], token.end[0]
        if any(first <= start and end <= last for first, last in docstrings):
            continue
        lines.update(range(start, end + 1))
    return len(lines)


def python_files(paths: Iterable[str]) -> List[str]:
    """Every ``.py`` file under ``paths``, sorted."""
    found = []
    for path in paths:
        if os.path.isfile(path):
            found.append(path)
            continue
        for root, dirs, files in os.walk(path):
            dirs[:] = [name for name in dirs if name != "__pycache__"]
            found.extend(os.path.join(root, name) for name in files
                         if name.endswith(".py"))
    return sorted(found)


def main(argv: List[str]) -> int:
    if not argv:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    total = 0
    for path in python_files(argv):
        with open(path, encoding="utf-8") as handle:
            count = count_code_lines(handle.read())
        total += count
        print(f"{count:7d} {path}")
    print(f"{total:7d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
