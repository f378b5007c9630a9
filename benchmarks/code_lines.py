#!/usr/bin/env python3
"""Count the code lines of the torcob package: no blanks, comments or docstrings.

    python3 benchmarks/code_lines.py [SRC_DIR]

SRC_DIR defaults to ``src/torcob`` beside this script's directory.  A line
counts when it holds a token of code; a docstring (a string that is the
first statement of a module, class or function) counts as no line.  Prints
one line per module, then the total.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENDMARKER,
}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree) -> set:
    """The line numbers covered by the docstrings of a module's tree."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body and isinstance(node.body[0], ast.Expr):
            first = node.body[0]
            if isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                out.update(range(first.lineno, first.end_lineno + 1))
    return out


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold code."""
    skip = docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in skip)
    return len(lines)


def main(argv) -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    src = argv[1] if len(argv) > 1 else os.path.join(here, os.pardir, "src", "torcob")
    total = 0
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as f:
                n = code_lines(f.read())
            total += n
            print(f"{name:16} {n:6,}")
    print(f"{'total':16} {total:6,}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
