"""Count the code lines of Python sources.

A code line is a non-blank line that carries a token other than a comment,
and is not part of a docstring (the string that opens a module, class or
function body).  Lines inside other multi-line strings count.

Run it on a file or a directory, which is searched for ``*.py``::

    python tests/code_lines.py src/pmvroots
"""

from __future__ import annotations

import ast
import io
import pathlib
import sys
import tokenize

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
    tokenize.ENCODING,
}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count_source(source: str) -> int:
    """The number of code lines in one module's source text."""
    text_lines = source.splitlines()
    carried = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            carried.update(range(tok.start[0], tok.end[0] + 1))
    carried -= _docstring_lines(ast.parse(source))
    return sum(1 for n in carried if text_lines[n - 1].strip())


def count_path(path: pathlib.Path) -> int:
    """The code lines of a file, or of every ``*.py`` below a directory."""
    files = sorted(path.rglob("*.py")) if path.is_dir() else [path]
    return sum(count_source(f.read_text(encoding="utf-8")) for f in files)


if __name__ == "__main__":
    for arg in sys.argv[1:] or ["src/pmvroots"]:
        print(f"{count_path(pathlib.Path(arg))} {arg}")
