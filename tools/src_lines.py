"""Count the lines of the Python files under src/.

Prints one JSON object: "total", every line, and "code", the lines that
hold a token other than a comment, a blank or a docstring. A token that
spans lines, such as a multi-line string, counts on every line it spans.

    python tools/src_lines.py [ROOT]

ROOT is the repository to count (default: this one); the files counted are
ROOT/src/**/*.py.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_lines(source: str) -> set:
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> dict:
    """{"total": lines, "code": code lines} of one file's source."""
    docs = _docstring_lines(source)
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in docs)
    return {"total": len(source.splitlines()), "code": len(code)}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("root", nargs="?", default=Path(__file__).resolve().parent.parent,
                    type=Path)
    args = ap.parse_args()
    total = {"total": 0, "code": 0}
    for path in sorted((args.root / "src").rglob("*.py")):
        for key, n in count(path.read_text()).items():
            total[key] += n
    print(json.dumps(total))


if __name__ == "__main__":
    main()
