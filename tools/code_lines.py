"""Count the code lines of Python files: lines that hold a token other than a
comment, outside module, class and function docstrings. Blank lines,
comment-only lines and docstrings do not count.

    python tools/code_lines.py src/bctlab            # per file and total
    python tools/code_lines.py src/bctlab/cli.py ...
    python tools/code_lines.py --defs src/bctlab     # and per top-level def and class
    python tools/code_lines.py --help                # this text

With no path, src is counted. An unknown option, a missing path or a
file that is not Python source exits 2 with a one-line error, before any
count is printed.

With --defs, each file's line is followed by one indented line per
top-level def and class, decorators included, counted by the same rule.

A reader that closes the pipe early (| head -1) ends the count quietly,
with exit status 1.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize
from pathlib import Path

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
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def _code_line_numbers(source: str, tree: ast.AST) -> set[int]:
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return lines - _docstring_lines(tree)


def code_lines(source: str) -> int:
    """The number of code lines in one module's source text."""
    return len(_code_line_numbers(source, ast.parse(source)))


def def_code_lines(source: str) -> list[tuple[str, int]]:
    """(name, code lines) of each top-level def and class, in source order."""
    tree = ast.parse(source)
    lines = _code_line_numbers(source, tree)
    out = []
    for node in tree.body:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            start = min([node.lineno] + [d.lineno for d in node.decorator_list])
            out.append((node.name, sum(start <= i <= node.end_lineno for i in lines)))
    return out


def main(argv: list[str]) -> int:
    try:
        status = _main(argv)
        sys.stdout.flush()  # so a reader gone away shows here, not at exit
        return status
    except BrokenPipeError:
        # the text left in the buffer goes to /dev/null at exit, quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


def _main(argv: list[str]) -> int:
    if "-h" in argv or "--help" in argv:
        print(__doc__.strip())
        return 0
    defs = "--defs" in argv
    args = [a for a in argv if a != "--defs"] or ["src"]
    for arg in args:
        problem = "unknown option" if arg.startswith("-") else None
        if problem is None and not Path(arg).exists():
            problem = "no such file or directory"
        if problem:
            print(f"code_lines.py: error: {problem}: {arg}", file=sys.stderr)
            return 2
    files = []
    for arg in args:
        path = Path(arg)
        files += sorted(path.rglob("*.py")) if path.is_dir() else [path]
    counted = []
    for path in files:
        try:
            source = path.read_text(encoding="utf-8")
            counted.append((path, code_lines(source), def_code_lines(source) if defs else []))
        except (SyntaxError, ValueError):  # UnicodeDecodeError is a ValueError
            print(f"code_lines.py: error: not Python source: {path}", file=sys.stderr)
            return 2
    for path, count, per_def in counted:
        print(f"{count:6d}  {path}")
        for name, n in per_def:
            print(f"{n:6d}    {name}")
    print(f"{sum(count for _, count, _ in counted):6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
