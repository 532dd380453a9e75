"""Code size of the package and the names it defines that nothing else reads.

Run from the repository root: python3 tools/code_stats.py

The first table gives the code lines of each module of src/ymseries and
their total: a line counts when it holds a token of code, so blank lines,
comments and docstrings do not.

The second lists the functions, classes and methods defined in src/ whose
name is used nowhere else in src/ or bench/.  A function or class counts
as used where its name is another identifier; a method, where its name
follows a "."; either, where it is a string literal such as
"exactalg.series_expand" or a dotted part of one.  A listed name is
reached, if at all, only from tests or from outside the package.  Dunder
methods are left out, as Python calls them by protocol.

The script only reports; it exits 0 whatever the numbers.
"""

from __future__ import annotations

import ast
import io
import re
import sys
import tokenize
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ymseries"
SCANNED = (ROOT / "src", ROOT / "bench")
SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def docstring_lines(tree: ast.AST) -> set:
    """The line numbers that module, class and function docstrings span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def tokens(source: str):
    return list(tokenize.generate_tokens(io.StringIO(source).readline))


def code_lines(source: str) -> int:
    docs = docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokens(source):
        if tok.type not in SKIPPED:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def definitions(tree: ast.AST, module: str):
    """(qualified name, bare name, is a method) of every function, class and method."""
    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                yield f"{prefix}.{child.name}", child.name, isinstance(node, ast.ClassDef)
                yield from walk(child, f"{prefix}.{child.name}")
            else:
                yield from walk(child, prefix)

    yield from walk(tree, module)


def name_counts(path: Path) -> tuple:
    """How often each identifier occurs, and how often after a ".", in code
    and in f-string fields; a string literal that is a dotted name counts
    each part in both."""
    source = path.read_text()
    docs = docstring_lines(ast.parse(source))
    names, attributes = Counter(), Counter()
    previous = None
    for tok in tokens(source):
        if tok.type == tokenize.NAME:
            names[tok.string] += 1
            if previous == ".":
                attributes[tok.string] += 1
        elif tok.type == tokenize.STRING and tok.start[0] not in docs:
            literal = ast.parse(tok.string, mode="eval").body
            if isinstance(literal, ast.JoinedStr):
                # an f-string: the names in its fields are code
                for node in ast.walk(literal):
                    if isinstance(node, ast.Name):
                        names[node.id] += 1
                    elif isinstance(node, ast.Attribute):
                        names[node.attr] += 1
                        attributes[node.attr] += 1
            elif isinstance(literal.value, str) and DOTTED.fullmatch(literal.value):
                names.update(literal.value.split("."))
                attributes.update(literal.value.split("."))
        if tok.type not in SKIPPED:
            previous = tok.string
    return names, attributes


def main() -> int:
    modules = sorted(PACKAGE.glob("*.py"))
    sizes = {path.stem: code_lines(path.read_text()) for path in modules}
    print("code lines in src/ymseries (no blank lines, comments or docstrings)")
    for name, size in sorted(sizes.items(), key=lambda item: (-item[1], item[0])):
        print(f"  {name:<12} {size:>5}")
    print(f"  {'total':<12} {sum(sizes.values()):>5}")

    names, attributes = Counter(), Counter()
    for top in SCANNED:
        for path in sorted(top.rglob("*.py")):
            found, dotted = name_counts(path)
            names += found
            attributes += dotted
    defined = [d for path in modules for d in definitions(ast.parse(path.read_text()), path.stem)]
    # each definition spells its own name once
    times_defined = Counter(bare for _, bare, _ in defined)
    unread = [
        qualified
        for qualified, bare, method in defined
        if not (bare.startswith("__") and bare.endswith("__"))
        and (not attributes[bare] if method else names[bare] <= times_defined[bare])
    ]
    print()
    print("defined in src/ and named nowhere else in src/ or bench/")
    for qualified in unread:
        print(f"  {qualified}")
    if not unread:
        print("  (none)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
