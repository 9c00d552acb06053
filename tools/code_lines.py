"""Count the code lines of each module under src/llgeo, and their total.

A code line is a non-blank line that holds a token other than a comment and
is not part of a docstring (the leading string of a module, class or
function).  Lines are found with `tokenize`, docstrings with `ast`.

    python tools/code_lines.py            # src/llgeo next to this script
    python tools/code_lines.py DIR        # the *.py files of another package
"""

import ast
import io
import pathlib
import sys
import tokenize

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source):
    rows = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            rows.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                rows.difference_update(range(body[0].lineno, body[0].end_lineno + 1))
    lines = source.splitlines()
    return sum(1 for row in rows if lines[row - 1].strip())


def main(argv):
    root = pathlib.Path(argv[0]) if argv else pathlib.Path(__file__).parents[1] / "src" / "llgeo"
    total = 0
    for path in sorted(root.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main(sys.argv[1:])
