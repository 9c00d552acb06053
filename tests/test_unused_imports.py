"""No llgeo module imports a name it never reads.

No linter ships with the project, so this is the check: each module under
src/llgeo except __init__.py (whose imports are its public namespace) is
parsed with ast, and every name an import binds must be read (an
ast.Name in a Load context) somewhere in the module.  An import whose
line is marked `# noqa` is skipped, for a name kept importable on purpose.
"""

import ast
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "llgeo"


def unused_imports(source):
    """(line, name) of every imported name the module never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in read and "# noqa" not in lines[alias.lineno - 1]:
                    unused.append((alias.lineno, name))
    return unused


def test_the_check_finds_unread_imports_and_skips_noqa_lines():
    source = textwrap.dedent("""\
        import os.path
        import sys as system
        from math import (
            pi,
            tau,
        )
        from json import dumps  # noqa: F401
        from re import compile

        compile = None
        print(os.path.join("a", "b"), pi)
        """)
    # sys is bound as `system`, tau is never read, and a store of compile
    # is not a read
    assert unused_imports(source) == [(2, "system"), (5, "tau"), (8, "compile")]


def test_no_module_imports_a_name_it_never_reads():
    found = [f"{path.name}:{line} {name}"
             for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"
             for line, name in unused_imports(path.read_text())]
    assert found == []
