"""No llgeo module imports a name it never reads, and no private name is
left defined that nothing reads.

No linter ships with the project, so this is the check: each module under
src/llgeo except __init__.py (whose imports are its public namespace) is
parsed with ast, and every name an import binds must be read (an
ast.Name in a Load context) somewhere in the module.  An import whose
line is marked `# noqa` is skipped, for a name kept importable on purpose.
Every private name (a leading underscore) that a module binds at its top
level, by def, class or assignment, must be read somewhere in src/llgeo:
as an ast.Name in a Load context or as the attribute of an
ast.Attribute, which is how module.name reads it.
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


def _top_level_names(tree):
    """(line, name) of every name a module binds at its top level by def,
    class or assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.lineno, node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        yield node.lineno, leaf.id


def unread_private_names(sources):
    """(module, line, name) of every top-level private name of the modules
    of sources (a dict from module name to source) that none of them reads."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [(module, line, name) for module, tree in trees.items()
            for line, name in _top_level_names(tree)
            if name.startswith("_") and not name.startswith("__") and name not in read]


def test_the_check_finds_private_names_nothing_reads():
    sources = {
        "a": textwrap.dedent("""\
            _TABLE, _UNUSED = 1, 2
            __version__ = "0"

            def _helper():
                return _TABLE

            def _leftover():
                return 0

            class _Box:
                pass
            """),
        "b": textwrap.dedent("""\
            from . import a
            from .a import _Box

            def public():
                return a._helper(), _Box()
            """),
    }
    # a dunder is not private; _helper is read as an attribute in b, and
    # _Box as a name
    assert unread_private_names(sources) == [("a", 1, "_UNUSED"), ("a", 7, "_leftover")]


def test_every_private_name_is_read_somewhere_in_the_package():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert unread_private_names(sources) == []
