"""No llgeo module imports a name it never reads, and no private name is
left defined that nothing reads.

No linter ships with the project, so this is the check: each module under
src/llgeo except __init__.py (whose imports are its public namespace) is
parsed with ast, and every name an import binds must be read (an
ast.Name in a Load context) somewhere in the module.  An import whose
line is marked `# noqa` is skipped, for a name kept importable on purpose.
Every private name (a leading underscore) that a module binds at its top
level, by def, class or assignment, or that a top-level class body binds
by def (a method, property or cached property), must be read somewhere in
src/llgeo: as an ast.Name in a Load context or as the attribute of an
ast.Attribute, which is how module.name and self.name read it.  So a
cache or helper left with no reader fails.  Every public name bound the
same way must be read by the program itself: in src/llgeo outside
__init__.py, in perfbench/ or in demos/.  A method, function or class that
only the tests call is surface with no use, and fails, unless
UNREAD_PUBLIC names it with its reason.
"""

import ast
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "llgeo"

# the public names kept with no reader in the program, each with its reason
UNREAD_PUBLIC = {
    "momentum_P_derivative": "the P gradients' public form until ROADMAP item 7's "
                             "Poisson table replaces it",
    "wedge_lift": "the public lift of an algebra element; cocycle_via_pairing calls "
                  "_wedge_lift so that both lifts share one derivative pass",
}


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


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _top_level_names(tree):
    """(line, name) of every name a module binds at its top level by def,
    class or assignment, and of every def in the body of a top-level
    class."""
    for node in tree.body:
        if isinstance(node, _DEFS + (ast.ClassDef,)):
            yield node.lineno, node.name
            if isinstance(node, ast.ClassDef):
                yield from ((member.lineno, member.name) for member in node.body
                            if isinstance(member, _DEFS))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        yield node.lineno, leaf.id


def _reads(trees):
    """Every name the trees read: as an ast.Name in a Load context or as
    the attribute of an ast.Attribute."""
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return read


def unread_private_names(sources):
    """(module, line, name) of every top-level private name of the modules
    of sources (a dict from module name to source) that none of them reads."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = _reads(trees.values())
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
                def __init__(self):
                    self._size = 1

                @property
                def _area(self):
                    return self._side() ** 2

                def _side(self):
                    return self._size

                @property
                def _stale(self):
                    return 0
            """),
        "b": textwrap.dedent("""\
            from . import a
            from .a import _Box

            def public():
                return a._helper(), _Box()._area
            """),
    }
    # a dunder is not private; _helper and _area are read as attributes in
    # b, _side as an attribute in a, and _Box as a name
    assert unread_private_names(sources) == [("a", 1, "_UNUSED"), ("a", 7, "_leftover"),
                                             ("a", 22, "_stale")]


def test_every_private_name_is_read_somewhere_in_the_package():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert unread_private_names(sources) == []


def unread_public_names(sources, readers):
    """(module, line, name) of every top-level public name of the modules
    of sources (a dict from module name to source) that no source of
    readers (a list) reads."""
    read = _reads(ast.parse(source) for source in readers)
    return [(module, line, name) for module, source in sources.items()
            for line, name in _top_level_names(ast.parse(source))
            if not name.startswith("_") and name not in read]


def test_the_check_finds_public_names_only_other_code_reads():
    sources = {
        "a": textwrap.dedent("""\
            LIMIT = 1

            def used():
                return LIMIT

            def tested_only():
                return 0

            class Box:
                def __init__(self):
                    self.size = 1

                def area(self):
                    return self.size

                def scaled(self, c):
                    return c * self.size
            """),
    }
    readers = [sources["a"], "from a import Box, used\nprint(used(), Box().area())\n"]
    # LIMIT is read in a's own body and __init__ is a dunder; tested_only
    # and scaled have no reader among readers, which hold no tests
    assert unread_public_names(sources, readers) == [("a", 6, "tested_only"),
                                                     ("a", 16, "scaled")]


def test_every_public_name_is_read_by_the_program():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    readers = [source for name, source in sources.items() if name != "__init__.py"]
    readers += [path.read_text() for folder in ("perfbench", "demos")
                for path in sorted((ROOT / folder).rglob("*.py"))]
    unread = [name for _, _, name in unread_public_names(sources, readers)]
    assert sorted(unread) == sorted(UNREAD_PUBLIC)
