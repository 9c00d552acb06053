import importlib.util
import textwrap
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = textwrap.dedent('''\
    """Module docstring,
    on two lines."""

    import os  # a trailing comment keeps the line


    class Box:
        """Class docstring."""

        size = 1

        def area(self):
            """Method docstring,

            with a blank line inside."""
            # a comment-only line
            return self.size * self.size


    def label(x):
        """Function docstring."""
        text = """not a docstring,
    so both lines count"""
        return os.path.join(
            text,

            str(x),
        )
    ''')


def test_code_lines_counts_code_and_skips_docstrings_comments_and_blanks():
    # import, class, size, def area, return, def label, the two lines of
    # the assigned string and the four lines of the call (its blank line
    # not counted)
    assert code_lines.code_lines(SOURCE) == 12


def test_main_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "b.py").write_text(SOURCE)
    (tmp_path / "a.py").write_text('"""Only a docstring."""\nx = 1\n')
    (tmp_path / "notes.txt").write_text("x = 1\n")
    code_lines.main([str(tmp_path)])
    assert capsys.readouterr().out.splitlines() == [
        "     1  a.py",
        "    12  b.py",
        "    13  total",
    ]
