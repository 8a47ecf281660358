"""The code-line counter on a fixture with comments, docstrings and blank lines."""

import pathlib

from code_lines import count_path, count_source

FIXTURE = '''"""Module docstring,
over two lines."""

# a comment line
import os  # a trailing comment


class A:
    """Class docstring."""

    x = """a multi-line string

    that is not a docstring"""

    def f(self):
        """Function docstring
        over two lines.
        """
        return (1,
                2)


def g():
    pass
'''

# import os; class A:; x = """...; that is not a docstring"""; def f(self):;
# return (1,; 2); def g():; pass -- the blank line inside the string is blank
FIXTURE_LINES = 9


def test_counts_the_fixture():
    assert count_source(FIXTURE) == FIXTURE_LINES


def test_counts_a_directory(tmp_path):
    (tmp_path / "a.py").write_text(FIXTURE, encoding="utf-8")
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.py").write_text("x = 1\n\n# done\n", encoding="utf-8")
    (tmp_path / "notes.txt").write_text("y = 2\n", encoding="utf-8")
    assert count_path(tmp_path) == FIXTURE_LINES + 1
    assert count_path(tmp_path / "sub" / "b.py") == 1


def test_counts_the_package():
    src = pathlib.Path(__file__).resolve().parent.parent / "src" / "pmvroots"
    assert 0 < count_path(src) < sum(len(p.read_text().splitlines()) for p in src.glob("*.py"))
