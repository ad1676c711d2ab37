"""The code-only line counter in ``tools/code_lines.py``."""

import importlib.util
import os
import textwrap

import pytest

TOOL = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                    "tools", "code_lines.py")


@pytest.fixture(scope="module")
def code_lines():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: 12 code lines: the import, the constant, the three lines of the
#: non-docstring ``QUERY`` string, the class and def headers, the two
#: lines of the call, the return, and both lines of the ``if`` block (a
#: bare string inside a block is not a docstring).
FIXTURE = textwrap.dedent('''\
    """Module docstring.

    Spans lines.
    """

    import os  # a trailing comment keeps the line

    LIMIT = 3
    # a comment-only line

    QUERY = """
    SELECT 1
    """


    class Thing:
        """Class docstring."""

        def run(self):
            """Function docstring,
            on two lines."""
            value = os.path.join(
                "a", "b")
            return value

    if __name__ == "__main__":  # pragma: no cover
        """Not a docstring: a bare string inside an if block."""
    ''')


def test_counts_only_code_lines(code_lines):
    assert code_lines.count_code_lines(FIXTURE) == 12


def test_main_prints_per_file_counts_and_total(code_lines, tmp_path,
                                               capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(FIXTURE)
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\n# note\n")
    (tmp_path / "pkg" / "notes.txt").write_text("ignored = True\n")
    assert code_lines.main([str(tmp_path / "pkg")]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split() for line in out] == [
        ["12", str(tmp_path / "pkg" / "a.py")],
        ["1", str(tmp_path / "pkg" / "b.py")],
        ["13", "total"],
    ]


def test_no_paths_is_a_usage_error(code_lines, capsys):
    assert code_lines.main([]) == 2
    assert "Usage" in capsys.readouterr().err
