"""The code-line counter in tools/code_lines.py, on a small fixture module."""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "code_lines", Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

_FIXTURE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment keeps its line

# a comment line


class Box:
    """Class docstring."""

    def size(self):
        """Function docstring."""
        text = """a string that
is not a docstring"""
        return len(text) + (
            os.sep.count("/")
        )
'''


def test_counts_only_code_lines(tmp_path, capsys):
    # import, class, def, the two lines of the string, return and its two
    # continuation lines
    assert code_lines.code_lines(_FIXTURE) == 8
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "fixture.py").write_text(_FIXTURE)
    assert code_lines.main([str(tmp_path / "pkg")]) == 0
    assert capsys.readouterr().out.splitlines()[-1].split() == ["8", "total"]


def test_defs_counts_each_top_level_def_and_class(tmp_path, capsys):
    # Box: class, def, the two string lines, return and its continuations;
    # a decorator counts with its function, a nested def with its parent
    decorated = "@staticmethod\ndef f():\n    def g():\n        return 1\n    return g\n"
    assert code_lines.def_code_lines(_FIXTURE) == [("Box", 7)]
    assert code_lines.def_code_lines(decorated) == [("f", 5)]
    (tmp_path / "fixture.py").write_text(_FIXTURE)
    assert code_lines.main(["--defs", str(tmp_path / "fixture.py")]) == 0
    assert [line.split() for line in capsys.readouterr().out.splitlines()] == [
        ["8", str(tmp_path / "fixture.py")], ["7", "Box"], ["8", "total"],
    ]
