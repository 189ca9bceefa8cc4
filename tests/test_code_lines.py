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
