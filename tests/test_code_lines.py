"""The code-line counter in tools/code_lines.py, on a small fixture module."""

import importlib.util
import os
import subprocess
import sys
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


def test_help_prints_usage(capsys):
    for flag in ("--help", "-h"):
        assert code_lines.main([flag]) == 0
        out = capsys.readouterr().out
        assert out.startswith("Count the code lines") and "--defs" in out


def test_unknown_option_or_missing_path_exits_2(tmp_path, capsys):
    (tmp_path / "fixture.py").write_text(_FIXTURE)
    for argv, message in (
        (["--verbose", str(tmp_path)], "unknown option: --verbose"),
        ([str(tmp_path / "missing.py")], f"no such file or directory: {tmp_path / 'missing.py'}"),
    ):
        assert code_lines.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"code_lines.py: error: {message}\n"


def test_a_file_that_is_not_python_exits_2(tmp_path, capsys):
    # a named file is parsed whatever its suffix: a README gives one error
    # line and no count, not a SyntaxError traceback, even after a file
    # that counts
    (tmp_path / "fixture.py").write_text(_FIXTURE)
    (tmp_path / "README.md").write_text("# Title\n\nRun `make` first.\n")
    (tmp_path / "latin1.py").write_bytes(b"x = '\xe9'\n")
    for bad in ("README.md", "latin1.py"):
        assert code_lines.main([str(tmp_path / "fixture.py"), str(tmp_path / bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"code_lines.py: error: not Python source: {tmp_path / bad}\n"


def test_a_reader_that_goes_away_ends_the_count_quietly():
    # stdout is a pipe whose read end is closed, as when head -1 has its
    # line: no BrokenPipeError traceback, from a print or the flush at exit
    root = Path(__file__).resolve().parents[1]
    for argv in (["--help"], ["--defs", str(root / "src" / "bctlab")]):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, str(root / "tools" / "code_lines.py"), *argv],
                                  stdout=write_end, stderr=subprocess.PIPE, timeout=60)
        finally:
            os.close(write_end)
        assert proc.stderr == b"", argv
