import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location("code_lines", Path(__file__).parents[1] / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

_MODULE = '''"""A module docstring,
over two lines."""

# a comment
x = 1


def f():
    """A function docstring."""
    return x  # a trailing comment keeps its line


class C:
    """A class docstring."""

    y = """a string that is no docstring"""
'''


def test_a_docstring_a_comment_and_a_blank_line_count_for_nothing(tmp_path, capsys):
    (tmp_path / "m.py").write_text('"""The docstring."""\n# a comment\n\nx = 1\ny = x\n')
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "     2  m.py\n     2  total\n"


def test_only_module_class_and_function_docstrings_are_left_out():
    # x = 1, def f, return x, class C, y = ...
    assert code_lines.code_lines(_MODULE) == 5
