"""The counting rules of tools/code_stats.py on small sources."""

import ast
import importlib.util
import os

TOOL = os.path.join(os.path.dirname(__file__), "..", "tools", "code_stats.py")
spec = importlib.util.spec_from_file_location("code_stats", TOOL)
code_stats = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_stats)

SOURCE = '''"""Module docstring,
over two lines."""

# a comment
import os  # a trailing comment


class Point:
    """A class docstring."""

    def norm(self):
        return os.sep.join(
            ["a", "b"]
        )


def helper(x):
    """A function docstring."""

    text = """a string that is no docstring
    spans two lines"""
    return x, text
'''


def test_code_lines_skip_blanks_comments_and_docstrings():
    # import, class, def, the three lines of the join, def, both lines of
    # the string and the return
    assert code_stats.code_lines(SOURCE) == 10


def test_definitions_mark_methods():
    got = list(code_stats.definitions(ast.parse(SOURCE), "mod"))
    assert got == [
        ("mod.Point", "Point", False),
        ("mod.Point.norm", "norm", True),
        ("mod.helper", "helper", False),
    ]


def test_names_read_code_fstrings_and_dotted_literals(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        '"""helper in a docstring does not count."""\n'
        "x = obj.norm\n"
        'y = f"{helper(x)}"\n'
        'z = "exactalg.series_expand"\n'
        'w = "not a name"\n'
    )
    names, attributes = code_stats.name_counts(path)
    assert names["norm"] == 1 and attributes["norm"] == 1
    assert names["helper"] == 1 and attributes["helper"] == 0
    assert names["series_expand"] == 1 and attributes["series_expand"] == 1
    assert names["not"] == 0
