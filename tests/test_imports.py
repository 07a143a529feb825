"""No module of the package or of the tests imports a name it never
uses.  A name imported on a line marked ``# noqa: F401`` (or a bare
``# noqa``) is kept on purpose, such as the names the benchmark's tracer
patches in `smear` and `rigidity`, and is not reported."""

import ast
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
FILES = sorted([*(ROOT / "src" / "hyprig").glob("*.py"),
                *(ROOT / "tests").glob("*.py")])
NOQA = re.compile(r"#\s*noqa(?!:)|#\s*noqa:[\s\w,]*\bF401\b")


def unused_imports(source: str) -> list:
    """(line, name) of every imported name that the module never reads
    and does not list in ``__all__``."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            if alias.name == "*" or NOQA.search(lines[alias.lineno - 1]):
                continue
            name = alias.asname or alias.name.partition(".")[0]
            imported.setdefault(name, alias.lineno)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__"
                        for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_the_check_finds_an_unused_import():
    source = ("import os\n"
              "import sys  # noqa: F401\n"
              "import re  # noqa: E501\n"
              "from math import pi, tau\n"
              "print(tau)\n")
    assert unused_imports(source) == [(1, "os"), (3, "re"), (4, "pi")]


@pytest.mark.parametrize("path", FILES,
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
