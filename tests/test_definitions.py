"""Every function, class and method the package defines is named by some caller.

A caller is package code outside the definition itself and outside the
package ``__init__`` (which only re-exports), a demo, or the benchmark.
Tests do not count: code that only tests reach is not part of the program.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "src/trendlag"
CALLERS = (PACKAGE, "demos", "perfbench")
# the tests' reference for build_gradients
EXEMPT = {"fit_trend"}


def _names(tree):
    """Each identifier the tree names: variables, attributes, and identifier strings.

    Strings count because callers also look names up with getattr.
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                yield node.value


def _definitions(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef):
            yield node


def dead_definitions(root=ROOT, package=PACKAGE, callers=CALLERS):
    """"path:line: name" for each package definition no caller names."""
    trees = {
        path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for d in callers for path in sorted((root / d).rglob("*.py"))
        if not (path.name == "__init__.py" and path.parent == root / package)
    }
    named = Counter(name for tree in trees.values() for name in _names(tree))
    dead = []
    for path, tree in trees.items():
        if not path.is_relative_to(root / package):
            continue
        for node in _definitions(tree):
            name = node.name
            if name in EXEMPT or (name.startswith("__") and name.endswith("__")):
                continue
            own = sum(n == name for n in _names(node))  # a recursive call is no caller
            if named[name] == own:
                dead.append(f"{path.relative_to(root)}:{node.lineno}: {name}")
    return dead


def test_every_definition_has_a_caller():
    assert dead_definitions() == []


def test_the_check_sees_a_dead_definition(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text("from .mod import helper, unused\n")
    (package / "mod.py").write_text(
        "class Box:\n"
        "    def __len__(self):\n"
        "        return 0\n"
        "    def size(self):\n"
        "        return self.size()\n\n"
        "def helper():\n"
        "    return getattr(Box(), 'size')\n\n"
        "def unused():\n"
        "    return unused()\n"
    )
    (tmp_path / "demo").mkdir()
    (tmp_path / "demo" / "caller.py").write_text("from pkg import helper\nhelper()\n")
    found = dead_definitions(tmp_path, "pkg", ("pkg", "demo"))
    assert found == ["pkg/mod.py:10: unused"]
