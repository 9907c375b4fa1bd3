"""No module in the package, the demos or the tests imports a name it never uses."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHECKED = ("src/trendlag", "demos", "tests")


def _imported(tree):
    """(bound name, line) for each import but ``from __future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _used(tree):
    """Every name the module reads, string annotations included."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        if isinstance(node, ast.arg | ast.AnnAssign):
            annotation = node.annotation
        elif isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef):
            annotation = node.returns
        else:
            continue
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            names |= _used(ast.parse(annotation.value, mode="eval"))
    return names


def unused_imports(path, root=ROOT):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = _used(tree)
    return [f"{path.relative_to(root)}:{line}: {name}"
            for name, line in _imported(tree) if name not in used]


def test_no_unused_imports():
    files = sorted(p for d in CHECKED for p in (ROOT / d).rglob("*.py"))
    assert len(files) > 10
    # a package's __init__ imports to re-export
    found = [hit for p in files if p.name != "__init__.py" for hit in unused_imports(p)]
    assert found == []


def test_the_check_sees_an_unused_import(tmp_path):
    path = tmp_path / "module.py"
    path.write_text('import json\nimport math as m\nfrom os import path, sep\n\n'
                    'def f(x: "sep") -> float:\n    return m.pi\n')
    assert unused_imports(path, tmp_path) == ["module.py:1: json", "module.py:3: path"]
