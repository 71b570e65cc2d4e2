"""Every package module uses each name it imports, and a space or a tree is
checked only where it is made."""

import ast
from pathlib import Path

import pytest

import treelike

MODULES = sorted(p for p in Path(treelike.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in used]


def test_guard_flags_an_unused_name():
    source = "import math\nfrom fractions import Fraction\nmath.pi\n"
    assert unused_imports(source) == ["Fraction (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def check_calls(source: str, name: str = "validate_space") -> int:
    return sum(isinstance(node, ast.Call) and (
        getattr(node.func, "id", None) == name
        or getattr(node.func, "attr", None) == name)
        for node in ast.walk(ast.parse(source)))


def test_guard_counts_both_call_forms():
    source = "validate_space(s)\ncore.validate_space(s)\nvalidate_space\n"
    assert check_calls(source) == 2


SOURCES = sorted(Path(treelike.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_the_space_constructor_checks_a_space(path):
    # SimilaritySpace.__post_init__ checks each space as it is made
    expected = 1 if path.name == "core.py" else 0
    assert check_calls(path.read_text()) == expected


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_the_tree_constructor_checks_a_tree(path):
    # CompatibleTree.__post_init__ checks each tree as it is made
    expected = 1 if path.name == "core.py" else 0
    assert check_calls(path.read_text(), "validate_tree") == expected
    if expected:
        tree = next(node for node in ast.parse(path.read_text()).body
                    if getattr(node, "name", None) == "CompatibleTree")
        assert check_calls(ast.unparse(tree), "validate_tree") == 1
