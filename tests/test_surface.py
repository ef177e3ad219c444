"""The package surface: the names it exports, the names its modules import,
the one function that owns each shared rule, and the README's examples,
which must run.

The project configures no linter, so unused imports are found by an AST walk
here, in the package modules and in the test modules alike.
"""

import ast
import pathlib
import re

import pytest

import sgsplines

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "sgsplines").glob("*.py")
                 if p.name != "__init__.py") + sorted((ROOT / "tests").glob("*.py"))
README_BLOCKS = re.findall(r"```python\n(.*?)```",
                           (ROOT / "README.md").read_text(), re.S)


def unused_imports(source):
    """Names bound by the imports of ``source`` that no name or attribute
    expression uses; a dotted ``import a.b`` counts as used only through
    ``a.b``."""
    tree = ast.parse(source)
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Name, ast.Attribute)):
            parts = ast.unparse(node).split(".")
            used.update(".".join(parts[:k]) for k in range(1, len(parts) + 1))
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"):
            unused += [a.asname or a.name for a in node.names
                       if (a.asname or a.name) not in used]
    return unused


def test_exports_are_the_names_the_readme_imports():
    readme = {alias.name for block in README_BLOCKS
              for node in ast.walk(ast.parse(block))
              if isinstance(node, ast.ImportFrom) and node.module == "sgsplines"
              for alias in node.names}
    assert readme
    assert set(sgsplines.__all__) == readme
    assert all(hasattr(sgsplines, name) for name in readme)


def test_readme_examples_run():
    # in order and in one namespace: the mapped example reuses the tour's names
    namespace = {}
    for block in README_BLOCKS:
        exec(block, namespace)


def test_unused_import_check_finds_unused_names():
    source = ("import os\nimport scipy.linalg\nimport numpy as np\n"
              "from math import pi, tau\nnp.zeros(1)\nscipy.sparse\nprint(pi)\n")
    assert unused_imports(source) == ["os", "scipy.linalg", "tau"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


def call_owners(source, name):
    """The innermost enclosing function (None at module level) of every call
    of a function or method named ``name`` in ``source``."""
    owners = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and name in (
                    getattr(child.func, "attr", None), getattr(child.func, "id", None)):
                owners.append(owner)
            visit(child, child.name if isinstance(child, ast.FunctionDef) else owner)

    visit(ast.parse(source), None)
    return owners


def test_call_owner_check_finds_the_enclosing_function():
    source = ("import numpy as np\nnp.ones(1)\ndef f():\n    def g():\n"
              "        return np.ones(2)\n    return ones(g())\n")
    assert call_owners(source, "ones") == [None, "g", "f"]


@pytest.mark.parametrize("name,owner", [
    ("setflags", ("bspline", "_frozen")),  # every cached array is frozen there
    ("tensordot", ("tensorops", "contract")),  # the one contraction kernel
], ids=["setflags", "tensordot"])
def test_each_rule_has_one_owner(name, owner):
    src = sorted((ROOT / "src" / "sgsplines").glob("*.py"))
    sites = [(path.stem, o) for path in src for o in call_owners(path.read_text(), name)]
    assert sites == [owner]
