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


def dead_definitions(sources, extra_uses=()):
    """The top-level functions, classes and constants of ``sources`` (a dict
    of module name to source) that no module uses, as (module, name): a use
    is a name read, an attribute, an imported name, a parameter name (a
    pytest fixture) or one of ``extra_uses``.  Tests (``test_*``) and
    dunder names are not counted."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    used = set(extra_uses)
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                used.update(a.name.split(".")[-1] for a in node.names)
            elif isinstance(node, ast.arg):
                used.add(node.arg)
    dead = []
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign):
                names = [node.target.id]
            else:
                continue
            dead += [(mod, n) for n in names if n not in used
                     and not n.startswith(("test_", "__"))]
    return dead


def test_dead_definition_check_finds_unused_names():
    sources = {"a": ("X = 1\nY = 2\nclass _GridOnly:\n    pass\n"
                     "def f(fixture):\n    return Y\ndef test_f():\n    f(1)\n"),
               "b": "from a import X\ndef fixture():\n    pass\n"
                    "def traced():\n    pass\n"}
    assert dead_definitions(sources, {"traced"}) == [("a", "_GridOnly")]


def test_every_top_level_definition_is_used():
    # the benchmark's span tables name traced callables by string
    spans = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    strings = {node.value for node in ast.walk(spans)
               if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    sources = {f"{p.parent.name}.{p.stem}": p.read_text()
               for p in (ROOT / "src" / "sgsplines").glob("*.py")}
    sources.update((f"tests.{p.stem}", p.read_text())
                   for p in (ROOT / "tests").glob("*.py"))
    assert dead_definitions(sources, strings) == []


def use_owners(source, name):
    """The innermost enclosing function (None at module level) of every use
    of ``name`` in ``source``: a name or attribute ``name`` that is called,
    read or written, or an import of ``name`` or from it."""
    owners = []

    def names(node):
        if isinstance(node, ast.Name):
            return [node.id]
        if isinstance(node, ast.Attribute):
            return [node.attr]
        if isinstance(node, ast.Import):
            return [part for a in node.names for part in a.name.split(".")]
        if isinstance(node, ast.ImportFrom):
            return (node.module or "").split(".") + [a.name for a in node.names]
        return []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            owners.extend(owner for n in names(child) if n == name)
            visit(child, child.name if isinstance(child, ast.FunctionDef) else owner)

    visit(ast.parse(source), None)
    return owners


def test_call_owner_check_finds_the_enclosing_function():
    source = ("import numpy as np\nfrom numpy import ones\nnp.ones(1)\n"
              "def f():\n    def g():\n        return np.ones\n"
              "    return ones(g()(2))\n")
    assert use_owners(source, "ones") == [None, None, "g", "f"]


@pytest.mark.parametrize("name,owners", [
    # every cached array is frozen there
    ("setflags", [("bspline", "_frozen")]),
    # the one contraction kernel
    ("tensordot", [("tensorops", "contract")]),
    # study rows run on one worker, so BLAS holds the only other threads
    ("ThreadPoolExecutor", [("studies", None), ("studies", "_run_tasks")]),
    # the one environment setting, made before numpy loads
    ("environ", [("__init__", None)]),
    ("threading", []),
    # the one top-eigenvalue routine of every pencil, sparse and mapped (its
    # deferred import and its call)
    ("eigsh", [("spaces", "_top_eigenvalue"), ("spaces", "_top_eigenvalue")]),
    ("LinearOperator", [("spaces", "_top_eigenvalue"),
                        ("spaces", "_top_eigenvalue")]),
    ("eigh", [("spaces", "_top_eigenvalue")]),
    # the sparse pencil applies its norm matrix on the entry set and never
    # gathers it
    ("ix_", []),
    # the one rank and span rule of the equivalence and dimension
    # certificates and of the increment certificates; their residuals are
    # orthogonal projections, not least-squares solves
    ("svd", [("spaces", "_span")]),
    ("matrix_rank", []),
    ("lstsq", []),
    # no Khatri-Rao columns: the equivalence and dimension checks take 1D
    # certificates (the brute-force stacks live on only in the tests), and
    # the mapped pencil is sum-factorized and forms no grid x N value matrix
    ("khatri_rao", []),
    # the one enumeration of levels, shared by the hierarchy and combination
    # sets; the recursive enumerator lives on only in the tests
    ("combinations", [("indices", None), ("indices", "_levels_of_sum")]),
    ("_levels_with_sum", []),
    # extended precision only in the 1D pieces of the Smolyak-difference norm
    ("longdouble", [("spaces", "_smolyak_pieces")]),
    # derivatives only of tensor members, by their collocation rows: a
    # combination-form function serves values only; the rows come from the
    # local band, so no derivative transfer matrix is left
    ("_derivative_transfer", []),
    # one local evaluator of basis values and derivatives, shared by the
    # collocation rows and the Smolyak-difference pieces
    ("_find_spans", [("bspline", "_basis_band")]),
    ("_nonzero_basis", [("bspline", "_basis_band")]),
    # one count for each certified span: the dimension check reads the
    # equivalence certificate
    ("_count", [("spaces", "equivalence_report"),
                ("spaces", "equivalence_report")]),
    # one knot-insertion routine, one Oslo pass per level gap
    ("_refinement_matrix", [("bspline", "refinement_operator"),
                            ("bspline", "prolongation")]),
    # the Jacobian on a grid only per slab of whole cells, in the mapped
    # kinds' slab loop and the build-time check, so no full-grid Jacobian
    # is formed
    ("jacobian_grid", [("geometry", "_check_jacobian"),
                       ("geometry", "_jacobian_slabs")]),
    # no numeric module dispatches on a type: only the CSV printer and the
    # config checks do
    ("isinstance", [("cli", "_fmt"), ("studies", "validate_config"),
                    ("studies", "validate_config"), ("studies", "num"),
                    ("studies", "num"), ("studies", "_numkey")]),
], ids=["setflags", "tensordot", "ThreadPoolExecutor", "os.environ",
        "threading", "eigsh", "LinearOperator", "scipy.linalg.eigh", "ix_",
        "scipy.linalg.svd", "matrix_rank", "lstsq", "khatri_rao",
        "itertools.combinations", "_levels_with_sum", "longdouble",
        "_derivative_transfer", "_find_spans", "_nonzero_basis", "_count",
        "_refinement_matrix", "jacobian_grid", "isinstance"])
def test_each_rule_has_one_owner(name, owners):
    src = sorted((ROOT / "src" / "sgsplines").glob("*.py"))
    sites = [(path.stem, o) for path in src for o in use_owners(path.read_text(), name)]
    assert sites == owners
