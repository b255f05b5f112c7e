"""Every name a ``mcfdm`` module imports is used in that module, and every
private module-level name is used somewhere in the package.

Names listed in the module's ``__all__`` count as used (the package
re-exports them), and so does an import on a line marked ``# noqa: F401``
(a module loaded for its side effect, such as scipy before a timed solve).
A private name that only tests use is a helper left behind: the package
does not need it.
"""

import ast
from pathlib import Path

import pytest

import mcfdm

MODULES = sorted(Path(mcfdm.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if "# noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            # ``import a.b`` binds ``a``
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """Private module-level names that no code outside their own definition reads."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    definitions = {}
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    definitions[name] = (module, node)
    read = set()
    for module, tree in trees.items():
        inside = {}
        for name, (home, node) in definitions.items():
            if home == module:
                inside.update((id(sub), name) for sub in ast.walk(node))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            else:
                continue
            if inside.get(id(node)) != name:
                read.add(name)
    return sorted(
        f"{module}: {name}" for name, (module, _) in definitions.items() if name not in read
    )


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_cli_leaves_the_closed_form_and_its_clock_to_the_oracle():
    # the Exact row's timed closed-form solve is mcfdm.oracle._exact
    tree = ast.parse((Path(mcfdm.__file__).parent / "cli.py").read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert imported.isdisjoint({"time", "_scored", "black_scholes_price"})


def test_check_finds_a_leftover_import():
    source = "import math\nimport numpy as np\nfrom os import path, sep\n\nx = np.pi + len(sep)\n"
    assert unused_imports(source) == ["math (line 1)", "path (line 3)"]


def test_check_honours_all_and_noqa():
    source = (
        "from .a import f\n"
        "import scipy.special  # noqa: F401\n"
        "__all__ = ['f']\n"
    )
    assert unused_imports(source) == []


def test_package_reads_every_private_name_it_defines():
    sources = {path.name: path.read_text(encoding="utf-8") for path in MODULES}
    assert unreferenced_private_names(sources) == []


def test_check_finds_a_private_name_only_its_definition_reads():
    sources = {
        "a.py": (
            "_LIMIT = 3\n"
            "_unused = 4\n"
            "def _walk(n):\n    return _walk(n - 1) if n else _LIMIT\n"
            "def _helper():\n    return 1\n"
        ),
        "b.py": "from . import a\nfrom .a import _helper\nx = a._helper() + _helper()\n",
    }
    assert unreferenced_private_names(sources) == ["a.py: _unused", "a.py: _walk"]
