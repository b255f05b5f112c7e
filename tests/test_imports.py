"""Every name a ``mcfdm`` module imports is used in that module.

Names listed in the module's ``__all__`` count as used (the package
re-exports them), and so does an import on a line marked ``# noqa: F401``
(a module loaded for its side effect, such as scipy before a timed solve).
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


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


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
