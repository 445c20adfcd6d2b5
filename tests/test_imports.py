"""Every module-level import of a ``qqldb`` module is used in it, and the
conformance run's reference interpreter imports no ``qqldb`` module.

``__init__.py`` imports names to re-export them, so it is left out.  A name
counts as used when it appears as a name anywhere in the module's syntax tree;
one used only in a quoted annotation or a docstring does not.
"""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parents[1] / "src" / "qqldb"
REFMODEL = Path(__file__).resolve().parent / "refmodel.py"
MODULES = sorted(path.name for path in SOURCE.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names that the module-level imports of ``source`` bind and that
    the module never uses, sorted."""
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - used)


def test_every_module_is_checked():
    assert {"cli.py", "qdb.py", "statevec.py"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_module_level_import(module):
    assert unused_imports((SOURCE / module).read_text(encoding="utf-8")) == []


def test_finds_a_leftover_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from .gates import GateMatrix, is_unitary\n"
        "from .statevec import StateVector\n"
        "def f(x: StateVector) -> GateMatrix:\n"
        "    return np.zeros(1)\n"
    )
    assert unused_imports(source) == ["is_unitary", "os"]


def test_reference_model_imports_no_qqldb_module():
    # the oracle the engine is checked against borrows none of its code
    imported = []
    for node in ast.walk(ast.parse(REFMODEL.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append(node.module or "")
    assert imported and all(name.split(".")[0] != "qqldb" for name in imported)
