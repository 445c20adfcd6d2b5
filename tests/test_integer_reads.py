"""Only ``errors.as_int`` reads an integer from a caller.

``operator.index`` and the refusal of ``bool`` that must come before it
appear in that one function of ``qqldb``, so no other site reads a count,
index, qubit, width or literal its own way.
"""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "qqldb"
MODULES = sorted(path.name for path in SOURCE.glob("*.py"))


def _names_bool(node: ast.AST) -> bool:
    """Whether ``node`` names ``bool``, ``numpy.bool_`` or ``numpy.bool``."""
    return (isinstance(node, ast.Name) and node.id == "bool"
            or isinstance(node, ast.Attribute) and node.attr in ("bool", "bool_"))


def integer_reads(source: str) -> list[tuple[str, str, int]]:
    """``(kind, enclosing function, line)`` of every ``operator.index``
    ("index"), import from ``operator`` ("import") and ``isinstance`` or
    ``issubclass`` test against ``bool`` ("bool") in ``source``, by line."""
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Attribute) and child.attr == "index"
                    and isinstance(child.value, ast.Name) and child.value.id == "operator"):
                found.append(("index", scope, child.lineno))
            elif isinstance(child, ast.ImportFrom) and child.module == "operator":
                found.append(("import", scope, child.lineno))
            elif (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                    and child.func.id in ("isinstance", "issubclass") and len(child.args) == 2
                    and any(map(_names_bool, ast.walk(child.args[1])))):
                found.append(("bool", scope, child.lineno))
            function = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if function else scope)

    visit(ast.parse(source), "<module>")
    return sorted(found, key=lambda read: read[2])


def test_every_module_is_checked():
    assert {"__init__.py", "errors.py", "qdb.py", "statevec.py"} <= set(MODULES)


def test_only_the_reader_reads_an_integer():
    found = [
        (module, kind, scope)
        for module in MODULES
        for kind, scope, _ in integer_reads((SOURCE / module).read_text(encoding="utf-8"))
    ]
    assert found == [("errors.py", "bool", "as_int"), ("errors.py", "index", "as_int")]


def test_finds_every_integer_read():
    source = (
        "import operator\n"
        "from operator import index\n"
        "def as_int(x):\n"
        "    if isinstance(x, (bool, np.bool_)):\n"
        "        raise TypeError\n"
        "    return operator.index(x)\n"
        "class C:\n"
        "    def m(self, x):\n"
        "        return isinstance(x, bool) or len(x)\n"
        "def f(x):\n"
        "    def g():\n"
        "        return issubclass(type(x), np.bool)\n"
        "    return np.zeros(3, dtype=bool), isinstance(x, int), bool(x), operator.add\n"
    )
    assert integer_reads(source) == [
        ("import", "<module>", 2), ("bool", "as_int", 4), ("index", "as_int", 6),
        ("bool", "m", 9), ("bool", "g", 12),
    ]
