"""No ``qqldb`` module raises a bare ``ValueError``.

An argument out of its range raises ``ArgumentError``, a ``QqlError`` that is
also a ``ValueError``, so a caller catches every refusal of the package as a
``QqlError`` and a caller that catches ``ValueError`` still catches it.  A
re-raise (``raise`` alone) and other exception classes are not counted.
"""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parents[1] / "src" / "qqldb"
MODULES = sorted(path.name for path in SOURCE.glob("*.py"))


def raw_value_errors(source: str) -> list[int]:
    """The line of every ``raise ValueError`` or ``raise ValueError(...)`` in
    ``source``, ascending."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            raised = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(raised, ast.Name) and raised.id == "ValueError":
                lines.append(node.lineno)
    return sorted(lines)


def test_every_module_is_checked():
    assert {"__init__.py", "boolcirc.py", "statevec.py"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_no_raw_value_error(module):
    assert raw_value_errors((SOURCE / module).read_text(encoding="utf-8")) == []


def test_finds_a_raw_value_error():
    source = (
        "from .errors import ArgumentError\n"
        "def f(x):\n"
        "    if x < 0:\n"
        "        raise ValueError(f'{x} < 0')\n"
        "    if x > 9:\n"
        "        raise ArgumentError('x > 9')\n"
        "    try:\n"
        "        return int(x)\n"
        "    except ValueError:\n"
        "        raise\n"
        "def g():\n"
        "    raise ValueError\n"
    )
    assert raw_value_errors(source) == [4, 12]
