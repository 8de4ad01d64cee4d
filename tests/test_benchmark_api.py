"""The library names the benchmark harness under ``perfbench/`` uses.

The harness is kept fixed between library changes, so a name it reads must
not disappear from ``bnpick``; this test fails at once when one does, rather
than the benchmark run.
"""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def used_names():
    """(module, name) for every ``b.<name>`` with ``import bnpick as b`` and
    every ``from bnpick[.module] import name`` in the harness sources."""
    used = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        aliases = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                aliases |= {a.asname or a.name for a in node.names if a.name == "bnpick"}
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "bnpick":
                used |= {(node.module, a.name) for a in node.names}
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in aliases
            ):
                used.add(("bnpick", node.attr))
    return sorted(used)


def test_the_harness_uses_the_library():
    names = used_names()
    assert ("bnpick", "build_system") in names and len(names) > 20


@pytest.mark.parametrize("module,name", used_names())
def test_library_has_the_name(module, name):
    assert hasattr(importlib.import_module(module), name)
