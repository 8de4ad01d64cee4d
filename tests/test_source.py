"""Static checks of the package source, read with ``ast``."""

import ast
import importlib
import re
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "bnpick"

_ARITHMETIC = (ast.Constant, ast.UnaryOp, ast.BinOp, ast.unaryop, ast.operator)


def _is_number(expr) -> bool:
    """Whether an expression is built from numeric literals alone, such as
    ``1e-9``, ``-3`` or ``2 ** -52``."""
    return all(
        isinstance(node, _ARITHMETIC)
        and (not isinstance(node, ast.Constant) or type(node.value) in (int, float, complex))
        for node in ast.walk(expr)
    )


def _numeric_constants(tree) -> list:
    """Names bound at module level to a numeric literal."""
    names = []
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        if _is_number(value):
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return names


def _read_names(tree) -> set:
    """Names a module reads: a loaded name or attribute, or a name imported
    under another one that the module loads."""
    loaded = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loaded.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            loaded.add(node.attr)
    renamed = {
        alias.name
        for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        for alias in node.names if alias.asname in loaded
    }
    return loaded | renamed


def test_every_numeric_constant_is_read():
    # a tolerance left behind when the code that read it is deleted fails here
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    read = set().union(*map(_read_names, trees.values()))
    defined = {name: module for module, tree in trees.items() for name in _numeric_constants(tree)}
    assert len(defined) >= 10, defined  # the scan sees the package's tolerances
    unread = sorted(f"{module}:{name}" for name, module in defined.items() if name not in read)
    assert not unread, f"module-level numeric constants that nothing reads: {unread}"


# A float literal this small is a tolerance, whatever its use.
TOLERANCE_SIZE = 1e-3


def _unnamed_tolerances(tree) -> list:
    """Lines of float literals with 0 < |v| < TOLERANCE_SIZE that are not the
    whole (numeric) value of a module-level assignment."""
    named = set()
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
            if _is_number(node.value):
                named.update(map(id, ast.walk(node.value)))
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and type(node.value) is float
        and 0 < abs(node.value) < TOLERANCE_SIZE and id(node) not in named
    ]


def test_every_tolerance_is_named():
    # a tolerance written inline, as a default or in an expression, fails
    # here: it goes into a module-level name with its reason beside it
    found = [
        f"{path.name}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line in _unnamed_tolerances(ast.parse(path.read_text()))
    ]
    assert not found, f"float literals below {TOLERANCE_SIZE} outside a named constant: {found}"


def test_nothing_roots_a_polynomial():
    # counts and classes are read from matrices, never from a polynomial's
    # roots: a `.roots(` call, as np.roots or numpy.polynomial's, fails here
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "roots"
    ]
    assert not found, f"root finding in the package: {found}"


def test_every_dotted_reference_resolves():
    # a ``module.name`` the package writes for one of its modules names
    # something that module has: a name moved or deleted without its
    # docstrings fails here
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}
    refs = [
        (path.name, match.group(1))
        for path in sorted(PACKAGE.glob("*.py"))
        for match in re.finditer(r"``([A-Za-z_][\w.]*)``", path.read_text())
        if match.group(1).split(".")[0] in modules and "." in match.group(1)
    ]
    assert len(refs) >= 20, refs  # the scan sees the package's references
    unresolved = []
    for source, ref in refs:
        module, *names = ref.split(".")
        target = importlib.import_module(f"bnpick.{module}")
        try:
            for name in names:
                target = getattr(target, name)
        except AttributeError:
            unresolved.append(f"{source}: {ref}")
    assert not unresolved, f"dotted references to nothing: {unresolved}"
