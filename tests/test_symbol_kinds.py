"""Only ``symbols`` asks which kind a symbol is: every other module calls the
symbol's own methods.

A catalog symbol and a sampled table each answer their calculus (``difference``,
``x_derivative``, ``x_fourier_support``, ``x_fourier_table``) and carry their
data (``radius``, ``trace_envelope``), so no other module tests a symbol's class
with ``isinstance`` or reads a catalog symbol's factors.
"""

import ast

from test_reachability import package_trees

FACTORS = {"xfactor", "xifactor"}


def symbol_classes() -> set[str]:
    """The classes ``symbols`` defines, and its ``Symbol`` alias."""
    tree = package_trees()["symbols"]
    return {stmt.name for stmt in tree.body if isinstance(stmt, ast.ClassDef)} | {"Symbol"}


def kind_questions(tree: ast.Module, classes: set[str]) -> list[int]:
    """Line of every ``isinstance`` against one of ``classes`` (bare, as a module
    attribute or in a tuple), and of every read of a symbol's factors (an
    attribute, or ``getattr``/``hasattr`` with its name)."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in FACTORS:
            lines.append(node.lineno)
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
            continue
        if node.func.id == "isinstance" and len(node.args) == 2:
            named = {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node.args[1])
                     if isinstance(n, (ast.Name, ast.Attribute))}
            if named & classes:
                lines.append(node.lineno)
        elif node.func.id in ("getattr", "hasattr") and len(node.args) >= 2:
            name = node.args[1]
            if isinstance(name, ast.Constant) and name.value in FACTORS:
                lines.append(node.lineno)
    return sorted(lines)


def test_only_symbols_asks_a_symbols_kind():
    classes = symbol_classes()
    found = {module: lines for module, tree in package_trees().items()
             if module != "symbols" and (lines := kind_questions(tree, classes))}
    assert found == {}


def test_the_check_sees_the_questions_it_forbids():
    classes = symbol_classes()
    assert {"SeparableSymbol", "SampledSymbol", "BracketPower", "Symbol"} <= classes
    tree = ast.parse("if isinstance(a, SampledSymbol): pass\n"
                     "ok = isinstance(g, (symbols.BracketPower, float))\n"
                     "mean = a.xfactor.coeffs[0]\n"
                     "g = getattr(a, 'xifactor', None)\n"
                     "fine = isinstance(x, dict) or a.x_fourier_table(etas, lattice)\n")
    assert kind_questions(tree, classes) == [1, 2, 3, 4]
    assert kind_questions(package_trees()["symbols"], classes)  # symbols reads its own factors
