"""Only ``cli`` reads a group's name: the series code reads the group's record.

``cli`` maps ``--group`` to a ``groups.Torus`` or ``groups.SU2`` record; every
other module reads what it needs from that record (its enumeration, dimension,
summability exponents and tail constants), so no other module compares a value
with a group name.
"""

import ast

from test_reachability import package_trees

GROUP_NAMES = {"torus", "su2"}


def names_in(node: ast.AST) -> set[str]:
    """The group names ``node`` spells as a string literal, or as an element of a
    literal tuple, list or set."""
    items = node.elts if isinstance(node, (ast.Tuple, ast.List, ast.Set)) else [node]
    return {item.value for item in items if isinstance(item, ast.Constant)} & GROUP_NAMES


def group_name_comparisons(tree: ast.Module) -> list[int]:
    """Line of every comparison (``==``, ``!=``, ``in``, ...) or ``case`` pattern
    with a group name on either side."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare) and any(names_in(side) for side in [node.left, *node.comparators]):
            lines.append(node.lineno)
        elif isinstance(node, ast.MatchValue) and names_in(node.value):
            lines.append(node.lineno)
    return lines


def test_only_cli_compares_with_a_group_name():
    found = {module: lines for module, tree in package_trees().items()
             if module != "cli" and (lines := group_name_comparisons(tree))}
    assert found == {}


def test_the_check_sees_the_comparisons_it_forbids():
    tree = ast.parse('if group == "su2": pass\nok = "torus" != g or g in ("torus", "su2")\nx = {"su2": 1}\n'
                     'match g:\n    case "torus": pass\n')
    assert group_name_comparisons(tree) == [1, 2, 2, 5]
    assert group_name_comparisons(package_trees()["cli"])  # cli's refusals compare with names
