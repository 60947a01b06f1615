"""Every public top-level function and class of the package is used by the package.

A definition that only the tests call pins code no ``torustrace`` command runs,
so the tests would check a wrapper instead of the path the CLI takes.
"""

import ast
from pathlib import Path

import torustrace

# library API that writes the file formats the CLI reads
KEEP = ("io.save_periodic_function", "io.save_sampled_symbol", "symbols.sample_symbol")

PUBLIC_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def references(tree: ast.Module):
    """(name, top-level statement it occurs in) for every Name, Attribute and
    import alias of ``tree``."""
    for stmt in tree.body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                yield node.id, stmt
            elif isinstance(node, ast.Attribute):
                yield node.attr, stmt
            elif isinstance(node, ast.alias):
                yield node.name, stmt
                if node.asname:
                    yield node.asname, stmt


def test_every_public_definition_is_used_in_src():
    """A public top-level ``def``/``class`` must occur somewhere in ``src`` outside
    its own definition, as a name, an attribute or an import.

    Names are matched as bare strings, so a definition that shares its name with
    anything else the package uses (a dataclass field read as ``report.<name>``,
    a method, a dict key spelled as an attribute) counts as used: such a
    function escapes this check.
    """
    package = Path(torustrace.__file__).resolve().parent
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(package.glob("*.py"))}
    used: dict[str, set[int]] = {}
    for tree in trees.values():
        for name, stmt in references(tree):
            used.setdefault(name, set()).add(id(stmt))
    unused = [
        f"{module}.{stmt.name}"
        for module, tree in trees.items()
        for stmt in tree.body
        if isinstance(stmt, PUBLIC_DEFS) and not stmt.name.startswith("_")
        and not used.get(stmt.name, set()) - {id(stmt)}
    ]
    assert [name for name in unused if name not in KEEP] == []
