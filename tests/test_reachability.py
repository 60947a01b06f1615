"""Every public top-level function and class of the package, and every public
method of a public class, is used by the package, and every defaulted parameter
of a top-level one is passed more than one value by it; and every ``raise`` of
the library (every module but ``cli`` and ``io``, the edge) is a kept one.

A definition that only the tests call pins code no ``torustrace`` command runs,
so the tests would check a wrapper instead of the path the CLI takes.  A
parameter the package always leaves at one value is the same: a branch only
the tests take.  A library guard that repeats a refusal of the edge (a flag
type, a handler's ``_require``, the data-file reader) is one too: no command
line reaches it.
"""

import ast
from itertools import takewhile
from pathlib import Path

import torustrace

LIBRARY_API = "library API that writes the file formats the CLI reads"
UNSET_FLAG = "reached through checker(**flags), which omits an unset --p2/--q2 so the default 2 applies"
# name, or name(parameter), -> why it stays although src never uses it, or never varies it
KEEP = {
    "io.save_periodic_function": LIBRARY_API,
    "io.save_sampled_symbol": LIBRARY_API,
    "symbols.sample_symbol": LIBRARY_API,
    "cli.main(argv)": "the console script passes no argv (sys.argv); tests and in-process callers pass one",
    "criteria.check_t1(p2)": UNSET_FLAG,
    "criteria.check_t1(q2)": UNSET_FLAG,
    "criteria.check_t2(p2)": UNSET_FLAG,
    "criteria.check_t2(q2)": UNSET_FLAG,
}

NOT_FINITE = "a numerical failure no flag foresees: a value that leaves float64"
# module.function: exception -> why the library raises it although the edge refuses user errors
KEPT = {
    "criteria.nuclear_quasinorm_bound: OverflowError": NOT_FINITE,
    "harmonic.FrequencyLattice.indices_of: KeyError": "an index check: a point outside the box would read a "
    "wrong column",
    "quantize.CompressedOperator.__init__: OverflowError": NOT_FINITE,
    "quantize.eigenvalues: EigensolverError": "LAPACK's breakdown, a residual past its bound, or a spectrum "
    "that misses the exact trace",
    "sums.fsum_by: ValueError": "a weight of another shape, or below 1, would make the exactly rounded sum "
    "wrong, and no edge refusal covers weights",
    "symbols.estimate_order: OverflowError": NOT_FINITE,
    "symbols.fourier_decay_constant: OverflowError": NOT_FINITE,
    "traces.tail_estimate: OverflowError": NOT_FINITE,
}
EDGE = ("cli", "io")

PUBLIC_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
VARIES = "<varies>"


def package_trees() -> dict[str, ast.Module]:
    package = Path(torustrace.__file__).resolve().parent
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(package.glob("*.py"))}


def references(node: ast.AST, owners: frozenset[int] = frozenset()):
    """(name, ids of the definitions it occurs in) for every Name, Attribute and
    import alias under ``node``."""
    if isinstance(node, PUBLIC_DEFS):
        owners = owners | {id(node)}
    if isinstance(node, ast.Name):
        yield node.id, owners
    elif isinstance(node, ast.Attribute):
        yield node.attr, owners
    elif isinstance(node, ast.alias):
        yield node.name, owners
        if node.asname:
            yield node.asname, owners
    for child in ast.iter_child_nodes(node):
        yield from references(child, owners)


def public_definitions(trees: dict[str, ast.Module]):
    """(module.name, node) for every public top-level ``def``/``class``, and
    (module.Class.name, node) for every public method of a public class."""
    for module, tree in trees.items():
        for stmt in tree.body:
            if not isinstance(stmt, PUBLIC_DEFS) or stmt.name.startswith("_"):
                continue
            yield f"{module}.{stmt.name}", stmt
            if isinstance(stmt, ast.ClassDef):
                for method in stmt.body:
                    if isinstance(method, PUBLIC_DEFS[:2]) and not method.name.startswith("_"):
                        yield f"{module}.{stmt.name}.{method.name}", method


def unused_definitions(trees: dict[str, ast.Module]) -> list[str]:
    """The public definitions that occur nowhere in ``trees`` outside their own
    definition, as a name, an attribute or an import."""
    used: dict[str, list[frozenset[int]]] = {}
    for tree in trees.values():
        for name, owners in references(tree):
            used.setdefault(name, []).append(owners)
    return [qualified for qualified, node in public_definitions(trees)
            if all(id(node) in owners for owners in used.get(node.name, []))]


def test_every_public_definition_is_used_in_src():
    """A public top-level ``def``/``class``, or a public method of a public class,
    must occur somewhere in ``src`` outside its own definition.

    Names are matched as bare strings, so a definition that shares its name with
    anything else the package uses (an attribute read as ``dual.<name>``,
    a method of another class, a dict key spelled as an attribute) counts as
    used: such a function escapes this check.
    """
    assert [name for name in unused_definitions(package_trees()) if name not in KEEP] == []


def test_the_reachability_check_sees_an_unused_method():
    # ``spare`` only calls itself and nothing calls ``make``; ``used`` is called
    # by ``make``, and ``Box`` is used inside ``make``
    tree = ast.parse("class Box:\n    def used(self):\n        return 1\n"
                     "    def spare(self):\n        return self.spare()\n"
                     "def make():\n    return Box().used()\n")
    assert unused_definitions({"m": tree}) == ["m.Box.spare", "m.make"]


def value_of(node: ast.expr):
    """A literal's value (its text when unhashable), else VARIES."""
    try:
        value = ast.literal_eval(node)
    except ValueError:
        return VARIES
    try:
        hash(value)
    except TypeError:
        return ast.dump(node)
    return value


def callables(trees: dict[str, ast.Module]) -> dict[str, tuple[str, list[str], dict[str, object]]]:
    """name -> (module.name, parameter names in order, {defaulted parameter: its
    default}) for each public top-level function, and for each public class with
    an explicit ``__init__`` (its parameters after ``self``).  A default that is
    not a literal (a module constant) is keyed by its text."""
    found = {}
    for module, tree in trees.items():
        for stmt in tree.body:
            if not isinstance(stmt, PUBLIC_DEFS) or stmt.name.startswith("_"):
                continue
            fn, skip = stmt, 0
            if isinstance(stmt, ast.ClassDef):
                inits = [s for s in stmt.body if isinstance(s, ast.FunctionDef) and s.name == "__init__"]
                if not inits:
                    continue
                fn, skip = inits[0], 1
            args = fn.args
            positional = [a.arg for a in args.posonlyargs + args.args][skip:]
            names = positional + [a.arg for a in args.kwonlyargs]
            defaults = dict(zip(positional[len(positional) - len(args.defaults):], args.defaults))
            defaults.update((a.arg, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None)
            keyed = {}
            for name, node in defaults.items():
                value = value_of(node)
                keyed[name] = ast.dump(node) if value is VARIES else value
            found[stmt.name] = (f"{module}.{stmt.name}", names, keyed)
    return found


def test_every_defaulted_parameter_takes_two_values_in_src():
    """Across the calls ``src`` makes by name (``f(...)``, ``Class(...)``), each
    defaulted parameter of a public function or explicit ``__init__`` must take at
    least two values.  An omitted argument counts as the default; a non-literal
    argument, or any argument under a ``*``/``**`` splat, counts as varying.

    A function passed around as a value and called through another name (a
    ``checker = check_t1`` alias) is not seen; its parameters read as never
    varied and need a ``KEEP`` entry.
    """
    trees = package_trees()
    defs = callables(trees)
    seen: dict[str, set] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in defs):
                continue
            qualified, names, defaults = defs[node.func.id]
            splat = any(isinstance(a, ast.Starred) for a in node.args) or any(k.arg is None for k in node.keywords)
            given = dict(zip(names, takewhile(lambda a: not isinstance(a, ast.Starred), node.args)))
            given.update((k.arg, k.value) for k in node.keywords if k.arg is not None)
            for name, default in defaults.items():
                if name in given:
                    value = value_of(given[name])
                else:
                    value = VARIES if splat else default
                seen.setdefault(f"{qualified}({name})", set()).add(value)
    fixed = [
        f"{qualified}({name})"
        for qualified, _, defaults in defs.values()
        for name in defaults
        if len(values := seen.get(f"{qualified}({name})", set())) < 2 and VARIES not in values
    ]
    assert [name for name in fixed if name not in KEEP] == []


def raise_sites(trees: dict[str, ast.Module]) -> set[str]:
    """"module.function: exception" for every ``raise`` outside the ``EDGE`` modules,
    the function qualified by its class; a bare re-raise reads "re-raise"."""
    found = set()

    def walk(node: ast.AST, module: str, scope: tuple[str, ...]):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, PUBLIC_DEFS):
                walk(child, module, scope + (child.name,))
                continue
            if isinstance(child, ast.Raise):
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                found.add(f"{'.'.join((module,) + scope)}: {'re-raise' if exc is None else ast.unparse(exc)}")
            walk(child, module, scope)

    for module, tree in trees.items():
        if module not in EDGE:
            walk(tree, module, ())
    return found


def test_every_library_raise_is_kept():
    """The library raises only what ``KEPT`` lists, each with its reason, and each
    entry still names a raise.  A guard on a condition the edge refuses first is
    deleted, not listed."""
    found = raise_sites(package_trees())
    assert sorted(found - KEPT.keys()) == []
    assert sorted(KEPT.keys() - found) == []


def test_the_raise_walk_keys_by_function_not_line():
    tree = ast.parse("def f(x):\n    if x:\n        raise ValueError(x)\n    raise ValueError\n"
                     "class Box:\n    def get(self):\n        try:\n            pass\n"
                     "        except KeyError:\n            raise\n")
    assert raise_sites({"m": tree, "cli": tree}) == {"m.f: ValueError", "m.Box.get: re-raise"}
