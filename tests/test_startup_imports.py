"""Start-up cost guards: what ``import torustrace.cli`` brings in.

Every command is one short process that pays the package import, so the
package defines its records as plain classes: ``@dataclass`` generates and
``exec``-compiles their methods at every import, and importing ``dataclasses``
(which imports ``copy``, ``inspect`` and more) costs on top of that.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import torustrace
from test_reachability import package_trees

SRC = str(Path(torustrace.__file__).resolve().parents[1])
SLOW_MODULES = {"dataclasses", "copy"}


def imported_modules(tree: ast.Module) -> set[str]:
    """Top-level package of every module an ``import`` or ``from`` statement names."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_no_module_imports_dataclasses():
    importers = [module for module, tree in package_trees().items() if "dataclasses" in imported_modules(tree)]
    assert importers == []


def test_cli_import_adds_no_slow_module():
    # the set difference, so that a numpy that imports these modules itself does not count
    child = (
        "import sys\n"
        "import numpy, argparse, json\n"
        "before = set(sys.modules)\n"
        "import torustrace.cli\n"
        f"print(sorted({SLOW_MODULES!r} & (set(sys.modules) - before)))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True, text=True, check=True,
                         timeout=60).stdout
    assert out == "[]\n"
