"""Start-up cost guards: what ``import torustrace.cli`` and a command bring in.

Every command is one short process that pays the package import, so the
package defines its records as plain classes: ``@dataclass`` generates and
``exec``-compiles their methods at every import, and importing ``dataclasses``
(which imports ``copy``, ``inspect`` and more) costs on top of that.  ``datetime``
is imported only inside the function that renders a ``SOURCE_DATE_EPOCH``
timestamp.  A well-formed command line is read without argparse, which imports
``gettext`` (and, at its first message lookup, ``locale``), so neither the
import nor such a command imports any of the three; help, usage and errors
still go to argparse.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import torustrace
from test_reachability import package_trees

SRC = str(Path(torustrace.__file__).resolve().parents[1])
SLOW_MODULES = {"dataclasses", "copy", "datetime"}
ARGPARSE_MODULES = {"argparse", "gettext", "locale"}
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])),
           COLUMNS="80")  # argparse wraps usage to the terminal width


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


def test_datetime_is_imported_only_for_the_timestamp():
    # numpy imports datetime itself, so the import check below cannot see this one
    importers = [module for module, tree in package_trees().items()
                 if any(isinstance(node, (ast.Import, ast.ImportFrom)) and "datetime" in imported_modules(node)
                        for node in tree.body)]
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
    out = subprocess.run([sys.executable, "-c", child], env=ENV, capture_output=True, text=True, check=True,
                         timeout=60).stdout
    assert out == "[]\n"


def test_well_formed_command_imports_no_argparse():
    child = (
        "import contextlib, io, sys\n"
        "import numpy, json\n"
        "before = set(sys.modules)\n"
        "import torustrace.cli\n"
        f"print(sorted({ARGPARSE_MODULES!r} & (set(sys.modules) - before)))\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = torustrace.cli.main(['heat-trace', '--group', 'torus', '--t', '1', '--cutoff', '6'])\n"
        f"print(code, sorted({ARGPARSE_MODULES!r} & (set(sys.modules) - before)))\n"
    )
    out = subprocess.run([sys.executable, "-c", child], env=ENV, capture_output=True, text=True, check=True,
                         timeout=60).stdout
    assert out == "[]\n0 []\n"


@pytest.mark.parametrize("argv, err", [
    (["trace", "--symbol", "bessel", "--m", "-4", "--radius", "4", "--no-such-flag"],
     "usage: torustrace trace [-h] [--symbol {bessel,heat,modulated,character}]\n"
     "                        [--symbol-file SYMBOL_FILE] [--m M] [--t T] [--c C]\n"
     "                        [--g {bracket,gaussian}] [--dim {1,2}] --radius RADIUS\n"
     "                        [--order-hint ORDER_HINT] [--certify-w CERTIFY_W]\n"
     "                        [--format {json,csv}] [--output OUTPUT]\n"
     "torustrace trace: error: unrecognized arguments: --no-such-flag\n"),
    (["heat-trace", "--group", "torus", "--t", "0", "--cutoff", "3"],
     "usage: torustrace heat-trace [-h] --group {torus,su2} [--dim {1,2}] --t T\n"
     "                             --cutoff CUTOFF [--integer-spins]\n"
     "                             [--format {json,csv}] [--output OUTPUT]\n"
     "torustrace heat-trace: error: argument --t: '0' is not a finite number > 0; "
     "pass a finite number > 0\n"),
], ids=["unknown-flag", "value-out-of-range"])
def test_malformed_flag_still_exits_2_with_the_usage(argv, err):
    run = subprocess.run([sys.executable, "-m", "torustrace.cli", *argv], env=ENV, capture_output=True,
                         text=True, timeout=60)
    assert (run.returncode, run.stdout, run.stderr) == (2, "", err)
