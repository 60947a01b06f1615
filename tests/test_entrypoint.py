"""The process entry path: ``entrypoint()`` against an in-process ``main()``.

``entrypoint()`` (the console script and ``python -m torustrace.cli``) freezes
the import-time heap before ``main`` runs; ``main`` itself freezes nothing.
A command run as a fresh process must print, exit and write files exactly as
the same command run through ``main`` does.
"""

import gc
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import torustrace
from torustrace.cli import main

ROOT = Path(__file__).resolve().parents[1]
SRC = str(Path(torustrace.__file__).resolve().parents[1])

# Imported by the child at start-up.  When entrypoint() is entered it prints the
# freeze count there and swaps the main that entrypoint calls for a stub that
# prints the freeze count main would see.
SITECUSTOMIZE = '''
import gc, sys

def stub(argv=None):
    print("main", gc.get_freeze_count() > 0)
    return 0

def hook(frame, event, arg):
    code = frame.f_code
    if event == "call" and code.co_name == "entrypoint" and code.co_filename.endswith("cli.py"):
        sys.setprofile(None)
        print("entrypoint", gc.get_freeze_count() > 0)
        frame.f_globals["main"] = stub

sys.setprofile(hook)
'''


def child_env(*paths) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([*map(str, paths), SRC])
    return env


def console_script_target() -> tuple[str, str]:
    text = (ROOT / "pyproject.toml").read_text()
    return re.search(r'^torustrace = "([\w.]+):(\w+)"$', text, re.M).groups()


def readme_commands() -> list[list[str]]:
    """Every command of README's "Command line" block, as argv after ``torustrace``."""
    text = (ROOT / "README.md").read_text()
    block = re.search(r"^## Command line\n.*?^```sh\n(.*?)^```", text, re.M | re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("torustrace ")]


README_COMMANDS = readme_commands()


class TestFreeze:
    @pytest.mark.parametrize("how", ["module", "console-script"])
    def test_entrypoint_freezes_before_main(self, tmp_path, how):
        (tmp_path / "sitecustomize.py").write_text(SITECUSTOMIZE)
        if how == "module":
            argv = [sys.executable, "-m", "torustrace.cli", "--help"]
        else:  # what an installed console script runs
            module, func = console_script_target()
            argv = [sys.executable, "-c",
                    f"import sys; from {module} import {func}; sys.exit({func}())", "--help"]
        proc = subprocess.run(argv, capture_output=True, text=True, env=child_env(tmp_path),
                              cwd=tmp_path, timeout=60)
        assert (proc.returncode, proc.stderr) == (0, "")
        # nothing is frozen at import, everything is by the time main runs
        assert proc.stdout == "entrypoint False\nmain True\n"

    def test_main_in_process_freezes_nothing(self, capsys):
        before = gc.get_freeze_count()
        assert main(["heat-trace", "--group", "torus", "--t", "1", "--cutoff", "4"]) == 0
        assert main(["trace", "--symbol", "bessel", "--m", "-4", "--radius", "4", "--bad"]) == 2
        capsys.readouterr()
        assert gc.get_freeze_count() == before


def in_both(argv, tmp_path, monkeypatch, capsys):
    """Run argv as a fresh process and through main, each in its own directory."""
    spawned, called = tmp_path / "process", tmp_path / "main"
    spawned.mkdir()
    called.mkdir()
    proc = subprocess.run([sys.executable, "-m", "torustrace.cli", *argv], capture_output=True,
                          env=child_env(), cwd=spawned, timeout=60)
    monkeypatch.chdir(called)
    code = main(argv)
    captured = capsys.readouterr()
    assert proc.returncode == code
    assert proc.stdout.decode() == captured.out
    assert proc.stderr.decode() == captured.err
    return spawned, called


def test_readme_block_found():
    assert len(README_COMMANDS) >= 10
    assert {argv[0] for argv in README_COMMANDS} >= {"trace", "spectrum", "heat-trace"}


@pytest.mark.parametrize("argv", README_COMMANDS, ids=" ".join)
def test_readme_command_process_equals_main(argv, tmp_path, monkeypatch, capsys):
    spawned, called = in_both(argv, tmp_path, monkeypatch, capsys)
    written = sorted(p.name for p in spawned.iterdir())
    assert written == sorted(p.name for p in called.iterdir())
    for name in written:  # spectrum --matrix-csv
        assert (spawned / name).read_bytes() == (called / name).read_bytes()


@pytest.mark.parametrize("command", ["trace", "spectrum", "heat-trace"])
def test_output_file_process_equals_main(command, tmp_path, monkeypatch, capsys):
    argv = next(argv for argv in README_COMMANDS if argv[0] == command) + ["--output", "report.json"]
    spawned, called = in_both(argv, tmp_path, monkeypatch, capsys)
    assert (spawned / "report.json").read_bytes() == (called / "report.json").read_bytes()
    assert (spawned / "report.json").stat().st_size > 0
