"""The process entry path: ``entrypoint()`` against an in-process ``main()``.

``entrypoint()`` (the console script and ``python -m torustrace.cli``) runs
``main``, flushes stdout and stderr and leaves with ``os._exit``: no module
teardown and no exit-time collection.  So what ``main`` wrote must reach the
pipes through that flush, every file it wrote must be closed when it
returns, a reader that closed stdout early gets one error line and exit 1,
and an exception escaping ``main`` still gives a traceback and exit 1.  A
command run as a fresh process must print, exit and write files exactly as
the same command run through ``main`` does.
"""

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

# Imported by the child at start-up.  When entrypoint() is entered it swaps the
# main that entrypoint calls for the stub that $STUB names.
SITECUSTOMIZE = '''
import os, sys

def partial(argv=None):
    sys.stdout.write("out, no newline")
    sys.stderr.write("err, no newline")
    return 3

def raises(argv=None):
    raise RuntimeError("from main")

def hook(frame, event, arg):
    code = frame.f_code
    if event == "call" and code.co_name == "entrypoint" and code.co_filename.endswith("cli.py"):
        sys.setprofile(None)
        frame.f_globals["main"] = {"partial": partial, "raises": raises}[os.environ["STUB"]]

sys.setprofile(hook)
'''


def child_env(*paths, **extra) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([*map(str, paths), SRC])
    env.pop("PYTHONUNBUFFERED", None)  # block-buffered pipes: only the flush writes them
    env.update(extra)
    return env


def console_script_target() -> tuple[str, str]:
    text = (ROOT / "pyproject.toml").read_text()
    return re.search(r'^torustrace = "([\w.]+):(\w+)"$', text, re.M).groups()


def entry_argv(how: str, *args) -> list[str]:
    if how == "module":
        return [sys.executable, "-m", "torustrace.cli", *args]
    module, func = console_script_target()  # what an installed console script runs
    return [sys.executable, "-c", f"import sys; from {module} import {func}; sys.exit({func}())", *args]


def readme_commands() -> list[list[str]]:
    """Every command of README's "Command line" block, as argv after ``torustrace``."""
    text = (ROOT / "README.md").read_text()
    block = re.search(r"^## Command line\n.*?^```sh\n(.*?)^```", text, re.M | re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("torustrace ")]


README_COMMANDS = readme_commands()


@pytest.mark.parametrize("how", ["module", "console-script"])
class TestExitPath:
    def run_stub(self, tmp_path, how, stub):
        (tmp_path / "sitecustomize.py").write_text(SITECUSTOMIZE)
        return subprocess.run(entry_argv(how, "--help"), capture_output=True, text=True,
                              env=child_env(tmp_path, STUB=stub), cwd=tmp_path, timeout=60)

    def test_partial_lines_are_flushed_with_mains_code(self, tmp_path, how):
        proc = self.run_stub(tmp_path, how, "partial")
        assert (proc.returncode, proc.stdout, proc.stderr) == (3, "out, no newline", "err, no newline")

    def test_exception_from_main_gives_a_traceback(self, tmp_path, how):
        proc = self.run_stub(tmp_path, how, "raises")
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith("Traceback (most recent call last):")
        assert proc.stderr.endswith("RuntimeError: from main\n")


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [
    ["heat-trace", "--group", "torus", "--dim", "1", "--t", "1", "--cutoff", "6"],
    # a report of about 115 KB, more than any pipe buffer
    ["spectrum", "--symbol", "modulated", "--c", "2", "--m", "-4", "--dim", "2", "--radius", "31"],
    # argparse's help, which argparse itself writes without raising the OSError
    ["--help"],
], ids=["small", "large", "help"])
def test_closed_stdout_is_one_error_line(argv, unbuffered, tmp_path):
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the child writes
    env = child_env(**({"PYTHONUNBUFFERED": "1"} if unbuffered else {}))
    try:
        proc = subprocess.run(entry_argv("module", *argv), stdout=write_end, stderr=subprocess.PIPE,
                              text=True, env=env, cwd=tmp_path, timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == "error: cannot write the report to stdout: [Errno 32] Broken pipe\n"


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
@pytest.mark.parametrize("argv", README_COMMANDS, ids=" ".join)
def test_main_leaves_no_file_open(argv, tmp_path, monkeypatch, capsys):
    # os._exit closes nothing, so every file a command writes must be closed by then
    monkeypatch.chdir(tmp_path)
    before = sorted(os.listdir("/proc/self/fd"))
    assert main(argv + ["--output", "report.json"]) == 0
    assert sorted(os.listdir("/proc/self/fd")) == before
    assert (tmp_path / "report.json").stat().st_size > 0
    capsys.readouterr()


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


def test_refused_eigenpair_is_one_stderr_line(tmp_path):
    # dgeev's eigenvector for a block of this operator has subnormal entries, so its
    # residual column is scaled by a subnormal power of two; the pair's residual is
    # |lambda|, refused with exit 3.  numpy's RuntimeWarnings, which pytest would
    # capture in-process, once wrote two more lines here.
    argv = ["spectrum", "--symbol", "modulated", "--g", "gaussian", "--t", "0.3", "--c", "2", "--radius", "64"]
    proc = subprocess.run(entry_argv("module", *argv), capture_output=True, text=True, env=child_env(),
                          cwd=tmp_path, timeout=60)
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == ("numerical failure: eigenpair 0 residual 2.412e+00 exceeds "
                           "1.0e-09 * ||A|| = 2.423e-09\n")
