"""``cli.main`` reads a well-formed command line without argparse.

``read_argv`` takes only plain command lines.  It must never take a line that
argparse (``build_parser()``) refuses, nor read one differently: it returns
None, or the namespace argparse gives.  Every README, CI smoke and benchmark
command is taken by it, so the fast path cannot go dead unnoticed; every other
line (help, usage, errors) goes to argparse, whose bytes are those it prints.
"""

import argparse
import contextlib
import importlib
import io
import re
import shlex
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from torustrace.cli import FLAGS, HANDLERS, build_parser, main, read_argv

ROOT = Path(__file__).resolve().parents[1]
PARSER = build_parser()
(SUBPARSERS,) = [a.choices for a in PARSER._actions if isinstance(a, argparse._SubParsersAction)]
OPTIONS = {
    name: sorted(opt for action in sub._actions for opt in action.option_strings)
    for name, sub in SUBPARSERS.items()
}
VALUES = ["1", "-1", "0", "8", "nan", "inf", "-inf", "x", "4,8", "2.5", "torus", "su2", "bessel",
          "heat", "t1", "tt1", "csv", "json", "abs", "bracket", "--", "", "-", "-h", "--help",
          "-1,0", "-.5", "-1e1", "- 1", "1e400", "9" * 30, "a=b", "=", "1,,2", " 2"]


def outcome(parser: argparse.ArgumentParser, argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            parsed, code = vars(parser.parse_args(argv)), None
        except SystemExit as exc:
            parsed, code = None, exc.code
    return parsed, code, out.getvalue(), err.getvalue()


def test_every_command_has_a_handler_and_a_subparser():
    assert list(OPTIONS) == list(HANDLERS) == list(FLAGS)


def test_table_uses_only_the_keywords_the_reader_reads():
    for name, flags in FLAGS.items():
        for flag, spec in flags.items():
            assert set(spec) <= {"type", "choices", "required", "default", "action", "help"}, flag
            assert spec.get("action", "store_true") == "store_true", flag
            # no option string is spelled like a number, and argparse derives the reader's dest
            assert flag.startswith("--") and "=" not in flag, flag
            assert SUBPARSERS[name]._option_string_actions[flag].dest == flag[2:].replace("-", "_")


def _passes(spec: dict, value: str) -> bool:
    try:
        value = spec.get("type", str)(value)
    except Exception:
        return False
    return value in spec.get("choices", [value])


# a valid value for every required flag, so that drawn argv also reach the reader's
# defaults and the top-level "unrecognized arguments" error
REQUIRED = {
    name: [tok for flag, spec in flags.items() if spec.get("required")
           for tok in (flag, next(value for value in VALUES if _passes(spec, value)))]
    for name, flags in FLAGS.items()
}
# per command, each flag with each of VALUES its type and choices pass (a store_true flag bare),
# from which about two in five drawn lines are ones the reader takes
PLAIN = {
    name: [(flag,) if "action" in spec else (flag, value) for flag, spec in flags.items()
           for value in (VALUES if "action" not in spec else [None]) if value is None or _passes(spec, value)]
    for name, flags in FLAGS.items()
}


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(list(HANDLERS)))
    option, value = st.sampled_from(OPTIONS[command]), st.sampled_from(VALUES)
    plain = st.sampled_from(PLAIN[command]).flatmap(lambda pair: st.sampled_from([pair, ("=".join(pair),)]))
    token = plain if (clean := draw(st.booleans())) else st.one_of(
        plain,
        st.tuples(option, value),  # --flag value
        st.builds(lambda o, v: (f"{o}={v}",), option, value),
        st.tuples(option | value),
    )
    required = REQUIRED[command] if clean or draw(st.booleans()) else []
    return [command, *required, *(tok for group in draw(st.lists(token, max_size=8)) for tok in group)]


@settings(max_examples=600, deadline=None)
# argparse 3.11 parses the value "--" of --output=-- as []
@example(argv=["heat-trace", "--group", "torus", "--t", "1", "--cutoff", "6", "--output=--"])
@given(argv=command_lines())
def test_reader_agrees_with_argparse(argv):
    args = read_argv(argv)
    if args is not None:
        parsed, code, _, err = outcome(PARSER, argv)
        assert code is None, err
        assert vars(args) == parsed


def _shell_command_lines(text: str) -> list[list[str]]:
    """The argv of every ``torustrace`` (or ``-m torustrace.cli``) invocation in a
    shell script, with ``$name`` expanded from the ``for name in ...`` loop or the
    ``name="..."`` assignment before it and the redirections cut off."""
    values: dict[str, list[str]] = {}
    found = []

    def expand(text: str) -> list[str]:
        for name, options in values.items():  # the scripts name one variable a line
            if f"${name}" in text:
                return [text.replace(f"${name}", option) for option in options]
        return [text]

    for line in text.replace("\\\n", " ").splitlines():
        line = line.strip()
        if m := re.match(r"(?:for (\w+) in (.*); do|(\w+)=(\"[^\"]*\")$)", line):
            name, items = (m[1], m[2]) if m[1] else (m[3], m[4])
            values[name] = [item for raw in shlex.split(items) for item in expand(raw)]
        elif m := re.match(r"(?:\{ )?(?:\w+=\S* )?(?:timeout \d+ )?"
                           r"(?:torustrace|python3? (?:-X \w+ )?-m torustrace\.cli) (.*)", line):
            for command in expand(m[1]):
                tokens = shlex.split(command)
                cut = [i for i, tok in enumerate(tokens) if tok in {">", "2>", "|", "||", "&&", "}"}]
                found.append(tokens[:cut[0]] if cut else tokens)
    return found


def _readme_command_lines() -> list[list[str]]:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return _shell_command_lines("\n".join(re.findall(r"```sh\n(.*?)```", text, re.S)))


README = _readme_command_lines()
CI = _shell_command_lines((ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8"))


def test_the_command_lines_are_found():
    assert len(README) >= 13 and len(CI) >= 70
    assert ["--help"] in CI and {argv[0] for argv in README} == set(HANDLERS)


@pytest.mark.parametrize("argv", README)
def test_readme_commands_take_the_reader(argv):
    args = read_argv(argv)
    assert args is not None and vars(args) == outcome(PARSER, argv)[0]


@pytest.mark.parametrize("argv", CI)
def test_ci_commands_take_the_reader_unless_argparse_refuses_them(argv):
    # the smoke steps also run --help and lines that exit 2 with the usage
    parsed, code, _, _ = outcome(PARSER, argv)
    args = read_argv(argv)
    assert (args is None) == (code is not None)
    assert args is None or vars(args) == parsed


@pytest.mark.parametrize("workload", ["operator-spectra", "dyadic-norms", "dual-series"])
def test_benchmark_commands_take_the_reader(monkeypatch, tmp_path, workload):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    commands, _ = importlib.import_module("workloads").build(workload, 1, tmp_path)
    for command in commands:
        args = read_argv(list(command.argv))
        assert args is not None and vars(args) == outcome(PARSER, list(command.argv))[0], command.name


@pytest.mark.parametrize("command", list(HANDLERS))
def test_subcommand_help_and_top_level_usage_match(capsys, command):
    """Help goes to argparse: the command's help, and the top-level usage that
    names every command, are argparse's bytes."""
    for flag in ("--help", "-h"):
        assert main([command, flag]) == 0
        got = capsys.readouterr()
        assert (0, got.out, got.err) == outcome(PARSER, [command, flag])[1:]
        assert got.out.startswith(f"usage: torustrace {command} ")
    assert main([]) == 2
    assert capsys.readouterr().err.startswith(PARSER.format_usage())
    assert command in PARSER.format_usage()


@pytest.mark.parametrize("argv", [["--help"], ["-h"], [], ["tracee"], ["--he"], ["--", "trace"]])
def test_top_level_paths_use_the_full_parser(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    _, want_code, want_out, want_err = outcome(build_parser(), argv)
    assert (code, captured.out, captured.err) == (want_code or 0, want_out, want_err)


class TestSubparserTripwire:
    """A tripwire on ``add_parser``: a well-formed run builds no parser, and help
    and errors build the full one."""

    @pytest.fixture
    def registered(self, monkeypatch):
        names = []
        add_parser = argparse._SubParsersAction.add_parser

        def counting(self, name, **kwargs):
            names.append(name)
            return add_parser(self, name, **kwargs)

        monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting)
        return names

    def test_run_registers_none(self, capsys, registered):
        assert main(["heat-trace", "--group", "torus", "--t", "1", "--cutoff", "2"]) == 0
        assert registered == []

    @pytest.mark.parametrize("command", list(HANDLERS))
    def test_help_and_errors_register_all(self, capsys, registered, command):
        assert main([command, "--help"]) == 0
        assert main([command, "--no-such-flag"]) == 2
        assert registered == list(HANDLERS) * 2

    @pytest.mark.parametrize("argv", [["--help"], [], ["tracee"]])
    def test_unknown_first_token_registers_all(self, capsys, registered, argv):
        main(argv)
        assert registered == list(HANDLERS)


@pytest.mark.parametrize("command, flag", [(name, flag) for name, flags in FLAGS.items()
                                           for flag, spec in flags.items() if "action" not in spec])
def test_a_flag_whose_value_is_the_separator_is_refused(capsys, command, flag):
    # argparse reads --flag=-- as an empty list: once a TypeError traceback, or the
    # flag ignored; now exit 2 with the command's usage
    code = main([command, *REQUIRED[command], f"{flag}=--"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith(f"usage: torustrace {command} ")
    assert err.endswith(f"torustrace {command}: error: argument {flag}: expected one argument\n")
