"""``cli.main`` builds only the invoked subcommand's parser.

``build_parser(command)`` must parse, refuse and print exactly like the full
``build_parser()``: equal namespaces, or the same exit code with the same
stdout and stderr bytes (help, usage, errors).
"""

import argparse
import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torustrace.cli import HANDLERS, build_parser, main


def _subparsers(parser: argparse.ArgumentParser) -> dict:
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


SUBPARSERS = _subparsers(build_parser())
OPTIONS = {
    name: sorted(opt for action in sub._actions for opt in action.option_strings)
    for name, sub in SUBPARSERS.items()
}
# a valid value for every required flag, so that drawn argv also reach the top-level
# "unrecognized arguments" error, which prints the top-level usage
REQUIRED = {
    name: [tok for action in sub._actions if action.required
           for tok in (action.option_strings[0], str((action.choices or ["1"])[0]))]
    for name, sub in SUBPARSERS.items()
}
VALUES = ["1", "-1", "0", "nan", "inf", "-inf", "x", "4,8", "2.5", "torus", "su2", "bessel",
          "heat", "t1", "tt1", "csv", "json", "abs", "bracket", "--"]


def outcome(parser: argparse.ArgumentParser, argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            parsed, code = vars(parser.parse_args(argv)), None
        except SystemExit as exc:
            parsed, code = None, exc.code
    return parsed, code, out.getvalue(), err.getvalue()


def test_every_command_has_a_handler_and_a_subparser():
    assert list(OPTIONS) == list(HANDLERS)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), command=st.sampled_from(list(HANDLERS)))
def test_partial_parser_equals_full_parser(data, command):
    required = REQUIRED[command] if data.draw(st.booleans()) else []
    tokens = data.draw(
        st.lists(st.sampled_from(OPTIONS[command]) | st.sampled_from(VALUES), max_size=10)
    )
    argv = [command, *required, *tokens]
    assert outcome(build_parser(command), argv) == outcome(build_parser(), argv)


@pytest.mark.parametrize("command", list(HANDLERS))
def test_subcommand_help_and_top_level_usage_match(command):
    partial, full = build_parser(command), build_parser()
    assert partial.format_usage() == full.format_usage()
    for flag in ("--help", "-h"):
        got = outcome(partial, [command, flag])
        assert got == outcome(full, [command, flag])
        assert got[1] == 0 and got[2].startswith(f"usage: torustrace {command} ")


@pytest.mark.parametrize("argv", [["--help"], ["-h"], [], ["tracee"], ["--he"], ["--", "trace"]])
def test_top_level_paths_use_the_full_parser(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    _, want_code, want_out, want_err = outcome(build_parser(), argv)
    assert (code, captured.out, captured.err) == (want_code or 0, want_out, want_err)


class TestBuildsOneSubparser:
    """A tripwire on ``add_parser``: a known command registers its subparser only."""

    @pytest.fixture
    def registered(self, monkeypatch):
        names = []
        add_parser = argparse._SubParsersAction.add_parser

        def counting(self, name, **kwargs):
            names.append(name)
            return add_parser(self, name, **kwargs)

        monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting)
        return names

    def test_run_registers_one(self, capsys, registered):
        assert main(["heat-trace", "--group", "torus", "--t", "1", "--cutoff", "2"]) == 0
        assert registered == ["heat-trace"]

    @pytest.mark.parametrize("command", list(HANDLERS))
    def test_help_and_errors_register_one(self, capsys, registered, command):
        assert main([command, "--help"]) == 0
        assert main([command, "--no-such-flag"]) == 2
        assert registered == [command, command]

    @pytest.mark.parametrize("argv", [["--help"], [], ["tracee"]])
    def test_unknown_first_token_registers_all(self, capsys, registered, argv):
        main(argv)
        assert registered == list(HANDLERS)
