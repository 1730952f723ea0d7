"""README's CLI block is the CLI: every command in it parses, and its gen,
run and verify lines run as written with the exit code README states."""

import argparse
import re
import shlex
from pathlib import Path

import pytest

from relaymatch import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def cli_commands() -> list:
    """The argv of each command in README's CLI block, continuation lines
    joined and comments dropped."""
    block = re.search(r"^## CLI\n\n```sh\n(.*?)^```", README, re.S | re.M).group(1)
    return [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()
            if line.strip() and not line.lstrip().startswith("#")]


def flags(parser) -> set:
    """Every option string of `parser` and its subcommands."""
    out = set()
    for action in parser._actions:
        out.update(action.option_strings)
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                out |= flags(sub)
    return out


def test_every_command_in_the_cli_block_parses():
    commands = cli_commands()
    assert {argv[1] for argv in commands} >= {"gen", "run", "verify", "oracle",
                                              "ensemble"}
    known = flags(cli.build_parser())
    for argv in commands:
        assert argv[0] == "relaymatch"
        try:
            cli.build_parser().parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {shlex.join(argv)}")
        # argparse also takes a prefix of a flag, so a flag renamed to one
        # of its prefixes still parses
        assert {a for a in argv if a.startswith("--")} <= known, shlex.join(argv)


def test_gen_run_and_verify_run_as_written(tmp_path, monkeypatch, capsys):
    assert "Exit codes: 0 on success" in README
    monkeypatch.chdir(tmp_path)
    ran = []
    for argv in cli_commands():
        if argv[1] in ("gen", "run", "verify"):
            assert cli.main(argv[1:]) == 0, capsys.readouterr().err
            ran.append(argv[1])
    assert ran == ["gen", "run", "verify"]
    assert capsys.readouterr().out.splitlines()[-2] == "stable"
