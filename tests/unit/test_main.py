"""``python -m repro``: every sub-command in the dispatch table answers --help."""

import pytest

from repro.__main__ import COMMANDS, main


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_every_command_answers_help(command, capsys):
    try:
        code = main([*command.split(), "--help"])
    except SystemExit as exc:
        code = exc.code
    assert code == 0
    assert "usage" in capsys.readouterr().out.lower()
