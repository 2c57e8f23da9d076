"""``python -m repro``: every sub-command in the dispatch table answers --help,
and a sweep whose reader leaves early still stores its records."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.__main__ import COMMANDS, main
from repro.runner import ResultStore, RunSpec
from repro.runner.tasks import get_figure

SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_every_command_answers_help(command, capsys):
    try:
        code = main([*command.split(), "--help"])
    except SystemExit as exc:
        code = exc.code
    assert code == 0
    assert "usage" in capsys.readouterr().out.lower()



def test_a_reader_that_leaves_early_ends_the_sweep_quietly(tmp_path):
    """``sweep --figure … | head -1``: stdout is a pipe nobody reads any more.
    The sweep still stores every record, then exits 1 without a traceback."""

    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the first line
    try:
        done = subprocess.run(
            [sys.executable, "-m", "repro", "sweep", "--figure", "table1", "--quick",
             "--results-dir", str(tmp_path)],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=300,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
        )
    finally:
        os.close(write_end)
    assert done.returncode == 1, done.stderr
    assert "Traceback" not in done.stderr and "BrokenPipeError" not in done.stderr
    figure = get_figure("table1")
    cells = figure.cells(figure.make_config(quick=True))
    stored = {record["spec_hash"] for record in ResultStore(tmp_path).records() if record.ok}
    assert stored == {RunSpec(task=figure.task, params=params).spec_hash for params in cells}
