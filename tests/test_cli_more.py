"""Remaining CLI surface (table1 columns, argument handling)."""

import pytest

from repro.cli import main


def test_datasets_command(capsys):
    """The former ``datasets`` command is gone; ``table1`` prints its
    ``kind`` and ``paper removed%`` columns."""
    with pytest.raises(SystemExit) as exc:
        main(["datasets", "--scale", "0.012"])
    assert exc.value.code == 2
    assert "invalid choice: 'datasets'" in capsys.readouterr().err
    assert main(["table1", "--scale", "0.012", "--datasets", "nopoly", "c-50"]) == 0
    out = capsys.readouterr().out
    assert "nopoly" in out and "c-50" in out
    assert "kind" in out and "general" in out and "paper removed%" in out
    assert "reduced MB" in out


def test_unknown_command_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_table1_subset(capsys):
    assert main(["table1", "--scale", "0.012", "--datasets", "Planar_1"]) == 0
    out = capsys.readouterr().out
    assert "Planar_1" in out
    assert "nopoly" not in out
