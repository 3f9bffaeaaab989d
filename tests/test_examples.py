"""Every example script must run to completion (they self-assert)."""

import pathlib
import runpy
import sys

import pytest

EXAMPLES = sorted(
    (pathlib.Path(__file__).parent.parent / "examples").glob("*.py")
)

FAST = {"quickstart.py", "chemistry_rings.py", "electrical_network.py"}


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.name)
def test_example_runs(script, capsys, monkeypatch):
    if script.name not in FAST:
        pytest.skip("slow example: run by the 'Run every example' step of CI's qa job")
    monkeypatch.setattr(sys, "argv", [str(script)])
    runpy.run_path(str(script), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip()  # produced some report


def test_examples_exist():
    names = {p.name for p in EXAMPLES}
    assert {
        "quickstart.py",
        "road_network_routing.py",
        "chemistry_rings.py",
        "social_network_analysis.py",
        "heterogeneous_scheduling.py",
        "electrical_network.py",
    } <= names
