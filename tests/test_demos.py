"""Every script in demos/ runs to the end against the package the suite imports.

The demos print tables built from the named equality functions, the bounds
and the campaigns, so a change to any of them that breaks a demo shows up
here. Each runs in process as __main__; its output is captured, not checked.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_there_are_demos():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs_to_the_end(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out
