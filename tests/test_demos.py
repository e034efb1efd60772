"""Every script in ``demos/`` runs to completion in a fresh interpreter.

A demo passes when it exits 0 and writes nothing to stderr, with
``RuntimeWarning`` and ``DeprecationWarning`` raised as errors, so a warning
the library lets through fails its row as a traceback would.
"""

from pathlib import Path

import pytest

from conftest import run_fresh

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS, "no demos/*.py next to tests/"


@pytest.mark.parametrize("demo", DEMOS, ids=[path.stem for path in DEMOS])
def test_demo_runs_cleanly(demo):
    result = run_fresh("-W", "error::RuntimeWarning", "-W", "error::DeprecationWarning", str(demo), timeout=120)
    assert (result.returncode, result.stderr) == (0, ""), result.stderr
