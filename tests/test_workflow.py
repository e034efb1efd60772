"""Guards on the CI workflow, read as text next to ``pyproject.toml``.

CI runs the whole tier-1 suite on every leg, so the workflow names no test
file and runs no demo itself (each demo is a tier-1 row). Its one extra
leg runs on the oldest Python ``requires-python`` allows, with every
dependency pinned to the lower bound ``pyproject.toml`` declares.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
PYPROJECT = (ROOT / "pyproject.toml").read_text(encoding="utf-8")


def _lower_bounds() -> dict[str, str]:
    """``{name: version}`` for each ``name>=version`` of ``dependencies``."""
    (listed,) = re.findall(r"^dependencies = \[(.*?)\]", PYPROJECT, re.MULTILINE | re.DOTALL)
    return dict(re.findall(r'"([A-Za-z0-9_.-]+)\s*>=\s*([^",;\s]+)"', listed))


def _oldest_leg() -> tuple[str, dict[str, str]]:
    """The Python version and the ``{name: version}`` pins of the matrix's
    one ``include`` leg."""
    ((python, pins),) = re.findall(r'^\s*- python-version: "([^"]+)"\n\s*pins: (.*)$', WORKFLOW, re.MULTILINE)
    return python, dict(re.findall(r"([A-Za-z0-9_.-]+)==([^\"'\s]+)", pins))


def test_names_no_test_file():
    assert re.findall(r"test_\w*\.py", WORKFLOW) == []


def test_runs_no_demo_itself():
    assert "demos/" not in WORKFLOW


def test_oldest_leg_pins_the_declared_lower_bounds():
    python, pins = _oldest_leg()
    bounds = _lower_bounds()
    assert bounds and set(pins) == set(bounds)
    for name, bound in bounds.items():
        # numpy==2.2.* takes the newest 2.2.x, which still satisfies >=2.2
        assert pins[name] in (bound, bound + ".*"), name
    assert re.search(rf'^requires-python = ">={re.escape(python)}"$', PYPROJECT, re.MULTILINE)


def test_every_leg_runs_the_same_steps():
    assert re.search(r"^\s*if:", WORKFLOW, re.MULTILINE) is None
