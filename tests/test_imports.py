"""Static guards on the package source, read with :mod:`ast`.

Every module-level import of a ``src/csaop`` module is used in that module
(``__init__.py``, which re-exports, and ``__future__`` imports are exempt),
and ``csaop.__all__`` lists exactly the public names ``__init__.py``
imports, sorted and once each. A deletion then cannot leave a stale import
or a dangling export behind. ``import csaop`` loads no thread pool: the scan
imports it when it first splits a block across threads.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import csaop

SRC = Path(csaop.__file__).parent
MODULES = sorted(path for path in SRC.glob("*.py") if path.name != "__init__.py")


def _imported_names(tree: ast.Module) -> list[str]:
    """Names bound by the module-level imports of ``tree``."""
    names = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            names += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [alias.asname or alias.name for alias in node.names]
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_module_imports(path):
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert [name for name in _imported_names(tree) if name not in used] == []


def test_all_is_sorted_unique_and_matches_the_imports():
    tree = ast.parse((SRC / "__init__.py").read_text())
    (exported,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["__all__"]
    ]
    public = {name for name in _imported_names(tree) if not name.startswith("_")}
    assert exported == sorted(set(exported))
    assert set(exported) == public


def test_import_loads_no_thread_pool():
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    code = "import sys, csaop; print('concurrent.futures' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, check=True
    )
    assert result.stdout == "False\n"
