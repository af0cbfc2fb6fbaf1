"""Every third-party module the package imports is a declared dependency.

A fresh ``pip install ".[test]"`` installs only what ``pyproject.toml``
lists, so an import of anything else passes locally (where the module
happens to be installed) and fails at collection on a clean runner.
This walks ``src/repro`` with :mod:`ast` and checks every absolute
import's top-level module against the standard library and the declared
``dependencies``.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

if not hasattr(sys, "stdlib_module_names"):
    pytest.skip("needs sys.stdlib_module_names (Python 3.10+)", allow_module_level=True)
tomllib = pytest.importorskip("tomllib")


def _declared() -> set:
    with open(ROOT / "pyproject.toml", "rb") as f:
        requirements = tomllib.load(f)["project"]["dependencies"]
    # "networkx>=2.6" -> "networkx"; distribution names normalise "-" to "_".
    return {
        re.match(r"[A-Za-z0-9_.-]+", req).group().lower().replace("-", "_")
        for req in requirements
    }


def _third_party_imports() -> dict:
    """Top-level module name -> the files importing it, outside stdlib."""
    found: dict = {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top != "repro" and top not in sys.stdlib_module_names:
                    found.setdefault(top, []).append(str(path.relative_to(ROOT)))
    return found


def test_every_third_party_import_is_declared():
    declared = _declared()
    undeclared = {
        module: files
        for module, files in _third_party_imports().items()
        if module.lower() not in declared
    }
    assert not undeclared, f"imported but not in pyproject dependencies: {undeclared}"


def test_the_guard_sees_the_declared_dependency():
    # The walk must find the real dependencies, or it checks nothing;
    # numpy is imported only inside the phase kernels' function bodies.
    found = _third_party_imports()
    assert "networkx" in found
    assert "numpy" in found
